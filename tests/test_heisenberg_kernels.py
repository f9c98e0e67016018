"""The grid kernels of the graded product against slow loop oracles."""

import math
import warnings

import numpy as np
import pytest

from ncgauge import heisenberg
from ncgauge.heisenberg import (
    GridSpec,
    HeisenbergElement,
    TruncationWarning,
    _derivative,
    _pair_to_heis,
    _pair_to_torus,
    gaussian,
    left_act_torus,
    random_packet,
    right_act_torus,
    star_heis,
)
from ncgauge.quadfield import GOLDEN, SQRT2, ThetaContext
from ncgauge.torus import TorusElement

GRID = GridSpec()
CONTEXTS = {"golden": ThetaContext(GOLDEN), "sqrt2": ThetaContext(SQRT2)}


def pair_to_torus_loop(f, g):
    """P_{-m} x P_m -> A_theta as a triple loop (n2 x n1 x sector) with one
    trapezoid per term: the reference for `_pair_to_torus`."""
    ctx, grid = f.ctx, f.grid
    m = g.m
    p = ctx.power(m)
    pf = ctx.power(f.m)
    S = g.samples.shape[0]
    xs = grid.xs
    em = ctx.eps_pow_float(m)
    emf = ctx.eps_pow_float(f.m)
    scaled = xs / em
    b1 = grid.modes + 4
    n2_cap = 8 * grid.modes
    g_rows = [g.samples[(-p.a * k) % S] for k in range(S)]
    u_phase = [np.exp(-2j * np.pi * (scaled / emf - k / pf.c)) for k in range(S)]

    coeffs: dict = {}

    def do_row(n2: int) -> float:
        pts = scaled + n2 / pf.c
        t_scaled = [f.evaluate(pts, (k + n2 * pf.a) % S) for k in range(S)]
        row_max = 0.0
        for n1 in range(-b1, b1 + 1):
            reorder = np.exp(2j * np.pi * ((ctx.theta_float * n1 * n2) % 1.0))
            val = 0.0 + 0.0j
            for k in range(S):
                val += np.trapezoid(u_phase[k] ** n1 * t_scaled[k] * g_rows[k], xs)
            coeffs[(n1, n2)] = complex(reorder * val)
            row_max = max(row_max, abs(val))
        return row_max

    total_max = do_row(0)
    quiet = 0
    n2 = 0
    while n2 < n2_cap and quiet < 2:
        n2 += 1
        row = max(do_row(n2), do_row(-n2))
        total_max = max(total_max, row)
        if n2 >= grid.modes and row <= grid.tol * max(total_max, 1e-300):
            quiet += 1
        else:
            quiet = 0
    if quiet < 2 and total_max > 0:
        warnings.warn("V-mode cap hit", TruncationWarning, stacklevel=2)
    return TorusElement(ctx.theta_float, coeffs, tol=1e-9 * total_max)


def pair_to_heis_loop(f, g):
    """P_m x P_n -> P_{m+n} term by term, one read per factor, output sector
    and lattice point: the reference for `_pair_to_heis`.  Returns the
    samples and the largest term at an end of the window relative to the
    largest output value."""
    ctx, grid = f.ctx, f.grid
    m, n = f.m, g.m
    cm, cn, cmn = ctx.c(m), ctx.c(n), ctx.c(m + n)
    an = ctx.power(n).a
    em, en = ctx.eps_pow_float(m), ctx.eps_pow_float(n)
    Sf, Sg, S = abs(cm), abs(cn), abs(cmn)
    L, xs = grid.L, grid.xs
    W = min(max(Sf * L * (1.0 + 1.0 / en) / em, 1.0), max(Sg * 2.0 * L, 1.0),
            grid.J * max(Sf, Sg))
    out = np.zeros((S, grid.N), dtype=complex)
    edge = 0.0
    for k in range(S):
        lo, hi = math.ceil(-cm * k / cmn - W), math.floor(-cm * k / cmn + W)
        for i in range(lo, hi + 1):
            term = (f.evaluate(xs / en - em * (i / cm + k / cmn), (-i) % Sf)
                    * g.evaluate(xs + i / cn + cm * k / (cn * cmn), (k + an * i) % Sg))
            out[k] += term
            if i in (lo, hi):
                edge = max(edge, float(np.max(np.abs(term))))
    return out, edge / np.max(np.abs(out))


def right_act_torus_loop(f, b):
    """f . b with base**r per term and sector: the reference for
    `right_act_torus`."""
    ctx, grid, m = f.ctx, f.grid, f.m
    p = ctx.power(m)
    S = f.samples.shape[0]
    xs = grid.xs
    out = np.zeros_like(f.samples)
    for (r, s), coeff in b.coeffs.items():
        shift = s * ctx.eps_pow_float(m) / p.c
        for k in range(S):
            src = (k - s) % S
            vals = f.evaluate(xs - shift, src) if s != 0 else f.samples[src]
            base = np.exp(2j * np.pi * ((xs - shift) - ((k - s) * p.d) / p.c))
            out[k] += coeff * base**r * vals
    return out


def left_act_torus_loop(b, f):
    """b . f with base**r per term and sector: the reference for
    `left_act_torus`."""
    ctx, grid, m = f.ctx, f.grid, f.m
    p = ctx.power(m)
    S = f.samples.shape[0]
    xs = grid.xs
    em = ctx.eps_pow_float(m)
    out = np.zeros_like(f.samples)
    for (r, s), coeff in b.coeffs.items():
        for k in range(S):
            src = (k - s * p.a) % S
            vals = f.evaluate(xs - s / p.c, src) if s != 0 else f.samples[src]
            base = np.exp(2j * np.pi * (xs / em - k / p.c))
            out[k] += coeff * base**r * vals
    return out


def recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [w for w in caught if issubclass(w.category, TruncationWarning)]


class TestPairToTorus:
    # sectors |c_m|: golden 1, 3, 8 and sqrt2 2, 12, 70
    @pytest.mark.parametrize("name", sorted(CONTEXTS))
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_the_loop(self, name, m, sign):
        ctx = CONTEXTS[name]
        rng = np.random.default_rng(100 * m + sign)
        f = random_packet(ctx, GRID, -sign * m, rng)
        g = random_packet(ctx, GRID, sign * m, rng)
        new, new_warnings = recorded(_pair_to_torus, f, g)
        old, old_warnings = recorded(pair_to_torus_loop, f, g)
        assert len(new_warnings) == len(old_warnings)
        assert new.coeffs.keys() == old.coeffs.keys()
        scale = max(abs(v) for v in old.coeffs.values())
        for key, value in old.coeffs.items():
            assert abs(new.coeffs[key] - value) <= 1e-12 * scale, key

    # modes 1 and 2 start the stopping rule at other V powers, so that its
    # blocks of one or two pairs stop at other places
    @pytest.mark.parametrize("name", sorted(CONTEXTS))
    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("width", [None, 2.0], ids=["natural", "wide"])
    def test_matches_the_loop_on_other_boxes(self, name, modes, width):
        ctx, grid = CONTEXTS[name], GridSpec(modes=modes)
        rng = np.random.default_rng(modes)
        if width is None:
            f, g = random_packet(ctx, grid, 1, rng), random_packet(ctx, grid, -1, rng)
        else:
            # wide factors overlap for every translate: the cap binds and warns
            f, g = gaussian(ctx, grid, 1, width=width), gaussian(ctx, grid, -1, width=width)
        new, new_warnings = recorded(_pair_to_torus, f, g)
        old, old_warnings = recorded(pair_to_torus_loop, f, g)
        assert len(new_warnings) == len(old_warnings)
        assert new_warnings or width is None
        assert new.coeffs.keys() == old.coeffs.keys()
        scale = max(abs(v) for v in old.coeffs.values())
        for key, value in old.coeffs.items():
            assert abs(new.coeffs[key] - value) <= 1e-12 * scale, key

    @pytest.mark.parametrize("name", sorted(CONTEXTS))
    @pytest.mark.parametrize("m", [1, -1, 2])
    def test_reads_only_the_rows_the_loop_reads(self, name, m, monkeypatch):
        ctx = CONTEXTS[name]
        rng = np.random.default_rng(30 + m)
        f, g = random_packet(ctx, GRID, -m, rng), random_packet(ctx, GRID, m, rng)
        rows = []
        evaluate = HeisenbergElement.evaluate

        def counted(self, pts, sector):
            out = evaluate(self, pts, sector)
            rows.append(out.size // self.grid.N)
            return out

        monkeypatch.setattr(HeisenbergElement, "evaluate", counted)
        recorded(pair_to_torus_loop, f, g)
        loop_rows = sum(rows)
        rows.clear()
        recorded(_pair_to_torus, f, g)
        assert sum(rows) == loop_rows

    def test_v_mode_cap_warns(self):
        # wide factors overlap for every translate up to the cap 8 * modes
        ctx, grid = CONTEXTS["golden"], GridSpec(modes=1)
        f = gaussian(ctx, grid, -1, width=2.0)
        g = gaussian(ctx, grid, 1, width=2.0)
        with pytest.warns(TruncationWarning, match="V-mode cap 8"):
            _pair_to_torus(f, g)
        _, caught = recorded(
            _pair_to_torus, gaussian(ctx, grid, -1, width=1.0), gaussian(ctx, grid, 1, width=1.0)
        )
        assert caught == []


class TestPairToHeis:
    # off-center factors make one end of the lattice window the heavier
    @pytest.mark.parametrize("name,m,n,J", [("golden", 1, 1, 1), ("golden", 2, -1, 8),
                                            ("sqrt2", 1, 1, 2), ("sqrt2", -1, 2, 8)])
    @pytest.mark.parametrize("center", [0.7, -0.7])
    def test_matches_the_loop(self, name, m, n, J, center):
        ctx, grid = CONTEXTS[name], GridSpec(J=J)
        f = gaussian(ctx, grid, m, center=center, width=1.0)
        g = gaussian(ctx, grid, n, center=-center / 2, width=0.8, momentum=0.2)
        new, caught = recorded(_pair_to_heis, f, g)
        old, edge = pair_to_heis_loop(f, g)
        assert np.max(np.abs(new.samples - old)) <= 1e-12 * np.max(np.abs(old))
        edge_warnings = [str(w.message) for w in caught if "lattice window" in str(w.message)]
        if edge > grid.tol:
            assert len(edge_warnings) == 1 and f"{edge:.2e} relative" in edge_warnings[0]
        else:
            assert edge_warnings == []

    def test_lattice_edge_warns(self):
        # J = 1 caps the lattice window at one term per side
        ctx, grid = CONTEXTS["golden"], GridSpec(J=1)
        f = gaussian(ctx, grid, 1, width=1.0)
        with pytest.warns(TruncationWarning, match="lattice window"):
            _pair_to_heis(f, f)
        _, caught = recorded(_pair_to_heis, gaussian(ctx, GRID, 1), gaussian(ctx, GRID, 1))
        assert caught == []

    def test_window_clipped_product_warns(self):
        ctx = CONTEXTS["golden"]
        f = gaussian(ctx, GRID, 2, width=1.5)
        g = gaussian(ctx, GRID, -1, width=1.1)
        with pytest.warns(TruncationWarning, match="window-clipped"):
            _pair_to_heis(f, g)


class TestTorusActions:
    """The kernel reads in blocks of at most _ROW_BUDGET rows (k, s): the
    70 sectors of sqrt2 at grade 3 and the 63 V powers of a product
    element split its reads."""

    B = {(0, 0): 0.5, (3, 0): 1.0, (-2, 0): 0.25j, (1, 1): -0.7, (-4, -2): 0.3 + 0.1j}

    @pytest.mark.parametrize("name", sorted(CONTEXTS))
    @pytest.mark.parametrize("m", [1, -1, 2, -2, 3, -3])
    def test_match_the_loops(self, name, m):
        ctx = CONTEXTS[name]
        f = random_packet(ctx, GRID, m, np.random.default_rng(7))
        b = TorusElement(ctx.theta_float, self.B)
        right = right_act_torus(f, b).samples
        left = left_act_torus(b, f).samples
        for new, old in ((right, right_act_torus_loop(f, b)), (left, left_act_torus_loop(b, f))):
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    @pytest.fixture(scope="class")
    def big(self):
        ctx = CONTEXTS["sqrt2"]
        rng = np.random.default_rng(1)
        f = random_packet(ctx, GRID, 1, rng)
        b, _ = recorded(_pair_to_torus, f, random_packet(ctx, GRID, -1, rng))
        assert len(b.coeffs) >= 600 and len({s for _, s in b.coeffs}) > 32
        return b

    @pytest.mark.parametrize("m", [1, -1])
    def test_the_product_element_matches_the_loops(self, big, m):
        ctx = CONTEXTS["sqrt2"]
        f = random_packet(ctx, GRID, m, np.random.default_rng(12))
        right = right_act_torus(f, big).samples
        left = left_act_torus(big, f).samples
        for new, old in ((right, right_act_torus_loop(f, big)), (left, left_act_torus_loop(big, f))):
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    def test_every_read_is_under_the_row_budget(self, big, monkeypatch):
        ctx = CONTEXTS["sqrt2"]
        rows = []
        evaluate, translate = HeisenbergElement.evaluate, HeisenbergElement.translate

        def counted_evaluate(self, pts, sector):
            out = evaluate(self, pts, sector)
            rows.append(out.size // self.grid.N)
            return out

        def counted_translate(self, shifts, sectors):
            out = translate(self, shifts, sectors)
            rows.append(out.size // self.grid.N)
            return out

        monkeypatch.setattr(HeisenbergElement, "evaluate", counted_evaluate)
        monkeypatch.setattr(HeisenbergElement, "translate", counted_translate)
        rng = np.random.default_rng(14)
        f3, g3 = random_packet(ctx, GRID, 3, rng), random_packet(ctx, GRID, -3, rng)
        f1, f2 = random_packet(ctx, GRID, 1, rng), random_packet(ctx, GRID, 2, rng)
        right_act_torus(f3, big)
        left_act_torus(big, f1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            _pair_to_torus(g3, f3)
            _pair_to_heis(f1, f2)
        star_heis(f3)
        assert len(rows) > 100
        assert max(rows) <= heisenberg._ROW_BUDGET


class TestTranslate:
    """`translate` is `evaluate` on the translated grid xs + t."""

    SHIFTS = [0.0, 0.37, -0.37, 5 * GRID.h, -3 * GRID.h, 1e-13, 2.5, -7.25, 11.9, -23.9]

    def reference(self, f, shifts, sectors):
        return np.array([f.evaluate(f.grid.xs + t, s) for t, s in zip(shifts, sectors)])

    @pytest.mark.parametrize("name", sorted(CONTEXTS))
    @pytest.mark.parametrize("m", [1, -2, 3])
    def test_matches_evaluate(self, name, m):
        ctx = CONTEXTS[name]
        f = random_packet(ctx, GRID, m, np.random.default_rng(20 + m))
        S = f.samples.shape[0]
        sectors = np.arange(len(self.SHIFTS)) * 5 % S
        got = f.translate(self.SHIFTS, sectors)
        ref = self.reference(f, self.SHIFTS, sectors)
        assert got.shape == (len(self.SHIFTS), GRID.N)
        outside = np.abs(np.add.outer(self.SHIFTS, GRID.xs)) > GRID.L
        assert outside.any() and np.all(got[outside] == 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_no_shift_reads_the_samples(self):
        f = random_packet(CONTEXTS["sqrt2"], GRID, 2, np.random.default_rng(3))
        assert np.array_equal(f.translate(0.0, np.arange(12)), f.samples)

    def test_shapes_broadcast(self):
        f = random_packet(CONTEXTS["sqrt2"], GRID, 2, np.random.default_rng(4))
        shifts = np.array([0.3, -1.1, 2.0])
        assert f.translate(shifts, 5).shape == (3, GRID.N)
        assert f.translate(0.3, [1, 2]).shape == (2, GRID.N)
        grid_of_rows = f.translate(shifts[:, None], [[0, 1], [2, 3], [4, 17]])
        assert grid_of_rows.shape == (3, 2, GRID.N)
        assert np.array_equal(grid_of_rows[2, 1], f.translate(2.0, 5))

    def test_points_landing_on_the_window_edges(self):
        # white noise keeps the edge samples large, so an edge read that is
        # zeroed or taken from the wrong piece shows
        grid = GridSpec(L=4.0, N=64)
        rng = np.random.default_rng(5)
        f = HeisenbergElement(2, rng.standard_normal((3, 64)) + 1j, CONTEXTS["golden"], grid)
        L, xs = grid.L, grid.xs
        shifts = [2 * L, -2 * L, L - xs[40], -L - xs[40], 0.0]
        for t in shifts[:4]:
            assert np.count_nonzero(np.abs(xs + t) == L) == 1
        got = f.translate(shifts, [0, 1, 2, 0, 1])
        ref = self.reference(f, shifts, [0, 1, 2, 0, 1])
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # x = L reads the last sample, x = -L the first
        assert got[0, 0] == pytest.approx(f.samples[0, -1], rel=1e-13)
        assert got[1, -1] == pytest.approx(f.samples[1, 0], rel=1e-13)
        assert np.count_nonzero(got[0]) == np.count_nonzero(got[1]) == 1

    def test_grids_moved_out_of_the_window_read_exact_zeros(self):
        f = random_packet(CONTEXTS["sqrt2"], GRID, 2, np.random.default_rng(6))
        L, h = GRID.L, GRID.h
        shifts = [2 * L + h, -2 * L - h, 3 * L, -1e300, 1e300, np.inf, -np.inf]
        with np.errstate(all="raise"):
            got = f.translate(shifts, np.arange(len(shifts)))
        assert not np.isnan(got).any()
        assert np.all(got == 0.0)

    def test_nan_shift_reads_nan(self):
        f = random_packet(CONTEXTS["sqrt2"], GRID, 2, np.random.default_rng(7))
        with np.errstate(all="raise"):
            got = f.translate([np.nan, 0.5], [1, 1])
        assert np.isnan(got[0]).all()
        assert np.isfinite(got[1]).all()
        assert np.isnan(f.evaluate(GRID.xs + np.nan, 1)).all()

    def test_nan_spline_stays_nan_inside_and_zero_outside(self):
        # a NaN sample makes the slopes, and so the spline, NaN around it
        samples = random_packet(CONTEXTS["sqrt2"], GRID, 2, np.random.default_rng(8)).samples.copy()
        samples[4, 500] = np.nan
        f = HeisenbergElement(2, samples, CONTEXTS["sqrt2"], GRID)
        shifts, sectors = [0.37, -5.2, 3.0], [4, 4, 5]
        got = f.translate(shifts, sectors)
        ref = self.reference(f, shifts, sectors)
        assert np.isnan(got[:2]).any() and not np.isnan(got[2]).any()
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        outside = np.abs(np.add.outer(shifts, GRID.xs)) > GRID.L
        assert np.all(got[outside] == 0.0)
        finite = ~np.isnan(ref)
        assert np.max(np.abs(got[finite] - ref[finite])) <= 1e-14 * np.max(np.abs(ref[finite]))


class TestDerivative:
    def test_matches_the_padded_stencil(self):
        f = random_packet(CONTEXTS["sqrt2"], GRID, 2, np.random.default_rng(9))
        padded = np.pad(f.samples, ((0, 0), (2, 2)))
        N = GRID.N
        ref = (padded[:, :N] - 8 * padded[:, 1:N + 1] + 8 * padded[:, 3:N + 3]
               - padded[:, 4:]) / (12 * GRID.h)
        got = _derivative(f.samples, GRID.h)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        # the stencil reads zeros past the window: the edge rows see them
        edge = np.zeros((1, N), dtype=complex)
        edge[0, 0] = 12.0
        assert np.array_equal(_derivative(edge, 1.0)[0, :3], [0.0, -8.0, 1.0])


class TestEvaluate:
    def test_exact_zeros_outside_the_window(self):
        ctx = CONTEXTS["sqrt2"]
        f = random_packet(ctx, GRID, 2, np.random.default_rng(3))
        L = GRID.L
        outside = np.array([-2 * L, -L - 1e-9, L + 1e-9, 3 * L])
        for sector in range(f.samples.shape[0]):
            vals = f.evaluate(outside, sector)
            assert not np.isnan(vals).any()
            assert np.all(vals == 0.0)
        inside = f.evaluate(GRID.xs, 1)
        assert np.allclose(inside, f.samples[1])

    def test_grid_points_are_cached_and_read_only(self):
        grid = GridSpec(L=5.0, N=64)
        assert grid.xs is grid.xs
        assert np.array_equal(grid.xs, np.linspace(-5.0, 5.0, 64))
        with pytest.raises(ValueError):
            grid.xs[0] = 0.0
