"""The grid kernels of the graded product against slow loop oracles."""

import warnings

import numpy as np
import pytest

from ncgauge.heisenberg import (
    GridSpec,
    TruncationWarning,
    _pair_to_heis,
    _pair_to_torus,
    gaussian,
    left_act_torus,
    random_packet,
    right_act_torus,
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
    B = {(0, 0): 0.5, (3, 0): 1.0, (-2, 0): 0.25j, (1, 1): -0.7, (-4, -2): 0.3 + 0.1j}

    @pytest.mark.parametrize("name", sorted(CONTEXTS))
    @pytest.mark.parametrize("m", [1, -1, 2, -2])
    def test_match_the_loops(self, name, m):
        ctx = CONTEXTS[name]
        f = random_packet(ctx, GRID, m, np.random.default_rng(7))
        b = TorusElement(ctx.theta_float, self.B)
        right = right_act_torus(f, b).samples
        left = left_act_torus(b, f).samples
        for new, old in ((right, right_act_torus_loop(f, b)), (left, left_act_torus_loop(b, f))):
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


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
