"""Tests for the Heisenberg sectors, module actions, and graded product."""

import math
import operator
import warnings

import numpy as np
import pytest

from ncgauge.cli import verdict
from ncgauge.quadfield import GOLDEN, ThetaContext
from ncgauge.torus import TorusElement
from ncgauge.heisenberg import (
    GradeZero,
    GradedElement,
    GridSpec,
    HeisenbergElement,
    TruncationWarning,
    WindowOverflow,
    gaussian,
    left_act,
    mul_P,
    natural_width,
    partial,
    random_packet,
    right_act,
    right_act_torus,
    sector_count,
    sigma,
    star_P,
    star_heis,
)

CTX = ThetaContext(GOLDEN)
GRID = GridSpec()
EPS = CTX.eps_float
LAM = np.exp(2j * np.pi * CTX.theta_float)


@pytest.fixture
def rng():
    return np.random.default_rng(0xA17E)


def rel(a, b, floor=1e-30):
    return (a - b).norm() / max(a.norm(), b.norm(), floor)


def relG(lhs, rhs, *inputs):
    sc = max(
        [lhs.norm(), rhs.norm()]
        + [float(np.prod([p.norm() for p in inputs]))]
    )
    return (lhs - rhs).norm() / sc


class TestGridSpec:
    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(N=1023)

    @pytest.mark.parametrize("kw, msg", [
        ({"L": float("nan")}, "L must be finite"),
        ({"L": float("inf")}, "L must be finite"),
        ({"L": 0.0}, "L must be finite and positive"),
        ({"N": 4}, "N must be at least 6"),
        ({"N": 0}, "N must be at least 6"),
        ({"J": 0}, "J must be at least 1"),
    ])
    def test_degenerate_grid_rejected(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            GridSpec(**kw)

    def test_smallest_grid_accepted(self):
        assert GridSpec(N=6, J=1).N == 6

    def test_grade_zero_has_no_sectors(self):
        with pytest.raises(GradeZero):
            sector_count(CTX, 0)

    def test_sector_counts(self):
        assert sector_count(CTX, 1) == 1
        assert sector_count(CTX, 2) == 3
        assert sector_count(CTX, 3) == 8
        assert sector_count(CTX, -2) == 3


class TestEvaluate:
    def test_zero_outside_the_window_only(self, rng):
        grid = GridSpec(L=4.0, N=64)
        el = HeisenbergElement(1, rng.standard_normal((1, 64)) + 1.0, CTX, grid)
        vals = el.evaluate(np.array([-4.5, -4.0, 0.1, 4.0, 1e300]), 0)
        assert vals[0] == vals[-1] == 0.0
        assert np.isfinite(vals).all() and np.all(vals[1:4] != 0.0)

    def test_interior_nan_fails_the_verdict(self, rng):
        # samples of size 1e95 on a step of about 3e-102: the spline's
        # coefficients overflow, and its reads inside the window are NaN
        grid = GridSpec(L=1e-100, N=64)
        el = HeisenbergElement(1, 1e95 * rng.standard_normal((1, 64)), CTX, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = el.evaluate(grid.xs[10:14] + grid.h / 3, 0)
        assert np.isnan(vals).all()  # not zeroed as if outside the window
        report = {}
        residual = float(np.max(np.abs(vals)))
        assert verdict(report, [("spline reads", residual, 1e-6)]) == 1
        assert report["failures"] == ["spline reads"] and report["pass"] is False


class TestImmutableSamples:
    def test_samples_are_read_only(self, rng):
        f = random_packet(CTX, GRID, 1, rng)
        with pytest.raises(ValueError):
            f.samples[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.samples += 1.0

    def test_callers_array_is_not_shared(self, rng):
        data = rng.standard_normal((1, GRID.N)) + 0j
        f = HeisenbergElement(1, data, CTX, GRID)
        pts = GRID.xs[100:110] + 0.3 * GRID.h
        before = f.evaluate(pts, 0)  # caches the spline table
        data[:] = 7.0
        assert data.flags.writeable
        assert not np.shares_memory(f.samples, data)
        assert np.all(f.samples != 7.0)
        assert np.array_equal(f.evaluate(pts, 0), before)
        assert np.array_equal(HeisenbergElement(1, data, CTX, GRID).evaluate(pts, 0),
                              np.full(10, 7.0 + 0j))


    @pytest.mark.parametrize("make", [
        lambda f: f.scale(2.0),
        lambda f: f + f,
        lambda f: -f,
        lambda f: partial(1, GradedElement.from_heis(f)).parts[1],
        lambda f: right_act("V", f),
        lambda f: mul_P(GradedElement.from_heis(f), GradedElement.from_heis(f)).parts[2],
        lambda f: star_heis(f),
    ], ids=["scale", "add", "neg", "partial", "act", "product", "star"])
    def test_kernel_results_are_read_only(self, rng, make):
        out = make(random_packet(CTX, GRID, 1, rng))
        with pytest.raises(ValueError):
            out.samples[0, 0] = 1.0

    def test_the_owning_constructor_takes_the_array_over(self, rng):
        data = rng.standard_normal((1, GRID.N)) + 0j
        f = HeisenbergElement._owning(1, data, CTX, GRID)
        assert f.samples is data and not data.flags.writeable


# the trapezoid integrals as np.trapezoid writes them, per sector then summed
def trapezoid_norm(f):
    return math.sqrt(np.trapezoid(np.abs(f.samples) ** 2, f.grid.xs, axis=1).sum())


def trapezoid_inner(f, g):
    return complex(np.trapezoid(np.conj(f.samples) * g.samples, f.grid.xs, axis=1).sum())


def trapezoid_boundary_fraction(f, band=1.0):
    """np.trapezoid on each half of the band |x| > L - band on its own."""
    xs, inner = f.grid.xs, f.grid.L - band
    dens = np.abs(f.samples) ** 2
    total = np.trapezoid(dens, xs, axis=1).sum()
    halves = [xs < -inner, xs > inner] if inner >= 0 else [np.full(xs.size, True)]
    return float(sum(np.trapezoid(dens[:, h], xs[h], axis=1).sum() for h in halves) / total)


SQRT2 = ThetaContext.from_rational(0, 1, 2)


class TestIntegrals:
    @pytest.mark.parametrize("N", [6, 64, 1024])
    @pytest.mark.parametrize("L", [1.0, 12.0])
    @pytest.mark.parametrize("ctx, m", [(CTX, 1), (CTX, -2), (SQRT2, 1), (SQRT2, 3)],
                             ids=["golden1", "golden-2", "sqrt2_1", "sqrt2_3"])
    def test_weight_vector_matches_the_trapezoid(self, rng, N, L, ctx, m):
        grid = GridSpec(L=L, N=N)
        for _ in range(3):
            f, g = random_packet(ctx, grid, m, rng), random_packet(ctx, grid, m, rng)
            assert f.norm() == pytest.approx(trapezoid_norm(f), rel=1e-15, abs=0)
            assert abs(f.inner(f) - trapezoid_inner(f, f)) <= 1e-15 * f.norm() ** 2
            # <f, g> may cancel far below |f| |g|, the scale of its rounding
            assert abs(f.inner(g) - trapezoid_inner(f, g)) <= 1e-15 * f.norm() * g.norm()
            for band in (0.25 * L, 1.0):
                assert f.boundary_fraction(band) == pytest.approx(
                    trapezoid_boundary_fraction(f, band), rel=1e-15, abs=0)

    def test_boundary_fraction_takes_no_step_across_the_gap(self):
        # a Gaussian at x = 8 leaves about 1e-5 of its mass in the band
        # x > 11; one step from x = -11 to x = 11 over both halves read 7.1e-4
        f = gaussian(SQRT2, GRID, 2, center=8.0, width=1.0)
        frac = f.boundary_fraction()
        assert frac == pytest.approx(trapezoid_boundary_fraction(f), rel=1e-15, abs=0)
        assert 5e-6 < frac < 2e-5
        # a band wider than L is the whole window
        assert f.boundary_fraction(2.0 * GRID.L) == pytest.approx(1.0, rel=1e-14)

    def test_weights_are_cached_and_read_only(self):
        grid = GridSpec(L=5.0, N=64)
        assert grid.weights is grid.weights
        ones = np.ones(grid.N)
        assert grid.weights.sum() == pytest.approx(np.trapezoid(ones, grid.xs), rel=1e-15)
        with pytest.raises(ValueError):
            grid.weights[0] = 0.0

    def test_a_nan_sample_makes_the_norm_nan(self, rng):
        data = random_packet(CTX, GRID, 1, rng).samples.copy()
        data[0, GRID.N // 2] = np.nan
        f = HeisenbergElement(1, data, CTX, GRID)
        assert math.isnan(f.norm())
        assert math.isnan(f.inner(f).real)


class TestModuleActions:
    def test_u_preserves_norm(self, rng):
        f = random_packet(CTX, GRID, 1, rng)
        assert right_act("U", f).norm() == pytest.approx(f.norm(), rel=1e-12)
        assert left_act("U", f).norm() == pytest.approx(f.norm(), rel=1e-12)

    def test_right_v_translates_by_eps(self):
        # golden theta, m=1: single sector, f.V is translation by eps exactly
        f = gaussian(CTX, GRID, 1, width=1.0)
        fv = right_act("V", f)
        expected = np.exp(-((GRID.xs - EPS) ** 2) / 2.0)
        assert np.max(np.abs(fv.samples[0] - expected)) < 1e-7

    def test_left_v_translates_by_one(self):
        # (V f)(x, k) = f(x - 1/c_1, k - a_1); single sector makes the
        # sector shift by a_1 = 2 invisible
        f = gaussian(CTX, GRID, 1, width=1.0)
        vf = left_act("V", f)
        expected = np.exp(-((GRID.xs - 1.0) ** 2) / 2.0)
        assert np.max(np.abs(vf.samples[0] - expected)) < 1e-7

    @pytest.mark.parametrize("m", [1, -1, 2])
    def test_right_module_relation(self, rng, m):
        # (f.V).U = e^{2 pi i theta} (f.U).V; composed actions interpolate
        # oscillatory data once, hence the relaxed tolerance
        f = random_packet(CTX, GRID, m, rng)
        lhs = right_act("U", right_act("V", f))
        rhs = right_act("U", f)
        rhs = right_act("V", rhs).scale(LAM)
        assert rel(lhs, rhs) < 2e-5
        # the single-step monomial route is exact up to phase rounding
        uv = TorusElement(CTX.theta_float, {(1, 1): 1})
        assert rel(right_act_torus(f, uv).scale(LAM), lhs) < 2e-5

    # composed actions interpolate oscillatory data; the left U phase has
    # frequency eps^{-m}, so negative grades carry a larger error floor
    @pytest.mark.parametrize("m,tol", [(1, 2e-5), (-1, 2e-4), (2, 2e-5)])
    def test_left_module_relation(self, rng, m, tol):
        f = random_packet(CTX, GRID, m, rng)
        lhs = left_act("V", left_act("U", f))
        rhs = left_act("U", left_act("V", f)).scale(LAM)
        assert rel(lhs, rhs) < tol

    @pytest.mark.parametrize("m,tol", [(1, 1e-5), (-1, 2e-4), (2, 1e-5)])
    def test_bimodule_compatibility(self, rng, m, tol):
        f = random_packet(CTX, GRID, m, rng)
        assert rel(right_act("V", left_act("U", f)), left_act("U", right_act("V", f))) < tol
        assert rel(right_act("U", left_act("V", f)), left_act("V", right_act("U", f))) < tol

    def test_grade_zero_rejected(self):
        with pytest.raises(GradeZero):
            HeisenbergElement(0, np.zeros((1, GRID.N)), CTX, GRID)


class TestStar:
    @pytest.mark.parametrize("m", [1, -1, 2, -2])
    def test_norm_scaling(self, rng, m):
        f = random_packet(CTX, GRID, m, rng)
        sf = star_heis(f)
        assert sf.m == -m
        assert sf.norm() == pytest.approx(EPS ** (-m / 2.0) * f.norm(), rel=1e-6)

    # star compresses positive grades by eps^m before re-expanding, so the
    # double-interpolation floor grows with m
    @pytest.mark.parametrize("m,tol", [(1, 5e-5), (-1, 1e-6), (2, 2e-4)])
    def test_involution(self, rng, m, tol):
        f = random_packet(CTX, GRID, m, rng)
        assert rel(star_heis(star_heis(f)), f) < tol

    def test_gaussian_width_maps_to_w_over_eps(self):
        w = 1.3
        f = gaussian(CTX, GRID, 1, width=w)
        sf = star_heis(f)
        expected = np.exp(-((GRID.xs * EPS) ** 2) / (2 * w * w))
        assert np.max(np.abs(sf.samples[0] - expected)) < 1e-7

    def test_star_intertwines_actions(self, rng):
        # (f.U)^* = U^{-1}.f^* and (f.V)^* = V^{-1}.f^*
        f = random_packet(CTX, GRID, 1, rng)
        lhs = star_heis(right_act("U", f))
        rhs = left_act("U", star_heis(f))  # then invert: U^{-1} = U-star
        # build U^{-1} action directly through the torus element
        minus_u = GradedElement.from_heis(star_heis(f))
        ustar = GradedElement.from_torus(
            TorusElement.monomial(CTX.theta_float, -1, 0), CTX, GRID
        )
        rhs = mul_P(ustar, minus_u).parts[-1]
        assert rel(lhs, rhs) < 5e-5

    def test_window_overflow(self):
        f = gaussian(CTX, GRID, -1, width=3.5)
        with pytest.raises(WindowOverflow):
            star_heis(f)

    def test_star_sampled_only_outside_the_window_overflows(self):
        # grade 2 scales the points +-2.4 of a 6-point grid to +-16.4 > L
        f = gaussian(CTX, GridSpec(N=6), 2)
        with pytest.raises(WindowOverflow, match="zero on the grid"):
            star_heis(f)


class TestPartial:
    def test_partial1_analytic(self):
        f = gaussian(CTX, GRID, 1, width=1.0)
        d1 = partial(1, GradedElement.from_heis(f)).parts[1]
        analytic = 1j * GRID.xs * np.exp(-GRID.xs**2 / 2.0)
        assert np.max(np.abs(d1.samples[0] - analytic)) < 1e-7

    def test_partial2_is_position_multiplier(self):
        f = gaussian(CTX, GRID, 1, width=1.0)
        d2 = partial(2, GradedElement.from_heis(f)).parts[1]
        coef = 2 * math.pi * float(CTX.eps_pow(-1) * CTX.c(1))
        assert np.allclose(d2.samples, coef * GRID.xs * f.samples)

    def test_grade_zero_is_delta(self):
        b = TorusElement(CTX.theta_float, {(2, 1): 1.5, (-1, 0): 2j})
        g = GradedElement.from_torus(b, CTX, GRID)
        for j in (1, 2):
            assert (partial(j, g).part(0) - b.delta(j)).norm() == 0.0

    @pytest.mark.parametrize("m", range(-3, 4))
    def test_twist3_commutator_eigenvalue(self, m):
        # [d1, d2] = -2 pi i eps^{-m} c_m on P_m, to FD accuracy
        if m == 0:
            b = TorusElement(CTX.theta_float, {(1, 2): 1.0})
            g = GradedElement.from_torus(b, CTX, GRID)
            comm = partial(1, partial(2, g)).part(0) - partial(2, partial(1, g)).part(0)
            assert comm.norm() == 0.0
            return
        S = sector_count(CTX, m)
        f = gaussian(CTX, GRID, m, width=1.2, sector_weights=np.arange(1, S + 1))
        g = GradedElement.from_heis(f)
        comm = partial(1, partial(2, g)).parts[m] - partial(2, partial(1, g)).parts[m]
        measured = f.inner(comm) / f.inner(f)
        expected = -2j * math.pi * float(CTX.eps_pow(-m) * CTX.c(m))
        assert abs(measured - expected) / abs(expected) < 1e-5

    def test_commutator_matches_geometric_identity(self):
        # eps^{-m} c_m = (1 - eps^{-2m}) eps c_1/(eps^2-1), measured
        coef = CTX.eps * CTX.c(1) / (CTX.eps * CTX.eps - 1)
        for m in (-2, 1, 3):
            f = gaussian(CTX, GRID, m, width=1.2)
            g = GradedElement.from_heis(f)
            comm = partial(1, partial(2, g)).parts[m] - partial(2, partial(1, g)).parts[m]
            measured = (f.inner(comm) / f.inner(f)) / (-2j * math.pi)
            exact = float((1 - CTX.eps_pow(-2 * m)) * coef)
            assert measured.real == pytest.approx(exact, rel=1e-5)


class TestSigma:
    def test_grade_zero_fixed(self):
        b = TorusElement(CTX.theta_float, {(1, 1): 2.0})
        g = GradedElement.from_torus(b, CTX, GRID)
        assert (sigma(g).part(0) - b).norm() == 0.0

    def test_p1_scale(self):
        f = gaussian(CTX, GRID, 1)
        g = GradedElement.from_heis(f)
        expected = 2.0 / (3.0 + math.sqrt(5.0))
        assert np.allclose(sigma(g).parts[1].samples, expected * f.samples)

    def test_sigma_star_squared_is_identity(self, rng):
        p = GradedElement.from_heis(random_packet(CTX, GRID, 1, rng))
        assert relG(sigma(star_P(sigma(star_P(p)))), p, p) < 5e-5


class TestMulP:
    def test_unit(self, rng):
        p = GradedElement.from_heis(random_packet(CTX, GRID, 1, rng))
        one = GradedElement.from_torus(TorusElement.one(CTX.theta_float), CTX, GRID)
        assert relG(mul_P(one, p), p, p) < 1e-12
        assert relG(mul_P(p, one), p, p) < 1e-12

    def test_bimodule_associativity(self, rng):
        p = GradedElement.from_heis(random_packet(CTX, GRID, 1, rng))
        b1 = GradedElement.from_torus(
            TorusElement(CTX.theta_float, {(1, 0): 1.0, (0, 1): 0.5j}), CTX, GRID
        )
        b2 = GradedElement.from_torus(
            TorusElement(CTX.theta_float, {(0, -1): 1.0, (-1, 0): 0.25}), CTX, GRID
        )
        lhs = mul_P(mul_P(b1, p), b2)
        rhs = mul_P(b1, mul_P(p, b2))
        assert relG(lhs, rhs, p, b1, b2) < 1e-5

    def test_grade_additivity(self, rng):
        for (a, b) in [(1, 1), (1, -1), (-1, 2), (2, -1)]:
            p = GradedElement.from_heis(random_packet(CTX, GRID, a, rng))
            q = GradedElement.from_heis(random_packet(CTX, GRID, b, rng))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                out = mul_P(p, q)
            assert out.grades() == [a + b] or out.grades() == []

    @pytest.mark.parametrize(
        "triple",
        [(1, 1, -1), (1, -1, 1), (-1, 1, 1), (0, 1, 1), (1, 0, -1), (1, -1, 2)],
    )
    def test_associativity(self, rng, triple):
        parts = {}
        for m in set(triple):
            if m == 0:
                parts[0] = GradedElement.from_torus(
                    TorusElement(CTX.theta_float, {(1, 0): 0.8, (0, 1): -0.4j}),
                    CTX,
                    GRID,
                )
            else:
                parts[m] = GradedElement.from_heis(random_packet(CTX, GRID, m, rng))
        a, b, c = (parts[m] for m in triple)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            lhs = mul_P(mul_P(a, b), c)
            rhs = mul_P(a, mul_P(b, c))
        assert relG(lhs, rhs, a, b, c) < 1e-4

    def test_star_antimultiplicative(self, rng):
        f = GradedElement.from_heis(random_packet(CTX, GRID, 1, rng))
        g = GradedElement.from_heis(random_packet(CTX, GRID, 1, rng))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            lhs = star_P(mul_P(f, g))
            rhs = mul_P(star_P(g), star_P(f))
        assert relG(lhs, rhs, f, g) < 1e-4

    def test_twisted_leibniz(self, rng):
        f = GradedElement.from_heis(random_packet(CTX, GRID, 1, rng))
        g = GradedElement.from_heis(random_packet(CTX, GRID, 1, rng))
        for j in (1, 2):
            lhs = partial(j, mul_P(f, g))
            rhs = mul_P(partial(j, f), sigma(g)) + mul_P(f, partial(j, g))
            assert relG(lhs, rhs, f, g) < 1e-4

    def test_sums_and_products_across_contexts_are_refused(self):
        # the sum claimed GRID for a grade -1 part sampled on another grid
        p = GradedElement.from_heis(gaussian(CTX, GRID, 1))
        others = [GradedElement.from_heis(gaussian(CTX, GridSpec(L=8.0, N=512), -1)),
                  GradedElement.from_heis(gaussian(ThetaContext(GOLDEN), GRID, -1))]
        for q in others:
            for a, b in ((p, q), (q, p)):
                for op in (operator.add, operator.sub, mul_P):
                    with pytest.raises(ValueError, match="incompatible contexts"):
                        op(a, b)

    @pytest.mark.parametrize("grid", [GridSpec(L=8.0, N=512), GridSpec(L=8.0, N=1024)],
                             ids=["other-N", "equal-N"])
    def test_a_part_on_another_grid_is_refused(self, grid):
        # the element claimed GRID; mul_P then died in a numpy broadcast
        # (other N) or mixed the two windows (equal N)
        with pytest.raises(ValueError, match="grade -1 part"):
            GradedElement({-1: gaussian(CTX, grid, -1)}, CTX, GRID)
        with pytest.raises(ValueError, match="grade 2 part"):
            GradedElement({1: gaussian(CTX, GRID, 1), 2: gaussian(CTX, grid, 2)}, CTX, GRID)

    def test_a_part_on_another_context_is_refused(self):
        with pytest.raises(ValueError, match="grade 1 part"):
            GradedElement({1: gaussian(ThetaContext(GOLDEN), GRID, 1)}, CTX, GRID)

    def test_a_grade_0_part_on_another_theta_is_refused(self):
        other = TorusElement(CTX.theta_float + 0.25, {(1, 0): 1.0})
        with pytest.raises(ValueError, match="grade 0 part"):
            GradedElement({0: other}, CTX, GRID)
        with pytest.raises(ValueError, match="grade 0 part"):
            GradedElement.from_torus(TorusElement.zero(0.5), CTX, GRID)
        assert GradedElement.from_torus(TorusElement(CTX.theta_float, {(1, 0): 1.0}),
                                        CTX, GRID).grades() == [0]

    def test_truncation_warning_on_spreading_product(self, rng):
        # P_2 x P_-1 spreads at rate eps^{-1}|c_1|/(|c_2||c_{-1}|) per step;
        # wide factors genuinely outgrow the window
        p = GradedElement.from_heis(gaussian(CTX, GRID, 2, width=1.5))
        q = GradedElement.from_heis(gaussian(CTX, GRID, -1, width=1.1))
        with pytest.warns(TruncationWarning):
            mul_P(p, q)


class TestNaturalWidth:
    def test_star_closed(self):
        for m in (1, 2, 3):
            assert natural_width(CTX, -m) == pytest.approx(
                natural_width(CTX, m) * EPS ** (-m), rel=1e-12
            )
