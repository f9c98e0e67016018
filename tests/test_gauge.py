"""Tests for the gauge layer: potentials, field strength, q-adaptedness."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ncgauge.quadfield import GOLDEN, ONE_PLUS_SQRT3, SQRT2, FieldElement, ThetaContext
from ncgauge import torus
from ncgauge.torus import TorusElement
from ncgauge.heisenberg import (
    GradedElement,
    GridSpec,
    TruncationWarning,
    gaussian,
    mul_P,
    partial,
    partial_heis,
    random_packet,
    sigma,
    star_heis,
    star_P,
)
from ncgauge.gauge import (
    GaugePotential,
    HorizontalForm,
    QCalculus,
    _as_field,
    _denominators,
    _within,
    adaptedness_test,
    apply_potential,
    curvature_coefficient,
    field_strength,
    field_strength_eigenvalue,
    gauge_transform,
    nabla0,
    q_number,
    q_sweep,
    relative_adaptedness_test,
    transformed_potential,
    vertical_coefficients,
    vertical_derivative,
    volume_commutator,
    wedge_horizontal,
)

CTX = ThetaContext(GOLDEN)
GRID = GridSpec()


def relHF(a, b, floor=1e-30):
    return (a - b).norm() / max(a.norm(), b.norm(), floor)


@pytest.fixture
def p1():
    return GradedElement.from_heis(gaussian(CTX, GRID, 1, center=0.2, momentum=0.3))


@pytest.fixture
def q1():
    return GradedElement.from_heis(gaussian(CTX, GRID, 1, center=-0.3, momentum=0.1))


class TestNabla0:
    def test_on_u(self):
        U = GradedElement.from_torus(TorusElement.U(CTX.theta_float), CTX, GRID)
        w = nabla0(U)
        expect = TorusElement.U(CTX.theta_float) * (2j * math.pi)
        assert (w.parts[0].part(0) - expect).norm() == 0.0
        assert w.parts[1].norm() == 0.0

    def test_on_one(self):
        one = GradedElement.from_torus(TorusElement.one(CTX.theta_float), CTX, GRID)
        assert nabla0(one).norm() == 0.0

    def test_grade_zero_restriction_is_d_B(self):
        from ncgauge.torus import d_B

        b = TorusElement(CTX.theta_float, {(2, -1): 1.5 + 0.5j, (0, 3): -2.0})
        w = nabla0(GradedElement.from_torus(b, CTX, GRID))
        ref = d_B(b)
        assert (w.parts[0].part(0) - ref.b1).norm() == 0.0
        assert (w.parts[1].part(0) - ref.b2).norm() == 0.0

    def test_components_are_i_partial(self, p1):
        from ncgauge.heisenberg import partial

        w = nabla0(p1)
        for j in (1, 2):
            assert relHF(
                HorizontalForm(0, w.parts[j - 1]),
                HorizontalForm(0, partial(j, p1).scale(1j)),
            ) == 0.0

    def test_twisted_leibniz(self, p1, q1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            lhs = nabla0(mul_P(p1, q1))
            rhs = nabla0(p1).right_mul(q1) + HorizontalForm(
                1,
                (
                    mul_P(p1, nabla0(q1).parts[0]),
                    mul_P(p1, nabla0(q1).parts[1]),
                ),
            )
        assert relHF(lhs, rhs) < 1e-5

    def test_star_derivation(self, p1):
        assert relHF(nabla0(star_P(p1)), nabla0(p1).star().scale(-1)) < 5e-5


class TestApplyPotential:
    def test_grade_zero_independent_of_s(self):
        b = GradedElement.from_torus(
            TorusElement(CTX.theta_float, {(1, 0): 1.0, (0, 2): 0.5j}), CTX, GRID
        )
        w0 = apply_potential(GaugePotential(0, 0), b)
        w1 = apply_potential(GaugePotential(2.0, -1.5), b)
        assert relHF(w0, w1) == 0.0

    def test_zero_s_is_nabla0(self, p1):
        assert relHF(apply_potential(GaugePotential(0, 0), p1), nabla0(p1)) == 0.0

    def test_extra_term_on_p1(self, p1):
        # [i dtau^1, p] = i (eps^{-1} - 1) p . dtau^1 on P_1: the sign follows
        # the twisted right action dtau.p = sigma(p).dtau
        w0 = apply_potential(GaugePotential(0, 0), p1)
        w1 = apply_potential(GaugePotential(1, 0), p1)
        diff = w1.parts[0] - w0.parts[0]
        expected = p1.scale(1j * (1.0 / CTX.eps_float - 1.0))
        assert relHF(HorizontalForm(0, diff), HorizontalForm(0, expected)) < 1e-14


class TestFieldStrength:
    def test_vanishes_on_grade_zero(self):
        b = GradedElement.from_torus(
            TorusElement(CTX.theta_float, {(2, 1): 1.0}), CTX, GRID
        )
        assert field_strength(GaugePotential(), b).norm() < 1e-12

    @pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
    def test_eigenvalue(self, m):
        f = GradedElement.from_heis(gaussian(CTX, GRID, m, width=1.2))
        F = field_strength(GaugePotential(), f)
        lam = field_strength_eigenvalue(CTX, m)
        assert relHF(F, HorizontalForm(2, f.scale(lam))) < 1e-5

    @pytest.mark.parametrize("m", [-2, 1, 3])
    def test_commutator_form(self, m):
        # F[nabla_0](p) = [p, 2 pi eps c_1/(eps^2-1) vol_B]; the reversed
        # bracket has the opposite sign under the sigma^2 twist
        f = GradedElement.from_heis(gaussian(CTX, GRID, m, width=1.2))
        F = field_strength(GaugePotential(), f)
        C = curvature_coefficient(CTX)
        comm = HorizontalForm(2, (f - sigma(sigma(f))).scale(C))
        assert relHF(F, comm) < 1e-5
        assert relHF(F, volume_commutator(C, f)) > 1.0

    def test_independent_of_potential(self, p1):
        F0 = field_strength(GaugePotential(), p1)
        for s in [(1.0, 0.0), (3.0, -2.0), (0.5, 0.7), (-1.0, -1.0), (10.0, 4.0)]:
            assert relHF(F0, field_strength(GaugePotential(*s), p1)) < 1e-8


class TestGaugeGroup:
    def test_identity(self, p1):
        assert relHF(
            HorizontalForm(0, gauge_transform(1.0, p1)), HorizontalForm(0, p1)
        ) == 0.0

    def test_minus_one_on_p1(self, p1):
        assert relHF(
            HorizontalForm(0, gauge_transform(-1.0, p1)),
            HorizontalForm(0, p1.scale(-1)),
        ) == 0.0

    def test_fixes_grade_zero(self):
        b = GradedElement.from_torus(
            TorusElement(CTX.theta_float, {(1, 1): 2.0}), CTX, GRID
        )
        assert (gauge_transform(1j, b).part(0) - b.part(0)).norm() == 0.0

    def test_homomorphism(self, p1):
        z1, z2 = np.exp(0.7j), np.exp(-1.1j)
        lhs = gauge_transform(z1, gauge_transform(z2, p1))
        rhs = gauge_transform(z1 * z2, p1)
        assert relHF(HorizontalForm(0, lhs), HorizontalForm(0, rhs)) < 1e-14

    def test_star_automorphism(self, p1):
        z = np.exp(0.3j)
        lhs = gauge_transform(z, star_P(p1))
        rhs = star_P(gauge_transform(z, p1))
        assert relHF(HorizontalForm(0, lhs), HorizontalForm(0, rhs)) < 1e-12

    @pytest.mark.parametrize("zeta", [1j, np.exp(2j * np.pi / 7)])
    def test_acts_trivially_on_potentials(self, p1, zeta):
        pot = GaugePotential(0.3, -0.8)
        assert relHF(apply_potential(pot, p1), transformed_potential(pot, zeta, p1)) < 1e-8


class TestQNumbers:
    def test_zero(self):
        assert q_number(0, 2.0) == 0

    def test_three_at_two(self):
        assert q_number(3, 2.0) == pytest.approx(7.0)

    def test_q_one_gives_n(self):
        assert q_number(5, 1.0) == 5.0
        assert q_number(-3, 1.0) == -3.0

    def test_qcalculus_validates(self):
        with pytest.raises(ValueError):
            QCalculus(0.0)
        assert QCalculus(2.0).number(3) == pytest.approx(7.0)

    def test_right_form_identity(self):
        # [m]_q q^{-m} = q^{-1} [m]_{1/q}, exactly over the rationals; the
        # printed variant with [m]_{-q} fails already at m = 2
        q = Fraction(7, 3)
        for m in range(-6, 7):
            assert q_number(m, q) * q ** (-m) == q**-1 * q_number(m, 1 / q)
        m = 2
        assert q_number(m, q) * q ** (-m) != q**-1 * q_number(m, -q)

    def test_vertical_coefficients(self):
        eps2 = CTX.eps**2
        out = vertical_coefficients(eps2, [0, 2])
        assert out[0][0] == 0
        assert out[2][0] == 1 + eps2  # [2]_{eps^2}

    def test_vertical_derivative_values(self, p1):
        out = vertical_derivative(1.0, p1)
        assert out[1] == pytest.approx(2j * math.pi)
        b = GradedElement.from_torus(TorusElement.one(CTX.theta_float), CTX, GRID)
        assert vertical_derivative(2.0, b)[0] == 0


class TestAdaptedness:
    def sweep_values(self, ctx):
        eps, delta = ctx.eps, ctx.t.delta
        return [
            ("1", FieldElement.of(1, 0, delta), False, False),
            ("eps^-1", eps**-1, False, False),
            ("eps", eps, False, True),
            ("eps^2", eps**2, True, False),
            ("eps^3", eps**3, False, False),
            ("2", FieldElement.of(2, 0, delta), False, False),
            ("1/2", FieldElement.of(Fraction(1, 2), 0, delta), False, False),
        ]

    def test_unique_q(self):
        for theta in (GOLDEN, SQRT2, ONE_PLUS_SQRT3):
            ctx = ThetaContext(theta)
            for name, q, ad, rel in self.sweep_values(ctx):
                a = adaptedness_test(ctx, q, M=4)
                r = relative_adaptedness_test(ctx, q, M=4)
                assert a["exact"] and r["exact"]
                assert a["adapted"] is ad, (theta, name)
                assert r["adapted"] is rel, (theta, name)

    @pytest.mark.parametrize("q", [-1, -1.0], ids=["exact", "float"])
    @pytest.mark.parametrize(
        "test, key",
        [(adaptedness_test, "curvature_constant"),
         (relative_adaptedness_test, "form_coefficient")],
    )
    def test_vanishing_q_number_is_not_adapted(self, test, key, q):
        # [m]_q = 0 at q = -1 for every even m
        rep = test(CTX, q, M=4)
        assert rep["adapted"] is False and rep[key] is None
        assert rep["exact"] is isinstance(q, int)
        assert rep["reason"] == "[-4]_q = 0"
        assert rep["q"] == -1.0

    def test_curvature_constant(self):
        a = adaptedness_test(CTX, CTX.eps**2, M=5)
        assert a["curvature_constant"] == pytest.approx(
            complex(0, -CTX.eps_float * CTX.c(1))
        )

    def test_relative_form_coefficient(self):
        r = relative_adaptedness_test(CTX, CTX.eps, M=5)
        assert r["form_coefficient"] == pytest.approx(
            (1.0 - CTX.eps_float) / (2 * math.pi)
        )

    def test_float_path(self):
        a = adaptedness_test(CTX, CTX.eps_float**2, M=4)
        assert a["adapted"] and not a["exact"]
        assert adaptedness_test(CTX, 1.37, M=4)["adapted"] is False

    def test_float_path_on_a_large_unit(self):
        # eps = 3.2e14 on sqrt 109: float(eps^-m c_m) overflowed at M = 11
        ctx = ThetaContext.from_rational(0, 1, 109)
        rep = adaptedness_test(ctx, 2.5, M=11)
        assert rep["adapted"] is False and rep["exact"] is False
        ratios, dens = rep["ratios"], dict(_denominators(_as_field(ctx, 2.5), 11))
        beyond = [m for m, v in ratios.items() if isinstance(v, str)]
        assert beyond and all(isinstance(v, float) for m, v in ratios.items() if m not in beyond)
        # each ratio is exact over the exact denominator of q = 5/2
        assert all(ratios[m] == str(ctx.eps_pow(-m) * ctx.c(m) / dens[m]) for m in beyond)
        assert dens[-3] == -q_number(3, Fraction(5, 2))
        assert relative_adaptedness_test(ctx, 2.5, M=11)["adapted"] is False
        # the relative gap of two exact ratios beyond the float range
        big = ctx.eps_pow(11) * ctx.c(-11)
        assert _within(big * (1 + Fraction(1, 10**12)), big, 1e-10)
        assert not _within(big * 2, big, 1e-10)
        assert not _within(big, FieldElement.of(1, 0, ctx.t.delta), 1e-10)

    def test_sqrt2_context(self):
        ctx = ThetaContext(SQRT2)
        assert adaptedness_test(ctx, ctx.eps**2, M=4)["adapted"]
        assert not adaptedness_test(ctx, ctx.eps, M=4)["adapted"]
        assert relative_adaptedness_test(ctx, ctx.eps, M=4)["adapted"]

    @pytest.mark.parametrize("M", [2, 5])
    def test_denominators_equal_the_direct_form(self, M):
        # -[-m]_q with q^{-m} by binary exponentiation
        grades = [m for m in range(-M, M + 1) if m]
        for theta in (GOLDEN, SQRT2, ONE_PLUS_SQRT3):
            ctx = ThetaContext(theta)
            exact = [q for _, q, _, _ in self.sweep_values(ctx)] + [
                ctx.eps**-2, FieldElement.of(-1, 0, ctx.t.delta),
                FieldElement.of(Fraction(137, 100), 0, ctx.t.delta),
            ]
            for q in exact:
                assert _denominators(q, M) == tuple((m, -q_number(-m, q)) for m in grades)
        # a float q has the denominators of the binary rational Fraction(q) it is
        for q in (1.37, -1.0, 0.5, 1.0, CTX.eps_float):
            assert _denominators(_as_field(CTX, q), M) == tuple(
                (m, -q_number(-m, Fraction(q))) for m in grades)

    def test_float_eps_squared_on_a_large_unit(self):
        # the float powers of q = eps^2 = 1.1e29 left the float range at M = 11
        # (OverflowError); read as its exact rational, q is adapted at tol
        ctx = ThetaContext.from_rational(0, 1, 109)
        rep = adaptedness_test(ctx, ctx.eps_float**2, M=11)
        assert rep["adapted"] is True and rep["exact"] is False
        assert rep["curvature_constant"] == pytest.approx(complex(0, -ctx.eps_float * ctx.c(1)))
        assert relative_adaptedness_test(ctx, ctx.eps_float**2, M=11)["adapted"] is False

    @pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
    def test_a_float_q_that_is_not_finite_is_not_adapted(self, q):
        for test in (adaptedness_test, relative_adaptedness_test):
            rep = test(CTX, q, M=4)
            assert rep["adapted"] is False and rep["exact"] is False
            assert rep["reason"] == f"q = {q}"

    @pytest.mark.parametrize("q", [0, 0.0, FieldElement.of(0, 0, CTX.t.delta)],
                             ids=["int", "float", "field"])
    def test_q_zero_is_not_adapted(self, q):
        # _denominators raised ZeroDivisionError on the inverse of q
        for test, key in ((adaptedness_test, "curvature_constant"),
                          (relative_adaptedness_test, "form_coefficient")):
            rep = test(CTX, q, M=4)
            assert rep["adapted"] is False and rep[key] is None
            assert rep["reason"] == "q = 0" and rep["q"] == 0.0
            assert rep["exact"] is not isinstance(q, float)

    def test_an_exact_q_beyond_the_float_range_gets_a_report(self):
        # float(q) raised OverflowError on q = eps^2000 (about 1e836)
        q = CTX.eps_pow(2000)
        numerators = {adaptedness_test: lambda m: CTX.eps_pow(-m) * CTX.c(m),
                      relative_adaptedness_test: lambda m: CTX.eps_pow(-m) - 1}
        for test, key in ((adaptedness_test, "curvature_constant"),
                          (relative_adaptedness_test, "form_coefficient")):
            rep = test(CTX, q, M=4)
            assert rep["adapted"] is False and rep[key] is None and rep["exact"] is True
            assert rep["q"] == str(q)
            assert sorted(rep["ratios"]) == [-4, -3, -2, -1, 1, 2, 3, 4]
            for m, ratio in rep["ratios"].items():
                exact = numerators[test](m) / -q_number(-m, q)
                try:
                    value = float(exact)
                except OverflowError:
                    value = 0.0
                # a float that is 0.0 or subnormal lost the digits of a non-zero value
                assert ratio == (value if abs(value) >= sys.float_info.min else str(exact))
            # the ratios at m > 0 grow like q^m, beyond the float range, and
            # those at m < -1 shrink like q^m, below it (their floats were 0.0)
            assert all(isinstance(rep["ratios"][m], str) for m in (-4, -3, -2, 1, 2, 3, 4))

    def test_sweep_forms_each_denominator_once(self):
        qs = [q for _, q, _, _ in self.sweep_values(CTX)]
        _denominators.cache_clear()
        q_sweep(CTX, qs, M=4)
        info = _denominators.cache_info()
        assert (info.misses, info.hits) == (len(qs), len(qs))

    def test_sweep_report(self):
        eps = CTX.eps
        rows = q_sweep(CTX, [FieldElement.of(1, 0, 5), eps, eps**2])
        assert [r["adapted"] for r in rows] == [False, False, True]
        assert [r["relative_adapted"] for r in rows] == [False, True, False]

    def test_m_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            adaptedness_test(CTX, CTX.eps, M=1)

    def test_numeric_cross_check(self):
        # the measured field-strength eigenvalues stand in the exact ratios
        # used by the adaptedness test
        for m in (1, 2):
            f = GradedElement.from_heis(gaussian(CTX, GRID, m, width=1.2))
            F = field_strength(GaugePotential(), f)
            measured = f.parts[m].inner(F.parts[0].parts[m]) / f.parts[m].inner(
                f.parts[m]
            )
            assert measured.real == pytest.approx(
                field_strength_eigenvalue(CTX, m), rel=1e-5
            )


class TestOneCalculus:
    def test_the_horizontal_calculus_is_the_torus_calculus(self):
        assert nabla0 is torus.d_B and wedge_horizontal is torus.wedge
        assert HorizontalForm is torus.Form

    def test_grade_zero_forms_agree_with_the_torus_forms(self):
        th = CTX.theta_float
        rng = np.random.default_rng(5)
        b1, b2, c1, c2, x = (torus.random_sparse(th, rng) for _ in range(5))
        lift = lambda b: GradedElement.from_torus(b, CTX, GRID)  # noqa: E731
        base = [torus.Form(1, (b1, b2)), torus.Form(1, (c1, c2))]
        graded = [torus.Form(1, (lift(b1), lift(b2))), torus.Form(1, (lift(c1), lift(c2)))]

        def same(on_torus, on_grade_zero):
            pairs = zip(on_torus.parts, on_grade_zero.parts)
            return all((g.part(0) - b).norm() == 0.0 for b, g in pairs)

        assert same(base[0].star(), graded[0].star())
        assert same(base[0].right_mul(x), graded[0].right_mul(lift(x)))
        assert same(base[0].left_mul(x), graded[0].left_mul(lift(x)))
        assert same(torus.wedge(*base), torus.wedge(*graded))
        assert same(torus.d_B1(base[0]), torus.d_B1(graded[0]))
        assert same(torus.wedge(*base).star(), torus.wedge(*graded).star())

    def test_degrees_are_checked(self):
        w = torus.dtau1(CTX.theta_float)
        with pytest.raises(ValueError):
            w + torus.Form(2, w.b1)
        with pytest.raises(ValueError):
            torus.wedge(w, torus.Form(0, w.b1))
        with pytest.raises(ValueError):
            torus.Form(1, w.b1)
        with pytest.raises(ValueError):
            torus.Form(3, w.b1)


class TestOnePartProtocol:
    """The graded operations act part by part through the methods that
    TorusElement and HeisenbergElement share."""

    @pytest.fixture
    def p(self):
        rng = np.random.default_rng(11)
        parts = {m: random_packet(CTX, GRID, m, rng) for m in (-2, -1, 1, 2)}
        parts[0] = torus.random_sparse(CTX.theta_float, rng)
        return GradedElement(parts, CTX, GRID)

    @staticmethod
    def same(x, y):
        if isinstance(x, TorusElement):
            return isinstance(y, TorusElement) and x.coeffs == y.coeffs
        return x.m == y.m and np.array_equal(x.samples, y.samples)

    def agree(self, graded, per_part):
        return graded.parts.keys() == per_part.keys() and all(
            self.same(graded.parts[m], part) for m, part in per_part.items())

    def test_graded_operations_are_the_part_methods(self, p):
        c = 0.7 - 0.2j
        assert self.agree(p.scale(c), {m: x.scale(c) for m, x in p.parts.items()})
        assert self.agree(sigma(p), {m: x.sigma() for m, x in p.parts.items()})
        assert self.agree(star_P(p), {-m: x.star() for m, x in p.parts.items()})
        for j in (1, 2):
            assert self.agree(partial(j, p), {m: x.delta(j) for m, x in p.parts.items()})
        zeta = np.exp(0.3j)
        assert self.agree(gauge_transform(zeta, p),
                          {m: x.scale(zeta**m) for m, x in p.parts.items()})

    def test_part_methods_are_the_module_functions(self, p):
        b = p.parts[0]
        assert b.scale(2.5).coeffs == (b * 2.5).coeffs and b.sigma() is b
        for m in (-2, -1, 1, 2):
            f = p.parts[m]
            assert self.same(f.star(), star_heis(f))
            assert self.same(f.sigma(), f.scale(CTX.eps_pow_float(-m)))
            for j in (1, 2):
                assert self.same(f.delta(j), partial_heis(j, f))
        with pytest.raises(ValueError, match="j must be 1 or 2"):
            p.parts[1].delta(3)


class TestWedge:
    def test_antisymmetry_on_grade_zero(self):
        b1 = GradedElement.from_torus(
            TorusElement(CTX.theta_float, {(0, 0): 1.5}), CTX, GRID
        )
        b2 = GradedElement.from_torus(
            TorusElement(CTX.theta_float, {(0, 0): -0.5j}), CTX, GRID
        )
        w1 = HorizontalForm(1, (b1, b2))
        w2 = HorizontalForm(1, (b2, b1))
        s = wedge_horizontal(w1, w2) + wedge_horizontal(w2, w1)
        assert s.norm() < 1e-12
