"""Exact tests for the real quadratic field layer."""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ncgauge.quadfield import (
    GOLDEN,
    IDENTITY,
    ONE_PLUS_SQRT3,
    SQRT2,
    FieldElement,
    NonQuadratic,
    NotStabilizer,
    OrderUnit,
    StabilizerMatrix,
    ThetaContext,
    classify,
    norm,
    pell_unit,
    phi,
    phi_inverse,
    unit_power_data,
)


def brute_force_type_triple(p, q, d, search=30):
    """Oracle: scan small coprime triples for a*th^2 - b*th + c = 0."""
    th = float(Fraction(p)) + float(Fraction(q)) * math.sqrt(d)
    best = None
    for a in range(-search, search + 1):
        if a == 0:
            continue
        for b in range(-search, search + 1):
            for c in range(-search, search + 1):
                if math.gcd(math.gcd(a, b), c) != 1:
                    continue
                if abs(a * th * th - b * th + c) < 1e-9:
                    delta = b * b - 4 * a * c
                    rt = math.isqrt(max(delta, 0))
                    if delta <= 0 or rt * rt == delta:
                        continue
                    # positive-root convention
                    if abs((b + math.sqrt(delta)) / (2 * a) - th) < 1e-9:
                        cand = (abs(a), (a, b, c))
                        if best is None or cand < best:
                            best = cand
    return best[1]


def brute_force_pell(delta, vmax=2000):
    """Oracle: scan v for 4 + delta v^2 a perfect square."""
    for v in range(1, vmax):
        u2 = 4 + delta * v * v
        r = math.isqrt(u2)
        if r * r == u2:
            return (r, v)
    raise AssertionError("no solution in oracle range")


class TestClassify:
    def test_golden_ratio(self):
        # oracle value computed by brute_force_type_triple('1/2','1/2',5)
        assert brute_force_type_triple("1/2", "1/2", 5) == (1, 1, -1)
        t = classify("1/2", "1/2", 5)
        assert (t.a, t.b, t.c) == (1, 1, -1)
        assert t.delta == 5

    def test_sqrt2(self):
        assert brute_force_type_triple(0, 1, 2) == (1, 0, -2)
        t = classify(0, 1, 2)
        assert (t.a, t.b, t.c) == (1, 0, -2)
        assert t.delta == 8

    def test_square_d_rejected(self):
        with pytest.raises(NonQuadratic):
            classify(0, 1, 4)

    def test_zero_q_rejected(self):
        with pytest.raises(NonQuadratic):
            classify(3, 0, 5)

    def test_negative_q_sign_convention(self):
        # theta = -sqrt(2): positive root convention forces a < 0
        t = classify(0, -1, 2)
        th = t.as_field_element()
        assert t.a * th * th - t.b * th + t.c == 0
        assert float(th) == pytest.approx(-math.sqrt(2))

    @given(
        p=st.fractions(min_value=-3, max_value=3, max_denominator=4),
        q=st.fractions(min_value=-3, max_value=3, max_denominator=4),
        d=st.sampled_from([2, 3, 5, 6, 7, 10, 13]),
    )
    @settings(max_examples=60, deadline=None)
    def test_quadratic_relation_holds(self, p, q, d):
        if q == 0:
            return
        t = classify(p, q, d)
        th = t.as_field_element()
        assert t.a * th * th - t.b * th + t.c == 0
        assert math.gcd(math.gcd(t.a, t.b), t.c) == 1
        assert float(th) == pytest.approx(float(p) + float(q) * math.sqrt(d))


class TestNorm:
    def test_unit(self):
        assert norm(FieldElement.of(1, 0, 5)) == 1

    def test_golden(self):
        assert norm(FieldElement.of(Fraction(1, 2), Fraction(1, 2), 5)) == -1

    def test_three_plus_two_sqrt2(self):
        # 3 + 2*sqrt(2) = 3 + sqrt(8)
        assert norm(FieldElement.of(3, 1, 8)) == 1

    @given(
        r1=st.fractions(min_value=-5, max_value=5, max_denominator=6),
        s1=st.fractions(min_value=-5, max_value=5, max_denominator=6),
        r2=st.fractions(min_value=-5, max_value=5, max_denominator=6),
        s2=st.fractions(min_value=-5, max_value=5, max_denominator=6),
        delta=st.sampled_from([5, 8, 12, 13]),
    )
    @settings(max_examples=100, deadline=None)
    def test_multiplicative(self, r1, s1, r2, s2, delta):
        x = FieldElement.of(r1, s1, delta)
        y = FieldElement.of(r2, s2, delta)
        assert norm(x * y) == norm(x) * norm(y)


def discriminants(hi):
    """Every non-square Delta < hi with Delta = 0 or 1 mod 4."""
    return [d for d in range(5, hi) if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d]


class TestPellUnit:
    @pytest.mark.parametrize(
        "delta,expected",
        [(5, (3, 1)), (8, (6, 2)), (12, (4, 1))],
    )
    def test_small_discriminants(self, delta, expected):
        assert brute_force_pell(delta) == expected
        u = pell_unit(delta)
        assert (u.u, u.v) == expected
        assert norm(u.value) == 1

    def test_values(self):
        assert float(pell_unit(5)) == pytest.approx((3 + math.sqrt(5)) / 2)
        assert float(pell_unit(8)) == pytest.approx(3 + 2 * math.sqrt(2))
        assert float(pell_unit(12)) == pytest.approx(2 + math.sqrt(3))

    def test_invalid_discriminant(self):
        with pytest.raises(NonQuadratic):
            pell_unit(9)

    def test_minimal_unit_beyond_a_linear_scan(self):
        # least solutions of x^2 - d y^2 = 1 for d = 61 (Euler) and d = 181,
        # each the square of the fundamental unit x0 + y0 sqrt(d) of norm -1;
        # the order of discriminant 4d is Z[sqrt(d)], so (u, v) = (2x, y)
        for d, x, y, x0, y0 in [
            (61, 1766319049, 226153980, 29718, 3805),
            (181, 2469645423824185801, 183567298683461940, 1111225770, 82596761),
        ]:
            assert x0 * x0 - d * y0 * y0 == -1
            assert (x0 * x0 + d * y0 * y0, 2 * x0 * y0) == (x, y)
            u = pell_unit(4 * d)
            assert (u.u, u.v) == (2 * x, y)

    def test_every_discriminant_below_10_4(self):
        for delta in discriminants(10**4):
            u = pell_unit(delta)
            assert u.u > 0 and u.v > 0
            assert u.u * u.u - delta * u.v * u.v == 4

    def test_matches_the_scan_below_500(self):
        # the scan is the oracle where it reaches; past its range it shows
        # that no smaller v solves the equation
        vmax = 10**5
        for delta in discriminants(500):
            u = pell_unit(delta)
            if u.v < vmax:
                assert brute_force_pell(delta, vmax) == (u.u, u.v), delta
            else:
                with pytest.raises(AssertionError):
                    brute_force_pell(delta, vmax)


class TestPhi:
    def test_golden(self):
        g = phi(pell_unit(5), GOLDEN)
        assert g.entries() == (2, 1, 1, 1)
        assert g.det == 1
        th = GOLDEN.as_field_element()
        assert g.acts_on(th) == th

    def test_sqrt2(self):
        g = phi(pell_unit(8), SQRT2)
        assert g.entries() == (3, 4, 2, 3)
        th = SQRT2.as_field_element()
        assert g.acts_on(th) == th

    def test_trivial_unit(self):
        g = phi(OrderUnit(2, 0, 5), GOLDEN)
        assert g == IDENTITY

    def test_parity_failure(self):
        # (u, v) from Delta=5 fed to theta with Delta=5 but broken parity is
        # impossible for genuine Pell data, so fake a mismatched discriminant
        with pytest.raises(ValueError):
            phi(pell_unit(8), GOLDEN)


class TestPhiInverse:
    def test_golden_generator(self):
        lam = phi_inverse(StabilizerMatrix(2, 1, 1, 1), GOLDEN)
        assert lam == FieldElement.of(Fraction(3, 2), Fraction(1, 2), 5)
        assert lam == pell_unit(5).value

    def test_identity(self):
        assert phi_inverse(IDENTITY, GOLDEN) == 1

    def test_not_stabilizer(self):
        with pytest.raises(NotStabilizer):
            phi_inverse(StabilizerMatrix(0, -1, 1, 0), GOLDEN)

    def test_round_trip(self):
        g = phi(pell_unit(5), GOLDEN)
        lam = phi_inverse(g, GOLDEN)
        u = OrderUnit(int(lam.r * 2), int(lam.s * 2), 5)
        assert phi(u, GOLDEN) == g


class TestUnitPowerData:
    def test_m0_identity(self):
        d = unit_power_data(0, GOLDEN)
        assert (d.a, d.b, d.c, d.d) == (1, 0, 0, 1)

    def test_m1_golden(self):
        d = unit_power_data(1, GOLDEN)
        assert (d.a, d.b, d.c, d.d) == (2, 1, 1, 1)

    def test_m2_golden(self):
        d = unit_power_data(2, GOLDEN)
        assert (d.a, d.b, d.c, d.d) == (5, 3, 3, 2)

    @pytest.mark.parametrize("t", [GOLDEN, SQRT2])
    def test_homomorphism(self, t):
        ctx = ThetaContext(t)
        for m in range(-6, 7):
            for n in range(-6, 7):
                lhs = ctx.power(m + n)
                rhs = ctx.power(m) @ ctx.power(n)
                assert lhs == rhs

    @pytest.mark.parametrize("t", [GOLDEN, SQRT2])
    def test_rank_identity(self, t):
        # c_m * theta + d_m = eps^m exactly (fractional-linear eigenvalue);
        # the published display writes eps in place of theta, which fails
        # already at m = 2 for the golden ratio
        ctx = ThetaContext(t)
        th = t.as_field_element()
        for m in range(-6, 7):
            p = ctx.power(m)
            assert p.c * th + p.d == ctx.eps**m
        assert not all(
            ctx.power(m).c * ctx.eps + ctx.power(m).d == ctx.eps**m
            for m in range(-6, 7)
        )

    @pytest.mark.parametrize("t", [GOLDEN, SQRT2])
    def test_c_cocycle(self, t):
        # c_{m+n} = c_m eps^{-n} + eps^m c_n exactly in Q[sqrt(Delta)]
        ctx = ThetaContext(t)
        for m in range(-6, 7):
            for n in range(-6, 7):
                lhs = FieldElement.of(ctx.c(m + n), 0, t.delta)
                rhs = ctx.c(m) * ctx.eps ** (-n) + ctx.eps**m * ctx.c(n)
                assert lhs == rhs

    @pytest.mark.parametrize("t", [GOLDEN, SQRT2])
    def test_c_zero_iff_m_zero(self, t):
        ctx = ThetaContext(t)
        for m in range(-6, 7):
            assert (ctx.c(m) == 0) == (m == 0)

    def test_geometric_sum_identity(self):
        # eps^{-m} c_m = (1 - eps^{-2m}) * eps*c_1/(eps^2 - 1) exactly;
        # note the sign: the minus variant printed alongside the curvature
        # computation is wrong, as the m = 1 case already shows
        ctx = ThetaContext(GOLDEN)
        eps = ctx.eps
        coef = eps * ctx.c(1) / (eps * eps - 1)
        for m in range(-6, 7):
            lhs = eps ** (-m) * ctx.c(m)
            rhs = (1 - eps ** (-2 * m)) * coef
            assert lhs == rhs
        assert eps ** (-1) * ctx.c(1) != -(1 - eps ** (-2)) * coef


def naive_pow(x, m):
    """Oracle: |m| repeated products, through the inverse for m < 0."""
    base = x if m >= 0 else x.inverse()
    out = FieldElement.of(1, 0, x.delta)
    for _ in range(abs(m)):
        out = out * base
    return out


def naive_matrix_power(g, m):
    """Oracle: |m| products of plain 2x2 integer tuples."""
    a, b, c, d = g.entries()
    if m < 0:
        a, b, c, d = d, -b, -c, a
    out = (1, 0, 0, 1)
    for _ in range(abs(m)):
        p, q, r, s = out
        out = (p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d)
    return out


def mp(x):
    """A rational as an mpmath number at the working precision."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


THETAS = [GOLDEN, SQRT2, ONE_PLUS_SQRT3]
GRADES = range(-20, 21)


class TestExactPowers:
    @pytest.mark.parametrize("t", THETAS)
    def test_pow_and_cache_match_repeated_products(self, t):
        ctx = ThetaContext(t)
        for m in GRADES:
            expected = naive_pow(ctx.eps, m)
            assert ctx.eps**m == expected
            assert ctx.eps_pow(m) == expected
            assert ctx.eps_pow(m) is ctx.eps_pow(m)

    @pytest.mark.parametrize("t", THETAS)
    def test_power_matches_the_matrix_power_of_phi(self, t):
        ctx = ThetaContext(t)
        g1 = phi(ctx.unit, t)
        # far grades first, so the cache is filled from both ends
        for m in [20, -20, 3, -7, *GRADES]:
            assert ctx.power(m).entries() == naive_matrix_power(g1, m)
        assert unit_power_data(-5, t) == ctx.power(-5)

    @pytest.mark.parametrize("t", THETAS)
    def test_rank_identity_to_grade_20(self, t):
        ctx = ThetaContext(t)
        th = t.as_field_element()
        for m in GRADES:
            p = ctx.power(m)
            assert p.c * th + p.d == ctx.eps_pow(m)


class TestFloatBoundary:
    @pytest.mark.parametrize("t", THETAS)
    def test_eps_pow_float_against_60_digits(self, t):
        ctx = ThetaContext(t)
        with mpmath.workdps(60):
            eps = (mpmath.mpf(ctx.unit.u) + ctx.unit.v * mpmath.sqrt(t.delta)) / 2
            for m in GRADES:
                ref = eps**m
                rel = abs((mpmath.mpf(ctx.eps_pow_float(m)) - ref) / ref)
                assert rel <= 1e-14, (t, m, float(rel))

    @pytest.mark.parametrize("t", THETAS)
    @pytest.mark.parametrize("m", [-740, -800])
    def test_eps_pow_float_underflows_to_zero_or_subnormal(self, t, m):
        # r and s of eps^m are near 1e334 here while eps^m is below the
        # smallest normal float; the result must round, not raise
        ctx = ThetaContext(t)
        with mpmath.workdps(60):
            eps = (mpmath.mpf(ctx.unit.u) + ctx.unit.v * mpmath.sqrt(t.delta)) / 2
            ref = float(eps**m)
        assert abs(ctx.eps_pow_float(m) - ref) <= math.ulp(ref)

    def test_golden_eps_pow_float_minus_740_is_subnormal(self):
        value = ThetaContext(GOLDEN).eps_pow_float(-740)
        assert 0.0 < value < sys.float_info.min

    @pytest.mark.parametrize("t", THETAS)
    def test_eps_pow_float_overflow_still_raises(self, t):
        with pytest.raises(OverflowError):
            ThetaContext(t).eps_pow_float(800)

    @pytest.mark.parametrize(
        "r,s",
        # 161 - 72 sqrt(5) = 1/(161 + 72 sqrt(5)) ~ 0.0031 cancels ~5 digits
        [(Fraction(161), Fraction(-72)), (Fraction(-161), Fraction(72)),
         (Fraction(7, 3), Fraction(2, 5)), (Fraction(-1), Fraction(-4, 7)),
         (Fraction(0), Fraction(-1, 3)), (Fraction(5), Fraction(0))],
    )
    def test_float_is_correct_on_every_sign_pattern(self, r, s):
        x = FieldElement(r, s, 5)
        with mpmath.workdps(60):
            ref = mp(r) + mp(s) * mpmath.sqrt(5)
            assert abs(mpmath.mpf(float(x)) - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("p,q,d", [(-1, 1, 2), (-100, 1, 10001), (0, -1, 2),
                                       ("1/2", "1/2", 5), (-7, "-1/3", 11)])
    def test_theta_float_against_60_digits(self, p, q, d):
        t = classify(p, q, d)
        with mpmath.workdps(60):
            ref = mp(p) + mp(q) * mpmath.sqrt(d)
            assert abs(mpmath.mpf(float(t)) - ref) <= 1e-15 * abs(ref)


class TestFieldElement:
    def test_division(self):
        x = FieldElement.of(Fraction(3, 2), Fraction(1, 2), 5)
        assert x / x == 1
        assert x * x.inverse() == 1

    def test_pow_negative(self):
        x = pell_unit(5).value
        assert x**-2 == (x**2).inverse()

    def test_float(self):
        x = FieldElement.of(Fraction(3, 2), Fraction(1, 2), 5)
        assert float(x) == pytest.approx((3 + math.sqrt(5)) / 2)

    def test_delta_mismatch(self):
        with pytest.raises(ValueError):
            FieldElement.of(1, 1, 5) + FieldElement.of(1, 1, 8)
