"""`FieldElement` on integers against the Fraction-pair element it replaced.

`PairElement` below is the former implementation, r + s*sqrt(delta) with r
and s `fractions.Fraction`s, kept here as the oracle.  The integer element
must agree with it exactly: every result, `repr`, `.r`/`.s`, the norm, and
`float()` bit for bit.
"""

import copy
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ncgauge.quadfield import GOLDEN, ONE_PLUS_SQRT3, SQRT2, FieldElement, ThetaContext

THETAS = [GOLDEN, SQRT2, ONE_PLUS_SQRT3]


@dataclass(frozen=True)
class PairElement:
    """r + s*sqrt(delta) with r, s rational (the oracle)."""

    r: Fraction
    s: Fraction
    delta: int

    def _check(self, other):
        if self.delta != other.delta:
            raise ValueError(f"discriminant mismatch: {self.delta} vs {other.delta}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return PairElement(self.r + other.r, self.s + other.s, self.delta)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return PairElement(self.r - other.r, self.s - other.s, self.delta)

    def __neg__(self):
        return PairElement(-self.r, -self.s, self.delta)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return PairElement(
            self.r * other.r + self.delta * self.s * other.s,
            self.r * other.s + self.s * other.r,
            self.delta,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, PairElement):
            return other
        return PairElement(Fraction(other), Fraction(0), self.delta)

    def conjugate(self):
        return PairElement(self.r, -self.s, self.delta)

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of the field")
        return PairElement(self.r / n, -self.s / n, self.delta)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, m):
        base = self if m >= 0 else self.inverse()
        out = PairElement(Fraction(1), Fraction(0), self.delta)
        m = abs(m)
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def norm(self):
        return self.r * self.r - self.delta * self.s * self.s

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.r == other and self.s == 0
        return (
            isinstance(other, PairElement)
            and self.delta == other.delta
            and self.r == other.r
            and self.s == other.s
        )

    def __hash__(self):
        return hash((self.r, self.s, self.delta))

    def __float__(self):
        root = math.sqrt(self.delta)
        if self.r * self.s < 0:
            e = max(_pair_exponent(self.r), _pair_exponent(self.s))
            den = _pair_scaled(self.r, e) - _pair_scaled(self.s, e) * root
            n = self.norm()
            en = _pair_exponent(n)
            return math.ldexp(_pair_scaled(n, en) / den, en - e)
        return float(self.r) + float(self.s) * root

    def __repr__(self):
        return f"({self.r} + {self.s}*sqrt({self.delta}))"


def _pair_exponent(q):
    return abs(q.numerator).bit_length() - q.denominator.bit_length()


def _pair_scaled(q, e):
    return float(q / 2**e) if e >= 0 else float(q * 2**-e)


# -- comparison helpers --------------------------------------------------------


def float_bits(x) -> str:
    try:
        return float(x).hex()
    except OverflowError:
        return "overflow"


def same(new, old):
    """new is the oracle's old, exactly, and in lowest terms."""
    assert isinstance(new, FieldElement)
    assert type(new.r) is Fraction and type(new.s) is Fraction
    assert (new.r, new.s, new.delta) == (old.r, old.s, old.delta)
    assert repr(new) == repr(old)
    assert new.den > 0 and gcd(new.x, new.y, new.den) == 1, (new.x, new.y, new.den)
    assert float_bits(new) == float_bits(old)


def same_error(new_op, old_op):
    """Both raise the same exception type, or both agree."""
    try:
        old = old_op()
    except (ZeroDivisionError, ValueError) as exc:
        with pytest.raises(type(exc)):
            new_op()
        return
    same(new_op(), old)


def against_mpmath(x: FieldElement):
    # x and y*sqrt(Delta) may cancel in all their digits (eps^-200), so
    # the working precision grows with them
    digits = max(len(str(abs(v))) for v in (x.x, x.y, x.den))
    with mpmath.workdps(40 + 2 * digits):
        ref = mpmath.mpf(x.r.numerator) / x.r.denominator + (
            mpmath.mpf(x.s.numerator) / x.s.denominator
        ) * mpmath.sqrt(x.delta)
        assert abs(mpmath.mpf(float(x)) - ref) <= 1e-15 * abs(ref), (x, float(x))


# -- strategies ------------------------------------------------------------------

DELTAS = [5, 8, 12, 13, 21, 28, 1 + 4 * 10**6]
small = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
large = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12))
rational = st.one_of(small, large)
scalar = st.one_of(
    st.integers(-50, 50), st.integers(-(10**25), 10**25), small
)


@st.composite
def element_pairs(draw):
    delta = draw(st.sampled_from(DELTAS))
    values = [draw(rational) for _ in range(4)]
    a = (FieldElement(values[0], values[1], delta), PairElement(values[0], values[1], delta))
    b = (FieldElement(values[2], values[3], delta), PairElement(values[2], values[3], delta))
    return a, b


class TestAgainstTheFractionPairOracle:
    @given(pair=element_pairs(), k=st.integers(-6, 6))
    @settings(max_examples=300, deadline=None)
    def test_field_operations(self, pair, k):
        (a, A), (b, B) = pair
        same(a, A)
        same(a + b, A + B)
        same(a - b, A - B)
        same(a * b, A * B)
        same(-a, -A)
        same(a.conjugate(), A.conjugate())
        assert type(a.norm()) is Fraction and a.norm() == A.norm()
        assert (a == b) == (A == B) and a == FieldElement(A.r, A.s, A.delta)
        same_error(lambda: a / b, lambda: A / B)
        same_error(b.inverse, B.inverse)
        same_error(lambda: b**k, lambda: B**k)
        same_error(lambda: b ** -abs(k), lambda: B ** -abs(k))

    @given(pair=element_pairs(), n=scalar)
    @settings(max_examples=300, deadline=None)
    def test_mixed_with_ints_and_fractions(self, pair, n):
        (a, A), _ = pair
        same(a + n, A + n)
        same(n + a, n + A)
        same(a - n, A - n)
        same(n - a, n - A)
        same(a * n, A * n)
        same(n * a, n * A)
        same_error(lambda: a / n, lambda: A / n)
        same_error(lambda: n / a, lambda: n / A)
        assert (a == n) == (A == n)

    @given(pair=element_pairs())
    @settings(max_examples=200, deadline=None)
    def test_float_is_within_1e_15_of_60_digits(self, pair):
        (a, _), (b, _) = pair
        for x in (a, b, a * b, a - b):
            against_mpmath(x)

    @pytest.mark.parametrize("t", THETAS)
    def test_unit_powers_to_200(self, t):
        ctx = ThetaContext(t)
        E = PairElement(Fraction(ctx.unit.u, 2), Fraction(ctx.unit.v, 2), t.delta)
        same(ctx.eps, E)
        up, UP = ctx.eps, E  # running products eps^k
        for k in range(201):
            for m in (k, -k):
                same(ctx.eps**m, E**m)
                assert ctx.eps_pow(m) == ctx.eps**m
                against_mpmath(ctx.eps**m)
            same(up, UP)
            up, UP = up * ctx.eps, UP * E
        # the cocycle's products c_m eps^-n with integer c_m
        for m in (-200, -37, 1, 200):
            for n in (-200, -1, 0, 45, 200):
                same(ctx.c(m) * ctx.eps_pow(-n) + ctx.eps_pow(m) * ctx.c(n),
                     ctx.c(m) * E**-n + E**m * ctx.c(n))


class TestValueObject:
    @given(pair=element_pairs())
    @settings(max_examples=50, deadline=None)
    def test_pickle_deepcopy_and_immutable(self, pair):
        (a, _), _ = pair
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
            assert (b.x, b.y, b.den, b.delta) == (a.x, a.y, a.den, a.delta)
        for name in ("x", "y", "den", "delta", "r", "s", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, 1)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert (b.x, b.y, b.den, b.delta) == (a.x, a.y, a.den, a.delta)

    def test_constructor_keeps_its_signature(self):
        x = FieldElement(Fraction(3, 2), Fraction(1, 2), 5)
        assert (x.x, x.y, x.den, x.delta) == (3, 1, 2, 5)
        assert FieldElement.of(Fraction(6, 4), "1/2", 5) == x
        assert FieldElement(2, 0, 5) == FieldElement(Fraction(4, 2), 0, 5)
        assert (FieldElement(0, 0, 5).x, FieldElement(0, 0, 5).den) == (0, 1)
        assert type(FieldElement(True, 0, 5).x) is int


class TestHashContract:
    @pytest.mark.parametrize("value", [5, -3, 0, 1, Fraction(7, 3), Fraction(-1, 2)])
    @pytest.mark.parametrize("delta", [5, 8, 12])
    def test_rational_elements_hash_as_their_value(self, value, delta):
        x = FieldElement.of(value, 0, delta)
        for same_value in (value, Fraction(value)):
            assert x == same_value and hash(x) == hash(same_value)
        assert {x: 1}.get(value) == 1 and {value: 1}.get(x) == 1
        assert {x: 1}.get(Fraction(value)) == 1

    def test_dict_lookup_by_int(self):
        assert {FieldElement.of(5, 0, 5): 1}.get(5) == 1
        assert {FieldElement.of(5, 0, 5): 1}.get(Fraction(5)) == 1

    @pytest.mark.parametrize("t", THETAS)
    def test_equal_elements_built_by_different_paths_hash_alike(self, t):
        ctx = ThetaContext(t)
        eps, d, u = ctx.eps, t.delta, ctx.unit
        one = FieldElement.of(1, 0, d)
        pairs = [
            (eps * eps.inverse(), one),
            (eps * eps.inverse(), 1),
            (eps / eps, Fraction(1)),
            (eps**3 / eps**2, eps),
            (eps**-2, (eps * eps).inverse()),
            (FieldElement(Fraction(u.u, 2), Fraction(u.v, 2), d), eps),
            (eps + eps.conjugate(), u.u),
            (eps * eps.conjugate(), one),
            ((eps - 1) * 2 / 4, (eps - 1) / 2),
            (ctx.c(3) * t.as_field_element() + ctx.power(3).d, ctx.eps_pow(3)),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y), (x, y)

    @given(pair=element_pairs())
    @settings(max_examples=100, deadline=None)
    def test_quotient_round_trip_hashes_alike(self, pair):
        (a, _), (b, _) = pair
        if b != 0:
            c = (a * b) / b
            assert c == a and hash(c) == hash(a)
