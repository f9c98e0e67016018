"""Exact arithmetic for real quadratic irrationalities.

Everything here is done with arbitrary-precision integers and rationals;
square roots are never evaluated inside exact operations.  A quadratic
irrationality theta is stored as its type triple (a, b, c), the unique
coprime integer triple with a != 0 such that

    theta = (b + sqrt(Delta)) / (2a),     Delta = b^2 - 4ac > 0 non-square,

equivalently a*theta^2 - b*theta + c = 0.  An element of Q[sqrt(Delta)]
is (x + y*sqrt(Delta))/den, integers over one denominator in lowest terms
(Cohen, A Course in Computational Algebraic Number Theory, ch. 4), units of
the quadratic order are Pell solutions of x^2 - Delta y^2 = 4, and the
stabilizer of theta in SL(2,Z) is reached through the unit group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


class NonQuadratic(ValueError):
    """Input does not define a genuine quadratic irrationality."""


class NonIntegral(ValueError):
    """Matrix entries failed the integrality/parity check."""


class NotStabilizer(ValueError):
    """Matrix does not fix theta under the fractional-linear action."""


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


class FieldElement:
    """(x + y*sqrt(delta))/den with integers in lowest terms.

    gcd(x, y, den) = 1 and den > 0, so one element has one representation
    and each exact result costs one gcd.  `FieldElement(r, s, delta)` builds
    r + s*sqrt(delta) from rationals r and s; `.r` and `.s` return them as
    Fractions.  Elements are immutable; pickle and copy rebuild them through
    `__reduce__`.
    """

    __slots__ = ("x", "y", "den", "delta")

    def __init__(self, r, s, delta: int):
        r, s = Fraction(r), Fraction(s)
        # r and s are in lowest terms, so over the lcm of their
        # denominators gcd(x, y, den) = 1 already
        den = math.lcm(r.denominator, s.denominator)
        x, y = r.numerator * (den // r.denominator), s.numerator * (den // s.denominator)
        _set_x(self, x)
        _set_y(self, y)
        _set_den(self, den)
        _set_delta(self, delta)

    @staticmethod
    def of(r, s, delta: int) -> "FieldElement":
        return FieldElement(r, s, delta)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldElement is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FieldElement is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _element, (self.x, self.y, self.den, self.delta)

    @property
    def r(self) -> Fraction:
        return Fraction(self.x, self.den)

    @property
    def s(self) -> Fraction:
        return Fraction(self.y, self.den)

    def _check(self, other: "FieldElement"):
        if self.delta != other.delta:
            raise ValueError(f"discriminant mismatch: {self.delta} vs {other.delta}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        d1, d2 = self.den, other.den
        return _reduced(
            self.x * d2 + other.x * d1, self.y * d2 + other.y * d1, d1 * d2, self.delta
        )

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __neg__(self):
        return _element(-self.x, -self.y, self.den, self.delta)

    def __mul__(self, other):
        if isinstance(other, int):
            # dividing out gcd(other, den) alone leaves lowest terms
            g = gcd(other, self.den)
            k = other // g
            return _element(self.x * k, self.y * k, self.den // g, self.delta)
        other = self._coerce(other)
        self._check(other)
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return _reduced(
            x1 * x2 + self.delta * y1 * y2, x1 * y2 + y1 * x2, self.den * other.den, self.delta
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return -self + other

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            return other
        q = Fraction(other)
        return _element(q.numerator, 0, q.denominator, self.delta)

    def conjugate(self) -> "FieldElement":
        return _element(self.x, -self.y, self.den, self.delta)

    def _norm_numerator(self) -> int:
        """x^2 - Delta y^2, the norm times den^2."""
        return self.x * self.x - self.delta * self.y * self.y

    def inverse(self) -> "FieldElement":
        """den (x - y sqrt(Delta)) / (x^2 - Delta y^2)."""
        n = self._norm_numerator()
        if n == 0:
            raise ZeroDivisionError("zero element of the field")
        return _reduced(self.den * self.x, -self.den * self.y, n, self.delta)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, m: int) -> "FieldElement":
        """Exact x^m by binary exponentiation: O(log |m|) products."""
        base = self if m >= 0 else self.inverse()
        out = _element(1, 0, 1, self.delta)
        m = abs(m)
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def norm(self) -> Fraction:
        return Fraction(self._norm_numerator(), self.den * self.den)

    def __eq__(self, other):
        # both sides are in lowest terms with positive denominators
        if isinstance(other, FieldElement):
            return (self.x, self.y, self.den, self.delta) == (other.x, other.y, other.den, other.delta)
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other.numerator and self.den == other.denominator
        return False

    def __hash__(self):
        # a rational element equals its int or Fraction, so it hashes as one
        if self.y == 0:
            return hash(self.x if self.den == 1 else Fraction(self.x, self.den))
        return hash((self.x, self.y, self.den, self.delta))

    def __float__(self) -> float:
        """(x + y*sqrt(Delta))/den to a few ulp, with no cancellation.

        When x and y*sqrt(Delta) have opposite signs the direct sum loses
        digits (eps^-m is a small difference of two large terms), so that
        branch divides the exact norm by the like-signed sum instead:
        r + s*sqrt(Delta) = N / (r - s*sqrt(Delta)) with r = x/den,
        s = y/den and N = r^2 - Delta s^2.  There r, s and N may lie beyond
        the float range while the value is tiny (eps^-800 is about 1e-334),
        so each is scaled by a power of two before it is rounded and the
        quotient is scaled back by ldexp, which gives 0.0 or a subnormal on
        underflow and still raises OverflowError on overflow.
        """
        x, y, den = self.x, self.y, self.den
        root = math.sqrt(self.delta)
        if x * y < 0:
            e = max(_binary_exponent(x, den), _binary_exponent(y, den))
            scaled = _scaled_float(x, den, e) - _scaled_float(y, den, e) * root
            n, n_den = self._norm_numerator(), den * den
            en = _binary_exponent(n, n_den)
            return math.ldexp(_scaled_float(n, n_den, en) / scaled, en - e)
        return x / den + y / den * root

    def __repr__(self):
        return f"({self.r} + {self.s}*sqrt({self.delta}))"


_new_element = object.__new__
# the slot setters bypass the refusing __setattr__; only this module uses them
_set_x, _set_y, _set_den, _set_delta = (
    vars(FieldElement)[name].__set__ for name in FieldElement.__slots__
)


def _element(x: int, y: int, den: int, delta: int) -> FieldElement:
    """(x + y sqrt(delta))/den from integers already in lowest terms, den > 0."""
    out = _new_element(FieldElement)
    _set_x(out, x)
    _set_y(out, y)
    _set_den(out, den)
    _set_delta(out, delta)
    return out


def _reduced(x: int, y: int, den: int, delta: int) -> FieldElement:
    """(x + y sqrt(delta))/den brought to lowest terms with den > 0; den != 0."""
    g = gcd(x, y, den)
    if den < 0:
        g = -g
    if g != 1:
        x, y, den = x // g, y // g, den // g
    return _element(x, y, den, delta)


def _binary_exponent(num: int, den: int) -> int:
    """An e with |num/den| / 2**e in [1/2, 2]: the difference of the bit
    lengths of the fraction in lowest terms."""
    g = gcd(num, den)
    return abs(num // g).bit_length() - (den // g).bit_length()


def _scaled_float(num: int, den: int, e: int) -> float:
    """num / (den * 2**e), with the scaling done exactly before the one rounding."""
    return num / (den << e) if e >= 0 else (num << -e) / den


def float_or_exact(v) -> float | str:
    """float(v) for a report, or the exact value as a string when it lies
    beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return str(v)


def norm(x: FieldElement) -> Fraction:
    """Field norm r^2 - Delta*s^2; multiplicative and unit-preserving."""
    return x.norm()


@dataclass(frozen=True)
class QuadraticIrrational:
    """Type triple (a, b, c) of theta = (b + sqrt(Delta))/(2a)."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0:
            raise NonQuadratic("leading coefficient a must be non-zero")
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise NonQuadratic("type triple must be coprime")
        if self.delta <= 0 or _is_square(self.delta):
            raise NonQuadratic(f"b^2-4ac = {self.delta} is not a positive non-square")

    @property
    def delta(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def as_field_element(self) -> FieldElement:
        """theta itself, exactly, inside Q[sqrt(Delta)]."""
        return FieldElement(
            Fraction(self.b, 2 * self.a), Fraction(1, 2 * self.a), self.delta
        )

    def __float__(self) -> float:
        # for b < 0 the sum b + sqrt(Delta) cancels; the like-signed
        # difference in 2c/(b - sqrt(Delta)), equal since b^2 - Delta = 4ac,
        # does not
        if self.b < 0:
            return 2 * self.c / (self.b - math.sqrt(self.delta))
        return float(self.b + math.sqrt(self.delta)) / (2 * self.a)

    def __repr__(self):
        return f"QuadraticIrrational(a={self.a}, b={self.b}, c={self.c}, delta={self.delta})"


def classify(p, q, d: int) -> QuadraticIrrational:
    """Type triple of theta = p + q*sqrt(d) for rational p, q and integer d.

    Raises NonQuadratic when q = 0 or d is a perfect square.  The sign of
    the triple is fixed by requiring sqrt(Delta) = 2a*theta - b > 0, which
    amounts to sign(a) = sign(q).
    """
    p, q = Fraction(p), Fraction(q)
    if q == 0:
        raise NonQuadratic("q = 0 gives a rational number")
    if d <= 0 or _is_square(d):
        raise NonQuadratic(f"d = {d} is a perfect square or non-positive")
    # minimal polynomial: theta^2 - 2p theta + (p^2 - q^2 d) = 0
    two_p = 2 * p
    const = p * p - q * q * d
    den = math.lcm(two_p.denominator, const.denominator)
    a = den
    bb = two_p * den  # coefficient of theta with + sign: a th^2 - bb th + cc
    cc = const * den
    a, b, c = a, int(bb), int(cc)
    g = gcd(gcd(a, b), c)
    a, b, c = a // g, b // g, c // g
    if q < 0:
        a, b, c = -a, -b, -c
    t = QuadraticIrrational(a, b, c)
    # exact sign-convention check: sqrt(Delta) = 2a*theta - b must be the
    # positive root, i.e. (b+sqrt(Delta))/(2a) reproduces p + q*sqrt(d);
    # with k = sqrt(Delta/d) rational, p + q*sqrt(d) = p + (q/k)*sqrt(Delta)
    th = t.as_field_element()
    k = _sqrt_ratio(d, t.delta)
    if a * th * th - b * th + c != 0 or th != FieldElement.of(p, q / k, t.delta):
        raise NonQuadratic("internal: sign convention check failed")
    return t


def _sqrt_ratio(d: int, delta: int) -> Fraction:
    """Rational k with sqrt(delta) = k*sqrt(d); exists since delta = (2aq)^2 d."""
    if delta % d == 0 and _is_square(delta // d):
        return Fraction(isqrt(delta // d))
    # delta/d is a square of a rational; reduce the fraction first
    g = gcd(delta, d)
    num, den = delta // g, d // g
    if _is_square(num) and _is_square(den):
        return Fraction(isqrt(num), isqrt(den))
    raise NonQuadratic("internal: discriminant is not a square multiple of d")


@dataclass(frozen=True)
class OrderUnit:
    """(u + v*sqrt(Delta))/2 with u^2 - Delta*v^2 = 4: a norm-positive unit."""

    u: int
    v: int
    delta: int

    def __post_init__(self):
        if self.u * self.u - self.delta * self.v * self.v != 4:
            raise ValueError("(u, v) is not a solution of u^2 - Delta v^2 = 4")

    @property
    def value(self) -> FieldElement:
        return _reduced(self.u, self.v, 2, self.delta)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"OrderUnit(({self.u} + {self.v}*sqrt({self.delta}))/2)"


def pell_unit(delta: int) -> OrderUnit:
    """Smallest unit (u+v*sqrt(Delta))/2 > 1 with u, v > 0 and u^2-Delta v^2 = 4.

    This is the norm-positive fundamental unit: the fundamental unit itself
    when its norm is +1, its square when the norm is -1.  It is read off one
    period of the continued fraction of the reduced generator
    w = (b + sqrt(Delta))/2 of the order, where b is the largest integer
    below sqrt(Delta) with b = Delta (mod 2).  The complete quotients are
    (P + sqrt(Delta))/Q in exact integers, starting from (P, Q) = (b, 2);
    after l steps they return to (b, 2), and with the convergent
    denominators q_k the fundamental unit is q_{l-1} w + q_{l-2}, of norm
    (-1)^l (Lenstra, "Solving the Pell equation", Notices AMS 2002).  The
    period is O(sqrt(Delta) log Delta) steps, so every valid discriminant
    succeeds.
    """
    if delta <= 0 or _is_square(delta):
        raise NonQuadratic(f"{delta} is not a valid discriminant")
    if delta % 4 not in (0, 1):
        raise NonQuadratic(f"{delta} is not congruent to 0 or 1 mod 4")
    root = isqrt(delta)
    b = root if (root - delta) % 2 == 0 else root - 1
    P, Q = b, 2
    q_prev, q = 1, 0  # q_{k-2}, q_{k-1}
    period = 0
    while True:
        a = (P + root) // Q
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (delta - P * P) // Q
        period += 1
        if (P, Q) == (b, 2):
            break
    # q w + q_prev = (b q + 2 q_prev + q sqrt(Delta))/2
    u, v = b * q + 2 * q_prev, q
    if period % 2:  # norm -1: the norm-positive unit is the square
        u, v = (u * u + delta * v * v) // 2, u * v
    return OrderUnit(u, v, delta)


@dataclass(frozen=True)
class StabilizerMatrix:
    """Element (a, b; c, d) of SL(2,Z)_theta; Phi(eps^m) is (a_m, b_m; c_m, d_m)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.det != 1:
            raise ValueError(f"determinant {self.det} != 1")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "StabilizerMatrix") -> "StabilizerMatrix":
        return StabilizerMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "StabilizerMatrix":
        return StabilizerMatrix(self.d, -self.b, -self.c, self.a)

    def acts_on(self, x: FieldElement) -> FieldElement:
        """Fractional-linear action (a*x + b)/(c*x + d)."""
        return (self.a * x + self.b) / (self.c * x + self.d)

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


IDENTITY = StabilizerMatrix(1, 0, 0, 1)


def stabilizes(g: StabilizerMatrix, t: QuadraticIrrational) -> bool:
    """Exact check that g |> theta = theta."""
    th = t.as_field_element()
    return g.acts_on(th) == th


def phi(unit: OrderUnit, t: QuadraticIrrational) -> StabilizerMatrix:
    """Group isomorphism O_Delta^{x,+} -> SL(2,Z)_theta.

    Phi((u+v*sqrt(Delta))/2) = ((u+bv)/2, -cv; av, (u-bv)/2).  The parity
    u == bv (mod 2) holds automatically for genuine Pell solutions of the
    discriminant of theta; a failure signals inconsistent inputs.
    """
    if unit.delta != t.delta:
        raise ValueError(f"unit has Delta={unit.delta}, theta has Delta={t.delta}")
    u, v = unit.u, unit.v
    a, b, c = t.a, t.b, t.c
    if (u + b * v) % 2 != 0:
        raise NonIntegral("parity condition (u + b v) even fails")
    g = StabilizerMatrix((u + b * v) // 2, -c * v, a * v, (u - b * v) // 2)
    if not stabilizes(g, t):
        raise NonIntegral("constructed matrix does not stabilize theta")
    return g


def phi_inverse(g: StabilizerMatrix, t: QuadraticIrrational) -> FieldElement:
    """Phi^{-1}(g) = c*theta + d, exactly in Q[sqrt(Delta)]."""
    if not stabilizes(g, t):
        raise NotStabilizer(f"{g} does not fix theta")
    return g.c * t.as_field_element() + g.d


def unit_power_data(m: int, t: QuadraticIrrational) -> StabilizerMatrix:
    """Phi(eps^m); see `ThetaContext.power`."""
    return ThetaContext(t).power(m)


class ThetaContext:
    """Bundle of exact data for one quadratic irrationality.

    Caches the Pell unit, the matrices Phi(eps^m), and exact and float
    powers of eps; shared by the torus/Heisenberg/gauge layers so every
    exact quantity has a single source.
    """

    def __init__(self, t: QuadraticIrrational):
        self.t = t
        self.unit = pell_unit(t.delta)
        self.eps = self.unit.value  # exact FieldElement
        self.theta_float = float(t)
        self._g1 = phi(self.unit, t)
        self._powers: dict[int, StabilizerMatrix] = {0: IDENTITY}
        self._eps_powers: dict[int, FieldElement] = {}
        self._eps_floats: dict[int, float] = {}

    @classmethod
    def from_rational(cls, p, q, d: int) -> "ThetaContext":
        return cls(classify(p, q, d))

    def power(self, m: int) -> StabilizerMatrix:
        """Phi(eps^m) by exact integer matrix products.

        eps is the norm-positive fundamental unit for the discriminant of
        theta; negative m steps with the exact SL(2,Z) inverse.  Each new m
        is one product with the cached neighbour Phi(eps^(m -+ 1)).
        Satisfies c_m*theta + d_m = eps^m and c_m = 0 iff m = 0.
        """
        if m not in self._powers:
            step, g = (1, self._g1) if m > 0 else (-1, self._g1.inverse())
            k = m
            while k not in self._powers:
                k -= step
            out = self._powers[k]
            while k != m:
                k += step
                out = self._powers[k] = out @ g
        return self._powers[m]

    def c(self, m: int) -> int:
        return self.power(m).c

    def eps_pow(self, m: int) -> FieldElement:
        if m not in self._eps_powers:
            self._eps_powers[m] = self.eps**m
        return self._eps_powers[m]

    @property
    def eps_float(self) -> float:
        """float(eps), read on demand: a unit beyond the float range raises
        OverflowError here and not when the context is built."""
        return self.eps_pow_float(1)

    def eps_pow_float(self, m: int) -> float:
        if m not in self._eps_floats:
            self._eps_floats[m] = float(self.eps_pow(m))
        return self._eps_floats[m]

    def __repr__(self):
        return f"ThetaContext({self.t!r}, eps={self.eps!r})"


GOLDEN = QuadraticIrrational(1, 1, -1)
SQRT2 = QuadraticIrrational(1, 0, -2)
ONE_PLUS_SQRT3 = QuadraticIrrational(1, 2, -2)
