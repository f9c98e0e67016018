"""Exact arithmetic for real quadratic irrationalities.

Everything here is done with arbitrary-precision integers and rationals;
square roots are never evaluated inside exact operations.  A quadratic
irrationality theta is stored as its type triple (a, b, c), the unique
coprime integer triple with a != 0 such that

    theta = (b + sqrt(Delta)) / (2a),     Delta = b^2 - 4ac > 0 non-square,

equivalently a*theta^2 - b*theta + c = 0.  Elements of Q[sqrt(Delta)] are
pairs of rationals, units of the quadratic order are Pell solutions of
x^2 - Delta y^2 = 4, and the stabilizer of theta in SL(2,Z) is reached
through the unit group.
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


@dataclass(frozen=True)
class FieldElement:
    """r + s*sqrt(delta) with r, s rational."""

    r: Fraction
    s: Fraction
    delta: int

    @staticmethod
    def of(r, s, delta: int) -> "FieldElement":
        return FieldElement(Fraction(r), Fraction(s), delta)

    def _check(self, other: "FieldElement"):
        if self.delta != other.delta:
            raise ValueError(f"discriminant mismatch: {self.delta} vs {other.delta}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return FieldElement(self.r + other.r, self.s + other.s, self.delta)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return FieldElement(self.r - other.r, self.s - other.s, self.delta)

    def __neg__(self):
        return FieldElement(-self.r, -self.s, self.delta)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return FieldElement(
            self.r * other.r + self.delta * self.s * other.s,
            self.r * other.s + self.s * other.r,
            self.delta,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            return other
        return FieldElement(Fraction(other), Fraction(0), self.delta)

    def conjugate(self) -> "FieldElement":
        return FieldElement(self.r, -self.s, self.delta)

    def inverse(self) -> "FieldElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of the field")
        return FieldElement(self.r / n, -self.s / n, self.delta)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, m: int) -> "FieldElement":
        """Exact x^m by binary exponentiation: O(log |m|) products."""
        base = self if m >= 0 else self.inverse()
        out = FieldElement(Fraction(1), Fraction(0), self.delta)
        m = abs(m)
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def norm(self) -> Fraction:
        return self.r * self.r - self.delta * self.s * self.s

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.r == other and self.s == 0
        return (
            isinstance(other, FieldElement)
            and self.delta == other.delta
            and self.r == other.r
            and self.s == other.s
        )

    def __hash__(self):
        return hash((self.r, self.s, self.delta))

    def __float__(self) -> float:
        """r + s*sqrt(Delta) to a few ulp, with no cancellation.

        When r and s*sqrt(Delta) have opposite signs the direct sum loses
        digits (eps^-m is a small difference of two large terms), so that
        branch divides the exact norm by the like-signed sum instead:
        r + s*sqrt(Delta) = N(x) / (r - s*sqrt(Delta)).  There r, s and
        N(x) may lie beyond the float range while the value is tiny (eps^-800
        is about 1e-334), so each is scaled by a power of two before it is
        rounded and the quotient is scaled back by ldexp, which gives 0.0 or
        a subnormal on underflow and still raises OverflowError on overflow.
        """
        root = math.sqrt(self.delta)
        if self.r * self.s < 0:
            e = max(_binary_exponent(self.r), _binary_exponent(self.s))
            den = _scaled_float(self.r, e) - _scaled_float(self.s, e) * root
            n = self.norm()
            en = _binary_exponent(n)
            return math.ldexp(_scaled_float(n, en) / den, en - e)
        return float(self.r) + float(self.s) * root

    def __repr__(self):
        return f"({self.r} + {self.s}*sqrt({self.delta}))"


def _binary_exponent(q: Fraction) -> int:
    """An e with |q| / 2**e in [1/2, 2]: the difference of bit lengths."""
    return abs(q.numerator).bit_length() - q.denominator.bit_length()


def _scaled_float(q: Fraction, e: int) -> float:
    """float(q / 2**e), with the scaling done exactly before rounding."""
    return float(q / 2**e) if e >= 0 else float(q * 2**-e)


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
        return FieldElement(Fraction(self.u, 2), Fraction(self.v, 2), self.delta)

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
    """Element of SL(2,Z)_theta."""

    g11: int
    g12: int
    g21: int
    g22: int

    def __post_init__(self):
        if self.det != 1:
            raise ValueError(f"determinant {self.det} != 1")

    @property
    def det(self) -> int:
        return self.g11 * self.g22 - self.g12 * self.g21

    def entries(self):
        return (self.g11, self.g12, self.g21, self.g22)

    def __matmul__(self, other: "StabilizerMatrix") -> "StabilizerMatrix":
        return StabilizerMatrix(
            self.g11 * other.g11 + self.g12 * other.g21,
            self.g11 * other.g12 + self.g12 * other.g22,
            self.g21 * other.g11 + self.g22 * other.g21,
            self.g21 * other.g12 + self.g22 * other.g22,
        )

    def inverse(self) -> "StabilizerMatrix":
        return StabilizerMatrix(self.g22, -self.g12, -self.g21, self.g11)

    def acts_on(self, x: FieldElement) -> FieldElement:
        """Fractional-linear action (g11*x + g12)/(g21*x + g22)."""
        return (self.g11 * x + self.g12) / (self.g21 * x + self.g22)

    def __repr__(self):
        return f"[[{self.g11}, {self.g12}], [{self.g21}, {self.g22}]]"


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
    """Phi^{-1}(g) = g21*theta + g22, exactly in Q[sqrt(Delta)]."""
    if not stabilizes(g, t):
        raise NotStabilizer(f"{g} does not fix theta")
    return g.g21 * t.as_field_element() + g.g22


@dataclass(frozen=True)
class UnitPowerData:
    """Integer entries (a_m, b_m; c_m, d_m) of Phi(eps^m)."""

    m: int
    a: int
    b: int
    c: int
    d: int

    def matrix(self) -> StabilizerMatrix:
        return StabilizerMatrix(self.a, self.b, self.c, self.d)


def unit_power_data(m: int, t: QuadraticIrrational) -> UnitPowerData:
    """Entries of Phi(eps^m); see `ThetaContext.power`."""
    return ThetaContext(t).power(m)


class ThetaContext:
    """Bundle of exact data for one quadratic irrationality.

    Caches the Pell unit, Phi(eps^m) entries, and exact and float powers of
    eps; shared by the torus/Heisenberg/gauge layers so every exact quantity
    has a single source.
    """

    def __init__(self, t: QuadraticIrrational):
        self.t = t
        self.unit = pell_unit(t.delta)
        self.eps = self.unit.value  # exact FieldElement
        self.theta_float = float(t)
        self.eps_float = float(self.eps)
        self._g1 = phi(self.unit, t)
        self._powers: dict[int, UnitPowerData] = {
            0: UnitPowerData(0, *IDENTITY.entries())
        }
        self._eps_powers: dict[int, FieldElement] = {}
        self._eps_floats: dict[int, float] = {}

    @classmethod
    def from_rational(cls, p, q, d: int) -> "ThetaContext":
        return cls(classify(p, q, d))

    def power(self, m: int) -> UnitPowerData:
        """Entries of Phi(eps^m) by exact integer matrix products.

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
            out = self._powers[k].matrix()
            while k != m:
                k += step
                out = out @ g
                self._powers[k] = UnitPowerData(k, *out.entries())
        return self._powers[m]

    def c(self, m: int) -> int:
        return self.power(m).c

    def eps_pow(self, m: int) -> FieldElement:
        if m not in self._eps_powers:
            self._eps_powers[m] = self.eps**m
        return self._eps_powers[m]

    def eps_pow_float(self, m: int) -> float:
        if m not in self._eps_floats:
            self._eps_floats[m] = float(self.eps_pow(m))
        return self._eps_floats[m]

    def __repr__(self):
        return f"ThetaContext({self.t!r}, eps={self.eps!r})"


GOLDEN = QuadraticIrrational(1, 1, -1)
SQRT2 = QuadraticIrrational(1, 0, -2)
ONE_PLUS_SQRT3 = QuadraticIrrational(1, 2, -2)
