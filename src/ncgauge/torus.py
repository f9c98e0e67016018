"""Truncated smooth noncommutative 2-torus and its canonical calculus.

Elements are finitely supported sums  sum a_{mn} U^m V^n  in normal order
(all U powers to the left of all V powers), subject to V U = e^{2 pi i
theta} U V.  Moving V^n past U^m' therefore costs a phase e^{2 pi i theta
n m'}, which fixes the product and, together with unitarity of U and V,
the star:

    (U^m V^n)(U^m' V^n') = e^{2 pi i theta n m'} U^{m+m'} V^{n+n'}
    (U^m V^n)^*          = e^{2 pi i theta m n} U^{-m} V^{-n}

The degree-1 and degree-2 parts of the canonical calculus use the central
basis d tau^1 = (-i, 0), d tau^2 = (0, -i) of B + B and vol_B = d tau^1 ^
d tau^2 = 1.
"""

from __future__ import annotations

import cmath
import functools
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
# (theta, k) pairs whose phase e^{2 pi i theta k} is kept.  A product of
# random_sparse elements (modes |m|, |n| <= 4) or a star of one asks for
# k = a*b with |a|, |b| <= 8: 61 values per theta, 183 over three thetas.
PHASE_CACHE_SIZE = 256


class ThetaMismatch(ValueError):
    """Operands live over different deformation parameters."""


@functools.lru_cache(maxsize=PHASE_CACHE_SIZE)
def _phase(theta: float, k: int) -> complex:
    """e^{2 pi i theta k} for exact integer k and double theta.

    Reducing theta*k mod 1 before exponentiating keeps the phase error at
    ~|k| ulps (< 1e-13 for the |k| <= 100 reachable at desk scale), well
    inside the 1e-12 tolerance of the phase-linear identities.  One
    torus-check run makes about 58 000 lookups for about 60 distinct k, so
    the last PHASE_CACHE_SIZE values are kept; a cached value is the
    computed one, bit for bit.
    """
    return cmath.exp(2j * math.pi * (theta * k % 1.0))


class TorusElement:
    """Finitely supported Z^2-indexed coefficient map over a fixed theta."""

    __slots__ = ("theta", "coeffs")

    def __init__(self, theta: float, coeffs: dict | None = None, tol: float = 0.0):
        self.theta = float(theta)
        cc = {}
        if coeffs:
            for (m, n), v in coeffs.items():
                v = complex(v)
                # a NaN is kept, as `_of` keeps it
                if v != 0 and not abs(v) <= tol:
                    cc[(int(m), int(n))] = v
        self.coeffs = cc

    @classmethod
    def _of(cls, theta: float, coeffs: dict) -> "TorusElement":
        """An element from coefficients the class computed itself.

        theta is already a float, the keys integer pairs and the values
        complex, so only exact zeros are dropped; `__init__` checks
        callers' input.  A NaN from an overflow stays, so that norm()
        reads NaN rather than a clean 0.
        """
        out = object.__new__(cls)
        out.theta = theta
        out.coeffs = {k: v for k, v in coeffs.items() if v}
        return out

    # -- constructors -------------------------------------------------
    @classmethod
    def monomial(cls, theta: float, m: int, n: int, coeff=1.0) -> "TorusElement":
        return cls(theta, {(m, n): complex(coeff)})

    @classmethod
    def one(cls, theta: float) -> "TorusElement":
        return cls.monomial(theta, 0, 0)

    @classmethod
    def zero(cls, theta: float) -> "TorusElement":
        return cls(theta, {})

    @classmethod
    def U(cls, theta: float) -> "TorusElement":
        return cls.monomial(theta, 1, 0)

    @classmethod
    def V(cls, theta: float) -> "TorusElement":
        return cls.monomial(theta, 0, 1)

    # -- ring structure ------------------------------------------------
    def _check(self, other: "TorusElement"):
        if self.theta != other.theta:
            raise ThetaMismatch(f"theta {self.theta} vs {other.theta}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = TorusElement.monomial(self.theta, 0, 0, other)
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return TorusElement._of(self.theta, out)

    __radd__ = __add__

    def __neg__(self):
        return TorusElement._of(self.theta, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = TorusElement.monomial(self.theta, 0, 0, other)
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return TorusElement._of(self.theta, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return TorusElement._of(
                self.theta, {k: v * other for k, v in self.coeffs.items()}
            )
        self._check(other)
        out: dict = {}
        th = self.theta
        terms = other.coeffs.items()
        for (m, n), a in self.coeffs.items():
            for (mp, np_), b in terms:
                key = (m + mp, n + np_)
                out[key] = out.get(key, 0) + a * b * _phase(th, n * mp)
        return TorusElement._of(th, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.star() ** (-k) if self.is_monomial_unitary() else NotImplemented
        out = TorusElement.one(self.theta)
        for _ in range(k):
            out = out * self
        return out

    def is_monomial_unitary(self) -> bool:
        return len(self.coeffs) == 1 and all(
            abs(abs(v) - 1) < 1e-12 for v in self.coeffs.values()
        )

    def star(self) -> "TorusElement":
        """(U^m V^n)^* = e^{2 pi i theta m n} U^{-m} V^{-n}, antilinearly."""
        th = self.theta
        return TorusElement._of(
            th, {(-m, -n): a.conjugate() * _phase(th, m * n) for (m, n), a in self.coeffs.items()}
        )

    # -- derivations and calculus ---------------------------------------
    def delta(self, j: int) -> "TorusElement":
        """delta_1(U^m V^n) = 2 pi m U^m V^n, delta_2 likewise with n."""
        if j not in (1, 2):
            raise ValueError("j must be 1 or 2")
        return TorusElement._of(
            self.theta, {mn: TWO_PI * mn[j - 1] * v for mn, v in self.coeffs.items()}
        )

    # -- analysis helpers ------------------------------------------------
    def norm(self) -> float:
        """l^2 norm of the coefficient map."""
        return math.sqrt(sum(abs(v) ** 2 for v in self.coeffs.values()))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(v) <= tol for v in self.coeffs.values())

    def coefficient(self, m: int, n: int) -> complex:
        return self.coeffs.get((m, n), 0j)

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.theta == other.theta and (self - other).is_zero()

    def close_to(self, other: "TorusElement", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def __repr__(self):
        if not self.coeffs:
            return "TorusElement(0)"
        terms = ", ".join(
            f"({m},{n}): {v:.6g}" for (m, n), v in sorted(self.coeffs.items())
        )
        return f"TorusElement({terms})"

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        records = [
            [m, n, v.real, v.imag] for (m, n), v in sorted(self.coeffs.items())
        ]
        return json.dumps({"theta": self.theta, "terms": records})

    @classmethod
    def from_json(cls, text: str) -> "TorusElement":
        data = json.loads(text)
        coeffs = {(m, n): complex(re, im) for m, n, re, im in data["terms"]}
        return cls(data["theta"], coeffs)


def multiply(x: TorusElement, y: TorusElement) -> TorusElement:
    return x * y


def star(x: TorusElement) -> TorusElement:
    return x.star()


def delta(j: int, x: TorusElement) -> TorusElement:
    return x.delta(j)


class OneFormB:
    """b1 * dtau^1 + b2 * dtau^2 with central skew-adjoint dtau^j.

    Coefficients are stored in the (dtau^1, dtau^2) basis; the pair picture
    (b1, b2) in B + B of the canonical calculus is dtau^j = -i * e_j, so
    d_B(b) = (delta_1 b, delta_2 b) corresponds to i delta_j(b) dtau^j.
    """

    __slots__ = ("b1", "b2")

    def __init__(self, b1: TorusElement, b2: TorusElement):
        if b1.theta != b2.theta:
            raise ThetaMismatch("component thetas differ")
        self.b1 = b1
        self.b2 = b2

    @property
    def theta(self):
        return self.b1.theta

    def __add__(self, other):
        return OneFormB(self.b1 + other.b1, self.b2 + other.b2)

    def __sub__(self, other):
        return OneFormB(self.b1 - other.b1, self.b2 - other.b2)

    def left_mul(self, x: TorusElement) -> "OneFormB":
        return OneFormB(x * self.b1, x * self.b2)

    def right_mul(self, x: TorusElement) -> "OneFormB":
        # dtau^j central in Omega_B: x may slide through
        return OneFormB(self.b1 * x, self.b2 * x)

    def star(self) -> "OneFormB":
        # (b dtau^j)^* = dtau^{j*} b^* = -dtau^j b^* = -b^* dtau^j
        return OneFormB(-self.b1.star(), -self.b2.star())

    def norm(self):
        return math.hypot(self.b1.norm(), self.b2.norm())

    def close_to(self, other, tol=1e-12):
        return (self - other).norm() <= tol

    def __repr__(self):
        return f"OneFormB({self.b1!r} dtau1 + {self.b2!r} dtau2)"


class TwoFormB:
    """b * vol_B with vol_B = dtau^1 ^ dtau^2 = 1 central self-adjoint."""

    __slots__ = ("b",)

    def __init__(self, b: TorusElement):
        self.b = b

    def __add__(self, other):
        return TwoFormB(self.b + other.b)

    def __sub__(self, other):
        return TwoFormB(self.b - other.b)

    def star(self) -> "TwoFormB":
        return TwoFormB(self.b.star())

    def norm(self):
        return self.b.norm()

    def close_to(self, other, tol=1e-12):
        return (self - other).norm() <= tol

    def __repr__(self):
        return f"TwoFormB({self.b!r} vol)"


def d_B(x: TorusElement) -> OneFormB:
    """Exterior derivative B -> Omega^1: i delta_1(x) dtau^1 + i delta_2(x) dtau^2."""
    return OneFormB(x.delta(1) * 1j, x.delta(2) * 1j)


def d_B1(w: OneFormB) -> TwoFormB:
    """Exterior derivative Omega^1 -> Omega^2 in the dtau basis.

    In the pair basis d_B(c1, c2) = delta_2(c1) - delta_1(c2); converting
    both sides gives -i (delta_2(b1) - delta_1(b2)) vol_B for b_j dtau^j.
    """
    return TwoFormB((w.b1.delta(2) - w.b2.delta(1)) * complex(0, -1))


def wedge(w: OneFormB, w2: OneFormB) -> TwoFormB:
    """(b1 dtau^1 + b2 dtau^2) ^ (c1 dtau^1 + c2 dtau^2) = (b1 c2 - b2 c1) vol_B.

    Equivalent to the pair-basis formula (p1,p2)^(q1,q2) = p2 q1 - p1 q2
    after dtau^j = -i e_j on both slots, since vol_B = dtau^1 ^ dtau^2.
    """
    return TwoFormB(w.b1 * w2.b2 - w.b2 * w2.b1)


def wedge_pairs(p: tuple, q: tuple) -> TorusElement:
    """Literal pair-basis formula (b1,b2) ^ (c1,c2) := b2 c1 - b1 c2."""
    b1, b2 = p
    c1, c2 = q
    return b2 * c1 - b1 * c2


def dtau1(theta: float) -> OneFormB:
    return OneFormB(TorusElement.one(theta), TorusElement.zero(theta))


def dtau2(theta: float) -> OneFormB:
    return OneFormB(TorusElement.zero(theta), TorusElement.one(theta))


def random_sparse(theta, rng: np.random.Generator, terms=4, span=4) -> TorusElement:
    """Random sparse element for property tests: few modes, O(1) coefficients."""
    coeffs = {}
    for _ in range(terms):
        m = int(rng.integers(-span, span + 1))
        n = int(rng.integers(-span, span + 1))
        coeffs[(m, n)] = complex(rng.standard_normal(), rng.standard_normal())
    return TorusElement(theta, coeffs)
