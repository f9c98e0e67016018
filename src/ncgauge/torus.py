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
d tau^2 = 1.  `Form` holds forms of every degree, with torus coefficients
on the base and graded ones on the total space, where the calculus is
sigma-twisted; `d_B`, `d_B1` and `wedge` serve both.
"""

from __future__ import annotations

import cmath
import functools
import math

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

    A_theta depends on theta only mod 1, and theta % 1.0 is exact, so
    reducing theta before and theta*k after the product keeps the phase
    error at ~|k| ulps of a number below 1 (< 1e-13 for the |k| <= 100
    reachable at desk scale) whatever the size of theta, well inside the
    1e-12 tolerance of the phase-linear identities.  One
    torus-check run makes about 58 000 lookups for about 60 distinct k, so
    the last PHASE_CACHE_SIZE values are kept; a cached value is the
    computed one, bit for bit.
    """
    return cmath.exp(2j * math.pi * (theta % 1.0 * k % 1.0))


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

    def scale(self, c) -> "TorusElement":
        return self * c

    def star(self) -> "TorusElement":
        """(U^m V^n)^* = e^{2 pi i theta m n} U^{-m} V^{-n}, antilinearly."""
        th = self.theta
        return TorusElement._of(
            th, {(-m, -n): a.conjugate() * _phase(th, m * n) for (m, n), a in self.coeffs.items()}
        )

    # -- derivations and calculus ---------------------------------------
    def sigma(self) -> "TorusElement":
        """The twisting automorphism of the graded algebra fixes its grade 0."""
        return self

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


def star(x: TorusElement) -> TorusElement:
    return x.star()


def delta(j: int, x: TorusElement) -> TorusElement:
    return x.delta(j)


class Form:
    """Degree 0, 1 or 2 element of the calculus: a coefficient b in degree
    0, b1 dtau^1 + b2 dtau^2 in degree 1 and b vol_B in degree 2.

    The coefficients are TorusElements (Omega_B) or GradedElements (the
    sigma-twisted horizontal calculus of the graded algebra P, which is
    Omega_B on P_0 = A_theta).  Both share one protocol (+, -, products
    with scalars and with each other, star, sigma, delta(j) and norm), and
    sigma is the identity on the torus.  dtau^j is skew-adjoint and
    vol_B = dtau^1 ^ dtau^2 self-adjoint; both commute with coefficients up
    to the twist, p dtau^j q = p sigma(q) dtau^j and p vol_B q = p
    sigma^2(q) vol_B.  In the pair picture (b1, b2) in B + B of the
    canonical calculus dtau^j = -i e_j, so d_B(b) = (delta_1 b, delta_2 b)
    corresponds to i delta_j(b) dtau^j.
    """

    __slots__ = ("degree", "parts")

    def __init__(self, degree: int, parts):
        parts = tuple(parts) if isinstance(parts, (tuple, list)) else (parts,)
        if degree not in (0, 1, 2):
            raise ValueError("degree must be 0, 1 or 2")
        if len(parts) != (2 if degree == 1 else 1):
            raise ValueError("degree 1 forms have two components, degree 0/2 forms one")
        self.degree = degree
        self.parts = parts

    @property
    def b1(self):
        return self.parts[0]

    @property
    def b2(self):
        return self.parts[1]

    b = b1  # the coefficient of a degree 0 or 2 form

    def _zip(self, other):
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        return zip(self.parts, other.parts)

    def __add__(self, other):
        return Form(self.degree, [a + b for a, b in self._zip(other)])

    def __sub__(self, other):
        return Form(self.degree, [a - b for a, b in self._zip(other)])

    def scale(self, c):
        return Form(self.degree, [p * c for p in self.parts])

    def left_mul(self, x):
        return Form(self.degree, [x * p for p in self.parts])

    def right_mul(self, x):
        """Twisted right action: degree d picks up sigma^d(x)."""
        for _ in range(self.degree):
            x = x.sigma()
        return Form(self.degree, [p * x for p in self.parts])

    def star(self) -> "Form":
        """(p dtau^j)^* = -sigma(p^*) dtau^j, (p vol_B)^* = sigma^2(p^*) vol_B."""
        parts = [p.star() for p in self.parts]
        for _ in range(self.degree):
            parts = [p.sigma() for p in parts]
        return Form(self.degree, [-p for p in parts] if self.degree == 1 else parts)

    def norm(self) -> float:
        return math.hypot(*(p.norm() for p in self.parts))

    def close_to(self, other, tol=1e-12):
        return (self - other).norm() <= tol

    def __repr__(self):
        return f"Form({self.degree}, {self.parts!r})"


def d_B(x) -> Form:
    """Exterior derivative in degree 0: i delta_1(x) dtau^1 + i delta_2(x) dtau^2.

    On the graded algebra it is the canonical potential nabla_0, which
    restricts to d_B on grade 0.
    """
    return Form(1, (x.delta(1) * 1j, x.delta(2) * 1j))


def d_B1(w: Form) -> Form:
    """Exterior derivative in degree 1, in the dtau basis.

    In the pair basis d_B(c1, c2) = delta_2(c1) - delta_1(c2); converting
    both sides gives -i (delta_2(b1) - delta_1(b2)) vol_B for b_j dtau^j.
    """
    return Form(2, (w.b1.delta(2) - w.b2.delta(1)) * complex(0, -1))


def wedge(w: Form, w2: Form) -> Form:
    """(b1 dtau^1 + b2 dtau^2) ^ (c1 dtau^1 + c2 dtau^2) = (b1 sigma(c2) - b2 sigma(c1)) vol_B.

    On the torus sigma is the identity, and this is the pair-basis formula
    (p1,p2)^(q1,q2) = p2 q1 - p1 q2 after dtau^j = -i e_j on both slots,
    since vol_B = dtau^1 ^ dtau^2.
    """
    if w.degree != 1 or w2.degree != 1:
        raise ValueError("wedge is defined on degree-1 forms")
    return Form(2, w.b1 * w2.b2.sigma() - w.b2 * w2.b1.sigma())


def wedge_pairs(p: tuple, q: tuple) -> TorusElement:
    """Literal pair-basis formula (b1,b2) ^ (c1,c2) := b2 c1 - b1 c2."""
    b1, b2 = p
    c1, c2 = q
    return b2 * c1 - b1 * c2


def dtau1(theta: float) -> Form:
    return Form(1, (TorusElement.one(theta), TorusElement.zero(theta)))


def dtau2(theta: float) -> Form:
    return Form(1, (TorusElement.zero(theta), TorusElement.one(theta)))


def random_sparse(theta, rng, terms=4, span=4) -> TorusElement:
    """Random sparse element for property tests: few modes, O(1) coefficients,
    drawn from `rng`, a `numpy.random.Generator`."""
    coeffs = {}
    for _ in range(terms):
        m = int(rng.integers(-span, span + 1))
        n = int(rng.integers(-span, span + 1))
        coeffs[(m, n)] = complex(rng.standard_normal(), rng.standard_normal())
    return TorusElement(theta, coeffs)
