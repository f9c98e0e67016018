"""Gauge layer over the graded algebra: twisted horizontal calculus,
canonical potential, field strength, gauge action, q-deformed vertical
calculus, and the adaptedness tests that single out q = eps^2.

Horizontal forms are `torus.Form`s over GradedElement coefficients, which
carry the sigma-twist: the degree-1 right action is (p . dtau^j) . q =
p sigma(q) . dtau^j and degree 2 twists by sigma^2, so commutators against
scalar forms act grade-wise:

    [i s dtau^j, p] = i s (eps^{-m} - 1) p . dtau^j     on P_m,
    [c vol_B, p]    = c (eps^{-2m} - 1) p . vol_B       on P_m.

On grade 0 this calculus is Omega_B itself: the canonical potential is
`torus.d_B` and the horizontal wedge is `torus.wedge`.

Adaptedness of a potential with respect to the q-deformed calculus on the
structure group reduces, for these free rank-one sectors, to grade-wise
proportionality between the field-strength eigenvalue and the vertical
coefficient 2 pi i [m]_q q^{-m}; that ratio is evaluated exactly in
Q[sqrt(Delta)], a float q read as the binary rational it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .quadfield import FieldElement, ThetaContext, float_or_exact
from .torus import Form, d_B, d_B1, wedge

if TYPE_CHECKING:  # the layer acts on graded elements through their part protocol
    from .heisenberg import GradedElement

TWO_PI = 2.0 * math.pi

# the horizontal calculus is the calculus of `torus.Form`
HorizontalForm = Form
nabla0 = d_B  # i d_1(p) dtau^1 + i d_2(p) dtau^2, which restricts to d_B
wedge_horizontal = wedge  # (p1 sigma(q2) - p2 sigma(q1)) vol_B


# -- potentials --------------------------------------------------------------


@dataclass(frozen=True)
class GaugePotential:
    """nabla_0 + ad_{i(s1 dtau^1 + s2 dtau^2)}; every potential has this form."""

    s1: float = 0.0
    s2: float = 0.0


def _scalar_commutator_term(s: float, p: GradedElement) -> GradedElement:
    """i s (sigma(p) - p): the dtau-component of [i s dtau^j, p]."""
    return (p.sigma() - p).scale(1j * s)


def apply_potential(pot: GaugePotential, p: GradedElement) -> Form:
    """nabla(p) = nabla_0(p) + [i(s1 dtau^1 + s2 dtau^2), p]."""
    eta = (_scalar_commutator_term(pot.s1, p), _scalar_commutator_term(pot.s2, p))
    return nabla0(p) + Form(1, eta)


def prolong(pot: GaugePotential, w: Form) -> Form:
    """Canonical prolongation on degree 1:

    nabla'(p1 dt1 + p2 dt2) = d_B1(w) + eta ^ w + w ^ eta with
    eta = i(s1 dt1 + s2 dt2), d_B1(w) = -i (d_2 p1 - d_1 p2) vol; the
    wedge terms, with scalar coefficients i s_j in grade 0, use the sigma
    twist.
    """
    if w.degree != 1:
        raise ValueError("prolongation acts on degree-1 forms")
    p1, p2 = w.parts
    extra = _scalar_commutator_term(pot.s1, p2) - _scalar_commutator_term(pot.s2, p1)
    return Form(2, d_B1(w).b + extra)


def field_strength(pot: GaugePotential, p: GradedElement) -> Form:
    """F[nabla](p) = -i nabla'(nabla(p)); independent of (s1, s2)."""
    return prolong(pot, apply_potential(pot, p)).scale(-1j)


def volume_commutator(coef: complex, p: GradedElement) -> Form:
    """[coef . vol_B, p] computed in the sigma^2-twisted bimodule."""
    return Form(2, (p.sigma().sigma() - p).scale(coef))


def field_strength_eigenvalue(ctx: ThetaContext, m: int) -> float:
    """Exact 2 pi eps^{-m} c_m, the F[nabla_0] eigenvalue on P_m."""
    return TWO_PI * float(ctx.eps_pow(-m) * ctx.c(m))


def curvature_coefficient(ctx: ThetaContext) -> float:
    """2 pi eps c_1/(eps^2 - 1): F[nabla_0](p) = [p, this . vol_B]."""
    eps = ctx.eps
    return TWO_PI * float(eps * ctx.c(1) / (eps * eps - 1))


# -- gauge group --------------------------------------------------------------


def gauge_transform(zeta: complex, p: GradedElement) -> GradedElement:
    """psi_G(zeta): grade-wise scaling by zeta^m; fixes grade 0."""
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise ValueError("zeta must have modulus one")
    return type(p)({m: part.scale(zeta**m) for m, part in p.parts.items()}, p.ctx, p.grid)


def transformed_potential(pot: GaugePotential, zeta: complex, p: GradedElement) -> Form:
    """(psi_G(zeta) |> nabla)(p) = f_* nabla(f^{-1} p) componentwise."""
    w = apply_potential(pot, gauge_transform(zeta.conjugate(), p))
    return Form(1, [gauge_transform(zeta, comp) for comp in w.parts])


# -- q-calculus ----------------------------------------------------------------


@dataclass(frozen=True)
class QCalculus:
    """1-dimensional bicovariant calculus on the structure group, deformation q.

    d_qt = (2 pi i)^{-1} varpi_q(z -> z) = -i generates the covariant
    1-forms; the structure group acts on them by q^m in degree m and the
    vertical derivative acts on grade m with left coefficient 2 pi i [m]_q.
    """

    q: float
    d_qt: complex = -1j  # the skew-adjoint bicoinvariant generator

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("q must be non-zero")

    def number(self, n: int):
        return q_number(n, self.q)


def q_number(n: int, q):
    """[n]_q = (1 - q^n)/(1 - q) for q != 1, and n at q = 1.

    Works for float, Fraction, and FieldElement arguments alike.
    """
    if isinstance(q, FieldElement):
        if q == 1:
            return FieldElement.of(n, 0, q.delta)
        return (1 - q**n) / (1 - q)
    if q == 1:
        return type(q)(n) if isinstance(q, Fraction) else float(n)
    return (1 - q**n) / (1 - q)


def vertical_coefficients(q, grades) -> dict:
    """Per-grade coefficients of the q-vertical derivative.

    d_v(p) = 2 pi i [m]_q d_qt . p = 2 pi i [m]_q q^{-m} p . d_qt; returns
    {m: (left, right)} where left = 2 pi i [m]_q and right divides out d_qt
    on the other side.  The identity [m]_q q^{-m} = q^{-1} [m]_{q^{-1}}
    holds (not the variant with [m]_{-q}); the direct form is used.
    """
    out = {}
    for m in grades:
        left = q_number(m, q)
        out[m] = (left, left * q ** (-m))
    return out


def vertical_derivative(q, p: GradedElement) -> dict:
    """Left-form coefficients {m: 2 pi i [m]_q} on the grades of p."""
    return {
        m: 2j * math.pi * complex(float(q_number(m, q)))
        for m in p.parts
    }


# -- adaptedness ----------------------------------------------------------------


def _as_field(ctx: ThetaContext, q) -> FieldElement:
    """q in Q[sqrt(Delta)]; a float is the binary rational `Fraction(q)` it is."""
    return q if isinstance(q, FieldElement) else FieldElement.of(Fraction(q), 0, ctx.t.delta)


@lru_cache(maxsize=1)
def _denominators(q: FieldElement, M: int) -> tuple:
    """Pairs (m, [m]_q q^{-m}) over m in [-M, M] \\ {0}, exact in Q[sqrt(Delta)].

    The denominator is -[-m]_q = (q^{-m} - 1) / (1 - q), from powers q^{+-k}
    built with one product each.  The last result is kept, so the two
    adaptedness tests that q_sweep runs back to back on one q share it.
    """
    grades = [m for m in range(-M, M + 1) if m]
    if q == 1:
        return tuple((m, FieldElement.of(m, 0, q.delta)) for m in grades)
    one, inv, scale = FieldElement.of(1, 0, q.delta), q.inverse(), (1 - q).inverse()
    up, down = [one], [one]  # q^k and q^-k for k = 0 .. M
    for _ in range(M):
        up.append(up[-1] * q)
        down.append(down[-1] * inv)
    return tuple((m, ((down[m] if m > 0 else up[-m]) - 1) * scale) for m in grades)


def _factorization_test(ctx: ThetaContext, q, M: int, tol: float, numerator):
    """Do the ratios numerator(m) / ([m]_q q^{-m}) agree over m in [-M, M] \\ {0}?

    numerator(m) is exact in Q[sqrt(Delta)], and so is the denominator: a
    float q is read as its exact rational.  The ratios of an exact q are
    compared with ==, those of a float q relatively at tol (`_within`);
    q = 0 and a float q that is not finite are not adapted.  Returns the
    report without its wrapper's key, and the common ratio (None unless
    adapted).  The report gives q and each ratio as a float, or as its
    exact value, a string, when it does not fit one (eps^-m c_m on a large
    unit, or q = eps^2000).
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    exact, qv = not isinstance(q, float), float_or_exact(q)
    if q == 0 or not exact and not math.isfinite(q):
        reason = "q = 0" if q == 0 else f"q = {q}"
        return {"q": qv, "adapted": False, "reason": reason, "exact": exact}, None
    ratios = {}
    for m, den in _denominators(_as_field(ctx, q), M):
        if den == 0:
            return {"q": qv, "adapted": False, "reason": f"[{m}]_q = 0", "exact": exact}, None
        ratios[m] = numerator(m) / den
    first = next(iter(ratios.values()))
    adapted = all(v == first if exact else _within(v, first, tol) for v in ratios.values())
    report = {"q": qv, "adapted": adapted, "ratios": {m: float_or_exact(v) for m, v in ratios.items()},
              "exact": exact}
    return report, float(first) if adapted else None


def _within(v: FieldElement, w: FieldElement, tol: float) -> bool:
    """|v - w| <= tol * max(|w|, 1), the gap formed exactly and compared in
    floats, relative to w when |w| is beyond the float range; a gap beyond
    the float range is never within tol."""
    gap = v - w
    try:
        scale = max(abs(float(w)), 1.0)
    except OverflowError:
        gap, scale = gap / w, 1.0
    try:
        return abs(float(gap)) <= tol * scale
    except OverflowError:
        return False


def adaptedness_test(ctx: ThetaContext, q, M: int = 4, tol: float = 1e-8) -> dict:
    """Does F[nabla] factor through the q-vertical derivative?

    For each grade m in [-M, M] \\ {0} the factorization requires a single
    constant c with  2 pi eps^{-m} c_m = 2 pi i [m]_q q^{-m} c;  the ratios
    eps^{-m} c_m / ([m]_q q^{-m}) must therefore agree across m.  They are
    formed in exact field arithmetic, a float q read as its exact rational;
    those of a float q are compared relatively at tol.  The report carries
    the curvature constant c = F(d_qt)-coefficient, equal to -i eps c_1 at
    q = eps^2.
    """
    report, ratio = _factorization_test(
        ctx, q, M, tol, lambda m: ctx.eps_pow(-m) * ctx.c(m)
    )
    # F(d_qt) = c vol_B with c = -i * ratio
    report["curvature_constant"] = None if ratio is None else complex(0.0, -ratio)
    return report


def relative_adaptedness_test(ctx: ThetaContext, q, M: int = 4, tol: float = 1e-8) -> dict:
    """Does psi_at(s1,s2) factor through the q-vertical derivative?

    The relative potential acts on P_m as i(eps^{-m} - 1) per dtau^j, so
    factorization needs (eps^{-m} - 1)/([m]_q q^{-m}) constant across m;
    true precisely at q = eps, where the connection one-form coefficient is
    -(eps - 1)/(2 pi) per unit s_j.
    """
    report, ratio = _factorization_test(ctx, q, M, tol, lambda m: ctx.eps_pow(-m) - 1)
    report["form_coefficient"] = None if ratio is None else ratio / TWO_PI
    return report


def q_sweep(ctx: ThetaContext, qs, M: int = 4, tol: float = 1e-8) -> list:
    """Run both adaptedness tests over a list of q values."""
    out = []
    for q in qs:
        a = adaptedness_test(ctx, q, M, tol)
        r = relative_adaptedness_test(ctx, q, M, tol)
        out.append(
            {
                "q": a["q"],
                "adapted": a["adapted"],
                "relative_adapted": r["adapted"],
                "constant": a["curvature_constant"],
            }
        )
    return out
