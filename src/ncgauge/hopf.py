"""Lazy Sweedler/Hochschild cohomology for finite-dimensional Hopf *-algebras.

All data are structure tensors over a fixed basis: a Hopf *-algebra
H, a right H-module *-algebra B, an H-equivariant B-*-bimodule M (playing
the role of the one-forms), optionally a derivation d_B : B -> M and a
degree-2 block (Omega^2, wedge, d_1) for curvature.

ModuleAlgebra exposes its coefficient data as three tables keyed by the
targets "B", "M" and "O2" (of degrees 0, 1, 2): `products` maps a pair of
targets to the target and tensor of their pointwise product (B.B, B.M, M.B,
B.O2, O2.B and the wedge M^M), `stars` holds the antilinear star matrix of
each target and `actions` its H-action tensor.  Convolution elements are
(dim H, dim target) arrays of values on the H basis.  Each identity (the
convolution and its star, graded convolution-centrality, the cocycle
conditions, coboundaries, the Maurer-Cartan and curvature maps, the
module-algebra axioms) is written once, as one contraction of these tables
with the coproduct.  The Hochschild cocycle space is solved as a linear
system whose rows are the same residuals evaluated on the standard basis of
cochains.  The crossed-product realizations Op are checked against
multiplication blocks contracted from the same tables; the crossed product
keeps no product tensor of its own.  Each multiplicativity check
G(x . y) = G(x) . G(y) (and the Leibniz rule of Op(mu)) runs with x on a
generating set of B x| H, the unit block 1 (x) B and e_g (x) 1_B for the
generators g of H, and y on the whole basis.  Induction on word length
extends it to every x, because the x on which it holds are closed under
products as soon as B x| H is associative, which is what the Hopf gate
(`FiniteHopf.axiom_report`) and the data gate (`ModuleAlgebra.data_report`)
establish.  So the checks are only as sound as those gates; the CLI runs
them first and reports a failed gate.  The checks contract about
dim B + dim M multiplication blocks, dim H times fewer than a pass over the
whole basis, and the CLI runs them on every instance: there is no size gate.

Shipped instances are group algebras C[Z_n] acting on the function algebra
C(Z_n) by shift: the symmetric cycle calculus (e+, e- with e+* = e-, the
sign convention matching d(b*) = -d(b)*), the trivial bimodule M = B, and
a non-semisimple "jet" coefficient algebra C(Z_n) (x) C[x,y]/(x^2, y^2)
whose two-nilpotent-direction calculus makes the Maurer-Cartan and
curvature identities genuinely non-zero (over semisimple B every
derivation is inner and MC vanishes on all lazy Sweedler cocycles).  Each
is written as fiber tables, the structure at one point of Z_n, lifted
pointwise over C(Z_n) by `_lift`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

TOL = 1e-10

# form degree of each target; it fixes the graded signs
_DEGREE = {"B": 0, "M": 1, "O2": 2}


def _contract(spec: str, *operands) -> np.ndarray:
    """np.einsum contracted pairwise along a greedy path (Smith & Gray,
    "opt_einsum", JOSS 2018), never as one nested loop over all indices.
    The path depends only on the spec and the operand shapes, so it is
    searched once for each and cached."""
    path = _greedy_path(spec, tuple(np.shape(op) for op in operands))
    return np.einsum(spec, *operands, optimize=path)


@lru_cache(maxsize=1024)
def _greedy_path(spec: str, shapes: tuple) -> tuple:
    operands = (np.broadcast_to(0.0, s) for s in shapes)
    return tuple(np.einsum_path(spec, *operands, optimize="greedy")[0])


def _maxabs(a) -> float:
    """Largest absolute entry of a (0.0 when empty); a NaN entry gives NaN,
    so a worst-of residual over it fails every `<= tol` check."""
    return float(np.max(np.abs(a), initial=0.0))


def _row_span(A, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal rows spanning the rows of A; its rank counts the singular
    values above tol * max(1, largest)."""
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return vh[: int(np.sum(s > tol * np.max(s, initial=1.0)))]


class TargetMismatch(ValueError):
    """Convolution between incompatible targets."""


class NotAdmissible(ValueError):
    """Coboundary input failed its centrality/unitarity validation."""


# -- Hopf algebra -------------------------------------------------------------


@dataclass
class FiniteHopf:
    """Structure tensors of a finite-dimensional Hopf *-algebra.

    mul[i,j,k]: e_i e_j = sum_k mul[i,j,k] e_k
    comul[i,j,k]: Delta(e_i) = sum comul[i,j,k] e_j (x) e_k
    counit[i], antipode[i,j] (S(e_i) = sum_j A[i,j] e_j),
    star[i,j] ((sum c_i e_i)^* = sum conj(c_i) star[i,j] e_j),
    unit[i]: coordinates of 1_H.
    """

    mul: np.ndarray
    comul: np.ndarray
    counit: np.ndarray
    antipode: np.ndarray
    star: np.ndarray
    unit: np.ndarray
    labels: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.counit.shape[0]

    @cached_property
    def generators(self) -> tuple:
        """Basis indices whose words, starting from the unit, span H.

        Greedy: e_i joins the set when it is not in the span of the words in
        the indices chosen so far.  That gives (1,) for C[Z_n] (the words
        in g are its powers), two transpositions for C[S_3] and five of the
        six delta functions for C(S_3).  The span is grown by right
        multiplication, w -> w e_g, until its dimension stops growing.
        """
        gens = []
        span = _row_span(self.unit[None])
        for i, e in enumerate(np.eye(self.dim, dtype=complex)):
            if _maxabs(e - (e @ np.conj(span).T) @ span) <= 1e-9:
                continue
            gens.append(i)
            while True:
                grown = _row_span(np.vstack([span] + [span @ self.mul[:, g, :] for g in gens]))
                if len(grown) == len(span):
                    break
                span = grown
        return tuple(gens)

    def axiom_report(self) -> dict:
        """Max violation of each Hopf *-algebra axiom; gate before use."""
        m, c, eps, S, st, u = (
            self.mul,
            self.comul,
            self.counit,
            self.antipode,
            self.star,
            self.unit,
        )
        d = self.dim
        eye = np.eye(d)
        rep = {}
        rep["assoc"] = np.abs(
            _contract("ijx,xkl->ijkl", m, m) - _contract("jkx,ixl->ijkl", m, m)
        ).max()
        rep["unit"] = _maxabs(
            [_contract("i,ijk->jk", u, m) - eye, _contract("j,ijk->ik", u, m) - eye]
        )
        rep["coassoc"] = np.abs(
            _contract("iab,bcd->iacd", c, c) - _contract("ibd,bac->iacd", c, c)
        ).max()
        rep["counit"] = _maxabs(
            [_contract("ijk,j->ik", c, eps) - eye, _contract("ijk,k->ij", c, eps) - eye]
        )
        rep["bialgebra"] = np.abs(
            _contract("ijx,xab->ijab", m, c)
            - _contract("iac,jbd,abu,cdv->ijuv", c, c, m, m)
        ).max()
        rep["counit_hom"] = np.abs(
            _contract("ijk,k->ij", m, eps) - np.outer(eps, eps)
        ).max()
        santi = _contract("ijk,jl,lkx->ix", c, S, m)
        rep["antipode_left"] = np.abs(santi - np.outer(eps, u)).max()
        santi_r = _contract("ijk,kl,jlx->ix", c, S, m)
        rep["antipode_right"] = np.abs(santi_r - np.outer(eps, u)).max()
        rep["star_involutive"] = np.abs(np.conj(st) @ st - eye).max()
        # (e_i e_j)^* = e_j^* e_i^* on the basis
        lhs = _contract("ijk,kl->ijl", np.conj(m), st)
        rhs = _contract("ja,ib,abl->ijl", st, st, m)
        rep["star_antimult"] = np.abs(lhs - rhs).max()
        # Delta(x^*) = (* x *) Delta(x)
        lhs = _contract("il,lab->iab", st, c)
        rhs = _contract("ijk,ja,kb->iab", np.conj(c), st, st)
        rep["star_coalgebra"] = np.abs(lhs - rhs).max()
        rep["s_star_involutive"] = np.abs(
            np.conj(st @ S) @ (st @ S) - eye
        ).max()
        rep["max"] = _maxabs(list(rep.values()))
        return rep


def cyclic_group_hopf(n: int) -> FiniteHopf:
    """C[Z_n] with group-like basis g^0 .. g^{n-1}."""
    g = np.arange(n)
    e = np.eye(n) + 0j  # e[k] holds the coordinates of g^k
    return FiniteHopf(
        mul=e[(g[:, None] + g) % n],  # g^i g^j = g^{i+j}
        comul=_lift(n, [[[1.0]]]),  # Delta(g^i) = g^i (x) g^i
        counit=np.ones(n) + 0j,
        antipode=e[-g % n],  # S(g^i) = g^{-i}
        star=e[-g % n],  # (g^i)^* = g^{-i}
        unit=e[0],
        labels=[f"g^{i}" for i in range(n)],
    )


# -- module-algebra data -------------------------------------------------------


@dataclass
class ModuleAlgebra:
    """Right H-module *-algebra B with an equivariant B-*-bimodule M.

    Optional pieces: dB (derivation tensor B -> M), a degree-2 block
    (Omega^2 with its bimodule structure, the wedge M (x) M -> Omega^2 and
    the degree-1 derivation d1 : M -> Omega^2) used by the curvature map.

    The `products`, `stars` and `actions` tables are rebuilt from these
    fields on every access, so reassigning a field is always seen.
    """

    H: FiniteHopf
    mulB: np.ndarray        # (b, b, b)
    unitB: np.ndarray       # (b,)
    starB: np.ndarray       # (b, b), antilinear matrix
    actB: np.ndarray        # (b, h, b): b <| e_h
    leftM: np.ndarray       # (b, m, m)
    rightM: np.ndarray      # (m, b, m)
    starM: np.ndarray       # (m, m)
    actM: np.ndarray        # (m, h, m)
    dB: np.ndarray | None = None        # (b, m)
    leftO2: np.ndarray | None = None    # (b, o, o)
    rightO2: np.ndarray | None = None   # (o, b, o)
    starO2: np.ndarray | None = None    # (o, o)
    actO2: np.ndarray | None = None     # (o, h, o)
    wedge: np.ndarray | None = None     # (m, m, o)
    d1: np.ndarray | None = None        # (m, o)
    name: str = ""

    @property
    def dimB(self):
        return self.unitB.shape[0]

    @property
    def dimM(self):
        return self.starM.shape[0]

    @property
    def dimO2(self):
        return 0 if self.starO2 is None else self.starO2.shape[0]

    # typed tables -----------------------------------------------------------
    @property
    def products(self) -> dict:
        """(left target, right target) -> (product target, tensor or None)."""
        return {
            ("B", "B"): ("B", self.mulB),
            ("B", "M"): ("M", self.leftM),
            ("M", "B"): ("M", self.rightM),
            ("B", "O2"): ("O2", self.leftO2),
            ("O2", "B"): ("O2", self.rightO2),
            ("M", "M"): ("O2", self.wedge),
        }

    @property
    def stars(self) -> dict:
        return {"B": self.starB, "M": self.starM, "O2": self.starO2}

    @property
    def actions(self) -> dict:
        return {"B": self.actB, "M": self.actM, "O2": self.actO2}

    def product(self, ta: str, tb: str):
        """Target and tensor of the pointwise product of ta by tb."""
        target, tensor = self.products.get((ta, tb), (None, None))
        if tensor is None:
            raise TargetMismatch(f"no product data for {ta} * {tb}")
        return target, tensor

    def mul(self, ta: str, tb: str, x, y):
        return _contract("i,j,ijk->k", x, y, self.product(ta, tb)[1])

    def star(self, t: str, x):
        return np.conj(x) @ self.stars[t]

    def act(self, t: str, x, h: int):
        return x @ self.actions[t][:, h, :]

    # consistency ------------------------------------------------------------
    def data_report(self) -> dict:
        """Module-algebra axioms over the tables: every action is a
        representation, every product is H-equivariant and *-compatible
        (with the graded sign on M ^ M), the products are associative; then
        the derivation identities."""
        rep = {}
        H, acts, stars = self.H, self.actions, self.stars
        for t, A in acts.items():
            if A is not None:
                # (x <| a) <| b = x <| ab
                rep[f"act{t}_rep"] = _maxabs(
                    _contract("iau,ubv->iabv", A, A) - _contract("abx,ixv->iabv", H.mul, A)
                )
        for (ta, tb), (tc, T) in self.products.items():
            if T is None:
                continue
            # (x y) <| h = (x <| h_1)(y <| h_2)
            rep[f"equivariant_{ta}{tb}"] = _maxabs(
                _contract("xyz,zhk->xyhk", T, acts[tc])
                - _contract("hab,xau,ybv,uvk->xyhk", H.comul, acts[ta], acts[tb], T)
            )
            # (x y)^* = (-1)^{|x||y|} y^* x^*
            sign = (-1) ** (_DEGREE[ta] * _DEGREE[tb])
            _, reverse = self.product(tb, ta)
            rep[f"star_{ta}{tb}"] = _maxabs(
                np.conj(T) @ stars[tc]
                - sign * _contract("xu,yv,vuk->xyk", stars[ta], stars[tb], reverse)
            )
        # (x y) z = x (y z) for every typed triple whose four products exist;
        # with the equivariance above it makes B x| H associative and its
        # forms bimodules over it
        for ta, tb, tc in itertools.product(_DEGREE, repeat=3):
            try:
                tab, P = self.product(ta, tb)
                _, Q = self.product(tab, tc)
                tbc, R = self.product(tb, tc)
                _, S = self.product(ta, tbc)
            except TargetMismatch:
                continue
            # both sides as (x, y z, w) matrix products, with no transpose
            (x, y, u), (z, w) = P.shape, Q.shape[1:]
            rhs = R.reshape(y * z, R.shape[2]) @ S
            lhs = P.reshape(x * y, u) @ Q.reshape(u, z * w)
            rep[f"assoc_{ta}{tb}{tc}"] = _maxabs(lhs.reshape(rhs.shape) - rhs)
        if self.dB is not None:
            # derivation: d(bb') = d(b) b' + b d(b')
            lhs = _contract("ijx,xm->ijm", self.mulB, self.dB)
            rhs = _contract("im,mjx->ijx", self.dB, self.rightM) + _contract(
                "jm,imx->ijx", self.dB, self.leftM
            )
            rep["derivation"] = np.abs(lhs - rhs).max()
            # sign convention in force here: d(b^*) = -d(b)^*
            lhs = _contract("ij,jm->im", self.starB, np.conj(self.dB))
            rhs = -_contract("im,mk->ik", np.conj(self.dB), self.starM)
            rep["star_derivation"] = np.abs(np.conj(lhs) - np.conj(rhs)).max()
            # H-equivariance of dB
            lhs = _contract("ihk,km->ihm", self.actB, self.dB)
            rhs = _contract("im,mhk->ihk", self.dB, self.actM)
            rep["dB_equivariant"] = np.abs(lhs - rhs).max()
        if self.wedge is not None:
            # d^2 = 0 and graded Leibniz d1(b m) = dB(b) ^ m + b d1(m)
            rep["d_squared"] = np.abs(
                _contract("bm,mo->bo", self.dB, self.d1)
            ).max()
            lhs = _contract("bmx,xo->bmo", self.leftM, self.d1)
            rhs = _contract("bu,umo->bmo", self.dB, self.wedge) + _contract(
                "mo,boy->bmy", self.d1, self.leftO2
            )
            rep["graded_leibniz_left"] = np.abs(lhs - rhs).max()
            # d1(m b) = d1(m) b - m ^ dB(b)
            lhs = _contract("mbx,xo->mbo", self.rightM, self.d1)
            rhs = _contract("mo,oby->mby", self.d1, self.rightO2) - _contract(
                "bu,muo->mbo", self.dB, self.wedge
            )
            rep["graded_leibniz_right"] = np.abs(lhs - rhs).max()
        rep["max"] = _maxabs(list(rep.values()))
        return rep


# -- convolution elements --------------------------------------------------------


@dataclass
class ConvolutionElement:
    """Linear map from the H basis into B, M, or Omega^2."""

    inst: ModuleAlgebra
    target: str  # "B" | "M" | "O2"
    values: np.ndarray  # (dim H, dim target)

    def copy(self):
        return ConvolutionElement(self.inst, self.target, self.values.copy())

    def __add__(self, other):
        if self.target != other.target:
            raise TargetMismatch(f"{self.target} + {other.target}")
        return ConvolutionElement(self.inst, self.target, self.values + other.values)

    def __sub__(self, other):
        if self.target != other.target:
            raise TargetMismatch(f"{self.target} - {other.target}")
        return ConvolutionElement(self.inst, self.target, self.values - other.values)

    def scale(self, c):
        return ConvolutionElement(self.inst, self.target, c * self.values)

    def norm(self):
        return _maxabs(self.values)

    def value_at_unit(self):
        return self.inst.H.unit @ self.values


def unit_cocycle(inst: ModuleAlgebra) -> ConvolutionElement:
    vals = np.outer(inst.H.counit, inst.unitB)
    return ConvolutionElement(inst, "B", vals)


def zero_cochain(inst: ModuleAlgebra, target: str = "M") -> ConvolutionElement:
    dim = {"B": inst.dimB, "M": inst.dimM, "O2": inst.dimO2}[target]
    return ConvolutionElement(inst, target, np.zeros((inst.H.dim, dim), dtype=complex))


def _const(inst: ModuleAlgebra, x) -> np.ndarray:
    """Values of the cochain h -> eps(h) x; x may carry leading batch axes."""
    return _contract("h,...v->...hv", inst.H.counit, x)


def _orbit(inst: ModuleAlgebra, target: str, x) -> np.ndarray:
    """Values of the cochain h -> x <| h; x may carry leading batch axes."""
    return _contract("...u,uhv->...hv", x, inst.actions[target])


def convolve(f: ConvolutionElement, g: ConvolutionElement) -> ConvolutionElement:
    """(f * g)(h) = f(h_1) g(h_2) with the typed pointwise product."""
    target, T = f.inst.product(f.target, g.target)
    vals = _contract("hjk,ja,kb,abc->hc", f.inst.H.comul, f.values, g.values, T)
    return ConvolutionElement(f.inst, target, vals)


def conv_star(f: ConvolutionElement) -> ConvolutionElement:
    """f^*(h) = f(S(h)^*)^*; f.values may carry leading batch axes."""
    H = f.inst.H
    T = np.conj(H.antipode) @ H.star  # S(e_i)^* = sum_k T[i,k] e_k
    return ConvolutionElement(f.inst, f.target, f.inst.star(f.target, T @ f.values))


def conv_inverse(sigma: ConvolutionElement) -> ConvolutionElement:
    """Inverse of a unitary convolution element: sigma^{-1} = sigma^*."""
    return conv_star(sigma)


# -- cocycle checks ----------------------------------------------------------------


def _commutator(inst: ModuleAlgebra, target: str, values, tx: str) -> np.ndarray:
    """Graded convolution commutator of a cochain with rho_tx.

    f(h_1)(x <| h_2) - (-1)^{|f||x|} (x <| h_1) f(h_2) for the target-valued
    cochain f with these values and every basis element x of tx.  values
    may carry leading batch axes; the result is (..., dim H, dim tx, dim out).
    """
    _, L = inst.product(target, tx)
    _, R = inst.product(tx, target)
    A, c = inst.actions[tx], inst.H.comul
    sign = (-1) ** (_DEGREE[target] * _DEGREE[tx])
    return _contract("hjk,...ja,xky,ayz->...hxz", c, values, A, L) - sign * _contract(
        "hjk,xjy,...kb,ybz->...hxz", c, A, values, R
    )


def centrality(f: ConvolutionElement, tx: str) -> float:
    """Max violation of f commuting (graded) with rho_tx under convolution.

    Against B this is lazy centrality; for M-valued f against M it is the
    prolongability refinement mu(h_1) ^ (m <| h_2) + (m <| h_1) ^ mu(h_2).
    """
    return _maxabs(_commutator(f.inst, f.target, f.values, tx))


def _hochschild_residual(inst: ModuleAlgebra, target: str, values) -> np.ndarray:
    """mu(h k) - mu(h) <| k - eps(h) mu(k) on all basis pairs (h, k).

    values may carry leading batch axes; the result is (..., h, k, dim target).
    """
    H = inst.H
    return (
        _contract("ijk,...kv->...ijv", H.mul, values)
        - _contract("...iu,ujv->...ijv", values, inst.actions[target])
        - _contract("i,...jv->...ijv", H.counit, values)
    )


def _worst_pair(resid: np.ndarray):
    """Largest residual over the basis pairs and the first pair attaining it."""
    per_pair = np.max(np.abs(resid), axis=-1, initial=0.0)
    worst = float(per_pair.max())
    if worst == 0.0:
        return worst, None
    return worst, tuple(int(i) for i in np.unravel_index(per_pair.argmax(), per_pair.shape))


def check_sweedler_cocycle(sigma: ConvolutionElement) -> dict:
    """Report on the lazy Sweedler 1-cocycle conditions for B-valued sigma."""
    inst = sigma.inst
    H = inst.H
    if sigma.target != "B":
        raise TargetMismatch("Sweedler cocycles are B-valued")
    one = unit_cocycle(inst)
    rep = {}
    rep["unitary"] = _maxabs([
        (convolve(sigma, conv_star(sigma)) - one).norm(),
        (convolve(conv_star(sigma), sigma) - one).norm(),
    ])
    rep["unit_value"] = _maxabs(sigma.value_at_unit() - inst.unitB)
    # sigma(h k) = (sigma(h) <| k_1) sigma(k_2) on all basis pairs
    s = sigma.values
    resid = _contract("ijk,kv->ijv", H.mul, s) - _contract(
        "jab,iu,uax,by,xyv->ijv", H.comul, s, inst.actB, s, inst.mulB
    )
    rep["cocycle"], rep["cocycle_worst_pair"] = _worst_pair(resid)
    rep["centrality_B"] = centrality(sigma, "B")
    rep["centrality_M"] = centrality(sigma, "M")
    rep["max"] = _maxabs([
        rep["unitary"], rep["unit_value"], rep["cocycle"],
        rep["centrality_B"], rep["centrality_M"],
    ])
    rep["passes"] = rep["max"] <= TOL
    return rep


def check_hochschild_cocycle(mu: ConvolutionElement, prolongable: bool = False) -> dict:
    """Report on the lazy Hochschild 1-cocycle conditions for M-valued mu."""
    inst = mu.inst
    if mu.target not in ("M", "O2"):
        raise TargetMismatch("Hochschild cocycles are M- or Omega^2-valued")
    rep = {}
    rep["unit_value"] = _maxabs(mu.value_at_unit())
    rep["self_adjoint"] = (conv_star(mu) - mu).norm()
    rep["centrality"] = centrality(mu, "B")
    rep["cocycle"], rep["cocycle_worst_pair"] = _worst_pair(
        _hochschild_residual(inst, mu.target, mu.values)
    )
    vals = [rep["unit_value"], rep["self_adjoint"], rep["centrality"], rep["cocycle"]]
    if prolongable and mu.target == "M" and inst.wedge is not None:
        rep["graded_centrality"] = centrality(mu, "M")
        vals.append(rep["graded_centrality"])
    rep["max"] = _maxabs(vals)
    rep["passes"] = rep["max"] <= TOL
    return rep


# -- coboundaries --------------------------------------------------------------


def _check_cent_element(inst: ModuleAlgebra, v) -> float:
    """Max violation of v in Cent_B(B + M): the cochain h -> eps(h) v
    commutes with rho_B and rho_M under convolution."""
    const = ConvolutionElement(inst, "B", _const(inst, v))
    return _maxabs([centrality(const, "B"), centrality(const, "M")])


def coboundary_S(inst: ModuleAlgebra, upsilon) -> ConvolutionElement:
    """D(upsilon)(h) = (upsilon <| h) upsilon^*, for unitary central upsilon."""
    upsilon = np.asarray(upsilon, dtype=complex)
    us = inst.star("B", upsilon)
    if not _maxabs(inst.mul("B", "B", upsilon, us) - inst.unitB) <= TOL:
        raise NotAdmissible("upsilon is not unitary")
    if not _check_cent_element(inst, upsilon) <= TOL:
        raise NotAdmissible("upsilon is not in Cent_B(B + M)")
    # (upsilon <| h_1) eps(h_2) upsilon^*
    return convolve(
        ConvolutionElement(inst, "B", _orbit(inst, "B", upsilon)),
        ConvolutionElement(inst, "B", _const(inst, us)),
    )


def coboundary_H(inst: ModuleAlgebra, m, target: str = "M") -> ConvolutionElement:
    """D(m)(h) = m <| h - eps(h) m, for self-adjoint central m."""
    m = np.asarray(m, dtype=complex)
    if not _maxabs(inst.star(target, m) - m) <= TOL:
        raise NotAdmissible("m is not self-adjoint")
    if not centrality(ConvolutionElement(inst, target, _const(inst, m)), "B") <= TOL:
        raise NotAdmissible("m is not B-central")
    return ConvolutionElement(inst, target, _orbit(inst, target, m) - _const(inst, m))


# -- actions and Maurer-Cartan ---------------------------------------------------


def conj_action(sigma: ConvolutionElement, mu: ConvolutionElement) -> ConvolutionElement:
    """sigma |> mu = sigma * mu * sigma^{-1}."""
    return convolve(convolve(sigma, mu), conv_inverse(sigma))


def mc_cocycle(sigma: ConvolutionElement) -> ConvolutionElement:
    """MC[dB](sigma) = -(dB sigma) * sigma^*, i.e. h -> -dB(sigma(h_1)) sigma^*(h_2)."""
    inst = sigma.inst
    if inst.dB is None:
        raise TargetMismatch("instance carries no derivation dB")
    d_sigma = ConvolutionElement(inst, "M", sigma.values @ inst.dB)
    return convolve(d_sigma, conv_star(sigma)).scale(-1)


def curvature_map(mu: ConvolutionElement) -> ConvolutionElement:
    """F[mu](h) = -i (d1(mu(h)) + mu(h_1) ^ mu(h_2)); Omega^2-valued."""
    inst = mu.inst
    if inst.wedge is None or inst.d1 is None:
        raise TargetMismatch("instance carries no degree-2 data")
    F = mu.values @ inst.d1 + convolve(mu, mu).values
    return ConvolutionElement(inst, "O2", -1j * F)


def graded_bracket(mu: ConvolutionElement, nu: ConvolutionElement) -> ConvolutionElement:
    """[mu, nu](h) = mu(h_1) ^ nu(h_2) + nu(h_1) ^ mu(h_2)."""
    return convolve(mu, nu) + convolve(nu, mu)


# -- crossed product realization ---------------------------------------------------


class CrossedProduct:
    """Factored realization of B x| H on the basis e_i (x) beta_b.

    Elements are flattened vectors over (dim H) x (dim B); one-forms live
    over (dim H) x (dim M) and two-forms over (dim H) x (dim O2).  The
    product (h x x)(h' x y) = h h'_1 x (x <| h'_2) y is kept as its factors
    (the coproduct and product of H, the action on x and the typed product
    x.y), and `left`/`right` contract them into multiplication matrices one
    batch of elements at a time, so no tensor of cubic size in
    dim H * dim B is built.  The antilinear star matrices SP (on B x| H) and
    SW (on M x| H) are quadratic and precomputed.
    """

    def __init__(self, inst: ModuleAlgebra):
        self.inst = inst
        self.H = H = inst.H
        # star matrices (antilinear) of B x| H and M x| H: star(u) = conj(u) @ S
        self.SP, self.SW = (
            _contract(
                "ijk,jt,ks,bu,use->ibte",
                np.conj(H.comul), H.star, H.star, inst.stars[t], inst.actions[t],
            ).reshape(H.dim * len(inst.stars[t]), -1)
            for t in ("B", "M")
        )

    @property
    def dim(self):
        return self.H.dim * self.inst.dimB

    def _factors(self, tx: str, ty: str):
        """The action on tx, the coproduct and product of H, and tx . ty."""
        _, P = self.inst.product(tx, ty)
        return self.inst.actions[tx], self.H.comul, self.H.mul, P

    def left(self, tx: str, ty: str, X) -> np.ndarray:
        """Left-multiplication matrices of a batch of elements of tx x| H.

        X is an (n, dim H * dim tx) array.  Returns L of shape
        (n, dim H * dim ty, dim H * dim tz), tz the target of tx . ty, with
        x . y = y @ L[r] for the r-th element x of the batch.
        """
        A, C, M, P = self._factors(tx, ty)
        h = self.H.dim
        X = np.reshape(X, (len(X), h, A.shape[0]))
        L = _contract("nib,bku,pjk,ijt,uce->npcte", X, A, C, M, P)
        return L.reshape(len(L), h * P.shape[1], h * P.shape[2])

    def right(self, tx: str, ty: str, Y) -> np.ndarray:
        """Right-multiplication matrices of a batch of elements of ty x| H.

        The mirror of `left`: Y is an (n, dim H * dim ty) array, and R of
        shape (n, dim H * dim tx, dim H * dim tz) has x . y = x @ R[r] for
        the r-th element y of the batch.
        """
        A, C, M, P = self._factors(tx, ty)
        h = self.H.dim
        Y = np.reshape(Y, (len(Y), h, P.shape[1]))
        R = _contract("npc,bku,pjk,ijt,uce->nibte", Y, A, C, M, P)
        return R.reshape(len(R), h * A.shape[0], h * P.shape[2])

    def generators(self) -> tuple[list, np.ndarray]:
        """Labels and rows of a generating set of B x| H as an algebra.

        The rows are the unit block 1_H (x) beta_b, which spans B, and
        e_g (x) 1_B for each g in `FiniteHopf.generators`; since
        h (x) b = (h (x) 1_B)(1_H (x) b), words in them span B x| H.
        """
        H, inst = self.H, self.inst
        gens = H.generators
        labels = ["B (x) 1"] + [
            f"1 (x) {H.labels[g] if g < len(H.labels) else f'e_{g}'}" for g in gens
        ]
        rows = np.vstack(
            [np.kron(H.unit, np.eye(inst.dimB))]
            + [np.kron(np.eye(H.dim)[g], inst.unitB) for g in gens]
        )
        return labels, rows

    def mul(self, u, v):
        return v @ self.left("B", "B", u[None])[0]

    def star(self, u):
        return np.conj(u) @ self.SP

    def unit(self):
        return np.outer(self.H.unit, self.inst.unitB).ravel()

    def embed_B(self, b):
        return np.outer(self.H.unit, b).ravel()


def op_gauge_matrix(sigma: ConvolutionElement, target: str = "B") -> np.ndarray:
    """Matrix of Op(sigma) on target x| H: h (x) x -> h_1 (x) sigma(h_2) x.

    On B this is the gauge transformation of the crossed product; on M and
    O2 it is the induced map on one- and two-forms.  Flattened vectors.
    """
    inst = sigma.inst
    H = inst.H
    _, L = inst.product("B", target)
    d = L.shape[1]
    return _contract("ijk,kv,vme->imje", H.comul, sigma.values, L).reshape(
        H.dim * d, H.dim * d
    )


def op_potential_matrix(mu: ConvolutionElement) -> np.ndarray:
    """Matrix of Op(mu)(h (x) b) = h . dB(b) + h_1 . mu(h_2) . b."""
    inst = mu.inst
    H = inst.H
    if inst.dB is None:
        raise TargetMismatch("instance carries no derivation dB")
    term1 = _contract("ij,bm->ibjm", np.eye(H.dim), inst.dB)
    term2 = _contract("ijk,km,mbe->ibje", H.comul, mu.values, inst.rightM)
    return (term1 + term2).reshape(H.dim * inst.dimB, H.dim * inst.dimM)


# rows of a generating set whose multiplication blocks op_report holds at once
_OP_CHUNK = 8
# blocks of n x (dim H d)^2 entries alive at once per chunk of n rows, d the
# largest of dim B, dim M and dim O2: the left blocks on B and M, a block of
# the image, the two products and their difference (tracemalloc peak of
# op_report: 4.7 to 6.7 blocks on jet:5-8 and cycle:8-16)
_OP_BLOCKS = 7


def op_chunk_bytes(inst: ModuleAlgebra) -> int:
    """Bytes of the largest chunk of multiplication blocks op_report holds."""
    side = inst.H.dim * max(inst.dimB, inst.dimM, inst.dimO2)
    return _OP_BLOCKS * _OP_CHUNK * side * side * 16


def _chunks(rows):
    return (rows[r:r + _OP_CHUNK] for r in range(0, len(rows), _OP_CHUNK))


def op_report(inst: ModuleAlgebra, sigma: ConvolutionElement,
              mu: ConvolutionElement | None = None,
              upsilon=None) -> dict:
    """Entrywise checks of the crossed-product realizations.

    Verifies that Op(sigma) is a unital *-automorphism of B x| H fixing B
    and acting multiplicatively on the reconstructed one- and two-forms,
    that Op(mu) is an H-covariant *-derivation restricting to d_B, and the
    gauge compatibility Op(sigma) |> Op(mu) = Op(sigma |> mu + MC(sigma)).
    When upsilon is given, also checks Op(D upsilon) = Ad_upsilon.

    The multiplicativity checks G(x . y) = G(x) . G(y) and the Leibniz rule
    of Op(mu) run with x on the generating set of `CrossedProduct.generators`
    and y on all of the basis.  By induction on word length they then hold
    for every x: the x for which they hold for all y are closed under
    products, once B x| H is associative, which the Hopf and data gates
    (`FiniteHopf.axiom_report`, `ModuleAlgebra.data_report`) check.  On
    one-forms times B the reduction is on the right factor y, through
    `CrossedProduct.right`.  The wedge check runs with its right factor in
    1 (x) M, which generates M x| H as a right B x| H-module; the wedge is
    right B x| H-linear, so this needs Op(sigma) on two-forms to be right
    B x| H-linear as well, and `op_sigma_prolongable` is the larger of the
    two residuals.  `generators` names the rows.  Memory stays quadratic
    in dim H * dim B: the rows are taken `_OP_CHUNK` at a time.
    """
    cp = CrossedProduct(inst)
    labels, X = cp.generators()
    F = op_gauge_matrix(sigma)
    Fm = op_gauge_matrix(sigma, "M")
    worst = {}

    def note(key, resid):  # running max over the chunks
        worst[key] = _maxabs([worst.get(key, 0.0), _maxabs(resid)])

    if inst.wedge is not None:
        Fo = op_gauge_matrix(sigma, "O2")
    if mu is not None:
        D = op_potential_matrix(mu)
    for x in _chunks(X):
        LB, LM = cp.left("B", "B", x), cp.left("B", "M", x)
        note("op_sigma_hom", LB @ F - F @ cp.left("B", "B", x @ F))
        note("op_sigma_forms_left", LM @ Fm - Fm @ cp.left("B", "M", x @ F))
        note("op_sigma_forms_right", cp.right("M", "B", x) @ Fm - Fm @ cp.right("M", "B", x @ F))
        if inst.wedge is not None:
            note("op_sigma_prolongable",
                 cp.right("O2", "B", x) @ Fo - Fo @ cp.right("O2", "B", x @ F))
        if mu is not None:
            # derivation: D(xy) = D(x).y + x.D(y)
            note("op_mu_derivation", LB @ D - cp.left("M", "B", x @ D) - D @ LM)
    if inst.wedge is not None:
        for w in _chunks(np.kron(inst.H.unit, np.eye(inst.dimM))):
            note("op_sigma_prolongable",
                 cp.right("M", "M", w) @ Fo - Fm @ cp.right("M", "M", w @ Fm))
    rep = {"op_sigma_hom": worst.pop("op_sigma_hom")}
    # star-automorphism: SP . F = conj(F) . SP
    rep["op_sigma_star"] = _maxabs(cp.SP @ F - np.conj(F) @ cp.SP)
    # fixes B and the unit
    EB = np.kron(inst.H.unit, np.eye(inst.dimB))
    rep["op_sigma_fixes_B"] = _maxabs(EB @ F - EB)
    rep["op_sigma_unit"] = _maxabs(cp.unit() @ F - cp.unit())
    rep.update(worst)
    if upsilon is not None:
        # Ad_upsilon(x) = eu . x . eus
        upsilon = np.asarray(upsilon, dtype=complex)
        FD = op_gauge_matrix(coboundary_S(inst, upsilon))
        eu, eus = cp.embed_B(upsilon)[None], cp.embed_B(inst.star("B", upsilon))[None]
        rep["op_coboundary_is_ad"] = _maxabs(FD - cp.left("B", "B", eu)[0] @ cp.right("B", "B", eus)[0])
    if mu is not None:
        # star-derivation: D(x^*) = -(D x)^*
        rep["op_mu_star"] = _maxabs(cp.SP @ D + np.conj(D) @ cp.SW)
        # restriction to B is d_B
        rep["op_mu_restricts"] = _maxabs(EB @ D - np.kron(inst.H.unit, inst.dB))
        # gauge compatibility
        Finv = op_gauge_matrix(conv_inverse(sigma))
        target = op_potential_matrix(conj_action(sigma, mu) + mc_cocycle(sigma))
        rep["op_gauge_compat"] = _maxabs(Finv @ D @ Fm - target)
    rep["max"] = _maxabs(list(rep.values()))
    rep["generators"] = labels
    return rep


# -- linear-algebra solvers -----------------------------------------------------


def _nullspace(A: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal columns spanning the nullspace of a real or complex
    matrix, via SVD; rank counts singular values above tol * max(A.shape)."""
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=A.dtype)
    if A.shape[0] < A.shape[1]:
        A = np.vstack([A, np.zeros((A.shape[1] - A.shape[0], A.shape[1]), dtype=A.dtype)])
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > tol * max(A.shape)))
    return np.conj(vh[rank:]).T


def _central_sa_basis(inst: ModuleAlgebra) -> np.ndarray:
    """Real basis of Z_B(M)_sa as real vectors (re, im stacked)."""
    dM, dB = inst.dimM, inst.dimB
    # build real system: unknown x = (re m, im m)
    blocks = []
    for b in np.eye(dB, dtype=complex):
        L = (
            _contract("j,jmk->km", b, inst.leftM)
            - _contract("mjk,j->km", inst.rightM, b)
        )
        blocks.append(np.block([[np.real(L), -np.imag(L)], [np.imag(L), np.real(L)]]))
    A = np.vstack(blocks) if blocks else np.zeros((0, 2 * dM))
    # self-adjointness: conj(m) @ starM - m = 0 -> real-linear
    S = inst.starM
    sa_top = np.hstack([np.real(S).T - np.eye(dM), np.imag(S).T])
    sa_bot = np.hstack([np.imag(S).T, -np.real(S).T - np.eye(dM)])
    A = np.vstack([A, sa_top, sa_bot])
    return _nullspace(A)


# stacks of the Hochschild system alive at the solver's peak: the residual
# blocks, their stacked copy and the SVD's working copy (tracemalloc peak:
# 3.1 to 3.6 stacks on jet:3-8 and cycle:8-16)
_SOLVER_COPIES = 4


def hochschild_system_bytes(inst: ModuleAlgebra) -> int:
    """Bytes `solve_hochschild_space` allocates at its peak: _SOLVER_COPIES
    times the stacked complex system of (dim H^2 dim M + dim H dim B dim M)
    rows by dim H dim M unknowns (without the graded-centrality rows)."""
    dH, dB, dM = inst.H.dim, inst.dimB, inst.dimM
    return _SOLVER_COPIES * (dH * dH * dM + dH * dB * dM) * dH * dM * 16


def solve_hochschild_space(inst: ModuleAlgebra, prolongable: bool = False) -> dict:
    """Bases and dimensions of ZH^1, BH^1, HH^1 as real vector spaces.

    The cocycle equation and convolution-centrality (plus graded centrality
    when prolongable=True) are complex-linear, so the solver first takes
    the complex nullspace and then cuts out the fixed points of the
    antilinear involution mu -> mu^* inside it; the complex solution space
    is star-invariant, which is asserted numerically.
    """
    H = inst.H
    dH, dM = H.dim, inst.dimM
    n_c = dH * dM  # complex unknowns
    graded = prolongable and inst.wedge is not None

    # rows: (a) the cocycle equation, (b) centrality against rho_B and (c)
    # graded centrality against rho_M, each the residual of the standard
    # basis of cochains (the leading batch axis)
    unknowns = np.eye(n_c, dtype=complex).reshape(n_c, dH, dM)
    residuals = [
        _hochschild_residual(inst, "M", unknowns),
        _commutator(inst, "M", unknowns, "B"),
    ]
    if graded:
        residuals.append(_commutator(inst, "M", unknowns, "M"))
    Q = _nullspace(
        np.hstack([r.reshape(n_c, math.prod(r.shape[1:])) for r in residuals]).T
    )
    k = Q.shape[1]
    if k == 0:
        null = np.zeros((2 * n_c, 0))
        z_dim = 0
    else:
        # antilinear star inside the solution space: star(Q c) = S conj(c)
        starred = conv_star(
            ConvolutionElement(inst, "M", Q.T.reshape(k, dH, dM))
        ).values.reshape(k, n_c).T
        resid = np.abs(starred - Q @ (np.conj(Q).T @ starred)).max()
        if not resid <= 1e-8:
            raise RuntimeError(
                f"cocycle space is not star-invariant (residual {resid:.1e})"
            )
        S = np.conj(Q).T @ starred
        # fixed points c = S conj(c): real-linear in (re c, im c)
        fix = np.vstack(
            [
                np.hstack([np.real(S) - np.eye(k), np.imag(S)]),
                np.hstack([np.imag(S), -np.real(S) - np.eye(k)]),
            ]
        )
        coords = _nullspace(fix)
        cs = coords[:k] + 1j * coords[k:]
        sols = Q @ cs  # (n_c, z_dim) complex
        null = np.vstack([np.real(sols), np.imag(sols)])
        z_dim = null.shape[1]
    # coboundaries: D on Z_B(M)_sa
    cent = _central_sa_basis(inst)
    ms = (cent[:dM] + 1j * cent[dM:]).T
    if graded:
        # restrict to coboundaries central in the graded algebra
        graded_resid = np.abs(_commutator(inst, "M", _const(inst, ms), "M"))
        ms = ms[np.max(graded_resid, axis=(1, 2, 3), initial=0.0) <= 1e-9]
    d = (_orbit(inst, "M", ms) - _const(inst, ms)).reshape(len(ms), n_c)
    # orthonormal basis of the coboundary space
    b_span = _row_span(np.hstack([np.real(d), np.imag(d)]))

    def to_elements(real_cols):
        out = []
        for col in real_cols.T:
            vals = (col[:n_c] + 1j * col[n_c:]).reshape(dH, dM)
            out.append(ConvolutionElement(inst, "M", vals))
        return out

    return {
        "dim_Z": z_dim,
        "dim_B": len(b_span),
        "dim_H": z_dim - len(b_span),
        "basis": to_elements(null),
        "coboundary_basis": to_elements(b_span.T),
    }


def brute_force_group_z1(inst: ModuleAlgebra, n: int) -> dict:
    """Independent oracle: degree-1 group cohomology of Z_n in Z_B(M)_sa.

    Works directly from the group multiplication table and the action on
    the real subspace Z_B(M)_sa; never touches the Hopf tensors.
    """
    cent = _central_sa_basis(inst)  # real basis, columns
    dM = inst.dimM
    k = cent.shape[1]
    if k == 0:
        return {"dim_Z": 0, "dim_B": 0, "dim_H": 0}
    # action of the generator on the subspace, in subspace coordinates
    gen = inst.actM[:, 1 % inst.H.dim, :]

    def act_real(col):
        m = col[:dM] + 1j * col[dM:]
        out = m @ gen
        return np.concatenate([np.real(out), np.imag(out)])

    Amat = np.column_stack([act_real(c) for c in cent.T])
    # coordinates of the action in the cent basis (cent is orthonormal)
    R = cent.T @ Amat
    # cocycle: c(g^j) = sum_{i<j} R^i(v); constraint sum_{i<n} R^i v = 0
    total = np.zeros((k, k))
    P = np.eye(k)
    for _ in range(n):
        total += P
        P = R @ P
    z_dim = k - int(np.linalg.matrix_rank(total, tol=1e-9))
    b_dim = int(np.linalg.matrix_rank(R - np.eye(k), tol=1e-9))
    return {"dim_Z": z_dim, "dim_B": b_dim, "dim_H": z_dim - b_dim}


def group_cocycle(inst: ModuleAlgebra, w) -> ConvolutionElement:
    """sigma(g^j) = w (w <| g) ... (w <| g^{j-1}) for H = C[Z_n].

    A lazy Sweedler cocycle whenever w is unitary, centralizes B + M, and
    the telescoping norm condition holds (automatic consequence of the
    construction when the full product over the cycle is 1).
    """
    H = inst.H
    n = H.dim
    w = np.asarray(w, dtype=complex)
    vals = np.zeros((n, inst.dimB), dtype=complex)
    vals[0] = inst.unitB
    acc = inst.unitB
    for j in range(1, n):
        acc = inst.mul("B", "B", acc, inst.act("B", w, j - 1))
        vals[j] = acc
    return ConvolutionElement(inst, "B", vals)


# -- shipped instances -----------------------------------------------------------


def _lift(n: int, fiber, shift=None) -> np.ndarray:
    """C(Z_n)-pointwise tensor of a fiber table, the structure at one point.

    Axis i of the result runs over the pairs (z_i, e_i), flattened point-major
    to z_i * fiber.shape[i] + e_i.  The entry at ((z + shift[0], e_0), ...,
    (z + shift[r-1], e_{r-1})) is fiber[e_0, ..., e_{r-1}] for every z in
    Z_n, and every other entry is 0; shift (one translation per axis,
    default none) lets a structure reach a neighbouring point.
    """
    fiber = np.asarray(fiber, dtype=float)
    r = fiber.ndim
    points = np.zeros((n,) * r)
    z = np.arange(n)
    points[tuple((z + s) % n for s in shift or (0,) * r)] = 1.0
    out = np.multiply.outer(points, fiber)  # axes (z_0, .., z_{r-1}, e_0, .., e_{r-1})
    out = out.transpose([a for i in range(r) for a in (i, r + i)])
    return out.reshape([n * k for k in fiber.shape]) + 0j


def _shift_action(n: int, blocks: int = 1) -> np.ndarray:
    """Right shift action of C[Z_n]: (delta_x <| g^j) = delta_{x-j}, block-wise."""
    return np.stack([_lift(n, np.eye(blocks), (0, -j)) for j in range(n)], axis=1)


def function_instance(n: int, shift: bool = True) -> ModuleAlgebra:
    """B = C(Z_n) with the shift action; M = B as the trivial bimodule.

    dB = 0 (a finite-dimensional commutative algebra has no derivation
    into the trivial bimodule).  With shift=False the H-action on M is
    trivial while B keeps the shift.
    """
    act = _shift_action(n)
    # delta_x delta_y = [x = y] delta_x, and the same on M = B from both sides
    return ModuleAlgebra(
        H=cyclic_group_hopf(n),
        mulB=_lift(n, [[[1.0]]]),
        unitB=_lift(n, [1.0]),
        starB=np.eye(n) + 0j,
        actB=act,
        leftM=_lift(n, [[[1.0]]]),
        rightM=_lift(n, [[[1.0]]]),
        starM=np.eye(n) + 0j,
        actM=act if shift else np.stack([np.eye(n)] * n, axis=1) + 0j,
        dB=np.zeros((n, n), dtype=complex),
        name=f"function(Z_{n}, shift={shift})",
    )


def cycle_instance(n: int) -> ModuleAlgebra:
    """B = C(Z_n), symmetric two-generator cycle calculus.

    Omega^1 = B e+ + B e- with e+- b = R^{+-1}(b) e+-, e+-^* = e-+,
    d(b) = (Rb - b) e+ + (R^{-1}b - b) e-; Omega^2 = B v with
    v = e+ ^ e- = -e- ^ e+ central and v^* = -v.  The one-generator
    calculus of the half-open cycle admits no *-structure for n >= 3.
    """
    # fiber of Omega^1 on (e+, e-); R(delta_y) = delta_{y-1}
    plus, minus = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    up = np.array([[0.0, 1.0], [0.0, 0.0]])  # e+ -> e-
    # (delta_x e+-) . delta_y = delta_x R^{+-1}(delta_y) e+- = [y = x +- 1] delta_x e+-
    right = _lift(n, plus[:, None], (0, 1, 0)) + _lift(n, minus[:, None], (0, -1, 0))
    # d(delta_y) = (delta_{y-1} - delta_y) e+ + (delta_{y+1} - delta_y) e-
    d = _lift(n, [[1.0, 0.0]], (0, -1)) + _lift(n, [[0.0, 1.0]], (0, 1)) - _lift(n, [[1.0, 1.0]])
    # (delta_x e+) ^ (delta_y e-) = delta_x R(delta_y) v,
    # (delta_x e-) ^ (delta_y e+) = -delta_x R^{-1}(delta_y) v
    wedge = _lift(n, up[..., None], (0, 1, 0)) - _lift(n, up.T[..., None], (0, -1, 0))
    # d1(delta_x e+) = (delta_x - delta_{x+1}) v, d1(delta_x e-) = (delta_{x-1} - delta_x) v
    d1 = _lift(n, [[1.0], [-1.0]]) - _lift(n, [[1.0], [0.0]], (0, 1))
    d1 += _lift(n, [[0.0], [1.0]], (0, -1))
    return ModuleAlgebra(
        H=cyclic_group_hopf(n),
        mulB=_lift(n, [[[1.0]]]),
        unitB=_lift(n, [1.0]),
        starB=np.eye(n) + 0j,
        actB=_shift_action(n),
        leftM=_lift(n, np.eye(2)[None]),
        rightM=right,
        # (delta_x e+)^* = delta_{x+1} e-, (delta_x e-)^* = delta_{x-1} e+
        starM=_lift(n, up, (0, 1)) + _lift(n, up.T, (0, -1)),
        actM=_shift_action(n, 2),
        dB=d,
        # degree 2: B.v, central, v^* = -v
        leftO2=_lift(n, [[[1.0]]]),
        rightO2=_lift(n, [[[1.0]]]),
        starO2=-np.eye(n) + 0j,
        actO2=_shift_action(n),
        wedge=wedge,
        d1=d1,
        name=f"cycle(Z_{n})",
    )


def jet_instance(n: int) -> ModuleAlgebra:
    """B = C(Z_n) (x) C[x,y]/(x^2, y^2): the two-nilpotent-direction calculus.

    Omega^1 = (B/xB) dx + (B/yB) dy with the quotient bimodule structure,
    d(f + gx + hy + k xy) = (g + ky) dx + (h + kx) dy, dx^* = -dx,
    dy^* = -dy; Omega^2 = (B/(x,y)B) dx^dy with dx^dy self-adjoint,
    d1((u + vy) dx + (w + zx) dy) = (z - v) dx^dy.  B is non-semisimple,
    which is what makes MC and the curvature coboundary non-trivial.
    """
    # fiber bases: B on (1, x, y, xy), Omega^1 on (dx, y dx, dy, x dy), Omega^2 on dx^dy
    E1, EX, EY, EXY = 0, 1, 2, 3
    DX, YDX, DY, XDY = 0, 1, 2, 3
    one = np.eye(4)[E1]
    # D2 multiplication: 1 is the unit, x y = y x = xy, every other product is 0
    mul = np.zeros((4, 4, 4))
    mul[E1], mul[:, E1] = np.eye(4), np.eye(4)
    mul[EX, EY, EXY] = mul[EY, EX, EXY] = 1.0
    # quotient action of B on Omega^1 (left = right, central): f + gx + hy + kxy
    # acts on the dx slot (coefficients in C[y]/(y^2)) as f + hy, on dy as f + gx
    left = np.zeros((4, 4, 4))
    left[E1] = np.eye(4)
    left[EY, DX, YDX] = left[EX, DY, XDY] = 1.0
    d = np.zeros((4, 4))
    d[EX, DX] = d[EY, DY] = 1.0  # d(x) = dx, d(y) = dy
    d[EXY, YDX] = d[EXY, XDY] = 1.0  # d(xy) = y dx + x dy
    # only the scalar parts survive the quotient: dx ^ dy = v = -dy ^ dx
    wedge = np.zeros((4, 4, 1))
    wedge[DX, DY], wedge[DY, DX] = 1.0, -1.0
    d1 = np.zeros((4, 1))
    d1[YDX], d1[XDY] = -1.0, 1.0  # d1(y dx) = -v, d1(x dy) = +v
    return ModuleAlgebra(
        H=cyclic_group_hopf(n),
        mulB=_lift(n, mul),
        unitB=_lift(n, one),
        starB=np.eye(4 * n) + 0j,  # x, y self-adjoint
        actB=_shift_action(n, 4),
        leftM=_lift(n, left),
        rightM=_lift(n, left.transpose(1, 0, 2)),
        starM=-np.eye(4 * n) + 0j,
        actM=_shift_action(n, 4),
        dB=_lift(n, d),
        # Omega^2 = C(Z_n) dx^dy: x, y and xy act by 0 on it
        leftO2=_lift(n, one[:, None, None]),
        rightO2=_lift(n, one[None, :, None]),
        starO2=np.eye(n) + 0j,
        actO2=_shift_action(n),
        wedge=_lift(n, wedge),
        d1=_lift(n, d1),
        name=f"jet(Z_{n})",
    )


def jet_unitary(inst: ModuleAlgebra, f=None, a=None, b=None, c=None, rng=None):
    """Unitary f (1 + i a x + i b y + (i c - a b) xy) of the jet algebra."""
    n = inst.H.dim
    if rng is not None:
        f = np.exp(2j * np.pi * rng.random(n))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
    f, a, b, c = (np.asarray(v) for v in (f, a, b, c))
    p = np.stack([np.ones(n), 1j * a, 1j * b, 1j * c - a * b], axis=1)
    # p f from separately rounded real products, as a scalar complex product
    # rounds them; NumPy's vector complex product may fuse a multiply-add
    out = np.empty(p.shape, dtype=complex)
    out.real = p.real * f.real[:, None] - p.imag * f.imag[:, None]
    out.imag = p.real * f.imag[:, None] + p.imag * f.real[:, None]
    out[:, 0] = f
    return out.ravel()


# -- JSON round trip --------------------------------------------------------------


def _arr_to_json(a):
    if a is None:
        return None
    return {"shape": list(a.shape), "re": np.real(a).ravel().tolist(),
            "im": np.imag(a).ravel().tolist()}


def _arr_from_json(name: str, d):
    """The tensor `name` from its JSON form; ValueError naming it when its
    entries do not fill its shape or one of them is not finite."""
    if d is None:
        return None
    try:
        re, im = (np.array(d[k], dtype=float).reshape(d["shape"]) for k in ("re", "im"))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"tensor {name}: {exc}") from exc
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"tensor {name} has a non-finite entry")
    return re + 1j * im


def dump_instance(inst: ModuleAlgebra) -> str:
    H = inst.H
    return json.dumps(
        {
            "name": inst.name,
            "hopf": {
                "mul": _arr_to_json(H.mul),
                "comul": _arr_to_json(H.comul),
                "counit": _arr_to_json(H.counit),
                "antipode": _arr_to_json(H.antipode),
                "star": _arr_to_json(H.star),
                "unit": _arr_to_json(H.unit),
                "labels": H.labels,
            },
            "coefficients": {
                k: _arr_to_json(getattr(inst, k))
                for k in (
                    "mulB", "unitB", "starB", "actB", "leftM", "rightM",
                    "starM", "actM", "dB", "leftO2", "rightO2", "starO2",
                    "actO2", "wedge", "d1",
                )
            },
        }
    )


def load_instance(text: str) -> ModuleAlgebra:
    data = json.loads(text)
    h = data["hopf"]
    H = FiniteHopf(
        **{k: _arr_from_json(f"hopf.{k}", h[k])
           for k in ("mul", "comul", "counit", "antipode", "star", "unit")},
        labels=h.get("labels", []),
    )
    co = {k: _arr_from_json(k, v) for k, v in data["coefficients"].items()}
    return ModuleAlgebra(H=H, name=data.get("name", ""), **co)
