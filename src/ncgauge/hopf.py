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
with the coproduct.  The tables are sparse (a few per cent non-zero on the
shipped instances, less as they grow), so each is stored once, as a
canonical index form (`IndexForm`: the non-zero entries and their
positions in row-major order), and every contraction runs on index forms
through one engine, `_sparse_contract`, and costs what its non-zeros cost:
the gates, the convolutions, the solver's rows and the Op matrices alike.
Cochain values and the vectors counit, unit and unitB stay dense; a dense
cochain times a table (`x @ form`) is a dense array.  Dense tables appear
only at the JSON boundary: `dump_instance` writes `.dense()` copies, and
`load_instance` hands the arrays it reads to the constructors, which read
each once with `IndexForm.of`, so the `--instance` format is unchanged.  A gate's
residual is the largest entry of lhs - rhs over index forms, so the Hopf
gate on C[Z_n] forms at most n^3 products (for associativity), where the
dense tables of its four-index identities held n^4 entries each.  The
identities that are linear in a cochain (the Hochschild cocycle equation,
graded convolution-centrality) are built as linear maps in index form: a
centrality check applies its map to one cochain (the cocycle check forms
mu(h k) - mu(h) <| k - eps(h) mu(k) from the cochain itself, so it never
holds the dim H^2-row map), and `hochschild_systems` stacks the maps into
the two systems of the solver, the cocycles and Z_B(M)_sa, at first or
second order.  A run builds them once: the memory guard counts their
blocks, `solve_hochschild_space` takes their nullspaces, one SVD per
connected component of a system and character of the point translation
z -> z + 1 of the B, M and Omega^2 bases, used when the system is exactly
invariant under it (a Z_n action, n = dim H; `_system` checks the
invariance entry for entry and otherwise factors whole components), and
the enumerator reads the Z_B(M)_sa basis the solver returns.  The
crossed-product realizations Op are checked against multiplication blocks contracted from
the same tables, in index form too; the crossed product keeps no product
tensor of its own.  Each multiplicativity check
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
The solver cuts its cocycle rows to the generators of H by the same
induction, so it too is only as sound as the gates.

Shipped instances are group algebras C[Z_n] acting on the function algebra
C(Z_n) by shift: the symmetric cycle calculus (e+, e- with e+* = e-, the
sign convention matching d(b*) = -d(b)*), the trivial bimodule M = B, and
a non-semisimple "jet" coefficient algebra C(Z_n) (x) C[x,y]/(x^2, y^2)
whose two-nilpotent-direction calculus makes the Maurer-Cartan and
curvature identities genuinely non-zero (over semisimple B every
derivation is inner and MC vanishes on all lazy Sweedler cocycles).  Each
is written as fiber tables, the structure at one point of Z_n, lifted
pointwise over C(Z_n) by `_lift`, which writes the index arrays of the
lifted table directly: a shipped instance holds what its non-zeros hold
(cycle_instance(96) about 2 MiB).  Every table of each is invariant under
the point translation, so the solver's blocks are n^2 times smaller than
the components they split (32 x 8 in place of 256 x 64 on cycle(8)).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

TOL = 1e-10

# form degree of each target; it fixes the graded signs
_DEGREE = {"B": 0, "M": 1, "O2": 2}


def _maxabs(a) -> float:
    """Largest absolute entry of a (0.0 when empty); a NaN entry gives NaN,
    so a worst-of residual over it fails every `<= tol` check."""
    if isinstance(a, IndexForm):
        a = a.values
    return float(np.max(np.abs(a), initial=0.0))


# -- index form ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IndexForm:
    """A tensor in index (COO) form: `index` holds one integer array per
    axis and `values` the entries at those positions, each position at most
    once; every entry not listed is 0.  Products join the listed entries, so
    their cost follows the non-zero counts, not the dense shapes.  A form
    is canonical when its positions are in row-major order and it stores
    no zero, as `of` and every sum give it; the structure tables of
    `FiniteHopf` and `ModuleAlgebra` are stored so.

    `form @ y` is numpy's matmul on one- to three-axis forms (a leading
    batch axis on either side), a form; `x @ form`, for a dense x and a
    two-axis form, is the dense product, summed in the order of the form's
    entries.  `+`/`-` add a form or dense array of one shape, and a scalar
    times a form scales its values.
    """

    shape: tuple
    index: tuple
    values: np.ndarray
    __array_ufunc__ = None  # numpy defers `x @ form` and `c * form` to the form

    @classmethod
    def of(cls, a) -> IndexForm:
        """The non-zero entries of a dense array; a form passes through."""
        if isinstance(a, IndexForm):
            return a
        a = np.asarray(a)
        flat = np.flatnonzero(a != 0)  # a NaN is not 0
        return cls(a.shape, np.unravel_index(flat, a.shape), a.reshape(-1)[flat])

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.values.dtype)
        out[self.index] = self.values
        return out

    def reshape(self, *shape) -> IndexForm:
        """The same entries, read row-major into `shape`."""
        return IndexForm(shape, np.unravel_index(_flat(self.index, self.shape), shape), self.values)

    def transpose(self, *axes) -> IndexForm:
        """The axes permuted as by `np.transpose` (reversed when none are given)."""
        axes = axes or tuple(reversed(range(len(self.shape))))
        return IndexForm(tuple(self.shape[a] for a in axes), tuple(self.index[a] for a in axes),
                         self.values)

    def take(self, i: int, axis: int) -> IndexForm:
        """The slice at position i of `axis`, without that axis."""
        hit = self.index[axis] == i
        return IndexForm(self.shape[:axis] + self.shape[axis + 1:],
                         tuple(ax[hit] for a, ax in enumerate(self.index) if a != axis),
                         self.values[hit])

    def conj(self) -> IndexForm:
        return IndexForm(self.shape, self.index, np.conj(self.values))

    def __rmul__(self, c) -> IndexForm:
        return IndexForm(self.shape, self.index, c * self.values)

    def __add__(self, other) -> IndexForm:
        other = IndexForm.of(other)
        return _summed(self.shape, tuple(map(np.concatenate, zip(self.index, other.index))),
                       np.concatenate([self.values, other.values]))

    def __sub__(self, other) -> IndexForm:
        return self + -1 * IndexForm.of(other)

    def __matmul__(self, other) -> IndexForm:
        a = {1: "q", 2: "pq", 3: "npq"}[len(self.shape)]
        b = {1: "q", 2: "qr", 3: "nqr"}[len(other.shape)]
        out = "".join(c for c in "npr" if c in a + b)
        return _sparse_contract(f"{a},{b}->{out}", self, IndexForm.of(other))

    def __rmatmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        rows, cols = self.index
        X = x.reshape(math.prod(x.shape[:-1]), self.shape[0])
        keys = np.arange(len(X))[:, None] * self.shape[1] + cols
        out = _bincount(keys.ravel(), (X[:, rows] * self.values).ravel(), len(X) * self.shape[1])
        return out.reshape(x.shape[:-1] + self.shape[1:])


def _flat(index, shape) -> np.ndarray:
    """Row-major flat positions of an index tuple (its one axis, if one)."""
    return index[0] if len(index) == 1 else np.ravel_multi_index(tuple(index), tuple(shape))


def _bincount(where, values, size) -> np.ndarray:
    """Sums of the (real or complex) values at each of `size` bins, each
    bin summed in the order given."""
    sums = np.empty(size, dtype=values.dtype)
    sums.real = np.bincount(where, values.real, size)
    if np.iscomplexobj(values):
        sums.imag = np.bincount(where, values.imag, size)
    return sums


def _summed(shape, index, values) -> IndexForm:
    """The canonical form with these (possibly repeated) entries, those at
    one position summed in the order given; sums that are exactly 0 are
    dropped, a NaN is kept."""
    keys, where = np.unique(_flat(index, shape), return_inverse=True)
    sums = _bincount(where, values, len(keys))
    keep = sums != 0
    return IndexForm(shape, np.unravel_index(keys[keep], shape), sums[keep])


def _join(a: np.ndarray, b: np.ndarray):
    """Position arrays (i, j) of every pair with a[i] == b[j]."""
    order = np.argsort(b, kind="stable")
    b = b[order]
    lo = np.searchsorted(b, a, "left")
    count = np.searchsorted(b, a, "right") - lo
    i = np.repeat(np.arange(len(a)), count)
    # the matches of a[i] are order[lo[i]], order[lo[i] + 1], ...
    j = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(i))]
    return i, j


def _sparse_contract(spec: str, *operands) -> IndexForm:
    """np.einsum over index forms (dense operands are read by `IndexForm.of`).

    The operands are joined from the left on their shared letters; after
    each join the letters no later operand and not the output needs are
    summed out, so only non-zero products are ever formed.  List the
    operands in an order that keeps the intermediate joins small.
    """
    inputs, out = spec.split("->")
    inputs = inputs.split(",")
    forms = [IndexForm.of(op) for op in operands]
    size = {c: n for letters, f in zip(inputs, forms) for c, n in zip(letters, f.shape)}
    axes, values = dict(zip(inputs[0], forms[0].index)), forms[0].values

    def keep(letters):
        nonlocal axes, values
        kept = [c for c in axes if c in letters]
        if len(kept) < len(axes):
            s = _summed(tuple(size[c] for c in kept), tuple(axes[c] for c in kept), values)
            axes, values = dict(zip(kept, s.index)), s.values

    for k, (letters, f) in enumerate(zip(inputs[1:], forms[1:]), 1):
        other = dict(zip(letters, f.index))
        shared = [c for c in letters if c in axes]
        # with no shared letter every pair matches on the key 0
        i, j = _join(*(_flat([ax[c] for c in shared], [size[c] for c in shared]) if shared
                       else np.zeros(len(v), dtype=np.intp)
                       for ax, v in ((axes, values), (other, f.values))))
        axes = {c: a[i] for c, a in axes.items()} | {c: a[j] for c, a in other.items() if c not in axes}
        values = values[i] * f.values[j]
        keep(set(out).union(*inputs[k + 1:]))
    keep(out)
    return IndexForm(tuple(size[c] for c in out), tuple(axes[c] for c in out), values)


def _vstack(forms) -> IndexForm:
    """Two-axis forms with equal column counts, stacked row-wise."""
    offsets = np.cumsum([0] + [f.shape[0] for f in forms])
    rows = np.concatenate([f.index[0] + o for f, o in zip(forms, offsets)])
    cols = np.concatenate([f.index[1] for f in forms])
    return IndexForm((int(offsets[-1]), forms[0].shape[1]), (rows, cols),
                     np.concatenate([f.values for f in forms]))


def _as_matrix(linear: IndexForm) -> IndexForm:
    """A linear map of cochain values, whose last two axes are the
    cochain's (dim H, dim target), as a matrix with those as its columns."""
    rows, cols = linear.shape[:-2], linear.shape[-2:]
    return linear.reshape(math.prod(rows), math.prod(cols))


def _apply(linear: IndexForm, values) -> np.ndarray:
    """Dense image of cochain values (..., dim H, dim target) under a
    linear map in index form; the result is (..., leading axes of linear)."""
    values = np.asarray(values)
    A = _as_matrix(linear)
    out = values.reshape(math.prod(values.shape[:-2]), A.shape[1]) @ A.transpose()
    return out.reshape(values.shape[:-2] + linear.shape[:-2])


def _realified(A: np.ndarray) -> np.ndarray:
    """The real matrix, on (re x, im x), of the antilinear map x -> A conj(x)."""
    return np.block([[A.real, A.imag], [A.imag, -A.real]])


# relative size below which a singular value counts as zero in every rank
# decision (`_row_span`, `_nullspace`, `_sparse_nullspace`)
RANK_TOL = 1e-9


def _row_span(A) -> np.ndarray:
    """Orthonormal rows spanning the rows of A; its rank counts the singular
    values above RANK_TOL * max(1, largest).

    A wide A is reduced first: with A^T = Q R and R = U S V^H, A is
    conj(V) S (Q U)^T, so the singular values are those of the square R
    and the rows of (Q U)^T, in their order, span the rows of A."""
    wide = A.shape[0] < A.shape[1]
    if wide:
        Q, R = np.linalg.qr(A.T)
        U, s, _ = np.linalg.svd(R)
    else:
        _, s, vh = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * np.max(s, initial=1.0)))
    return (Q @ U[:, :rank]).T if wide else vh[:rank]


def _read_tables(obj, dims: dict) -> list:
    """Check each table of obj named in its `AXES` and read it once: a table
    of two axes or more into its index form, a vector into a dense array.

    `dims` maps an axis letter to its length; the first table with a letter
    not in it enters that letter's length.  ValueError names a required
    table that is None, a table with the wrong number of axes, and one
    whose axis disagrees with the length of its letter.  Returns the
    optional tables (those whose field defaults to None) that are absent.
    """
    optional = {f.name for f in fields(obj) if f.default is None}
    absent = []
    for name, axes in obj.AXES.items():
        table = getattr(obj, name)
        if table is None:
            if name not in optional:
                raise ValueError(f"table {name} is missing")
            absent.append(name)
            continue
        table = IndexForm.of(table) if len(axes) > 1 else np.asarray(table)
        if len(table.shape) != len(axes):
            raise ValueError(f"table {name} ({axes}) has {len(table.shape)} axes, not {len(axes)}")
        for letter, n in zip(axes, table.shape):
            if dims.setdefault(letter, n) != n:
                raise ValueError(f"table {name} ({axes}) has {letter} = {n}, not {dims[letter]}")
        setattr(obj, name, table)
    return absent


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

    `AXES` names every table with its axes, h = dim H; the constructor
    checks the tables against it (`_read_tables`) and stores mul, comul,
    antipode and star as canonical index forms, dense arrays given to it
    read once by `IndexForm.of`; counit and unit stay dense vectors.
    """

    mul: IndexForm
    comul: IndexForm
    counit: np.ndarray
    antipode: IndexForm
    star: IndexForm
    unit: np.ndarray
    labels: list = field(default_factory=list)

    AXES = {"mul": "hhh", "comul": "hhh", "counit": "h", "antipode": "hh", "star": "hh", "unit": "h"}

    def __post_init__(self):
        _read_tables(self, {})
        if not self.dim:
            raise ValueError("H has dimension 0; a Hopf algebra holds at least its unit")

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
                grown = _row_span(np.vstack([span] + [span @ self.mul.take(g, 1) for g in gens]))
                if len(grown) == len(span):
                    break
                span = grown
        return tuple(gens)

    def axiom_report(self) -> dict:
        """Max violation of each Hopf *-algebra axiom; gate before use."""
        m, c, eps, S, u = self.mul, self.comul, self.counit, self.antipode, self.unit
        E, st, eye = _sparse_contract, self.star, np.eye(self.dim)
        T = st @ S
        rep = {
            "assoc": E("ijx,xkl->ijkl", m, m) - E("jkx,ixl->ijkl", m, m),
            "unit": _vstack([E("i,ijk->jk", u, m) - eye, E("j,ijk->ik", u, m) - eye]),
            "coassoc": E("iab,bcd->iacd", c, c) - E("ibd,bac->iacd", c, c),
            "counit": _vstack([E("ijk,j->ik", c, eps) - eye, E("ijk,k->ij", c, eps) - eye]),
            # Delta(e_i e_j) = Delta(e_i) Delta(e_j)
            "bialgebra": E("ijx,xab->ijab", m, c) - E("iac,abu,jbd,cdv->ijuv", c, m, c, m),
            "counit_hom": E("ijk,k->ij", m, eps) - np.outer(eps, eps),
            "antipode_left": E("ijk,jl,lkx->ix", c, S, m) - np.outer(eps, u),
            "antipode_right": E("ijk,kl,jlx->ix", c, S, m) - np.outer(eps, u),
            "star_involutive": st.conj() @ st - eye,
            # (e_i e_j)^* = e_j^* e_i^* on the basis
            "star_antimult": E("ijk,kl->ijl", m.conj(), st) - E("ja,abl,ib->ijl", st, m, st),
            # Delta(x^*) = (* x *) Delta(x)
            "star_coalgebra": E("il,lab->iab", st, c) - E("ijk,ja,kb->iab", c.conj(), st, st),
            "s_star_involutive": T.conj() @ T - eye,
        }
        rep = {key: _maxabs(residual) for key, residual in rep.items()}
        rep["max"] = _maxabs(list(rep.values()))
        return rep


def cyclic_group_hopf(n: int) -> FiniteHopf:
    """C[Z_n] with group-like basis g^0 .. g^{n-1}."""
    g = np.arange(n)
    i, j = np.indices((n, n)).reshape(2, -1)
    inverse = IndexForm((n, n), (g, -g % n), np.ones(n, dtype=complex))  # g^i -> g^{-i}
    return FiniteHopf(
        # g^i g^j = g^{i+j}
        mul=IndexForm((n, n, n), (i, j, (i + j) % n), np.ones(n * n, dtype=complex)),
        comul=_lift(n, [[[1.0]]]),  # Delta(g^i) = g^i (x) g^i
        counit=np.ones(n) + 0j,
        antipode=inverse,  # S(g^i) = g^{-i}
        star=inverse,  # (g^i)^* = g^{-i}
        unit=(g == 0) + 0j,
        labels=[f"g^{i}" for i in range(n)],
    )


# -- module-algebra data -------------------------------------------------------


@dataclass
class ModuleAlgebra:
    """Right H-module *-algebra B with an equivariant B-*-bimodule M.

    Optional pieces: dB (derivation tensor B -> M), a degree-2 block
    (Omega^2 with its bimodule structure, the wedge M (x) M -> Omega^2 and
    the degree-1 derivation d1 : M -> Omega^2) used by the curvature map.

    `AXES` names every table with its axes, h = dim H, b = dim B,
    m = dim M and o = dim Omega^2 (the star tables are antilinear
    matrices, and actB[x, h, y] is the coefficient of y in x <| e_h).  The
    constructor checks the tables against it (`_read_tables`, with h from
    H) and stores each as a canonical index form, dense arrays given to it
    read once by `IndexForm.of`; unitB stays a dense vector.  The tables
    that default to None may be absent, but the degree-2 block (the o
    tables) comes whole and with dB: `data_report` and the curvature map
    read every piece of it, and d1 extends the derivation dB.  The
    `products`, `stars` and `actions` tables are rebuilt from these fields
    on every access, so reassigning a field (with an index form) is always
    seen.
    """

    H: FiniteHopf
    mulB: IndexForm
    unitB: np.ndarray
    starB: IndexForm
    actB: IndexForm
    leftM: IndexForm
    rightM: IndexForm
    starM: IndexForm
    actM: IndexForm
    dB: IndexForm | None = None
    leftO2: IndexForm | None = None
    rightO2: IndexForm | None = None
    starO2: IndexForm | None = None
    actO2: IndexForm | None = None
    wedge: IndexForm | None = None
    d1: IndexForm | None = None
    name: str = ""

    AXES = {"mulB": "bbb", "unitB": "b", "starB": "bb", "actB": "bhb", "leftM": "bmm",
            "rightM": "mbm", "starM": "mm", "actM": "mhm", "dB": "bm", "leftO2": "boo",
            "rightO2": "obo", "starO2": "oo", "actO2": "oho", "wedge": "mmo", "d1": "mo"}

    def __post_init__(self):
        absent = _read_tables(self, {"h": self.H.dim})
        given = [k for k, axes in self.AXES.items() if "o" in axes and k not in absent]
        if given and absent:
            raise ValueError(f"the degree-2 block ({', '.join(given)}) needs {', '.join(absent)} too")

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
        return _sparse_contract("i,ijk,j->k", x, self.product(ta, tb)[1], y).dense()

    def star(self, t: str, x):
        return np.conj(x) @ self.stars[t]

    def act(self, t: str, x, h: int):
        return x @ self.actions[t].take(h, 1)

    # consistency ------------------------------------------------------------
    def data_report(self) -> dict:
        """Module-algebra axioms over the tables: every action is a
        representation, every product is H-equivariant and *-compatible
        (with the graded sign on M ^ M), the products are associative; then
        the derivation identities."""
        rep = {}
        E, H, acts, stars, dB = _sparse_contract, self.H, self.actions, self.stars, self.dB
        for t, A in acts.items():
            if A is not None:
                # (x <| a) <| b = x <| ab
                rep[f"act{t}_rep"] = _maxabs(E("iau,ubv->iabv", A, A)
                                             - E("abx,ixv->iabv", H.mul, A))
        for (ta, tb), (tc, T) in self.products.items():
            if T is None:
                continue
            # (x y) <| h = (x <| h_1)(y <| h_2)
            rep[f"equivariant_{ta}{tb}"] = _maxabs(
                E("xyz,zhk->xyhk", T, acts[tc])
                - E("hab,xau,ybv,uvk->xyhk", H.comul, acts[ta], acts[tb], T)
            )
            # (x y)^* = (-1)^{|x||y|} y^* x^*
            sign = (-1) ** (_DEGREE[ta] * _DEGREE[tb])
            _, reverse = self.product(tb, ta)
            rep[f"star_{ta}{tb}"] = _maxabs(
                E("xyz,zk->xyk", T.conj(), stars[tc])
                - E("xu,yv,vuk->xyk", stars[ta], stars[tb], sign * reverse)
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
            rep[f"assoc_{ta}{tb}{tc}"] = _maxabs(E("xyu,uzw->xyzw", P, Q)
                                                 - E("yzv,xvw->xyzw", R, S))
        if dB is not None:
            # derivation: d(bb') = d(b) b' + b d(b')
            rep["derivation"] = _maxabs(E("ijx,xm->ijm", self.mulB, dB)
                                        - E("im,mjx->ijx", dB, self.rightM)
                                        - E("jm,imx->ijx", dB, self.leftM))
            # sign convention in force here: d(b^*) = -d(b)^*
            rep["star_derivation"] = _maxabs(E("ij,jm->im", self.starB, dB.conj())
                                             + E("im,mk->ik", dB.conj(), self.starM))
            # H-equivariance of dB
            rep["dB_equivariant"] = _maxabs(E("ihk,km->ihm", self.actB, dB)
                                            - E("im,mhk->ihk", dB, self.actM))
        if self.wedge is not None:
            # d^2 = 0 and graded Leibniz d1(b m) = dB(b) ^ m + b d1(m)
            rep["d_squared"] = _maxabs(E("bm,mo->bo", dB, self.d1))
            rep["graded_leibniz_left"] = _maxabs(E("bmx,xo->bmo", self.leftM, self.d1)
                                                 - E("bu,umo->bmo", dB, self.wedge)
                                                 - E("mo,boy->bmy", self.d1, self.leftO2))
            # d1(m b) = d1(m) b - m ^ dB(b)
            rep["graded_leibniz_right"] = _maxabs(E("mbx,xo->mbo", self.rightM, self.d1)
                                                  - E("mo,oby->mby", self.d1, self.rightO2)
                                                  + E("bu,muo->mbo", dB, self.wedge))
        rep["max"] = _maxabs(list(rep.values()))
        return rep


def same_tables(x, y) -> bool:
    """Are two FiniteHopf, or two ModuleAlgebra and their H, entry for entry
    equal in every table of `AXES`, absent ones included?  Names and labels
    are not read.  The tables are compared in index form: their difference
    has no entry."""
    if isinstance(x, ModuleAlgebra) and not same_tables(x.H, y.H):
        return False
    pairs = [(getattr(x, k), getattr(y, k)) for k in x.AXES]
    return all(a is None and b is None or a is not None and b is not None
               and a.shape == b.shape and _maxabs(a - b) == 0 for a, b in pairs)


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
    return inst.H.counit[:, None] * np.asarray(x)[..., None, :]


def _orbit(inst: ModuleAlgebra, target: str, x) -> np.ndarray:
    """Values of the cochain h -> x <| h; x may carry leading batch axes."""
    A = inst.actions[target]
    out = x @ A.reshape(A.shape[0], A.shape[1] * A.shape[2])
    return out.reshape(np.shape(x)[:-1] + A.shape[1:])


def convolve(f: ConvolutionElement, g: ConvolutionElement) -> ConvolutionElement:
    """(f * g)(h) = f(h_1) g(h_2) with the typed pointwise product."""
    target, T = f.inst.product(f.target, g.target)
    vals = _sparse_contract("hjk,ja,abc,kb->hc", f.inst.H.comul, f.values, T, g.values).dense()
    return ConvolutionElement(f.inst, target, vals)


def conv_star(f: ConvolutionElement) -> ConvolutionElement:
    """f^*(h) = f(S(h)^*)^*; f.values may carry leading batch axes."""
    H = f.inst.H
    T = H.antipode.conj() @ H.star  # S(e_i)^* = sum_k T[i,k] e_k
    values = np.swapaxes(np.swapaxes(f.values, -1, -2) @ T.transpose(), -1, -2)  # T @ f.values
    return ConvolutionElement(f.inst, f.target, f.inst.star(f.target, values))


def conv_inverse(sigma: ConvolutionElement) -> ConvolutionElement:
    """Inverse of a unitary convolution element: sigma^{-1} = sigma^*."""
    return conv_star(sigma)


# -- cocycle checks ----------------------------------------------------------------


def _commutator_map(inst: ModuleAlgebra, target: str, tx: str) -> IndexForm:
    """Graded convolution commutator with rho_tx, as a linear map of cochains.

    f(h_1)(x <| h_2) - (-1)^{|f||x|} (x <| h_1) f(h_2) for the target-valued
    cochain f and every basis element x of tx: an index form over
    (h, x, z, j, a), whose entry is the coefficient of f(e_j)_a in
    component z of the commutator at (h, x).
    """
    _, L = inst.product(target, tx)
    _, R = inst.product(tx, target)
    A, c = inst.actions[tx], inst.H.comul
    sign = (-1) ** (_DEGREE[target] * _DEGREE[tx])
    return _sparse_contract("hjk,xky,ayz->hxzja", c, A, L) - _sparse_contract(
        "hjk,xjy,ybz->hxzkb", c, A, sign * R
    )


def centrality(f: ConvolutionElement, tx: str) -> float:
    """Max violation of f commuting (graded) with rho_tx under convolution.

    Against B this is lazy centrality; for M-valued f against M it is the
    prolongability refinement mu(h_1) ^ (m <| h_2) + (m <| h_1) ^ mu(h_2).
    """
    return _maxabs(_apply(_commutator_map(f.inst, f.target, tx), f.values))


def _hochschild_map(inst: ModuleAlgebra, target: str, K) -> IndexForm:
    """mu(h k) - mu(h) <| k - eps(h) mu(k) as a linear map of cochains, for
    k over the rows of K (coordinates in the H basis): an index form over
    (h, k, v, j, a), whose entry is the coefficient of mu(e_j)_a in
    component v of the residual at (h, k)."""
    H = inst.H
    eye = np.eye(inst.stars[target].shape[0])
    return (
        _sparse_contract("ak,hkj,vw->havjw", K, H.mul, eye)
        - _sparse_contract("ak,wkv,hj->havjw", K, inst.actions[target], np.eye(H.dim))
        - _sparse_contract("h,aj,vw->havjw", H.counit, K, eye)
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
    resid = _sparse_contract("ijk,kv->ijv", H.mul, s) - _sparse_contract(
        "jab,uax,iu,xyv,by->ijv", H.comul, inst.actB, s, inst.mulB, s
    )
    rep["cocycle"], rep["cocycle_worst_pair"] = _worst_pair(resid.dense())
    rep["centrality_B"] = centrality(sigma, "B")
    rep["centrality_M"] = centrality(sigma, "M")
    rep["max"] = _maxabs([v for key, v in rep.items() if key != "cocycle_worst_pair"])
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
    # mu(h k) - mu(h) <| k - eps(h) mu(k) on all basis pairs (h, k)
    H, m = inst.H, mu.values
    resid = (_sparse_contract("hkj,jv->hkv", H.mul, m)
             - _sparse_contract("hw,wkv->hkv", m, inst.actions[mu.target])).dense()
    rep["cocycle"], rep["cocycle_worst_pair"] = _worst_pair(resid - np.multiply.outer(H.counit, m))
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
    x.y), and `left`/`right` contract them into multiplication blocks of a
    batch of elements, in index form: every block and every product of
    blocks lists only its non-zero entries, so no dense tensor in
    dim H * dim B is built.  The antilinear star matrices SP (on B x| H)
    and SW (on M x| H) are index forms too.
    """

    def __init__(self, inst: ModuleAlgebra):
        self.inst = inst
        self.H = H = inst.H
        # star matrices (antilinear) of B x| H and M x| H: star(u) = conj(u) @ S
        self.SP, self.SW = (
            _sparse_contract(
                "bu,use,ks,ijk,jt->ibte",
                inst.stars[t], inst.actions[t], H.star, H.comul.conj(), H.star,
            ).reshape(H.dim * inst.stars[t].shape[0], H.dim * inst.stars[t].shape[0])
            for t in ("B", "M")
        )

    @property
    def dim(self):
        return self.H.dim * self.inst.dimB

    def _factors(self, tx: str, ty: str):
        """The action on tx, the coproduct and product of H, and tx . ty."""
        _, P = self.inst.product(tx, ty)
        return self.inst.actions[tx], self.H.comul, self.H.mul, P

    def left(self, tx: str, ty: str, X) -> IndexForm:
        """Left-multiplication blocks of a batch of elements of tx x| H.

        X is an (n, dim H * dim tx) array or index form.  Returns the index
        form L of shape (n, dim H * dim ty, dim H * dim tz), tz the target
        of tx . ty, with x . y = y @ L[r] for the r-th element x of the batch.
        """
        A, C, M, P = self._factors(tx, ty)
        h, X = self.H.dim, IndexForm.of(X)
        L = _sparse_contract("nib,bku,pjk,ijt,uce->npcte", X.reshape(X.shape[0], h, A.shape[0]),
                             A, C, M, P)
        return L.reshape(X.shape[0], h * P.shape[1], h * P.shape[2])

    def right(self, tx: str, ty: str, Y) -> IndexForm:
        """Right-multiplication blocks of a batch of elements of ty x| H.

        The mirror of `left`: Y is an (n, dim H * dim ty) array or index
        form, and R of shape (n, dim H * dim tx, dim H * dim tz) has
        x . y = x @ R[r] for the r-th element y of the batch.
        """
        A, C, M, P = self._factors(tx, ty)
        h, Y = self.H.dim, IndexForm.of(Y)
        R = _sparse_contract("npc,uce,bku,pjk,ijt->nibte", Y.reshape(Y.shape[0], h, P.shape[1]),
                             P, A, C, M)
        return R.reshape(Y.shape[0], h * A.shape[0], h * P.shape[2])

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
        rows = [np.kron(H.unit, np.eye(inst.dimB))] + [np.kron(np.eye(H.dim)[g], inst.unitB) for g in gens]
        return labels, np.vstack(rows)

    def mul(self, u, v):
        return (IndexForm.of(v) @ self.left("B", "B", np.asarray(u)[None])).dense()[0]

    def star(self, u):
        return (IndexForm.of(np.conj(u)) @ self.SP).dense()

    def unit(self):
        return np.outer(self.H.unit, self.inst.unitB).ravel()

    def embed_B(self, b):
        return np.outer(self.H.unit, b).ravel()


def op_gauge_matrix(sigma: ConvolutionElement, target: str = "B") -> IndexForm:
    """Matrix of Op(sigma) on target x| H: h (x) x -> h_1 (x) sigma(h_2) x.

    On B this is the gauge transformation of the crossed product; on M and
    O2 it is the induced map on one- and two-forms.  An index form over
    flattened vectors; `.dense()` gives the array.
    """
    H, (_, L) = sigma.inst.H, sigma.inst.product("B", target)
    size = H.dim * L.shape[1]
    return _sparse_contract("ijk,kv,vme->imje", H.comul, sigma.values, L).reshape(size, size)


def op_potential_matrix(mu: ConvolutionElement) -> IndexForm:
    """Matrix of Op(mu)(h (x) b) = h . dB(b) + h_1 . mu(h_2) . b, an index
    form over flattened vectors."""
    inst, H = mu.inst, mu.inst.H
    if inst.dB is None:
        raise TargetMismatch("instance carries no derivation dB")
    term1 = _sparse_contract("ij,bm->ibjm", np.eye(H.dim), inst.dB)
    term2 = _sparse_contract("ijk,km,mbe->ibje", H.comul, mu.values, inst.rightM)
    return (term1 + term2).reshape(H.dim * inst.dimB, H.dim * inst.dimM)


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
    two residuals.  `generators` names the rows.  Every matrix (Op(sigma),
    Op(mu), the star matrices, the multiplication blocks of all generator
    rows at once) and every product of them is an index form, so the work
    and memory follow their non-zero counts.
    """
    cp = CrossedProduct(inst)
    labels, X = cp.generators()
    X = IndexForm.of(X)
    F, Fm = op_gauge_matrix(sigma), op_gauge_matrix(sigma, "M")
    XF = X @ F
    LB, LM = cp.left("B", "B", X), cp.left("B", "M", X)
    rep = {"op_sigma_hom": _maxabs(LB @ F - F @ cp.left("B", "B", XF))}
    # star-automorphism: SP . F = conj(F) . SP
    rep["op_sigma_star"] = _maxabs(cp.SP @ F - F.conj() @ cp.SP)
    # fixes B and the unit
    EB = IndexForm.of(np.kron(inst.H.unit, np.eye(inst.dimB)))
    rep["op_sigma_fixes_B"] = _maxabs(EB @ F - EB)
    one = IndexForm.of(cp.unit())
    rep["op_sigma_unit"] = _maxabs(one @ F - one)
    rep["op_sigma_forms_left"] = _maxabs(LM @ Fm - Fm @ cp.left("B", "M", XF))
    rep["op_sigma_forms_right"] = _maxabs(
        cp.right("M", "B", X) @ Fm - Fm @ cp.right("M", "B", XF)
    )
    if inst.wedge is not None:
        Fo = op_gauge_matrix(sigma, "O2")
        EM = IndexForm.of(np.kron(inst.H.unit, np.eye(inst.dimM)))
        rep["op_sigma_prolongable"] = _maxabs([
            _maxabs(cp.right("O2", "B", X) @ Fo - Fo @ cp.right("O2", "B", XF)),
            _maxabs(cp.right("M", "M", EM) @ Fo - Fm @ cp.right("M", "M", EM @ Fm)),
        ])
    if mu is not None:
        D = op_potential_matrix(mu)
        # derivation: D(xy) = D(x).y + x.D(y)
        rep["op_mu_derivation"] = _maxabs(LB @ D - cp.left("M", "B", X @ D) - D @ LM)
    if upsilon is not None:
        # Ad_upsilon(x) = eu . x . eus
        upsilon = np.asarray(upsilon, dtype=complex)
        FD = op_gauge_matrix(coboundary_S(inst, upsilon))
        eu, eus = cp.embed_B(upsilon)[None], cp.embed_B(inst.star("B", upsilon))[None]
        ad = cp.left("B", "B", eu) @ cp.right("B", "B", eus)
        rep["op_coboundary_is_ad"] = _maxabs(FD - ad.reshape(*FD.shape))
    if mu is not None:
        # star-derivation: D(x^*) = -(D x)^*
        rep["op_mu_star"] = _maxabs(cp.SP @ D + D.conj() @ cp.SW)
        # restriction to B is d_B
        dB = _sparse_contract("i,bm->bim", inst.H.unit, inst.dB).reshape(inst.dimB, D.shape[1])
        rep["op_mu_restricts"] = _maxabs(EB @ D - dB)
        # gauge compatibility
        Finv = op_gauge_matrix(conv_inverse(sigma))
        target = op_potential_matrix(conj_action(sigma, mu) + mc_cocycle(sigma))
        rep["op_gauge_compat"] = _maxabs(Finv @ D @ Fm - target)
    rep["max"] = _maxabs(list(rep.values()))
    rep["generators"] = labels
    return rep


# -- linear-algebra solvers -----------------------------------------------------


def _nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the nullspace of a real or complex
    matrix with at least one row, via SVD; rank counts singular values
    above RANK_TOL * max(A.shape)."""
    return _nullspaces(A[None], RANK_TOL * max(A.shape))[0]


def _nullspaces(A: np.ndarray, bound: float) -> list:
    """`_nullspace` of each matrix of the stack A (count, rows, columns),
    by one batched QR and one batched SVD."""
    _, m, n = A.shape
    if m > n:
        A = np.linalg.qr(A, mode="r")  # the same singular values, square
    elif m < n:
        A = np.concatenate([A, np.zeros((len(A), n - m, n), dtype=A.dtype)], axis=1)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return [np.conj(v[rank:]).T for v, rank in zip(vh, np.sum(s > bound, axis=1))]


def _components(A: IndexForm) -> np.ndarray:
    """Connected component of each column of the two-axis form A, columns
    being joined when they share a row: union-find over the index arrays,
    each round hooking the larger root of every edge under the smaller and
    then compressing every path.  A component is labelled by its least
    column."""
    rows, cols = A.index
    first = np.full(A.shape[0], A.shape[1])
    np.minimum.at(first, rows, cols)  # each row's first column
    a, b = cols, first[rows]
    parent = np.arange(A.shape[1])
    while not np.array_equal(parent[a], parent[b]):
        ra, rb = parent[a], parent[b]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
    return parent


def _orbits(move, x):
    """The orbit of each position of the array x under move, a function of
    position arrays that generates a free Z_r action: its least position,
    the offset t with x = move^t(least), and r."""
    least, to_least, j, r = x, np.zeros(len(x), dtype=np.intp), move(x), 1
    # every orbit closes at step r; to_least counts the steps to its least
    while not np.array_equal(j, x):
        lower = j < least
        least = np.where(lower, j, least)
        to_least[lower] = r
        j, r = move(j), r + 1
    return least, (r - to_least) % r, r


def _character_parts(A: IndexForm, rows, cols):
    """The connected components of A read on the orbits of a Z_r action,
    the parts `_character_blocks` writes one block per character of.

    rows and cols permute A's row and column positions, as functions of
    index arrays (the translation `_system` finds, or the identity), and
    generate a free Z_r action that leaves A invariant, A[rows(i), cols(j)]
    = A[i, j].  Only the entries in the least row of each row orbit are
    read, the other rows being their images; a row without entries counts
    as a zero row.  Each column is read as cols^t(C), C the least column of
    its orbit and t its offset.

    Yields r and, per component of that quotient: the block's (rows,
    columns), its entries as (row, column, offset, value), and the columns
    of A it holds with their offsets and block columns.  Index work only:
    no dense array is built.
    """
    rr, cc = A.index
    used, at = np.unique(rr, return_inverse=True)
    lead = (_orbits(rows, used)[0] == used)[at]  # the entries in the least row of their orbit
    least_c, t_c, r = _orbits(cols, np.arange(A.shape[1]))
    R, C, t, values = rr[lead], least_c[cc[lead]], t_c[cc[lead]], A.values[lead]
    # components of the quotient, each labelled by its least column orbit
    label = _components(IndexForm(A.shape, (R, C), values))
    order = np.argsort(label[C], kind="stable")
    parts = np.split(order, np.flatnonzero(np.diff(label[C][order])) + 1) if len(order) else []
    # the columns of each component: those whose orbit it holds (an orbit
    # in no entry is labelled by its least column, which no component holds)
    members = label[least_c]
    by_label = np.argsort(members, kind="stable")
    keys, starts = np.unique(members[by_label], return_index=True)
    groups = dict(zip(keys.tolist(), np.split(by_label, starts[1:])))
    for part in parts:
        (urow, ri), (ucol, ci) = (np.unique(x[part], return_inverse=True) for x in (R, C))
        columns = groups[int(label[ucol[0]])]
        yield (r, (len(urow), len(ucol)), (ri, ci, t[part], values[part]),
               (columns, t_c[columns], np.searchsorted(ucol, least_c[columns])))


def _character_blocks(A: IndexForm, rows, cols):
    """The blocks `_sparse_nullspace` factors, one per connected component
    of A (read on orbits, `_character_parts`) and character of the free
    Z_r action rows, cols.

    With w = exp(-2 pi i / r), the unitary change of basis u_k(x) = r^-1/2
    sum_t w^(k t) e(perm^t x), for the characters k < r, on rows and on
    columns, makes A block diagonal with one block per k (Serre, Linear
    Representations of Finite Groups, 2.6-2.7).  The entry of block k at
    the row and column orbits of R and C, each the least index of its
    orbit, is sum_t w^(k t) A[R, perm^t C].  Under the trivial action
    (r = 1) the blocks are A's connected components.

    Yields, per component, its r blocks as one (characters, rows, columns)
    stack: (blocks, columns, coefficients, positions).  A null vector y of
    the block of the k-th character gives the null vector x of A with
    x[columns] = coefficients[k] * y[positions] and 0 elsewhere.
    """
    for r, shape, (ri, ci, t, values), (columns, t_col, position) in _character_parts(A, rows, cols):
        k = np.arange(r)[:, None]
        w = np.exp(-2j * np.pi * np.arange(r) / r)  # w^k
        flat = (k * shape[0] + ri) * shape[1] + ci
        blocks = _bincount(flat.ravel(), (values * w[k * t % r]).ravel(), r * math.prod(shape))
        yield blocks.reshape(r, *shape), columns, w[k * t_col % r] / np.sqrt(r), position


def component_shapes(A: IndexForm, rows, cols) -> list:
    """(characters, rows, columns) of each stack of dense blocks that
    `_sparse_nullspace` factors in one call, for the two-axis form A under
    the free symmetry rows, cols of its positions (as `_system` finds it):
    one block per connected component and character (`_character_blocks`).
    Counted from the index arrays (`_character_parts`), so no block is
    built: the memory guard reads it before the solver runs."""
    return [(r, *shape) for r, shape, *_ in _character_parts(A, rows, cols)]


def _sparse_nullspace(A: IndexForm, rows, cols) -> np.ndarray:
    """Orthonormal complex columns spanning the nullspace of the two-axis
    form A, invariant under the symmetry rows, cols of its row and column
    positions that `_system` finds (`_character_blocks`).

    One dense SVD per block of `_character_blocks`: per connected component
    of A and character of the free Z_r action the symmetry generates, the
    r blocks of a component factored by one batched call (`_nullspaces`).
    The change of basis to the character blocks is unitary on both sides,
    so the blocks hold the singular values of A, and every block counts
    those above RANK_TOL * max(A.shape), the bound `_nullspace` would use on
    all of A: every rank decision is the one that dense SVD would make.
    Each block's null vectors map back to A's columns through the unitary
    basis.  A column in no row is a null vector of its own.
    """
    bound, free = RANK_TOL * max(A.shape), np.ones(A.shape[1], dtype=bool)
    pieces = []  # (columns, null vectors on them)
    for blocks, columns, coef, position in _character_blocks(A, rows, cols):
        pieces += [(columns, c[:, None] * N[position])
                   for c, N in zip(coef, _nullspaces(blocks, bound)) if N.shape[1]]
        free[columns] = False
    pieces.append((np.flatnonzero(free), np.eye(np.count_nonzero(free))))
    Q = np.zeros((A.shape[1], sum(N.shape[1] for _, N in pieces)), dtype=complex)
    k = 0
    for columns, N in pieces:
        Q[columns, k:k + N.shape[1]] = N
        k += N.shape[1]
    return Q


def _index_perm(letters: str, shape, n: int):
    """The translation by one point on the row-major positions of axes named
    by `letters`, as a function of an array of positions: an axis b, m or o
    of length k moves cyclically by k / n, one point of a basis lifted
    point-major over C(Z_n) (`_lift`), and any other axis stays.  It reads
    only the positions it is given, so no array spans every row of a
    system."""
    steps = [k // n if c in "bmo" else 0 for c, k in zip(letters, shape)]

    def move(i):
        index = np.unravel_index(i, shape)
        return np.ravel_multi_index(tuple((x + s) % k for x, s, k in zip(index, steps, shape)), shape)
    return move


def _unmoved(i):
    """The identity on positions: the trivial symmetry."""
    return i


def _system(inst: ModuleAlgebra, maps, columns: str) -> tuple:
    """Linear maps in index form, each given with the letters of its row
    axes (its other axes are the columns, named by `columns`), stacked into
    one two-axis system: (A, rows, cols), rows and cols the translation by
    one point on A's row and column positions (`_index_perm`, n = dim H).

    The translation is used only when it acts freely, every orbit of n
    positions (n divides the length of each b, m and o axis), and A is
    invariant under it, A[rows(i), cols(j)] = A[i, j] with positions and
    values equal; otherwise rows and cols are the identity.  The check
    reads each entry once, so the solver relies on nothing it has not
    seen."""
    n = inst.H.dim
    axes = [(letters, form.shape[:len(letters)]) for form, letters in maps]
    width = maps[0][0].shape[len(maps[0][1]):]
    A = _vstack([form.reshape(math.prod(shape), math.prod(width))
                 for (form, _), (_, shape) in zip(maps, axes)])
    if any(k % n for letters, shape in axes + [(columns, width)]
           for c, k in zip(letters, shape) if c in "bmo"):
        return A, _unmoved, _unmoved
    moves = [_index_perm(letters, shape, n) for letters, shape in axes]
    offsets = np.cumsum([0] + [math.prod(shape) for _, shape in axes])

    def rows(i):
        out = np.empty_like(i)
        for lo, hi, move in zip(offsets, offsets[1:], moves):
            at = (lo <= i) & (i < hi)
            out[at] = lo + move(i[at] - lo)
        return out
    cols = _index_perm(columns, width, n)
    moved = IndexForm(A.shape, (rows(A.index[0]), cols(A.index[1])), A.values)
    if _maxabs(moved - A) == 0:
        return A, rows, cols
    return A, _unmoved, _unmoved


def _fixed_points(Q: np.ndarray, starred: np.ndarray, space: str) -> np.ndarray:
    """Fixed points of an antilinear star on the span of the orthonormal
    columns Q, whose star images are the columns of `starred`: complex
    columns, orthonormal as real vectors, spanning the real space of
    star-fixed vectors.  RuntimeError when the span is not star-invariant."""
    k = Q.shape[1]
    if not k:
        return Q
    resid = np.abs(starred - Q @ (np.conj(Q).T @ starred)).max()
    if not resid <= 1e-8:
        raise RuntimeError(f"{space} is not star-invariant (residual {resid:.1e})")
    # star(Q c) = Q S conj(c); the fixed points c = S conj(c) are real-linear
    # in (re c, im c)
    S = np.conj(Q).T @ starred
    coords = _nullspace(_realified(S) - np.eye(2 * k))
    return Q @ (coords[:k] + 1j * coords[k:])


def _central_sa_basis(inst: ModuleAlgebra, central: tuple) -> np.ndarray:
    """Z_B(M)_sa, cut to its graded-central part at second order: the
    star-fixed points of the nullspace of the central system (A, rows, cols)
    of `hochschild_systems`, as complex columns in M, orthonormal as real
    vectors."""
    Q = _sparse_nullspace(*central)
    return _fixed_points(Q, inst.star("M", Q.T).T, "Z_B(M)")


def hochschild_systems(inst: ModuleAlgebra, prolongable: bool = False) -> tuple:
    """The two systems `solve_hochschild_space` factors, (cocycle, central),
    each one two-axis index form with the symmetry `_system` finds on its
    rows and columns: (A, rows, cols).

    cocycle has the dim H * dim M complex unknowns mu(e_j)_a, and rows (a)
    the cocycle equation mu(h k) = mu(h) <| k + eps(h) mu(k) for k in {1}
    together with `FiniteHopf.generators` and (b) centrality against rho_B.
    central has the dim M complex unknowns m, and the rows b m - m b for
    every basis element b of B, which cut the B-central elements out of M.
    At second order (prolongable, when inst has a wedge) both also hold
    (c) graded centrality against rho_M: of mu in cocycle, and in central of
    the constant cochain h -> eps(h) m, whose image D(m) is then a
    prolongable coboundary.  Each row is written from the non-zeros of the
    structure tensors.  Cutting k to the generators is the word-length
    induction of `op_report`: the k for which (a) holds at every h are
    closed under products, once the action is a representation of H and
    eps is multiplicative, which the Hopf and data gates check; and words
    in the generators span H.
    """
    H = inst.H
    K = np.vstack([H.unit] + [np.eye(H.dim)[g] for g in H.generators])
    # row axes (h, k, v), (h, b, m), (h, m, o) and (b, m); columns (j, a) or m
    cocycle = [(_hochschild_map(inst, "M", K), "hkm"), (_commutator_map(inst, "M", "B"), "hbm")]
    central = [(_sparse_contract("bmk->bkm", inst.leftM) - _sparse_contract("mbk->bkm", inst.rightM), "bm")]
    if prolongable and inst.wedge is not None:
        graded = _commutator_map(inst, "M", "M")
        cocycle.append((graded, "hmo"))
        central.append((_sparse_contract("hxzja,j->hxza", graded, H.counit), "hmo"))
    return _system(inst, cocycle, "hm"), _system(inst, central, "m")


def solve_hochschild_space(inst: ModuleAlgebra, systems: tuple) -> dict:
    """Bases and dimensions of ZH^1, BH^1, HH^1 as real vector spaces, from
    the systems (cocycle, central) of `hochschild_systems`, at the order
    they were built for.

    The cocycle equation and convolution-centrality (plus graded centrality
    at second order) are complex-linear, so the solver first takes the
    complex nullspace of the cocycle system, one SVD per connected
    component of its rows and unknowns and character of the point
    translation, where the system is invariant under it (`_system`,
    `_sparse_nullspace`), and then cuts out the fixed points of the
    antilinear involution mu -> mu^* inside it (`_fixed_points`); the
    complex solution space is star-invariant, which is asserted
    numerically.  Z_B(M)_sa (graded-central at second order), whose images
    D(m) are the coboundaries, comes the same way from the central system
    (`_central_sa_basis`), and is returned as `central_basis`.  The cocycle
    rows run on generators of H only, so the result is sound on data that
    passes the Hopf and data gates.
    """
    cocycle, central = systems
    H = inst.H
    dH, dM = H.dim, inst.dimM
    n_c = dH * dM  # complex unknowns
    Q = _sparse_nullspace(*cocycle)
    k = Q.shape[1]
    starred = conv_star(ConvolutionElement(inst, "M", Q.T.reshape(k, dH, dM))).values
    sols = _fixed_points(Q, starred.reshape(k, n_c).T, "cocycle space")
    # coboundaries: D on Z_B(M)_sa
    ms = _central_sa_basis(inst, central).T
    d = (_orbit(inst, "M", ms) - _const(inst, ms)).reshape(len(ms), n_c)
    # orthonormal basis of the coboundary space
    b_span = _row_span(np.hstack([np.real(d), np.imag(d)]))

    def to_elements(cols):
        return [ConvolutionElement(inst, "M", col.reshape(dH, dM)) for col in cols.T]

    return {
        "dim_Z": sols.shape[1],
        "dim_B": len(b_span),
        "dim_H": sols.shape[1] - len(b_span),
        "basis": to_elements(sols),
        "coboundary_basis": to_elements((b_span[:, :n_c] + 1j * b_span[:, n_c:]).T),
        "central_basis": ms.T,
    }


def brute_force_group_z1(inst: ModuleAlgebra, cent: np.ndarray) -> dict:
    """Independent oracle: degree-1 group cohomology of Z_n, n = dim H, in
    the real span of the columns of cent, orthonormal as real vectors: the
    Z_B(M)_sa that `solve_hochschild_space` returns as `central_basis`.

    Works directly from the group multiplication table and the action on
    that real subspace; never touches the Hopf tensors.
    """
    k = cent.shape[1]
    if k == 0:
        return {"dim_Z": 0, "dim_B": 0, "dim_H": 0}
    # the generator's action on each basis vector, then in the (real-
    # orthonormal) cent basis
    moved = cent.T @ inst.actM.take(1 % inst.H.dim, 1)
    R = np.real(np.conj(cent).T @ moved.T)
    # cocycle: c(g^j) = sum_{i<j} R^i(v); constraint sum_{i<n} R^i v = 0
    total = np.zeros((k, k))
    P = np.eye(k)
    for _ in range(inst.H.dim):
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


def _lift(n: int, fiber, shift=None) -> IndexForm:
    """C(Z_n)-pointwise tensor of a fiber table, the structure at one point,
    as a canonical index form.

    Axis i of the result runs over the pairs (z_i, e_i), flattened point-major
    to z_i * fiber.shape[i] + e_i.  The entry at ((z + shift[0], e_0), ...,
    (z + shift[r-1], e_{r-1})) is fiber[e_0, ..., e_{r-1}] for every z in
    Z_n, and every other entry is 0; shift (one translation per axis,
    default none) lets a structure reach a neighbouring point.
    """
    fiber = IndexForm.of(np.asarray(fiber, dtype=complex))
    z = np.arange(n)[:, None]
    index = (((z + s) % n * k + e).ravel()
             for s, k, e in zip(shift or (0,) * len(fiber.shape), fiber.shape, fiber.index))
    return _summed(tuple(n * k for k in fiber.shape), tuple(index), np.tile(fiber.values, n))


def _shift_action(n: int, blocks: int = 1, step: int = 1) -> IndexForm:
    """Right shift action of C[Z_n]: (delta_x <| g^j) = delta_{x - step j},
    block-wise; step 0 is the trivial action."""
    x, e, j = np.indices((n, blocks, n)).reshape(3, -1)
    image = (x - step * j) % n * blocks + e
    return IndexForm((n * blocks, n, n * blocks), (x * blocks + e, j, image), np.ones(len(x), dtype=complex))


def function_instance(n: int, shift: bool = True) -> ModuleAlgebra:
    """B = C(Z_n) with the shift action; M = B as the trivial bimodule.

    dB = 0 (a finite-dimensional commutative algebra has no derivation
    into the trivial bimodule).  With shift=False the H-action on M is
    trivial while B keeps the shift.
    """
    # delta_x delta_y = [x = y] delta_x, and the same on M = B from both sides
    return ModuleAlgebra(
        H=cyclic_group_hopf(n),
        mulB=_lift(n, [[[1.0]]]),
        unitB=np.ones(n) + 0j,
        starB=_lift(n, [[1.0]]),
        actB=_shift_action(n),
        leftM=_lift(n, [[[1.0]]]),
        rightM=_lift(n, [[[1.0]]]),
        starM=_lift(n, [[1.0]]),
        actM=_shift_action(n, step=int(shift)),
        dB=_lift(n, [[0.0]]),
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
        unitB=np.ones(n) + 0j,
        starB=_lift(n, [[1.0]]),
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
        starO2=_lift(n, [[-1.0]]),
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
        unitB=np.tile(one, n) + 0j,
        starB=_lift(n, np.eye(4)),  # x, y self-adjoint
        actB=_shift_action(n, 4),
        leftM=_lift(n, left),
        rightM=_lift(n, left.transpose(1, 0, 2)),
        starM=_lift(n, -np.eye(4)),
        actM=_shift_action(n, 4),
        dB=_lift(n, d),
        # Omega^2 = C(Z_n) dx^dy: x, y and xy act by 0 on it
        leftO2=_lift(n, one[:, None, None]),
        rightO2=_lift(n, one[None, :, None]),
        starO2=_lift(n, [[1.0]]),
        actO2=_shift_action(n),
        wedge=_lift(n, wedge),
        d1=_lift(n, d1),
        name=f"jet(Z_{n})",
    )


def jet_unitary(inst: ModuleAlgebra, rng):
    """Random unitary f (1 + i a x + i b y + (i c - a b) xy) of the jet algebra:
    |f| = 1 and real a, b, c drawn from `rng`, a `numpy.random.Generator`."""
    n = inst.H.dim
    f = np.exp(2j * np.pi * rng.random(n))
    a, b, c = rng.standard_normal((3, n))
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
    a = a.dense() if isinstance(a, IndexForm) else a
    return {"shape": list(a.shape), "re": np.real(a).ravel().tolist(),
            "im": np.imag(a).ravel().tolist()}


def _arr_from_json(name: str, d):
    """The tensor `name` from its JSON form; ValueError naming it when it
    lacks a part, its entries do not fill its shape or one of them is not
    finite."""
    if d is None:
        return None
    try:
        re, im = (np.asarray(d[k], dtype=float).reshape(d["shape"]) for k in ("re", "im"))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"tensor {name}: {exc}") from exc
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"tensor {name} has a non-finite entry")
    return re + 1j * im


def _tensor_parts(d: dict) -> dict:
    """The JSON object d with its re and im lists, if it has them, as float
    arrays: the `json` object hook of `load_instance`, which runs as the
    parser closes each object, so no tensor's list of Python floats
    outlives it.  A part that is not a list of numbers stays as it is, for
    `_arr_from_json` to name."""
    for k in ("re", "im"):
        if isinstance(d.get(k), list):
            try:
                d[k] = np.array(d[k], dtype=float)
            except (OverflowError, TypeError, ValueError):
                pass
    return d


def _object(where: str, data, keys) -> dict:
    """data, a JSON object whose keys are among `keys`; ValueError otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} is not a JSON object")
    unknown = [k for k in data if k not in keys]
    if unknown:
        raise ValueError(f"{where} has unknown key(s) {', '.join(map(repr, unknown))}")
    return data


def dump_instance(inst: ModuleAlgebra) -> str:
    """The instance as JSON: its name, a `hopf` block with every table of H
    and its labels, and a `coefficients` block with every table of inst,
    each in `AXES` order, dense, and null when absent.  The encoder asks
    `_arr_to_json` for each table's float lists as it reaches the table and
    drops them once written, so the lists of one table are held at a
    time."""
    def tables(obj):
        return {k: getattr(obj, k) for k in obj.AXES}

    return json.dumps({"name": inst.name, "hopf": {**tables(inst.H), "labels": inst.H.labels},
                       "coefficients": tables(inst)}, default=_arr_to_json)


def load_instance(text: str) -> ModuleAlgebra:
    """The instance of a `dump_instance` text; ValueError when it is not
    JSON, a block is not an object or has a key that is not a table, a
    tensor is malformed, or a constructor refuses the tables (a required
    one missing or null, an axis of the wrong length, a partial degree-2
    block)."""
    data = _object("the instance", json.loads(text, object_hook=_tensor_parts),
                   ("name", "hopf", "coefficients"))
    h = _object("hopf", data.get("hopf"), [*FiniteHopf.AXES, "labels"])
    co = _object("coefficients", data.get("coefficients"), ModuleAlgebra.AXES)
    if not isinstance(h.get("labels", []), list):
        raise ValueError("hopf.labels is not a list")
    H = FiniteHopf(**{k: _arr_from_json(f"hopf.{k}", h.get(k)) for k in FiniteHopf.AXES},
                   labels=h.get("labels", []))
    return ModuleAlgebra(H=H, name=data.get("name", ""),
                         **{k: _arr_from_json(k, co.get(k)) for k in ModuleAlgebra.AXES})
