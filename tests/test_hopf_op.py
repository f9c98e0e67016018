"""Crossed-product checks on a generating set of B x| H, against dense tensors.

`op_report` runs each multiplicativity check with one factor on the rows of
`CrossedProduct.generators` (the unit block 1 (x) B and e_g (x) 1_B for the
generators g of H) and contracts the multiplication blocks out of the factor
tables.  Three references are kept here:

- `dense_op_report` builds the dense product tensors T, TL, TR, TR2, WT of
  size up to (dim H dim B)(dim H dim M)^2 from `.dense()` copies of the
  tables and takes every residual
  entrywise; with `generators=True` the reduced residuals are taken over
  the same generator rows as `op_report`, which it must match to 1e-14.
- without `generators` it is the full check over every basis pair;
- `per_index_op_report` is the loop over every H basis index that
  `op_report` ran before the reduction.

The last two must give the same verdict as `op_report` on every instance.
"""

import dataclasses
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ncgauge.cli import cohomology_bytes
from ncgauge.hopf import (
    TOL as OP_TOL,
    ConvolutionElement,
    CrossedProduct,
    FiniteHopf,
    IndexForm,
    ModuleAlgebra,
    coboundary_S,
    conj_action,
    conv_inverse,
    convolve,
    cycle_instance,
    function_instance,
    hochschild_systems,
    jet_instance,
    jet_unitary,
    mc_cocycle,
    op_gauge_matrix,
    op_potential_matrix,
    op_report,
    solve_hochschild_space,
    zero_cochain,
)

TOL = 1e-14


def einsum(spec, *operands):
    """Dense reference contraction, pairwise along numpy's greedy path."""
    return np.einsum(spec, *operands, optimize="greedy")


def solve(inst, prolongable=False):
    """The Hochschild solver on the systems built for inst at that order."""
    return solve_hochschild_space(inst, hochschild_systems(inst, prolongable))


def dense(a):
    """The dense array of an index form; a dense vector or None passes through."""
    return a.dense() if isinstance(a, IndexForm) else a


def dense_tables(obj):
    """The fields of a FiniteHopf or ModuleAlgebra, each table a dense copy."""
    return SimpleNamespace(**{f.name: dense(getattr(obj, f.name)) for f in dataclasses.fields(obj)})


# the keys whose factor op_report restricts to the generating set
REDUCED = {
    "op_sigma_hom", "op_sigma_forms_left", "op_sigma_forms_right",
    "op_sigma_prolongable", "op_mu_derivation",
}


def dense_tensors(inst):
    """T (B.B), TL (B.M), TR (M.B), TR2 (O2.B), WT (M^M) on the crossed
    product, and the star matrices SP, SW: (h x b)(h' x b') = h h'_1 x
    (b <| h'_2) b'."""
    dH, dB, dM, dO = inst.H.dim, inst.dimB, inst.dimM, inst.dimO2
    H, inst = dense_tables(inst.H), dense_tables(inst)
    T = einsum(
        "pjk,ijt,bku,uce->ibpcte", H.comul, H.mul, inst.actB, inst.mulB,
    ).reshape(dH * dB, dH * dB, dH * dB)
    TL = einsum(
        "pjk,ijt,bku,ume->ibpmte", H.comul, H.mul, inst.actB, inst.leftM,
    ).reshape(dH * dB, dH * dM, dH * dM)
    TR = einsum(
        "pjk,ijt,mku,ube->impbte", H.comul, H.mul, inst.actM, inst.rightM,
    ).reshape(dH * dM, dH * dB, dH * dM)
    SP = einsum(
        "ijk,jt,ks,bu,use->ibte",
        np.conj(H.comul), H.star, H.star, inst.starB, inst.actB,
    ).reshape(dH * dB, dH * dB)
    SW = einsum(
        "ijk,jt,ks,mu,use->imte",
        np.conj(H.comul), H.star, H.star, inst.starM, inst.actM,
    ).reshape(dH * dM, dH * dM)
    TR2 = WT = None
    if inst.wedge is not None:
        WT = einsum(
            "pjk,ijt,mku,une->impnte", H.comul, H.mul, inst.actM, inst.wedge,
        ).reshape(dH * dM, dH * dM, dH * dO)
        TR2 = einsum(
            "pjk,ijt,oku,ube->iopbte", H.comul, H.mul, inst.actO2, inst.rightO2,
        ).reshape(dH * dO, dH * dB, dH * dO)
    return T, TL, TR, TR2, WT, SP, SW


def dense_op_report(inst, sigma, mu=None, upsilon=None, generators=False) -> dict:
    """Every residual of `op_report`, entrywise over the dense tensors.

    With generators=False every multiplicativity residual runs over all
    basis pairs.  With generators=True the left factor (the right one for
    one-forms times B and for two-forms times B) runs over the generator
    rows, and the wedge over right factors in 1 (x) M, as in `op_report`.
    """
    T, TL, TR, TR2, WT, SP, SW = dense_tensors(inst)
    dP = T.shape[0]
    H = inst.H

    def mul(u, v):
        return einsum("x,y,xyz->z", u, v, T)

    def embed_B(b):
        return np.outer(H.unit, b).ravel()

    def hom(P, Gx, Gy, Gz, X=None, Y=None):
        """Gz(x . y) - Gx(x) . Gy(y), x over the rows of X and y over the
        rows of Y (each the identity when not given)."""
        X = np.eye(P.shape[0]) if X is None else X
        Y = np.eye(P.shape[1]) if Y is None else Y
        lhs = einsum("rx,sy,xyz,zw->rsw", X, Y, P, Gz)
        rhs = einsum("ra,sb,abw->rsw", X @ Gx, Y @ Gy, P)
        return float(np.abs(lhs - rhs).max())

    F = op_gauge_matrix(sigma).dense()
    Fm = op_gauge_matrix(sigma, "M").dense()
    EB = np.array([embed_B(e) for e in np.eye(inst.dimB)])
    one = embed_B(inst.unitB)
    X = None
    if generators:  # 1_H (x) B and e_g (x) 1_B, built here independently
        X = np.vstack([np.kron(H.unit, np.eye(inst.dimB))] + [
            np.kron(np.eye(H.dim)[g], inst.unitB) for g in H.generators
        ])
    rep = {
        "op_sigma_hom": hom(T, F, F, F, X=X),
        "op_sigma_star": float(np.abs(SP @ F - np.conj(F) @ SP).max()),
        "op_sigma_fixes_B": float(np.abs(EB @ F - EB).max()),
        "op_sigma_unit": float(np.abs(one @ F - one).max()),
        "op_sigma_forms_left": hom(TL, F, Fm, Fm, X=X),
        "op_sigma_forms_right": hom(TR, Fm, F, Fm, Y=X),
    }
    if WT is not None:
        Fo = op_gauge_matrix(sigma, "O2").dense()
        if generators:
            EM = np.kron(H.unit, np.eye(inst.dimM))
            rep["op_sigma_prolongable"] = max(
                hom(WT, Fm, Fm, Fo, Y=EM), hom(TR2, Fo, F, Fo, Y=X)
            )
        else:
            rep["op_sigma_prolongable"] = hom(WT, Fm, Fm, Fo)
    if upsilon is not None:
        FD = op_gauge_matrix(coboundary_S(inst, upsilon)).dense()
        eu = embed_B(np.asarray(upsilon, dtype=complex))
        eus = embed_B(inst.star("B", np.asarray(upsilon, dtype=complex)))
        ad = np.array([mul(mul(eu, e), eus) for e in np.eye(dP)])
        rep["op_coboundary_is_ad"] = float(np.abs(FD - ad).max())
    if mu is not None:
        D = op_potential_matrix(mu).dense()
        X = np.eye(dP) if X is None else X
        lhs = einsum("rx,xyz,zw->ryw", X, T, D)
        rhs = einsum("ra,ayw->ryw", X @ D, TR) + einsum("yb,rx,xbw->ryw", D, X, TL)
        rep["op_mu_derivation"] = float(np.abs(lhs - rhs).max())
        rep["op_mu_star"] = float(np.abs(SP @ D + np.conj(D) @ SW).max())
        dB_flat = np.array([np.outer(H.unit, row).ravel() for row in inst.dB.dense()])
        rep["op_mu_restricts"] = float(np.abs(EB @ D - dB_flat).max())
        Finv = op_gauge_matrix(conv_inverse(sigma)).dense()
        target = op_potential_matrix(conj_action(sigma, mu) + mc_cocycle(sigma)).dense()
        rep["op_gauge_compat"] = float(np.abs(Finv @ D @ Fm - target).max())
    rep["max"] = max(rep.values())
    return rep


def per_index_op_report(inst, sigma, mu=None, upsilon=None) -> dict:
    """The multiplicativity checks one H basis index at a time, over every
    basis element x = e_i (x) beta_b, with a running max: the loop that
    `op_report` ran before the reduction to generators."""
    cp = CrossedProduct(inst)
    F = op_gauge_matrix(sigma).dense()
    Fm = op_gauge_matrix(sigma, "M").dense()
    homs = {
        "op_sigma_hom": ("B", "B", F, F, F),
        "op_sigma_forms_left": ("B", "M", F, Fm, Fm),
        "op_sigma_forms_right": ("M", "B", Fm, F, Fm),
    }
    if inst.wedge is not None:
        homs["op_sigma_prolongable"] = ("M", "M", Fm, Fm, op_gauge_matrix(sigma, "O2").dense())
    worst = {}

    def note(key, resid):
        worst[key] = max(worst.get(key, 0.0), float(np.abs(resid).max(initial=0.0)))

    if mu is not None:
        D = op_potential_matrix(mu).dense()
    if upsilon is not None:
        eus = cp.embed_B(inst.star("B", upsilon))
        right = []  # row blocks of the matrix of x -> x . eus
    for i in range(inst.H.dim):
        L = {}
        for key, (tx, ty, Gx, Gy, Gz) in homs.items():
            d = inst.stars[tx].shape[0]
            rows = slice(i * d, (i + 1) * d)
            Li = cp.left(tx, ty, np.eye(len(Gx))[rows]).dense()
            note(key, Gy @ cp.left(tx, ty, Gx[rows]).dense() - Li @ Gz)
            if tx == "B":
                L[ty] = Li
        if mu is not None:
            rows = slice(i * inst.dimB, (i + 1) * inst.dimB)
            note("op_mu_derivation", L["B"] @ D - cp.left("M", "B", D[rows]).dense() - D @ L["M"])
        if upsilon is not None:
            right.append(eus @ L["B"])
    rep = dict(worst)
    if upsilon is not None:
        FD = op_gauge_matrix(coboundary_S(inst, upsilon)).dense()
        ad = cp.left("B", "B", cp.embed_B(upsilon)[None]).dense()[0] @ np.vstack(right)
        rep["op_coboundary_is_ad"] = float(np.abs(FD - ad).max())
    # the keys the loop never touched, entrywise
    dense = dense_op_report(inst, sigma, mu, upsilon)
    rep.update({k: v for k, v in dense.items() if k not in rep and k != "max"})
    rep["max"] = max(rep.values())
    return rep


def translations_on_s3(n=6):
    """C[S_3] acting on C(S_3) by (b <| g)(x) = b(g x), with M = B the trivial
    bimodule and dB = 0.  S_3 is not abelian, so unlike every C[Z_n] this
    crossed product tells h h' from h' h."""
    group = list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(group)}

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    def inverse(a):
        return tuple(int(i) for i in np.argsort(a))

    mul, comul, act = (np.zeros((n, n, n), dtype=complex) for _ in range(3))
    antipode = np.zeros((n, n), dtype=complex)
    for a in group:
        comul[index[a], index[a], index[a]] = 1.0
        antipode[index[a], index[inverse(a)]] = 1.0
        for b in group:
            mul[index[a], index[b], index[compose(a, b)]] = 1.0
            act[index[b], index[a], index[compose(inverse(a), b)]] = 1.0  # delta_b <| a
    unit = np.zeros(n, dtype=complex)
    unit[index[(0, 1, 2)]] = 1.0
    H = FiniteHopf(mul, comul, np.ones(n, dtype=complex), antipode, antipode, unit)
    pointwise = np.zeros((n, n, n), dtype=complex)
    for x in range(n):
        pointwise[x, x, x] = 1.0
    eye = np.eye(n, dtype=complex)
    return ModuleAlgebra(
        H=H, mulB=pointwise, unitB=np.ones(n, dtype=complex), starB=eye, actB=act,
        leftM=pointwise, rightM=pointwise, starM=eye, actM=act,
        dB=np.zeros((n, n), dtype=complex), name="translations(S_3)",
    )


MAKERS = {
    "cycle": cycle_instance,
    "jet": jet_instance,
    "function": function_instance,
    "translations": translations_on_s3,
}
TOKENS = (
    [f"cycle:{n}" for n in range(2, 9)]
    + [f"jet:{n}" for n in range(2, 5)]
    + [f"function:{n}" for n in range(3, 6)]
    + ["translations:6"]
)


def central_unitary(inst, kind, rng):
    """A unitary upsilon in Cent_B(B + M): a jet unitary, any phase function
    where B is commutative and M = B, a constant phase on the cycle."""
    if kind == "jet":
        return jet_unitary(inst, rng=rng)
    if kind in ("function", "translations"):
        return np.exp(2j * np.pi * rng.random(inst.dimB))
    return np.exp(0.7j) * inst.unitB


def cocycle_inputs(token, seed=5):
    """A lazy Sweedler cocycle sigma (a coboundary, times the character
    g^j -> zeta^j on C[Z_n]), a Hochschild cocycle mu (zero where the space
    is zero) and upsilon."""
    kind, n = token.split(":")
    n = int(n)
    inst = MAKERS[kind](n)
    rng = np.random.default_rng(seed)
    u = central_unitary(inst, kind, rng)
    sigma = coboundary_S(inst, u)
    if kind != "translations":
        zeta = np.exp(2j * np.pi / n)
        char = ConvolutionElement(inst, "B", np.array([inst.unitB * zeta**j for j in range(n)]))
        sigma = convolve(char, sigma)
    basis = solve(inst)["basis"]
    mu = zero_cochain(inst, "M")
    for b in basis:
        mu = mu + b.scale(rng.standard_normal())
    return inst, sigma, mu, u


def random_inputs(token, seed=6):
    """Arbitrary sigma and mu, so every residual is of order one and the
    comparison tests the product tensors themselves, not two round-offs."""
    inst, _, _, u = cocycle_inputs(token, seed)
    rng = np.random.default_rng(seed)

    def draw(target, d):
        vals = rng.standard_normal((inst.H.dim, d)) + 1j * rng.standard_normal((inst.H.dim, d))
        return ConvolutionElement(inst, target, vals / np.sqrt(2 * d))

    return inst, draw("B", inst.dimB), draw("M", inst.dimM), u


def residuals(rep):
    return {k: v for k, v in rep.items() if k != "generators"}


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("extras", [False, True], ids=["sigma", "sigma_mu_upsilon"])
def test_matches_dense_on_cocycles(token, extras):
    inst, sigma, mu, u = cocycle_inputs(token)
    args = (mu, u) if extras else (None, None)
    got = residuals(op_report(inst, sigma, *args))
    want = dense_op_report(inst, sigma, *args, generators=True)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= TOL, key
    assert got["max"] <= 1e-12


@pytest.mark.parametrize("token", TOKENS)
def test_matches_dense_on_arbitrary_cochains(token):
    inst, sigma, mu, u = random_inputs(token)
    got = residuals(op_report(inst, sigma, mu, u))
    want = dense_op_report(inst, sigma, mu, u, generators=True)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= TOL, key
    assert want["op_sigma_hom"] > 0.1  # the residuals are not round-off


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("inputs", [cocycle_inputs, random_inputs], ids=["cocycle", "arbitrary"])
def test_same_verdict_as_every_basis_pair(token, inputs):
    inst, sigma, mu, u = inputs(token)
    got = op_report(inst, sigma, mu, u)
    for reference in (dense_op_report, per_index_op_report):
        want = reference(inst, sigma, mu, u)
        for key in REDUCED & want.keys():
            assert (got[key] <= OP_TOL) == (want[key] <= OP_TOL), (reference.__name__, key)
        assert (got["max"] <= OP_TOL) == (want["max"] <= OP_TOL), reference.__name__


def test_generators():
    from test_hopf import functions_on_s3

    def span_of_words(H):
        span = H.unit[None]
        for _ in range(H.dim):
            span = np.vstack([span] + [span @ H.mul.dense()[:, g, :] for g in H.generators])
        return np.linalg.matrix_rank(span, tol=1e-9)

    for n in (1, 2, 5, 8):
        assert cycle_instance(n).H.generators == ((1,) if n > 1 else ())
    s3, c_s3 = translations_on_s3().H, functions_on_s3()[0].H
    assert len(s3.generators) == 2
    assert len(c_s3.generators) == 5
    for H in (s3, c_s3, jet_instance(6).H):
        assert span_of_words(H) == H.dim
    assert CrossedProduct(cycle_instance(4)).generators()[0] == ["B (x) 1", "1 (x) g^1"]


# -- mutations the reduced checks must still catch ---------------------------------------


@pytest.mark.parametrize("token", ["cycle:8", "jet:4", "translations:6"])
def test_sigma_wrong_at_a_non_generator_index_fails(token):
    inst, sigma, _, _ = cocycle_inputs(token)
    k = inst.H.dim - 1  # g^(n-1), or the last permutation of S_3
    assert k not in inst.H.generators and inst.H.unit[k] == 0
    bad = sigma.copy()
    bad.values[k] = bad.values[k] * np.exp(0.3j)
    changed = np.abs((op_gauge_matrix(bad) - op_gauge_matrix(sigma)).dense()).max(axis=1) > 0
    assert np.flatnonzero(changed).min() >= k * inst.dimB  # only the rows of index k
    assert op_report(inst, bad)["op_sigma_hom"] > 0.1


@pytest.mark.parametrize("token", ["cycle:6", "jet:4"])
def test_mu_wrong_at_a_non_generator_index_fails(token):
    inst, sigma, mu, _ = cocycle_inputs(token)
    k = inst.H.dim - 1
    bad = mu.copy()
    bad.values[k] += 0.3 * np.random.default_rng(1).standard_normal(inst.dimM)
    changed = np.abs((op_potential_matrix(bad) - op_potential_matrix(mu)).dense()).max(axis=1) > 0
    assert set(np.flatnonzero(changed)) <= set(range(k * inst.dimB, (k + 1) * inst.dimB))
    assert op_report(inst, sigma, mu)["op_mu_derivation"] <= 1e-12
    assert op_report(inst, sigma, bad)["op_mu_derivation"] > 1e-3


def test_wrong_two_form_action_fails_the_wedge_check():
    # the trivial action on Omega^2 is a representation, but Op(sigma) on
    # two-forms is then not right B x| H-linear; the wedge over every basis
    # pair never reads actO2
    inst, sigma, _, _ = cocycle_inputs("jet:4")
    inst.actO2 = IndexForm.of(np.stack([np.eye(inst.dimO2)] * inst.H.dim, axis=1) + 0j)
    assert op_report(inst, sigma)["op_sigma_prolongable"] > 0.1
    assert dense_op_report(inst, sigma)["op_sigma_prolongable"] <= 1e-12


@pytest.mark.parametrize("method,key", [("left", "op_sigma_hom"), ("right", "op_sigma_forms_right")])
def test_swapped_product_order_on_s3_fails(monkeypatch, method, key):
    # (h h'_1) read as (h'_1 h): invisible on every C[Z_n], not on C[S_3]
    original = getattr(CrossedProduct, method)

    def swapped(self, tx, ty, X):
        H = self.H
        self.H = dataclasses.replace(H, mul=H.mul.transpose(1, 0, 2))
        try:
            return original(self, tx, ty, X)
        finally:
            self.H = H

    monkeypatch.setattr(CrossedProduct, method, swapped)
    assert op_report(*cocycle_inputs("translations:6")[:2])[key] > 0.1
    assert op_report(*cocycle_inputs("cycle:5")[:2])["max"] <= 1e-12


def test_wedge_part_matches_dense():
    # with Omega^2 x| H given the zero right B-action, the two-form part of
    # op_sigma_prolongable vanishes and its wedge part is compared alone
    inst, sigma, _, _ = random_inputs("jet:4")
    inst.rightO2 = IndexForm.of(np.zeros(inst.rightO2.shape, dtype=complex))
    WT = dense_tensors(inst)[4]
    Fm, Fo = op_gauge_matrix(sigma, "M").dense(), op_gauge_matrix(sigma, "O2").dense()
    EM = np.kron(inst.H.unit, np.eye(inst.dimM))
    wedge = einsum("sy,xyz,zw->xsw", EM, WT, Fo) - einsum("xa,sb,abw->xsw", Fm, EM @ Fm, WT)
    got = op_report(inst, sigma)["op_sigma_prolongable"]
    assert abs(got - np.abs(wedge).max()) <= TOL
    assert np.abs(wedge[:, :8]).max() < got  # attained past the first eight rows of 1 (x) M
    assert got > 0.1


def test_translations_on_s3_is_a_module_algebra():
    inst = translations_on_s3()
    assert inst.H.axiom_report()["max"] <= 1e-12
    assert inst.data_report()["max"] <= 1e-12
    mul = inst.H.mul.dense()
    assert np.abs(mul - mul.transpose(1, 0, 2)).max() == 1.0


def test_op_report_memory_on_cycle_8():
    inst, sigma, mu, u = cocycle_inputs("cycle:8")
    tracemalloc.start()
    try:
        op_report(inst, sigma, mu, upsilon=u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense tensors and their residuals peaked at 117 MiB here
    assert peak <= 16 * 2**20


@pytest.mark.parametrize(
    "token", [f"jet:{n}" for n in range(4, 9)] + [f"cycle:{n}" for n in range(8, 17)] + ["translations:6"]
)
def test_op_report_stays_within_its_estimate(token):
    # the memory guard's estimate bounds the solver and op_report together
    inst, sigma, mu, u = cocycle_inputs(token)
    tracemalloc.start()
    try:
        systems = hochschild_systems(inst)
        solve_hochschild_space(inst, systems)
        op_report(inst, sigma, mu, upsilon=u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cohomology_bytes(inst, systems)
