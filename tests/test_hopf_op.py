"""Crossed-product checks from factored left multiplication, against dense tensors.

`op_report` contracts left-multiplication blocks of B x| H out of the factor
tables one H basis index at a time.  The reference below builds the dense
product tensors T, TL, TR, WT of size up to (dim H dim B)(dim H dim M)^2 and
takes every residual entrywise from them: slow and memory-hungry, and kept
only as the oracle.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from ncgauge.hopf import (
    ConvolutionElement,
    FiniteHopf,
    ModuleAlgebra,
    _contract,
    coboundary_S,
    conj_action,
    conv_inverse,
    convolve,
    cycle_instance,
    function_instance,
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


def dense_tensors(inst):
    """T (B.B), TL (B.M), TR (M.B), WT (M^M) on the crossed product, and the
    star matrices SP, SW: (h x b)(h' x b') = h h'_1 x (b <| h'_2) b'."""
    H, dH = inst.H, inst.H.dim
    dB, dM, dO = inst.dimB, inst.dimM, inst.dimO2
    T = _contract(
        "pjk,ijt,bku,uce->ibpcte", H.comul, H.mul, inst.actB, inst.mulB,
    ).reshape(dH * dB, dH * dB, dH * dB)
    TL = _contract(
        "pjk,ijt,bku,ume->ibpmte", H.comul, H.mul, inst.actB, inst.leftM,
    ).reshape(dH * dB, dH * dM, dH * dM)
    TR = _contract(
        "pjk,ijt,mku,ube->impbte", H.comul, H.mul, inst.actM, inst.rightM,
    ).reshape(dH * dM, dH * dB, dH * dM)
    SP = _contract(
        "ijk,jt,ks,bu,use->ibte",
        np.conj(H.comul), H.star, H.star, inst.starB, inst.actB,
    ).reshape(dH * dB, dH * dB)
    SW = _contract(
        "ijk,jt,ks,mu,use->imte",
        np.conj(H.comul), H.star, H.star, inst.starM, inst.actM,
    ).reshape(dH * dM, dH * dM)
    WT = None
    if inst.wedge is not None:
        WT = _contract(
            "pjk,ijt,mku,une->impnte", H.comul, H.mul, inst.actM, inst.wedge,
        ).reshape(dH * dM, dH * dM, dH * dO)
    return T, TL, TR, WT, SP, SW


def dense_op_report(inst, sigma, mu=None, upsilon=None) -> dict:
    """Every residual of `op_report`, entrywise over the dense tensors."""
    T, TL, TR, WT, SP, SW = dense_tensors(inst)
    dP = T.shape[0]

    def mul(u, v):
        return _contract("x,y,xyz->z", u, v, T)

    def embed_B(b):
        return np.outer(inst.H.unit, b).ravel()

    def hom(P, Gx, Gy, Gz):  # Gz(x . y) - Gx(x) . Gy(y) over all basis pairs
        lhs = _contract("xyz,zw->xyw", P, Gz)
        rhs = _contract("xa,yb,abw->xyw", Gx, Gy, P)
        return float(np.abs(lhs - rhs).max())

    F = op_gauge_matrix(sigma)
    Fm = op_gauge_matrix(sigma, "M")
    EB = np.array([embed_B(e) for e in np.eye(inst.dimB)])
    one = embed_B(inst.unitB)
    rep = {
        "op_sigma_hom": hom(T, F, F, F),
        "op_sigma_star": float(np.abs(SP @ F - np.conj(F) @ SP).max()),
        "op_sigma_fixes_B": float(np.abs(EB @ F - EB).max()),
        "op_sigma_unit": float(np.abs(one @ F - one).max()),
        "op_sigma_forms_left": hom(TL, F, Fm, Fm),
        "op_sigma_forms_right": hom(TR, Fm, F, Fm),
    }
    if WT is not None:
        rep["op_sigma_prolongable"] = hom(WT, Fm, Fm, op_gauge_matrix(sigma, "O2"))
    if upsilon is not None:
        FD = op_gauge_matrix(coboundary_S(inst, upsilon))
        eu = embed_B(np.asarray(upsilon, dtype=complex))
        eus = embed_B(inst.star("B", np.asarray(upsilon, dtype=complex)))
        ad = np.array([mul(mul(eu, e), eus) for e in np.eye(dP)])
        rep["op_coboundary_is_ad"] = float(np.abs(FD - ad).max())
    if mu is not None:
        D = op_potential_matrix(mu)
        lhs = _contract("xyz,zw->xyw", T, D)
        rhs = _contract("xa,ayw->xyw", D, TR) + _contract("yb,xbw->xyw", D, TL)
        rep["op_mu_derivation"] = float(np.abs(lhs - rhs).max())
        rep["op_mu_star"] = float(np.abs(SP @ D + np.conj(D) @ SW).max())
        dB_flat = np.array([np.outer(inst.H.unit, row).ravel() for row in inst.dB])
        rep["op_mu_restricts"] = float(np.abs(EB @ D - dB_flat).max())
        Finv = op_gauge_matrix(conv_inverse(sigma))
        target = op_potential_matrix(conj_action(sigma, mu) + mc_cocycle(sigma))
        rep["op_gauge_compat"] = float(np.abs(Finv @ D @ Fm - target).max())
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
    basis = solve_hochschild_space(inst)["basis"]
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


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("extras", [False, True], ids=["sigma", "sigma_mu_upsilon"])
def test_matches_dense_on_cocycles(token, extras):
    inst, sigma, mu, u = cocycle_inputs(token)
    args = (mu, u) if extras else (None, None)
    got = op_report(inst, sigma, *args)
    want = dense_op_report(inst, sigma, *args)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= TOL, key
    assert got["max"] <= 1e-12


@pytest.mark.parametrize("token", TOKENS)
def test_matches_dense_on_arbitrary_cochains(token):
    inst, sigma, mu, u = random_inputs(token)
    got = op_report(inst, sigma, mu, u)
    want = dense_op_report(inst, sigma, mu, u)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= TOL, key
    assert want["op_sigma_hom"] > 0.1  # the residuals are not round-off


def test_translations_on_s3_is_a_module_algebra():
    inst = translations_on_s3()
    assert inst.H.axiom_report()["max"] <= 1e-12
    assert inst.data_report()["max"] <= 1e-12
    assert np.abs(inst.H.mul - inst.H.mul.transpose(1, 0, 2)).max() == 1.0


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
