"""The Hopf and data gates, and the convolutions, against dense references.

`FiniteHopf.axiom_report`, `ModuleAlgebra.data_report`, `convolve`,
`ModuleAlgebra.mul` and the cocycle residual of `check_sweedler_cocycle`
contract their tables in index form.  The references here write every
identity as one dense `np.einsum` over `.dense()` copies of the full
tables; each residual must agree with them to 1e-14, on the shipped C[Z_n] instances, on C[S_3]
acting on C(S_3), and on randomly perturbed tables, where the residuals
are not zero.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ncgauge.hopf import (
    ConvolutionElement,
    IndexForm,
    ModuleAlgebra,
    check_sweedler_cocycle,
    convolve,
    cycle_instance,
    function_instance,
    jet_instance,
)
from test_hopf_op import dense, dense_tables, translations_on_s3

TOL = 1e-14
DEGREE = {"B": 0, "M": 1, "O2": 2}
SYMMETRY = {"b": "symB", "m": "symM", "o": "symO2"}


def einsum(spec, *operands):
    return np.einsum(spec, *operands, optimize="greedy")


def worst(*arrays):
    return max(float(np.abs(a).max(initial=0.0)) for a in arrays)


def dense_axiom_report(H) -> dict:
    m, c, eps, S, st, u = map(dense, (H.mul, H.comul, H.counit, H.antipode, H.star, H.unit))
    eye = np.eye(H.dim)
    return {
        "assoc": worst(einsum("ijx,xkl->ijkl", m, m) - einsum("jkx,ixl->ijkl", m, m)),
        "unit": worst(einsum("i,ijk->jk", u, m) - eye, einsum("j,ijk->ik", u, m) - eye),
        "coassoc": worst(einsum("iab,bcd->iacd", c, c) - einsum("ibd,bac->iacd", c, c)),
        "counit": worst(einsum("ijk,j->ik", c, eps) - eye, einsum("ijk,k->ij", c, eps) - eye),
        "bialgebra": worst(
            einsum("ijx,xab->ijab", m, c) - einsum("iac,jbd,abu,cdv->ijuv", c, c, m, m)
        ),
        "counit_hom": worst(einsum("ijk,k->ij", m, eps) - np.outer(eps, eps)),
        "antipode_left": worst(einsum("ijk,jl,lkx->ix", c, S, m) - np.outer(eps, u)),
        "antipode_right": worst(einsum("ijk,kl,jlx->ix", c, S, m) - np.outer(eps, u)),
        "star_involutive": worst(np.conj(st) @ st - eye),
        "star_antimult": worst(
            einsum("ijk,kl->ijl", np.conj(m), st) - einsum("ja,ib,abl->ijl", st, st, m)
        ),
        "star_coalgebra": worst(
            einsum("il,lab->iab", st, c) - einsum("ijk,ja,kb->iab", np.conj(c), st, st)
        ),
        "s_star_involutive": worst(np.conj(st @ S) @ (st @ S) - eye),
    }


def dense_data_report(inst) -> dict:
    ref, mulH, comulH = {}, dense(inst.H.mul), dense(inst.H.comul)
    acts, stars = ({t: dense(a) for t, a in table.items()} for table in (inst.actions, inst.stars))
    products = {pair: (tc, dense(T)) for pair, (tc, T) in inst.products.items()}
    inst = dense_tables(inst)
    for t, A in acts.items():
        if A is not None:
            ref[f"act{t}_rep"] = worst(
                einsum("iau,ubv->iabv", A, A) - einsum("abx,ixv->iabv", mulH, A)
            )
    for (ta, tb), (tc, T) in products.items():
        if T is None:
            continue
        ref[f"equivariant_{ta}{tb}"] = worst(
            einsum("xyz,zhk->xyhk", T, acts[tc])
            - einsum("hab,xau,ybv,uvk->xyhk", comulH, acts[ta], acts[tb], T)
        )
        sign = (-1) ** (DEGREE[ta] * DEGREE[tb])
        reverse = products[(tb, ta)][1]
        ref[f"star_{ta}{tb}"] = worst(
            einsum("xyz,zk->xyk", np.conj(T), stars[tc])
            - einsum("xu,yv,vuk->xyk", stars[ta], stars[tb], sign * reverse)
        )
    for ta, tb, tc in itertools.product(DEGREE, repeat=3):
        tab, P = products.get((ta, tb), (None, None))
        tbc, R = products.get((tb, tc), (None, None))
        Q = products.get((tab, tc), (None, None))[1]
        S = products.get((ta, tbc), (None, None))[1]
        if any(x is None for x in (P, Q, R, S)):
            continue
        ref[f"assoc_{ta}{tb}{tc}"] = worst(
            einsum("xyu,uzw->xyzw", P, Q) - einsum("yzv,xvw->xyzw", R, S)
        )
    if inst.dB is not None:
        ref["derivation"] = worst(
            einsum("ijx,xm->ijm", inst.mulB, inst.dB)
            - einsum("im,mjx->ijx", inst.dB, inst.rightM)
            - einsum("jm,imx->ijx", inst.dB, inst.leftM)
        )
        ref["star_derivation"] = worst(
            einsum("ij,jm->im", inst.starB, np.conj(inst.dB))
            + einsum("im,mk->ik", np.conj(inst.dB), inst.starM)
        )
        ref["dB_equivariant"] = worst(
            einsum("ihk,km->ihm", inst.actB, inst.dB) - einsum("im,mhk->ihk", inst.dB, inst.actM)
        )
    if inst.wedge is not None:
        ref["d_squared"] = worst(einsum("bm,mo->bo", inst.dB, inst.d1))
        ref["graded_leibniz_left"] = worst(
            einsum("bmx,xo->bmo", inst.leftM, inst.d1)
            - einsum("bu,umo->bmo", inst.dB, inst.wedge)
            - einsum("mo,boy->bmy", inst.d1, inst.leftO2)
        )
        ref["graded_leibniz_right"] = worst(
            einsum("mbx,xo->mbo", inst.rightM, inst.d1)
            - einsum("mo,oby->mby", inst.d1, inst.rightO2)
            + einsum("bu,muo->mbo", inst.dB, inst.wedge)
        )
    if inst.symB is not None:
        # every table, permuted on each of its b, m and o axes, is itself
        moved = []
        for name, axes in ModuleAlgebra.AXES.items():
            T = getattr(inst, name)
            if name in SYMMETRY.values() or T is None:
                continue
            perms = [getattr(inst, SYMMETRY[c]) if c in SYMMETRY else np.arange(n)
                     for c, n in zip(axes, T.shape)]
            # T'[p(i), p(j), ..] = T[i, j, ..], i.e. T' = T[p^-1(i), ..]
            moved.append(worst(T[np.ix_(*map(np.argsort, perms))] - T))
        ref["symmetry"] = max(moved)
    return ref


def perturbed(a, rng, scale=1e-3, extra=5):
    """a with every non-zero entry moved by a relative `scale` and `extra`
    entries of size `scale` added at random positions."""
    out = a * (1 + scale * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)))
    flat = out.reshape(-1)
    flat[rng.integers(0, flat.size, extra)] += scale * rng.standard_normal(extra)
    return out


def perturbed_instance(inst, seed):
    """The instance with `perturbed` dense copies of its tables, which the
    constructors read back into index forms."""
    rng = np.random.default_rng(seed)
    H = dataclasses.replace(inst.H, **{
        f.name: perturbed(dense(getattr(inst.H, f.name)), rng)
        for f in dataclasses.fields(inst.H) if f.name != "labels"
    })
    tables = {
        f.name: perturbed(dense(getattr(inst, f.name)), rng)
        for f in dataclasses.fields(inst)
        if isinstance(getattr(inst, f.name), (np.ndarray, IndexForm)) and f.name not in SYMMETRY.values()
    }
    # perturbed tables keep no symmetry
    return dataclasses.replace(inst, H=H, **tables, **dict.fromkeys(SYMMETRY.values()))


INSTANCES = {
    "jet:3": lambda: jet_instance(3),
    "cycle:4": lambda: cycle_instance(4),
    "function:3": lambda: function_instance(3),
    "translations:6": translations_on_s3,
}
CASES = [(token, None) for token in INSTANCES] + [
    (token, seed) for token in INSTANCES for seed in (1, 2)
]


def case(token, seed):
    inst = INSTANCES[token]()
    return inst if seed is None else perturbed_instance(inst, seed)


def assert_matches(rep, ref, perturbed):
    assert set(rep) == set(ref) | {"max"}
    for key, value in ref.items():
        assert abs(rep[key] - value) <= TOL, (key, rep[key], value)
        if perturbed:
            assert value > 1e-8, key  # the perturbation reaches every identity
    assert rep["max"] == max(rep[key] for key in ref)


def assert_close(values, ref):
    assert np.abs(values - ref).max() <= TOL * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("token,seed", CASES)
def test_axiom_report_matches_dense(token, seed):
    H = case(token, seed).H
    assert_matches(H.axiom_report(), dense_axiom_report(H), seed is not None)


@pytest.mark.parametrize("token,seed", CASES)
def test_data_report_matches_dense(token, seed):
    inst = case(token, seed)
    assert_matches(inst.data_report(), dense_data_report(inst), seed is not None)


@pytest.mark.parametrize("token,seed", CASES)
def test_products_match_dense(token, seed):
    inst = case(token, seed)
    rng = np.random.default_rng(7)
    H = inst.H

    def cochain(target, scale=1.0):
        dim = inst.stars[target].shape[0]
        values = rng.standard_normal((H.dim, dim, 2)) @ [1, 1j]
        return ConvolutionElement(inst, target, scale * values)

    for ta, tb in inst.products:
        target, T = inst.products[(ta, tb)]
        if T is None:
            continue
        f, g = cochain(ta), cochain(tb)
        h = convolve(f, g)
        assert h.target == target
        T = T.dense()
        assert_close(h.values, einsum("hjk,ja,kb,abc->hc", H.comul.dense(), f.values, g.values, T))
        x, y = f.values[0], g.values[-1]
        assert_close(inst.mul(ta, tb, x, y), einsum("i,j,ijk->k", x, y, T))
    sigma = cochain("B", 0.1)
    sigma.values += np.outer(H.counit, inst.unitB)
    s = sigma.values
    resid = einsum("ijk,kv->ijv", H.mul.dense(), s) - einsum(
        "jab,iu,uax,by,xyv->ijv", H.comul.dense(), s, inst.actB.dense(), s, inst.mulB.dense()
    )
    assert abs(check_sweedler_cocycle(sigma)["cocycle"] - np.abs(resid).max()) <= TOL


def test_a_nan_reaches_the_worst_of():
    inst = jet_instance(2)
    inst.H.mul = inst.H.mul + IndexForm(inst.H.mul.shape, ([0], [0], [0]), np.array([math.nan]))
    rep = inst.H.axiom_report()
    assert math.isnan(rep["assoc"]) and math.isnan(rep["max"])
    inst = jet_instance(2)
    inst.dB = inst.dB + IndexForm(inst.dB.shape, ([1], [0]), np.array([math.nan]))
    rep = inst.data_report()
    assert math.isnan(rep["derivation"]) and math.isnan(rep["max"])


def test_hopf_gate_does_not_scale_as_dim_h_to_the_fourth():
    # the dense gate held (dim H)^4 entries per four-index identity: 30 MiB
    H = cycle_instance(24).H
    tracemalloc.start()
    try:
        rep = H.axiom_report()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["max"] == 0.0
    assert peak < 8 * 2**20, peak / 2**20
