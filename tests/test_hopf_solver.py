"""The Hochschild solver against its dense reference.

`solve_hochschild_space` writes its rows as index forms, cuts the cocycle
rows to k in {1} and the generators of H, and takes one SVD per connected
component of the system and character of the point translation, where
the system is invariant under it (on the shipped families; not on
C[S_3]).  `dense_solve` is the solver it replaced: the
residuals of an identity batch of cochains over every basis pair (h, k),
stacked into one dense system with one SVD, and Z_B(M)_sa from a dense
system too, both over `.dense()` copies of the tables.  Both must give
the same dimensions and the same spans, and
on C[Z_n] the dimensions of the group-cohomology enumerator.
"""

import dataclasses
import math

import numpy as np
import pytest

from ncgauge import hopf
from ncgauge.hopf import (
    ConvolutionElement,
    brute_force_group_z1,
    conv_star,
    cycle_instance,
    function_instance,
    jet_instance,
    solve_hochschild_space,
)
from test_hopf_op import translations_on_s3


def nullspace(A, tol=1e-9):
    """Orthonormal columns spanning the nullspace: one dense SVD, rank
    counting the singular values above tol * max(A.shape)."""
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=A.dtype)
    if A.shape[0] < A.shape[1]:
        A = np.vstack([A, np.zeros((A.shape[1] - A.shape[0], A.shape[1]), dtype=A.dtype)])
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return np.conj(vh[int(np.sum(s > tol * max(A.shape))):]).T


def commutator(inst, values, tx):
    """f(h_1)(x <| h_2) - (-1)^{|x|} (x <| h_1) f(h_2) for M-valued f."""
    L, R, A, c = (t.dense() for t in (inst.product("M", tx)[1], inst.product(tx, "M")[1],
                                       inst.actions[tx], inst.H.comul))
    sign = -1 if tx == "M" else 1
    return np.einsum("hjk,...ja,xky,ayz->...hxz", c, values, A, L, optimize=True) - sign * np.einsum(
        "hjk,xjy,...kb,ybz->...hxz", c, A, values, R, optimize=True
    )


def central_sa_basis(inst):
    dM = inst.dimM
    blocks = []
    leftM, rightM, S = inst.leftM.dense(), inst.rightM.dense(), inst.starM.dense()
    for b in np.eye(inst.dimB, dtype=complex):
        L = np.einsum("j,jmk->km", b, leftM) - np.einsum("mjk,j->km", rightM, b)
        blocks.append(np.block([[L.real, -L.imag], [L.imag, L.real]]))
    blocks.append(np.hstack([S.real.T - np.eye(dM), S.imag.T]))
    blocks.append(np.hstack([S.imag.T, -S.real.T - np.eye(dM)]))
    return nullspace(np.vstack(blocks))


def dense_solve(inst, prolongable=False):
    """(solution vectors, coboundary vectors), real (re, im) columns."""
    H = inst.H
    dH, dM = H.dim, inst.dimM
    n_c = dH * dM
    actM = inst.actM.dense()
    unknowns = np.eye(n_c, dtype=complex).reshape(n_c, dH, dM)
    residuals = [
        np.einsum("ijk,nkv->nijv", H.mul.dense(), unknowns)
        - np.einsum("niu,ujv->nijv", unknowns, actM)
        - np.einsum("i,njv->nijv", H.counit, unknowns),
        commutator(inst, unknowns, "B"),
    ]
    graded = prolongable and inst.wedge is not None
    if graded:
        residuals.append(commutator(inst, unknowns, "M"))
    Q = nullspace(np.hstack([r.reshape(n_c, -1) for r in residuals]).T)
    k = Q.shape[1]
    sols = np.zeros((n_c, 0))
    if k:
        starred = conv_star(ConvolutionElement(inst, "M", Q.T.reshape(k, dH, dM))).values
        S = np.conj(Q).T @ starred.reshape(k, n_c).T
        fix = np.block([[S.real - np.eye(k), S.imag], [S.imag, -S.real - np.eye(k)]])
        coords = nullspace(fix)
        sols = Q @ (coords[:k] + 1j * coords[k:])
    cent = central_sa_basis(inst)
    ms = (cent[:dM] + 1j * cent[dM:]).T
    if graded:
        const = np.einsum("h,nv->nhv", H.counit, ms)
        ms = ms[np.abs(commutator(inst, const, "M")).max(axis=(1, 2, 3), initial=0.0) <= 1e-9]
    d = (np.einsum("nu,uhv->nhv", ms, actM) - np.einsum("h,nv->nhv", H.counit, ms)).reshape(len(ms), n_c)
    return np.vstack([sols.real, sols.imag]), np.hstack([d.real, d.imag]).T


def projector(columns):
    """Orthogonal projector onto the span of the columns."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    u = u[:, s > 1e-9 * max(1.0, s.max(initial=0.0))]
    return u @ u.T


def vectors(elements, n):
    out = [np.concatenate([mu.values.real.ravel(), mu.values.imag.ravel()]) for mu in elements]
    return np.array(out).T if out else np.zeros((2 * n, 0))


MAKERS = {"jet": jet_instance, "cycle": cycle_instance, "function": function_instance}
TOKENS = [f"{kind}:{n}" for kind in MAKERS for n in range(1, 9)] + ["translations:6"]


def instance(token):
    kind, n = token.split(":")
    return translations_on_s3() if kind == "translations" else MAKERS[kind](int(n))


@pytest.mark.parametrize("prolongable", [False, True], ids=["first_order", "prolongable"])
@pytest.mark.parametrize("token", TOKENS)
def test_matches_the_dense_solver(token, prolongable):
    inst = instance(token)
    n_c = inst.H.dim * inst.dimM
    sol = solve_hochschild_space(inst, prolongable=prolongable)
    Z, B = (vectors(sol[key], n_c) for key in ("basis", "coboundary_basis"))
    Z_ref, B_ref = dense_solve(inst, prolongable)
    P_Z, P_B = projector(Z), projector(B)
    assert (sol["dim_Z"], sol["dim_B"]) == (round(np.trace(projector(Z_ref))), round(np.trace(projector(B_ref))))
    assert sol["dim_H"] == sol["dim_Z"] - sol["dim_B"]
    assert round(np.trace(P_Z)) == sol["dim_Z"] and round(np.trace(P_B)) == sol["dim_B"]
    assert np.abs(P_Z - projector(Z_ref)).max(initial=0.0) <= 1e-9
    assert np.abs(P_B - projector(B_ref)).max(initial=0.0) <= 1e-9
    # every coboundary is a cocycle
    assert np.abs(P_Z @ P_B - P_B).max(initial=0.0) <= 1e-9
    if not token.startswith("translations"):  # H is C[Z_n]
        bf = brute_force_group_z1(inst)
        assert (sol["dim_Z"], sol["dim_B"], sol["dim_H"]) == (bf["dim_Z"], bf["dim_B"], bf["dim_H"])


def test_dimensions_are_not_all_zero():
    # the comparison above is not vacuous: jet and function carry cocycles
    dims = {token: solve_hochschild_space(instance(token))["dim_Z"]
            for token in ("jet:8", "function:8", "translations:6")}
    assert dims == {"jet:8": 28, "function:8": 7, "translations:6": 5}


@pytest.mark.parametrize("prolongable", [False, True], ids=["first_order", "prolongable"])
@pytest.mark.parametrize("token", [f"{kind}:{n}" for kind in ("jet", "cycle") for n in range(2, 7)])
def test_dimensions_do_not_depend_on_the_basis_of_the_central_elements(monkeypatch, token, prolongable):
    inst = instance(token)
    want = solve_hochschild_space(inst, prolongable=prolongable)
    basis = hopf._central_sa_basis(inst)
    k = basis.shape[1]
    rotation, _ = np.linalg.qr(np.random.default_rng(k).standard_normal((k, k)))
    # the same Z_B(M)_sa, in another real-orthonormal basis
    monkeypatch.setattr(hopf, "_central_sa_basis", lambda inst: basis @ rotation)
    got = solve_hochschild_space(inst, prolongable=prolongable)
    dims = ("dim_Z", "dim_B", "dim_H")
    assert [got[key] for key in dims] == [want[key] for key in dims]


@pytest.mark.parametrize("rotated", [False, True], ids=["solver_basis", "rotated_basis"])
def test_prolongable_coboundaries_come_from_the_graded_central_subspace(monkeypatch, rotated):
    # a wedge m ^ x = alpha(m) alpha(x) e_0 makes m graded-central, m ^ x + x ^ m
    # = 0 for every x, exactly when alpha(m) = 0: a real subspace W of
    # Z_B(M)_sa that no basis of it needs to meet.  alpha vanishes on the
    # elements that D sends to 0, so D(W) is smaller than D(Z_B(M)_sa).  On
    # the jet algebra m^* = -conj(m) and e_0 = dx^dy is self-adjoint, so the
    # star rule (m ^ x)^* = -x^* ^ m^* holds for alpha(m) = e^{i pi/4} m.r
    # with r real.
    inst = jet_instance(2)
    dH, dM = inst.H.dim, inst.dimM
    actM = inst.actM.dense()

    def images(ms):  # D(m)(h) = m <| h - eps(h) m, as real (re, im) rows
        d = (np.einsum("nu,uhv->nhv", ms, actM) - np.einsum("h,nv->nhv", inst.H.counit, ms))
        return np.hstack([d.real, d.imag]).reshape(len(ms), 2 * dH * dM)

    cent = central_sa_basis(inst)
    ms = (cent[:dM] + 1j * cent[dM:]).T
    fixed = nullspace(images(ms).T).T @ ms
    r = nullspace(fixed.imag)  # the elements of Z_B(M)_sa are imaginary here
    alpha = np.exp(0.25j * np.pi) * (r @ np.random.default_rng(3).standard_normal(r.shape[1]))
    wedge = np.zeros(inst.wedge.shape, dtype=complex)
    wedge[:, :, 0] = np.outer(alpha, alpha)
    # alpha is not translation-invariant, so neither is this wedge nor the
    # prolongable system: the solver factors its whole components
    inst = dataclasses.replace(inst, wedge=wedge)
    W = nullspace(np.vstack([(ms @ alpha).real, (ms @ alpha).imag])).T @ ms
    want = projector(images(W).T)
    assert 0 < round(np.trace(want)) < solve_hochschild_space(inst)["dim_B"]
    if rotated:
        basis = hopf._central_sa_basis(inst)
        rotation, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((basis.shape[1],) * 2))
        monkeypatch.setattr(hopf, "_central_sa_basis", lambda inst: basis @ rotation)
    sol = solve_hochschild_space(inst, prolongable=True)
    got = projector(vectors(sol["coboundary_basis"], dH * dM))
    assert sol["dim_B"] == round(np.trace(want))
    assert np.abs(got - want).max() <= 1e-9


def unmoved(i):
    """The trivial symmetry on positions."""
    return i


def systems(inst):
    """The solver's three systems, each (A, rows, cols)."""
    return {"first_order": hopf.hochschild_system(inst),
            "prolongable": hopf.hochschild_system(inst, prolongable=True),
            "central": hopf.central_system(inst)}


@pytest.mark.parametrize("token", [f"{kind}:{n}" for kind in MAKERS for n in range(2, 9)])
def test_the_character_blocks_hold_the_singular_values_of_each_component(token):
    # the change of basis to the characters is unitary: the blocks of the
    # columns of one component of the orbit graph, over all characters,
    # have the singular values of the dense rows and columns they replace
    for name, (A, rows, cols) in systems(instance(token)).items():
        dense = A.dense()
        blocks = {}
        for stack, columns, _, _ in hopf._character_blocks(A, rows, cols):
            blocks.setdefault(tuple(columns), []).append(np.linalg.svd(stack, compute_uv=False).ravel())
        assert sum(map(len, blocks)) == len({c for key in blocks for c in key}), name
        for columns, values in blocks.items():
            part = dense[:, list(columns)]
            want = np.linalg.svd(part[np.abs(part).max(axis=1) > 0], compute_uv=False)
            got = np.sort(np.concatenate(values))[::-1]
            size = max(len(got), len(want))
            got, want = (np.pad(v, (0, size - len(v))) for v in (got, want))
            assert np.abs(got - want).max(initial=0.0) <= 1e-12, (name, columns[:3])


def test_a_free_action_gives_the_dense_nullspace():
    # Z_3 moving rows and columns in orbits of 3, on a random invariant
    # matrix with one orbit of columns in no row: the characters hold its
    # singular values, and the shape pass counts the blocks they build
    rows, cols = (np.arange(3 * n).reshape(3, n)[[1, 2, 0]].ravel() for n in (5, 6))
    rng = np.random.default_rng(11)
    A0 = rng.standard_normal((len(rows), len(cols))) * (rng.random((len(rows), len(cols))) < 0.3)
    A0[:, [0, 6, 12]] = 0
    A = np.zeros_like(A0, dtype=complex)
    i, j = np.arange(len(rows)), np.arange(len(cols))
    for _ in range(3):  # the average over the group is invariant
        A[np.ix_(i, j)] += A0
        i, j = rows[i], cols[j]
    form = hopf.IndexForm.of(A)
    Q = hopf._sparse_nullspace(form, rows.__getitem__, cols.__getitem__)
    want = nullspace(A)
    assert Q.shape[1] == want.shape[1] > 0
    assert np.abs(A @ Q).max() <= 1e-12 and np.abs(np.conj(Q).T @ Q - np.eye(Q.shape[1])).max() <= 1e-12
    stacks = list(hopf._character_blocks(form, rows.__getitem__, cols.__getitem__))
    got = np.sort(np.concatenate([np.linalg.svd(stack, compute_uv=False).ravel() for stack, *_ in stacks]))
    s = np.linalg.svd(A, compute_uv=False)
    assert np.abs(got[-len(s):] - np.sort(s)).max() <= 1e-12 and np.abs(got[:-len(s)]).max(initial=0.0) <= 1e-12
    assert hopf.component_shapes(form, rows.__getitem__, cols.__getitem__) == [s.shape for s, *_ in stacks]


def test_a_system_invariant_up_to_rounding_is_read_on_its_least_rows():
    # entries of 1e-12 in an orbit of rows that holds none otherwise: in its
    # least row, whose images hold no entry, and in the next: the blocks
    # read each orbit at its least row, whatever the pattern of entries
    A, rows, cols = hopf.hochschild_system(instance("jet:4"))
    dense = A.dense()
    x = np.flatnonzero(np.abs(dense).max(axis=1) == 0)[:1]  # least in its orbit
    dense[x, 0], dense[rows(x), 1] = 1e-12, 2e-12
    noisy = hopf.IndexForm.of(dense)
    got, want = (hopf._sparse_nullspace(B, rows, cols) for B in (noisy, A))
    assert got.shape == want.shape and got.shape[1] > 0
    assert np.abs(dense @ got).max() <= 1e-11


@pytest.mark.parametrize("token,shape", [("cycle:8", (32, 8)), ("jet:5", (10, 5))])
def test_the_largest_block_is_one_character_of_a_component(token, shape):
    # without the symmetry the solver factored 256 x 64 blocks on cycle:8
    # and 50 x 25 on jet:5
    A, rows, cols = hopf.hochschild_system(instance(token))
    n = int(token[-1])
    # every component stacks its n characters
    assert {s[0] for s in hopf.component_shapes(A, rows, cols)} == {n}
    assert max((s[1:] for s in hopf.component_shapes(A, rows, cols)), key=math.prod) == shape
    # the trivial symmetry factors whole components, n^2 times larger
    whole = hopf.component_shapes(A, unmoved, unmoved)
    assert max(math.prod(s) for s in whole) == math.prod(shape) * n ** 2


def test_an_instance_without_its_symmetry_has_the_same_dimensions(monkeypatch):
    # the trivial symmetry factors the connected components themselves
    tokens = ("function:6", "cycle:6", "jet:6")
    want = {(token, p): solve_hochschild_space(instance(token), p) for token in tokens for p in (False, True)}
    system = hopf._system
    monkeypatch.setattr(hopf, "_system", lambda *args: (system(*args)[0], unmoved, unmoved))
    for (token, prolongable), sol in want.items():
        got = solve_hochschild_space(instance(token), prolongable)
        assert [got[k] for k in ("dim_Z", "dim_B", "dim_H")] == [sol[k] for k in ("dim_Z", "dim_B", "dim_H")]


# the fibre of B, M and Omega^2 at one point of Z_n, by axis letter
FIBRES = {"function": {"b": 1, "m": 1}, "cycle": {"b": 1, "m": 2, "o": 1}, "jet": {"b": 4, "m": 4, "o": 1}}


def moved_positions(letters, shape, perms):
    """Row-major positions of axes named by `letters` under one permutation
    per letter (perms; a letter without one stays)."""
    index = np.indices(shape).reshape(len(shape), -1)
    return np.ravel_multi_index(tuple(perms[c][i] if c in perms else i for c, i in zip(letters, index)), shape)


@pytest.mark.parametrize("token", [f"{kind}:{n}" for kind in MAKERS for n in range(1, 9)])
def test_the_solver_finds_the_point_translation(token):
    # z -> z + 1 on each basis lifted point-major over C(Z_n), H fixed: the
    # permutations the shipped families used to declare
    kind, n = token.split(":")
    inst, n = instance(token), int(n)
    perms = {c: (np.arange(n * k) + k) % (n * k) for c, k in FIBRES[kind].items()}
    h, g, b, m, o = inst.H.dim, len(inst.H.generators) + 1, inst.dimB, inst.dimM, inst.dimO2
    row_axes = {"first_order": [("hkm", (h, g, m)), ("hbm", (h, b, m))],
                "prolongable": [("hkm", (h, g, m)), ("hbm", (h, b, m))]
                + ([("hmo", (h, m, o))] if inst.wedge is not None else []),
                "central": [("bm", (b, m))]}
    col_axes = {"first_order": ("hm", (h, m)), "prolongable": ("hm", (h, m)), "central": ("m", (m,))}
    for name, (A, rows, cols) in systems(inst).items():
        offsets = np.cumsum([0] + [math.prod(shape) for _, shape in row_axes[name]])
        want = np.concatenate([o + moved_positions(*axes, perms) for o, axes in zip(offsets, row_axes[name])])
        assert np.array_equal(rows(np.arange(A.shape[0])), want), name
        assert np.array_equal(cols(np.arange(A.shape[1])), moved_positions(*col_axes[name], perms)), name
    # the character blocks stay those of the declared translation
    if token == "cycle:8":
        assert hopf.component_shapes(*hopf.hochschild_system(inst)) == [(8, 32, 8)] * 2
    if token == "jet:5":
        assert hopf.component_shapes(*hopf.hochschild_system(inst)) == [(5, 10, 5)] * 4


def scaled_leftM(token):
    """The instance with one entry of leftM scaled by 1 + 2^-40."""
    inst = instance(token)
    values = inst.leftM.values.copy()
    values[0] *= 1 + 2**-40
    return dataclasses.replace(inst, leftM=hopf.IndexForm(inst.leftM.shape, inst.leftM.index, values))


@pytest.mark.parametrize("token", ["jet:3", "cycle:4", "translations:6"])
def test_a_system_that_is_not_exactly_invariant_is_solved_on_whole_components(token):
    # a table off by one rounding unit in 2^40, or C[S_3], whose action on
    # C(S_3) no translation of the basis preserves: rows and cols are the
    # identity, one character per component, and the dimensions are kept
    inst = instance(token) if token.startswith("translations") else scaled_leftM(token)
    for name, (A, rows, cols) in systems(inst).items():
        if A.values.size:
            assert np.array_equal(rows(np.arange(A.shape[0])), np.arange(A.shape[0])), name
            assert np.array_equal(cols(np.arange(A.shape[1])), np.arange(A.shape[1])), name
        assert {s[0] for s in hopf.component_shapes(A, rows, cols)} <= {1}, name
    for prolongable in (False, True):
        got, want = (solve_hochschild_space(x, prolongable) for x in (inst, instance(token)))
        assert [got[k] for k in ("dim_Z", "dim_B", "dim_H")] == [want[k] for k in ("dim_Z", "dim_B", "dim_H")]
