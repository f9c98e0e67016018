"""Tests for the lazy cohomology layer: tensors, cocycles, MC, curvature, Op."""

import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from ncgauge.hopf import (
    ConvolutionElement,
    CrossedProduct,
    FiniteHopf,
    IndexForm,
    ModuleAlgebra,
    NotAdmissible,
    TargetMismatch,
    brute_force_group_z1,
    check_hochschild_cocycle,
    check_sweedler_cocycle,
    coboundary_H,
    coboundary_S,
    conj_action,
    conv_inverse,
    conv_star,
    convolve,
    curvature_map,
    cycle_instance,
    cyclic_group_hopf,
    dump_instance,
    function_instance,
    graded_bracket,
    group_cocycle,
    jet_instance,
    jet_unitary,
    load_instance,
    mc_cocycle,
    op_gauge_matrix,
    op_report,
    same_tables,
    unit_cocycle,
    zero_cochain,
)
from test_hopf_op import dense, solve


@pytest.fixture
def rng():
    return np.random.default_rng(0xA17E)


def character(inst, zeta):
    n = inst.H.dim
    vals = np.array([inst.unitB * zeta**j for j in range(n)])
    return ConvolutionElement(inst, "B", vals)


class TestHopfAxioms:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_cyclic_gate(self, n):
        assert cyclic_group_hopf(n).axiom_report()["max"] <= 1e-12

    def test_corrupted_antipode_fails(self):
        H = cyclic_group_hopf(4)
        # S(g) = g^3 moved to g^2: wrong
        H.antipode = H.antipode + IndexForm((4, 4), ([1, 1], [2, 3]), np.array([1.0, -1.0]))
        assert H.axiom_report()["max"] > 1e-6

    @pytest.mark.parametrize(
        "mk,n", [(cycle_instance, 3), (cycle_instance, 4), (jet_instance, 2),
                 (jet_instance, 3), (function_instance, 5)]
    )
    def test_instance_data(self, mk, n):
        assert mk(n).data_report()["max"] <= 1e-12

    def test_nonassociative_product_fails(self):
        inst = jet_instance(2)
        inst.mulB = inst.mulB + 0.1 * np.random.default_rng(0).standard_normal(inst.mulB.shape)
        assert inst.data_report()["assoc_BBB"] > 1e-3

    def test_wrong_two_form_action_fails(self):
        # the trivial action is a representation, but the products into
        # Omega^2 are then not equivariant
        inst = cycle_instance(3)
        inst.actO2 = IndexForm.of(np.stack([np.eye(inst.dimO2)] * 3, axis=1) + 0j)
        assert inst.data_report()["max"] > 1e-6

    def test_nan_residual_makes_the_max_nan(self):
        # a worst-of that dropped the NaN would let a <= tol check pass
        inst = cycle_instance(3)
        inst.dB = inst.dB + IndexForm(inst.dB.shape, ([0], [0]), np.array([np.nan]))
        rep = inst.data_report()
        assert rep["actB_rep"] == 0.0  # the first entry is finite
        assert np.isnan(rep["derivation"]) and np.isnan(rep["max"])
        H = cyclic_group_hopf(3)
        H.counit[1] = np.nan
        gate = H.axiom_report()
        assert gate["assoc"] == 0.0 and np.isnan(gate["counit"]) and np.isnan(gate["max"])
        clean = cycle_instance(3)
        mu = zero_cochain(clean, "M")
        mu.values[1, 0] = np.nan  # not at the unit, so unit_value stays 0
        assert np.isnan(check_hochschild_cocycle(mu)["max"])
        assert np.isnan(op_report(clean, unit_cocycle(clean), mu)["max"])


def functions_on_s3():
    """C(S_3) on the delta basis, coefficients B = C with the counit action.

    Delta(delta_g) = sum_{ab=g} delta_a (x) delta_b is not cocommutative, so
    unlike every C[Z_n] it tells h_1 from h_2.
    """
    group = list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(group)}

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    n = len(group)
    mul = np.zeros((n, n, n), dtype=complex)
    comul = np.zeros((n, n, n), dtype=complex)
    antipode = np.zeros((n, n), dtype=complex)
    for a in group:
        mul[index[a], index[a], index[a]] = 1.0
        antipode[index[a], index[tuple(np.argsort(a))]] = 1.0
        for b in group:
            comul[index[compose(a, b)], index[a], index[b]] = 1.0
    counit = np.zeros(n, dtype=complex)
    counit[index[(0, 1, 2)]] = 1.0
    H = FiniteHopf(mul, comul, counit, antipode, np.eye(n, dtype=complex),
                   np.ones(n, dtype=complex))
    one = np.ones((1, 1), dtype=complex)
    inst = ModuleAlgebra(
        H=H, mulB=one.reshape(1, 1, 1), unitB=one[0], starB=one,
        actB=counit.reshape(1, n, 1),
        leftM=np.zeros((1, 0, 0), dtype=complex),
        rightM=np.zeros((0, 1, 0), dtype=complex),
        starM=np.zeros((0, 0), dtype=complex),
        actM=np.zeros((0, n, 0), dtype=complex),
        name="C(S_3)",
    )
    return inst, group, index, compose


class TestNonCocommutative:
    def test_functions_on_s3(self, rng):
        inst, group, index, compose = functions_on_s3()
        assert inst.H.axiom_report()["max"] <= 1e-12
        assert inst.data_report()["max"] <= 1e-12
        f, g = (
            ConvolutionElement(
                inst, "B", rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
            )
            for _ in range(2)
        )
        fg = convolve(f, g)
        for c in group:
            expect = sum(
                f.values[index[a], 0] * g.values[index[b], 0]
                for a in group for b in group if compose(a, b) == c
            )
            assert abs(fg.values[index[c], 0] - expect) < 1e-12


class TestConvolution:
    def test_unit_law(self, rng):
        inst = function_instance(3)
        f = ConvolutionElement(
            inst, "B", rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        one = unit_cocycle(inst)
        assert (convolve(f, one) - f).norm() < 1e-12
        assert (convolve(one, f) - f).norm() < 1e-12

    def test_group_like_pointwise(self, rng):
        # on C[Z_2] group-likes, convolution is the pointwise product
        inst = function_instance(2)
        f = ConvolutionElement(inst, "B", rng.standard_normal((2, 2)) + 0j)
        g = ConvolutionElement(inst, "B", rng.standard_normal((2, 2)) + 0j)
        fg = convolve(f, g)
        for j in range(2):
            assert np.allclose(fg.values[j], inst.mul("B", "B", f.values[j], g.values[j]))

    def test_associativity(self, rng):
        inst = jet_instance(2)
        d = (2, inst.dimB)
        els = [
            ConvolutionElement(
                inst, "B", rng.standard_normal(d) + 1j * rng.standard_normal(d)
            )
            for _ in range(9)
        ]
        for f, g, h in zip(els[0::3], els[1::3], els[2::3]):
            lhs = convolve(convolve(f, g), h)
            rhs = convolve(f, convolve(g, h))
            assert (lhs - rhs).norm() < 1e-12

    def test_target_typing(self, rng):
        inst = function_instance(2)
        m = ConvolutionElement(inst, "M", np.ones((2, 2)) + 0j)
        with pytest.raises(TargetMismatch):
            convolve(m, m)  # no wedge data on this instance


class TestConvStar:
    def test_unit(self):
        inst = function_instance(3)
        one = unit_cocycle(inst)
        assert (conv_star(one) - one).norm() < 1e-12

    def test_group_like_values(self, rng):
        # on group algebras f^*(gamma) = f(gamma)^* since S(gamma)^* = gamma
        inst = function_instance(4)
        f = ConvolutionElement(
            inst, "B", rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        fs = conv_star(f)
        for j in range(4):
            assert np.allclose(fs.values[j], inst.star("B", f.values[j]))

    def test_involutive_antimultiplicative(self, rng):
        inst = jet_instance(2)
        d = (2, inst.dimB)
        f = ConvolutionElement(
            inst, "B", rng.standard_normal(d) + 1j * rng.standard_normal(d)
        )
        g = ConvolutionElement(
            inst, "B", rng.standard_normal(d) + 1j * rng.standard_normal(d)
        )
        assert (conv_star(conv_star(f)) - f).norm() < 1e-12
        lhs = conv_star(convolve(f, g))
        rhs = convolve(conv_star(g), conv_star(f))
        assert (lhs - rhs).norm() < 1e-12


class TestSweedlerCocycles:
    def test_unit_passes(self):
        inst = cycle_instance(3)
        assert check_sweedler_cocycle(unit_cocycle(inst))["passes"]

    def test_cycle_characters(self):
        inst = cycle_instance(4)
        assert check_sweedler_cocycle(character(inst, 1j))["passes"]

    def test_w_construction(self, rng):
        # sigma(g^j) = w (w<|g) ... ; passes iff prod of shifts of w is 1
        inst = function_instance(3)
        w = np.exp(2j * np.pi * rng.random(3))
        w = w / np.prod(w) ** (1 / 3)
        sigma = group_cocycle(inst, w)
        assert check_sweedler_cocycle(sigma)["passes"]

    def test_telescoping_violation_detected(self, rng):
        inst = function_instance(3)
        w = np.exp(2j * np.pi * rng.random(3))
        w = w / np.prod(w) ** (1 / 3)
        sigma = group_cocycle(inst, w)
        sigma.values[2] = sigma.values[2] * np.exp(0.3j)
        rep = check_sweedler_cocycle(sigma)
        assert not rep["passes"]
        assert rep["cocycle_worst_pair"][0] == 2 or rep["cocycle_worst_pair"][1] == 2

    def test_noncentral_w_rejected_on_cycle(self, rng):
        # on the cycle calculus Cent_B(B + M) = C, so nonconstant w fails
        inst = cycle_instance(3)
        w = np.exp(2j * np.pi * rng.random(3))
        w = w / np.prod(w) ** (1 / 3)
        sigma = group_cocycle(inst, w)
        rep = check_sweedler_cocycle(sigma)
        assert rep["centrality_M"] > 1e-6

    def test_jet_coboundary_and_product(self, rng):
        inst = jet_instance(3)
        u = jet_unitary(inst, rng=rng)
        sig = convolve(character(inst, np.exp(2j * np.pi / 3)), coboundary_S(inst, u))
        assert check_sweedler_cocycle(sig)["passes"]

    def test_group_closed_under_inverse(self, rng):
        inst = jet_instance(2)
        sig = coboundary_S(inst, jet_unitary(inst, rng=rng))
        assert check_sweedler_cocycle(conv_inverse(sig))["passes"]

    def test_coboundaries_central_in_cocycle_group(self, rng):
        # sigma * D(upsilon) * sigma^{-1} = D(upsilon)
        inst = jet_instance(3)
        sig = convolve(
            character(inst, np.exp(2j * np.pi / 3)),
            coboundary_S(inst, jet_unitary(inst, rng=rng)),
        )
        du = coboundary_S(inst, jet_unitary(inst, rng=rng))
        conj = convolve(convolve(sig, du), conv_inverse(sig))
        assert (conj - du).norm() < 1e-10


class TestHochschildCocycles:
    def test_zero_passes(self):
        inst = cycle_instance(3)
        assert check_hochschild_cocycle(zero_cochain(inst, "M"))["passes"]

    def test_coboundary_passes(self, rng):
        inst = jet_instance(2)
        m = np.zeros(inst.dimM, dtype=complex)
        m[1] = 1j  # i (y dx at z=0): self-adjoint under starM = -I
        mu = coboundary_H(inst, m)
        assert check_hochschild_cocycle(mu, prolongable=True)["passes"]

    def test_z2_balance_constraint(self):
        # on C[Z_2] the cocycle equation at (g, g) forces mu(g) + mu(g)<|g = 0
        inst = function_instance(2)
        good = ConvolutionElement(
            inst, "M", np.array([[0.0, 0.0], [1.0, -1.0]]) + 0j
        )
        assert check_hochschild_cocycle(good)["passes"]
        bad = ConvolutionElement(
            inst, "M", np.array([[0.0, 0.0], [1.0, 1.0]]) + 0j
        )
        rep = check_hochschild_cocycle(bad)
        assert not rep["passes"]
        assert rep["cocycle_worst_pair"] == (1, 1)


class TestCoboundaries:
    def test_unit_gives_unit_cocycle(self):
        inst = function_instance(3)
        d = coboundary_S(inst, inst.unitB)
        assert (d - unit_cocycle(inst)).norm() < 1e-12

    def test_z2_example(self):
        # B = C(Z_2), upsilon = (1, -1): D(upsilon)(g) = (-1, -1)
        inst = function_instance(2)
        ups = np.array([1.0, -1.0], dtype=complex)
        d = coboundary_S(inst, ups)
        assert np.allclose(d.values[1], np.array([-1.0, -1.0]))
        assert check_sweedler_cocycle(d)["passes"]

    def test_not_admissible(self):
        inst = function_instance(2)
        with pytest.raises(NotAdmissible):
            coboundary_S(inst, np.array([2.0, 0.5]))  # not unitary
        inst2 = cycle_instance(3)
        with pytest.raises(NotAdmissible):
            coboundary_S(inst2, np.exp(2j * np.pi * np.arange(3) / 3))  # not central

    def test_hochschild_zero(self):
        inst = jet_instance(2)
        d = coboundary_H(inst, np.zeros(inst.dimM))
        assert d.norm() == 0.0

    def test_hochschild_not_admissible(self):
        inst = jet_instance(2)
        m = np.zeros(inst.dimM, dtype=complex)
        m[1] = 1.0  # not self-adjoint (starM = -I wants imaginary coords)
        with pytest.raises(NotAdmissible):
            coboundary_H(inst, m)

    def test_nan_is_not_admissible(self):
        inst = function_instance(2)
        with pytest.raises(NotAdmissible, match="unitary"):
            coboundary_S(inst, np.array([1.0, np.nan]))
        with pytest.raises(NotAdmissible, match="self-adjoint"):
            coboundary_H(inst, np.array([0.0, np.nan]))


class TestConjugationAction:
    def test_unit_acts_trivially(self, rng):
        inst = jet_instance(3)
        mu = solve(inst)["basis"][0]
        assert (conj_action(unit_cocycle(inst), mu) - mu).norm() < 1e-12

    def test_group_algebra_action_trivial(self, rng):
        # Prop-level fact: for H = C[Gamma] conjugation is always trivial
        inst = jet_instance(3)
        u = jet_unitary(inst, rng=rng)
        sigma = convolve(character(inst, np.exp(2j * np.pi / 3)), coboundary_S(inst, u))
        for mu in solve(inst)["basis"][:4]:
            assert (conj_action(sigma, mu) - mu).norm() < 1e-10

    def test_result_is_cocycle(self, rng):
        inst = jet_instance(2)
        sigma = coboundary_S(inst, jet_unitary(inst, rng=rng))
        mu = solve(inst)["basis"][0]
        assert check_hochschild_cocycle(conj_action(sigma, mu))["passes"]


class TestMaurerCartan:
    def test_unit_maps_to_zero(self):
        inst = jet_instance(2)
        assert mc_cocycle(unit_cocycle(inst)).norm() < 1e-12

    def test_nonzero_on_jet(self, rng):
        inst = jet_instance(3)
        u = jet_unitary(inst, rng=rng)
        mc = mc_cocycle(coboundary_S(inst, u))
        assert mc.norm() > 0.1
        assert check_hochschild_cocycle(mc, prolongable=True)["passes"]

    def test_coboundary_identity(self, rng):
        # MC(D upsilon) = D(-dB(upsilon) upsilon^*)
        inst = jet_instance(3)
        u = jet_unitary(inst, rng=rng)
        lhs = mc_cocycle(coboundary_S(inst, u))
        m0 = -inst.mul("M", "B", u @ inst.dB, inst.star("B", u))
        rhs = coboundary_H(inst, m0)
        assert (lhs - rhs).norm() < 1e-10

    def test_group_like_evaluation(self, rng):
        # MC(sigma)(gamma) = -d sigma(gamma) . sigma(gamma)^*
        inst = jet_instance(2)
        u = jet_unitary(inst, rng=rng)
        sigma = coboundary_S(inst, u)
        mc = mc_cocycle(sigma)
        for j in range(2):
            direct = -inst.mul(
                "M", "B", sigma.values[j] @ inst.dB, inst.star("B", sigma.values[j])
            )
            assert np.allclose(mc.values[j], direct)

    def test_mc_is_one_cocycle(self, rng):
        # MC(s * t) = MC(s) + s |> MC(t)
        inst = jet_instance(3)
        s = convolve(
            character(inst, np.exp(2j * np.pi / 3)),
            coboundary_S(inst, jet_unitary(inst, rng=rng)),
        )
        t = coboundary_S(inst, jet_unitary(inst, rng=rng))
        lhs = mc_cocycle(convolve(s, t))
        rhs = mc_cocycle(s) + conj_action(s, mc_cocycle(t))
        assert (lhs - rhs).norm() < 1e-10

    def test_zero_on_semisimple_coefficients(self, rng):
        # over C(Z_n) every sigma has constant-in-the-relevant-sense values
        # and MC vanishes identically; the jet nilpotents are what turn it on
        inst = function_instance(3)
        w = np.exp(2j * np.pi * rng.random(3))
        w = w / np.prod(w) ** (1 / 3)
        sigma = group_cocycle(inst, w)
        assert mc_cocycle(sigma).norm() < 1e-12


class TestCurvature:
    def test_zero(self):
        inst = jet_instance(2)
        assert curvature_map(zero_cochain(inst, "M")).norm() < 1e-12

    def test_output_is_cocycle(self):
        inst = jet_instance(3)
        mu = solve(inst)["basis"][0]
        F = curvature_map(mu)
        assert check_hochschild_cocycle(F)["passes"]

    def test_quadratic_defect(self):
        # F[mu+nu] - F[mu] - F[nu] = -i[mu, nu]; for group algebras the
        # bracket vanishes on the prolongable space, so this is a strict
        # linearity check on non-zero curvatures
        inst = jet_instance(3)
        basis = solve(inst)["basis"]
        mu, nu = basis[0], basis[1]
        lhs = curvature_map(mu + nu) - curvature_map(mu) - curvature_map(nu)
        rhs = graded_bracket(mu, nu).scale(-1j)
        assert rhs.norm() < 1e-12
        assert (lhs - rhs).norm() < 1e-10

    def test_coboundary_identity_nonzero(self):
        # F[D alpha] = D(-i dB alpha) with both sides genuinely non-zero
        inst = jet_instance(3)
        alpha = np.zeros(inst.dimM, dtype=complex)
        alpha[4 * 0 + 1] = 1j      # i y dx at z=0
        alpha[4 * 1 + 2 + 1] = 2j  # 2i x dy at z=1
        lhs = curvature_map(coboundary_H(inst, alpha))
        rhs = coboundary_H(inst, -1j * (alpha @ inst.d1), target="O2")
        assert lhs.norm() > 0.5
        assert (lhs - rhs).norm() < 1e-10

    def test_equivariance(self, rng):
        # F[sigma |> mu + MC(sigma)] = sigma |> F[mu]
        inst = jet_instance(3)
        sigma = convolve(
            character(inst, np.exp(2j * np.pi / 3)),
            coboundary_S(inst, jet_unitary(inst, rng=rng)),
        )
        mu = solve(inst)["basis"][0]
        lhs = curvature_map(conj_action(sigma, mu) + mc_cocycle(sigma))
        rhs = convolve(convolve(sigma, curvature_map(mu)), conv_inverse(sigma))
        assert (lhs - rhs).norm() < 1e-10


class TestHochschildSolver:
    @pytest.mark.parametrize(
        "mk,n,expect",
        [
            (cycle_instance, 3, 0),
            (cycle_instance, 4, 0),
            (function_instance, 3, 2),
            (function_instance, 4, 3),
            (function_instance, 6, 5),
            (jet_instance, 2, 4),
            (jet_instance, 3, 8),
            (jet_instance, 4, 12),
        ],
    )
    def test_dims_match_brute_force(self, mk, n, expect):
        inst = mk(n)
        sol = solve(inst)
        bf = brute_force_group_z1(inst, sol["central_basis"])
        assert sol["dim_Z"] == bf["dim_Z"] == expect
        assert sol["dim_B"] == bf["dim_B"]
        assert sol["dim_H"] == bf["dim_H"]
        for mu in sol["basis"][:3]:
            assert check_hochschild_cocycle(mu)["passes"]

    def test_trivial_action(self):
        inst = function_instance(4, shift=False)
        sol = solve(inst)
        assert sol["dim_Z"] == 0
        assert brute_force_group_z1(inst, sol["central_basis"])["dim_Z"] == 0

    def test_prolongable_refinement(self):
        # everything is prolongable on the jet instance (graded-central)
        inst = jet_instance(2)
        plain = solve(inst)
        pro = solve(inst, prolongable=True)
        assert plain["dim_Z"] == pro["dim_Z"]


class TestOp:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_cycle_instances(self, n):
        inst = cycle_instance(n)
        sigma = character(inst, np.exp(2j * np.pi / n))
        rep = op_report(inst, sigma, zero_cochain(inst, "M"), upsilon=inst.unitB)
        assert rep["max"] <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_jet_instances(self, rng, n):
        inst = jet_instance(n)
        u = jet_unitary(inst, rng=rng)
        sigma = convolve(character(inst, np.exp(2j * np.pi / n)), coboundary_S(inst, u))
        sol = solve(inst)
        rep = op_report(inst, sigma, sol["basis"][0], upsilon=u)
        assert rep["max"] <= 1e-10

    def test_op_group_homomorphism(self, rng):
        inst = jet_instance(3)
        s = coboundary_S(inst, jet_unitary(inst, rng=rng))
        t = coboundary_S(inst, jet_unitary(inst, rng=rng))
        M_st = op_gauge_matrix(convolve(s, t)).dense()
        M_s, M_t = op_gauge_matrix(s).dense(), op_gauge_matrix(t).dense()
        # row-vector convention: x (Op(t) then Op(s)) = x @ M_t @ M_s
        assert np.abs(M_st - M_t @ M_s).max() < 1e-12

    def test_crossed_product_unit(self):
        inst = cycle_instance(3)
        cp = CrossedProduct(inst)
        one = cp.unit()
        for x in np.eye(cp.dim, dtype=complex)[:5]:
            assert np.allclose(cp.mul(one, x), x)
            assert np.allclose(cp.mul(x, one), x)

    def test_crossed_product_star_involutive(self):
        inst = jet_instance(2)
        cp = CrossedProduct(inst)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(cp.dim) + 1j * rng.standard_normal(cp.dim)
        assert np.allclose(cp.star(cp.star(x)), x)


class TestSerialization:
    def test_round_trip(self):
        inst = jet_instance(2)
        text = dump_instance(inst)
        back = load_instance(text)
        assert back.data_report()["max"] <= 1e-12
        assert back.H.axiom_report()["max"] <= 1e-12
        assert solve(back)["dim_Z"] == 4

    def test_a_load_holds_arrays_not_lists_of_python_floats(self):
        # each tensor's re and im lists become float arrays as the parser
        # closes it, so the load peaks near the arrays' 16 bytes an entry,
        # 3.1 times the dense dump of cycle:24; lists of Python floats for
        # every entry at once peaked at 8.2 times
        text = dump_instance(cycle_instance(24))
        tracemalloc.start()
        try:
            inst = load_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_tables(inst, cycle_instance(24))
        assert peak <= 4 * len(text), peak / len(text)

    def test_a_dump_holds_the_lists_of_one_table_at_a_time(self):
        # each table's text is written as its float lists are formed, so the
        # dump peaks at 3.1 times its text on cycle:24; the lists of every
        # table at once peaked at 8.4 times (test_dump_is_pinned holds the
        # bytes)
        inst = cycle_instance(24)
        tracemalloc.start()
        try:
            text = dump_instance(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_tables(load_instance(text), inst)
        assert peak <= 4 * len(text), peak / len(text)


def with_table(obj, name, edit):
    """A copy of a FiniteHopf or ModuleAlgebra whose table `name` is edit()
    of a dense copy, built again by its constructor."""
    return dataclasses.replace(obj, **{name: edit(dense(getattr(obj, name)).copy())})


def one_longer(axis):
    """Pad a table with one zero slice at the end of `axis`."""
    return lambda a: np.pad(a, [(0, int(i == axis)) for i in range(a.ndim)])


def one_entry_changed(a):
    a.flat[0] += 1
    return a


class TestAxesTables:
    @pytest.mark.parametrize("letter,name", [("h", "actB"), ("b", "unitB"), ("m", "starM"),
                                             ("o", "d1"), ("h", "unit")])
    def test_an_axis_of_the_wrong_length_is_refused_by_name(self, letter, name):
        inst = cycle_instance(3)
        obj = inst.H if name in FiniteHopf.AXES else inst
        axes = type(obj).AXES[name]
        with pytest.raises(ValueError, match=rf"table {name} \({axes}\) has {letter} = "):
            with_table(obj, name, one_longer(axes.index(letter)))

    def test_a_table_of_the_wrong_rank_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"table starB \(bb\) has 3 axes, not 2"):
            with_table(cycle_instance(3), "starB", lambda a: a[..., None])

    @pytest.mark.parametrize("owner,name", [("H", "comul"), ("H", "unit"), ("inst", "mulB"),
                                            ("inst", "unitB"), ("inst", "actM")])
    def test_a_required_table_that_is_none_is_refused_by_name(self, owner, name):
        inst = cycle_instance(2)
        obj = inst.H if owner == "H" else inst
        with pytest.raises(ValueError, match=f"table {name} is missing"):
            dataclasses.replace(obj, **{name: None})

    def test_the_optional_tables_may_be_absent(self):
        inst = cycle_instance(2)
        bare = dataclasses.replace(inst, **{k: None for k, axes in ModuleAlgebra.AXES.items()
                                            if "o" in axes or k == "dB"})
        assert bare.dimO2 == 0 and bare.dB is None

    def test_axes_are_in_field_order(self):
        for cls in (FiniteHopf, ModuleAlgebra):
            names = [f.name for f in dataclasses.fields(cls)]
            assert [k for k in names if k in cls.AXES] == list(cls.AXES)


class TestSameTables:
    @pytest.mark.parametrize("owner,name", [("H", k) for k in FiniteHopf.AXES]
                             + [("inst", k) for k in ModuleAlgebra.AXES])
    def test_a_one_entry_change_to_any_table_is_seen(self, owner, name):
        inst = cycle_instance(3)
        if owner == "H":
            other = dataclasses.replace(inst, H=with_table(inst.H, name, one_entry_changed))
            assert not same_tables(inst.H, other.H)
        else:
            other = with_table(inst, name, one_entry_changed)
        assert not same_tables(inst, other)
        assert same_tables(inst, with_table(inst, "mulB", lambda a: a))

    def test_names_and_labels_are_not_read(self):
        inst, other = jet_instance(2), jet_instance(2)
        other.name, other.H.labels = "d2", []
        assert same_tables(inst, other)

    def test_an_absent_table_differs_from_a_present_one(self):
        inst = function_instance(2)
        assert not same_tables(inst, dataclasses.replace(inst, dB=None))
        assert not same_tables(cycle_instance(2), jet_instance(2))


# sha256 of dump_instance for n = 1 .. 6: every entry, shape and name of the
# shipped tensors, as the pointwise fiber construction must reproduce them
SHIPPED = {
    "function": function_instance,
    "function-fixed-M": lambda n: function_instance(n, shift=False),
    "cycle": cycle_instance,
    "jet": jet_instance,
}
SHIPPED_DIGESTS = {
    "function": [
        "709771fd20581fa36dfe947b8530787b4bdf5772e7c4af01aea5b1e1449da8da",
        "5f65545ddcbadd61005fc240dd1781b661f2e9489e009792c3d1979003443377",
        "1a5be396155e748e2fe1c08d63319cf7ac220e5ee3bf82eb5f903c8e8a8632ee",
        "e3a75e8124a95160ef05fbafd0e9ee4615a3c6e083e2ff7e2a302dc05716786d",
        "8208a6bafa0ea65fd894c297a4fecb9c48be67a3d372a767162f9560f3df2a2b",
        "e8d7223f7007bfff0c06f875bd8d79c7902d9b53f03e87036a9e8ae13f7ec11f",
    ],
    "function-fixed-M": [
        "87ff34d523be03d1053a32e405153a6efb5ead8aeb367e89ee748bf2268da716",
        "b1d6d8795d895062090a2b2a2ea20b8e50ec7a423b1e9ab5f1e9447a8c4e6d46",
        "a9564a647feb1906ba7b9737f09b4e1d33a885ddd7259fa0b76ddc9f44369a28",
        "0245cfc9bc76ef122163179cd7ce9b32d4b83273de2c3fa27dcc6c300d54d4ab",
        "cb4d473e4159f799c3254f725266a32e23a7d3ded8f9569d83ad111c09f502ba",
        "e1909b79debc8f906ab6ae6573ce100a24e0fe50a7f564e86900791d291b5aab",
    ],
    "cycle": [
        "096960111869079fbc0128d8e50436b5d8bb58ab216b7ac942f6601277bd96c5",
        "d0e45f3072bdc65b57fd9d3764a4210a128717c93e7be8f4be2640c46e5ba9bf",
        "fed2d9acd1eec47b1e047646b8d502eb065f3d03a60a7ff5298f623eb63d2efb",
        "8bab95a84a2f4369c264edb254ac2c3a1733a650beb5b33bd71d893411f0bdc3",
        "3013dd0c7d3444f414212856eea60f128669e69ce9f69eef6fb5c981cdf4a384",
        "bf9ca17f153b50e762ba7972afefd04b6e86b66373a0351b09304ff22a1eaa10",
    ],
    "jet": [
        "93db52758544e5c36ef2a1290a95ca5cec7bca38c4ec28dc678ab27f4ea17080",
        "22bc7d3abd24c5a3f5092e37b43aa61a0421b952ff357aa7ff7ebe9184fa84db",
        "fe9bde25e9a9375c55950f7a46e09448056c03840a9b54ab19283e691e119a3d",
        "d10ebf47db61229ae9bf95d9f34cd6b2955132899d793b3328a3e607c426dd00",
        "3e34093d8063c13c3bea020314cab0b286d88b0e0deeadd3f1d35d1c58d3a13d",
        "6a21bde0f241f1a83047158b65d8b4351ae23474c255faa9d26eabdd8c4b709e",
    ],
}


class TestShippedTensors:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kind", SHIPPED)
    def test_dump_is_pinned(self, kind, n):
        text = dump_instance(SHIPPED[kind](n))
        assert hashlib.sha256(text.encode()).hexdigest() == SHIPPED_DIGESTS[kind][n - 1]

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kind", SHIPPED)
    def test_every_tensor_is_complex128(self, kind, n):
        # every table is a canonical index form (row-major positions, no
        # stored zero) with complex128 values, and every vector complex128:
        # the dump cannot tell a float64 tensor from a complex one
        inst = SHIPPED[kind](n)
        fields = {
            f"{owner}.{f.name}": getattr(obj, f.name)
            for owner, obj in (("H", inst.H), ("inst", inst))
            for f in dataclasses.fields(obj)
            if getattr(obj, f.name) is not None and f.name not in ("H", "labels", "name")
        }
        vectors = {"H.counit", "H.unit", "inst.unitB"}
        assert {k for k, a in fields.items() if isinstance(a, np.ndarray)} == vectors
        assert all(fields[k].dtype == np.complex128 for k in vectors)
        tables = {k: a for k, a in fields.items() if k not in vectors}
        assert len(tables) == (18 if inst.wedge is not None else 12)
        for key, form in tables.items():
            assert isinstance(form, IndexForm) and form.values.dtype == np.complex128, key
            flat = np.ravel_multi_index(form.index, form.shape)
            assert np.all(np.diff(flat) > 0) and np.all(form.values != 0), key
            canonical = IndexForm.of(form.dense())
            assert np.array_equal(flat, np.ravel_multi_index(canonical.index, form.shape)), key
            assert np.array_equal(form.values, canonical.values), key

    @pytest.mark.parametrize("maker,n,dim_b", [(cycle_instance, 96, 96), (jet_instance, 24, 96)])
    def test_a_large_instance_builds_within_its_tables(self, maker, n, dim_b):
        # dense tables held 312 MiB for cycle_instance(96), and building
        # them peaked at 326 MiB; jet_instance(24) held 54 MiB
        tracemalloc.start()
        try:
            inst = maker(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (inst.H.dim, inst.dimB) == (n, dim_b)
        assert peak <= 8 * 2**20, peak / 2**20


    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_jet_unitary_matches_the_pointwise_formula(self, n):
        # f (1 + i a x + i b y + (i c - a b) xy) at each point, in scalar arithmetic
        inst = jet_instance(n)
        for seed in range(5):
            u = jet_unitary(inst, rng=np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            f = np.exp(2j * np.pi * rng.random(n))
            a, b, c = (rng.standard_normal(n) for _ in range(3))
            want = np.zeros(4 * n, dtype=complex)
            for z in range(n):
                want[4 * z: 4 * z + 4] = [
                    f[z], 1j * a[z] * f[z], 1j * b[z] * f[z], (1j * c[z] - a[z] * b[z]) * f[z],
                ]
            assert u.dtype == np.complex128
            assert u.tobytes() == want.tobytes()


class TestSolverEdges:
    def test_coboundary_basis_elements_are_cocycles(self):
        inst = jet_instance(3)
        sol = solve(inst)
        assert len(sol["coboundary_basis"]) == sol["dim_B"]
        for mu in sol["coboundary_basis"][:3]:
            assert check_hochschild_cocycle(mu)["passes"]

    @pytest.mark.parametrize(
        "inst", [jet_instance(3), cycle_instance(4), function_instance(4)],
        ids=lambda inst: inst.name,
    )
    def test_coboundary_basis_spans_the_images_of_the_central_elements(self, inst):
        from scipy.linalg import orth

        size = 2 * inst.H.dim * inst.dimM

        def projector(vectors):
            vectors = np.reshape(vectors, (-1, size))
            if not len(vectors):  # cycle:n has no central self-adjoint elements
                return np.zeros((size, size))
            q = orth(vectors.T)
            return q @ q.T

        sol = solve(inst)
        images = []
        for m in sol["central_basis"].T:
            # D(m)(h) = m <| h - eps(h) m
            d = np.einsum("u,uhv->hv", m, inst.actM.dense()) - np.outer(inst.H.counit, m)
            images.append(np.concatenate([d.real.ravel(), d.imag.ravel()]))
        basis = [np.concatenate([mu.values.real.ravel(), mu.values.imag.ravel()])
                 for mu in sol["coboundary_basis"]]
        want, got = projector(images), projector(basis)
        assert len(basis) == sol["dim_B"] == round(np.trace(got)) == round(np.trace(want))
        assert np.abs(got - want).max() <= 1e-12

    def test_zero_module_gives_zero_dimensions(self):
        from ncgauge.hopf import ModuleAlgebra

        fi = function_instance(2)
        z = ModuleAlgebra(
            H=fi.H, mulB=fi.mulB, unitB=fi.unitB, starB=fi.starB, actB=fi.actB,
            leftM=np.zeros((2, 0, 0), dtype=complex),
            rightM=np.zeros((0, 2, 0), dtype=complex),
            starM=np.zeros((0, 0), dtype=complex),
            actM=np.zeros((0, 2, 0), dtype=complex),
            dB=np.zeros((2, 0), dtype=complex),
            name="zero-M",
        )
        sol = solve(z)
        assert (sol["dim_Z"], sol["dim_B"], sol["dim_H"]) == (0, 0, 0)
