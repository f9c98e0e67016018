"""Phase-exact tests for the noncommutative torus and its calculus."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgauge.quadfield import GOLDEN, ThetaContext
from ncgauge.torus import (
    Form,
    ThetaMismatch,
    TorusElement,
    d_B,
    d_B1,
    dtau1,
    dtau2,
    random_sparse,
    star,
    wedge,
    wedge_pairs,
)

THETA = ThetaContext(GOLDEN).theta_float
TOL = 1e-12


@pytest.fixture
def rng():
    return np.random.default_rng(0xA17E)


class TestMultiply:
    def test_uv_normal_ordered(self):
        U, V = TorusElement.U(THETA), TorusElement.V(THETA)
        assert (U * V).coefficient(1, 1) == 1

    def test_vu_commutation(self):
        U, V = TorusElement.U(THETA), TorusElement.V(THETA)
        lam = cmath.exp(2j * math.pi * THETA)
        prod = V * U
        assert abs(prod.coefficient(1, 1) - lam) < TOL
        assert (V * U).close_to((U * V) * lam, TOL)

    def test_monomial_associativity(self):
        U, V = TorusElement.U(THETA), TorusElement.V(THETA)
        lhs = (U * V) * (U * V)
        rhs = U * ((V * U) * V)
        assert lhs.close_to(rhs, TOL)

    def test_random_associativity(self, rng):
        for _ in range(200):
            x = random_sparse(THETA, rng)
            y = random_sparse(THETA, rng)
            z = random_sparse(THETA, rng)
            lhs = (x * y) * z
            rhs = x * (y * z)
            scale = max(lhs.norm(), rhs.norm(), 1.0)
            assert (lhs - rhs).norm() / scale < TOL

    def test_theta_mismatch(self):
        with pytest.raises(ThetaMismatch):
            TorusElement.U(0.3) * TorusElement.U(0.4)


class TestStar:
    def test_star_one(self):
        one = TorusElement.one(THETA)
        assert star(one).close_to(one, TOL)

    def test_star_u(self):
        U = TorusElement.U(THETA)
        assert star(U).coefficient(-1, 0) == 1

    def test_star_uv_unitarity(self):
        # oracle: star(UV)(UV) must be 1; fixes the phase e^{2 pi i theta}
        U, V = TorusElement.U(THETA), TorusElement.V(THETA)
        UV = U * V
        assert (star(UV) * UV).close_to(TorusElement.one(THETA), TOL)
        assert abs(star(UV).coefficient(-1, -1) - cmath.exp(2j * math.pi * THETA)) < TOL

    def test_involution_and_antimultiplicativity(self, rng):
        for _ in range(200):
            x = random_sparse(THETA, rng)
            y = random_sparse(THETA, rng)
            assert star(star(x)).close_to(x, TOL)
            lhs = star(x * y)
            rhs = star(y) * star(x)
            scale = max(lhs.norm(), 1.0)
            assert (lhs - rhs).norm() / scale < TOL


class TestDerivations:
    def test_delta1_on_generators(self):
        U, V = TorusElement.U(THETA), TorusElement.V(THETA)
        assert U.delta(1).close_to(U * (2 * math.pi), TOL)
        assert V.delta(1).is_zero()
        assert V.delta(2).close_to(V * (2 * math.pi), TOL)

    def test_linear_extension(self):
        x = TorusElement.monomial(THETA, 3, -2)
        assert x.delta(2).close_to(x * (-4 * math.pi), TOL)

    def test_leibniz_and_commutation(self, rng):
        for _ in range(50):
            x = random_sparse(THETA, rng)
            y = random_sparse(THETA, rng)
            for j in (1, 2):
                lhs = (x * y).delta(j)
                rhs = x.delta(j) * y + x * y.delta(j)
                assert (lhs - rhs).norm() / max(lhs.norm(), 1.0) < TOL
            comm = x.delta(1).delta(2) - x.delta(2).delta(1)
            assert comm.is_zero(TOL)

    def test_star_derivation_convention(self, rng):
        # the convention is delta(b^*) = -delta(b)^*
        for _ in range(50):
            x = random_sparse(THETA, rng)
            for j in (1, 2):
                lhs = star(x).delta(j)
                rhs = -star(x.delta(j))
                assert (lhs - rhs).norm() / max(lhs.norm(), 1.0) < TOL


class TestCalculus:
    def test_d_squared_zero(self, rng):
        x = TorusElement.monomial(THETA, 2, 1)
        assert d_B1(d_B(x)).norm() < TOL
        for _ in range(20):
            y = random_sparse(THETA, rng)
            assert d_B1(d_B(y)).norm() / max(y.norm(), 1.0) < TOL

    def test_wedge_dtau_gives_volume(self):
        v = wedge(dtau1(THETA), dtau2(THETA))
        assert v.b.close_to(TorusElement.one(THETA), TOL)
        # the literal pair-basis formula, dtau^j = -i e_j
        one = TorusElement.one(THETA)
        zero = TorusElement.zero(THETA)
        p = (one * complex(0, -1), zero)
        q = (zero, one * complex(0, -1))
        assert wedge_pairs(p, q).close_to(one, TOL)

    def test_wedge_self_central_zero(self):
        b = TorusElement.one(THETA) * 2.5
        w = Form(1, (b, TorusElement.zero(THETA)))
        assert wedge(w, w).norm() < TOL

    def test_wedge_antisymmetry_central_coeffs(self):
        # central (scalar) coefficient forms anticommute under the formula
        w1 = Form(
            1, (TorusElement.one(THETA) * (1 + 2j), TorusElement.one(THETA) * 0.5)
        )
        w2 = Form(
            1, (TorusElement.one(THETA) * -3j, TorusElement.one(THETA) * (2 - 1j))
        )
        lhs = wedge(w1, w2)
        rhs = wedge(w2, w1)
        assert (lhs.b + rhs.b).norm() < TOL

    def test_leibniz_for_d_against_wedge(self, rng):
        # d(x * d_B(y)) as d_B(x) ^ d_B(y) + x d(d_B y) = d_B(x) ^ d_B(y)
        for _ in range(20):
            x = random_sparse(THETA, rng)
            y = random_sparse(THETA, rng)
            lhs = d_B1(d_B(y).left_mul(x))
            rhs = wedge(d_B(x), d_B(y))
            assert (lhs.b - rhs.b).norm() / max(lhs.b.norm(), 1.0) < 1e-11

    def test_one_form_star(self):
        U = TorusElement.U(THETA)
        w = Form(1, (U, TorusElement.zero(THETA)))
        sw = w.star()
        assert sw.b1.close_to(-star(U), TOL)

    def test_centrality_right_equals_left_for_scalars(self, rng):
        x = random_sparse(THETA, rng)
        w = dtau1(THETA)
        assert w.right_mul(x).b1.close_to(w.left_mul(x).b1, TOL)


coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)
mode = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
elements = st.dictionaries(mode, coeff, min_size=1, max_size=4).map(
    lambda d: TorusElement(THETA, d)
)


class TestProperties:
    @given(x=elements, y=elements, z=elements)
    @settings(max_examples=80, deadline=None)
    def test_associative(self, x, y, z):
        lhs, rhs = (x * y) * z, x * (y * z)
        scale = max(x.norm() * y.norm() * z.norm(), 1.0)
        assert (lhs - rhs).norm() / scale < TOL

    @given(x=elements, y=elements)
    @settings(max_examples=80, deadline=None)
    def test_star_antihomomorphism(self, x, y):
        scale = max(x.norm() * y.norm(), 1.0)
        assert (star(x * y) - star(y) * star(x)).norm() / scale < TOL
        assert (star(star(x)) - x).norm() / max(x.norm(), 1.0) < TOL

    @given(x=elements, y=elements, j=st.sampled_from([1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_derivation_leibniz(self, x, y, j):
        lhs = (x * y).delta(j)
        rhs = x.delta(j) * y + x * y.delta(j)
        assert (lhs - rhs).norm() / max(x.norm() * y.norm(), 1.0) < 1e-11
