"""Torus products, sums, stars and derivatives against the plain loops.

The reference below builds every result through the public constructor and
computes each phase e^{2 pi i theta k} afresh, from theta mod 1 as the layer
does, where the layer caches phases and builds its own results directly.  The layer must give
the same coefficient dicts, bit for bit and in the same order (the order is
the summation order of the next product).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgauge.quadfield import GOLDEN, ONE_PLUS_SQRT3, SQRT2, ThetaContext
from ncgauge.torus import (
    PHASE_CACHE_SIZE,
    TWO_PI,
    ThetaMismatch,
    TorusElement,
    _phase,
    random_sparse,
)

THETAS = [ThetaContext(t).theta_float for t in (GOLDEN, SQRT2, ONE_PLUS_SQRT3)]


def reference_phase(theta, k):
    return cmath.exp(2j * math.pi * (theta % 1.0 * k % 1.0))


def reference_mul(x, y):
    if isinstance(y, (int, float, complex)):
        return TorusElement(x.theta, {k: v * y for k, v in x.coeffs.items()})
    out = {}
    for (m, n), a in x.coeffs.items():
        for (mp, np_), b in y.coeffs.items():
            key = (m + mp, n + np_)
            out[key] = out.get(key, 0) + a * b * reference_phase(x.theta, n * mp)
    return TorusElement(x.theta, out)


def reference_add(x, y):
    out = dict(x.coeffs)
    for k, v in y.coeffs.items():
        out[k] = out.get(k, 0) + v
    return TorusElement(x.theta, out)


def reference_neg(x):
    return TorusElement(x.theta, {k: -v for k, v in x.coeffs.items()})


def reference_sub(x, y):
    return reference_add(x, reference_neg(y))


def reference_star(x):
    out = {}
    for (m, n), a in x.coeffs.items():
        out[(-m, -n)] = a.conjugate() * reference_phase(x.theta, m * n)
    return TorusElement(x.theta, out)


def reference_delta(x, j):
    pick = (lambda m, n: m) if j == 1 else (lambda m, n: n)
    return TorusElement(
        x.theta, {(m, n): TWO_PI * pick(m, n) * v for (m, n), v in x.coeffs.items()}
    )


def bits(x: TorusElement) -> list:
    """The coefficient map, in order, with each value as its exact bits."""
    return [(k, v.real.hex(), v.imag.hex()) for k, v in x.coeffs.items()]


coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
mode = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
coeff_maps = st.dictionaries(mode, coeff, min_size=0, max_size=6)
scalars = st.one_of(st.integers(-3, 3), st.floats(-3, 3), coeff)


class TestBitIdentity:
    @given(theta=st.sampled_from(THETAS), a=coeff_maps, b=coeff_maps, c=scalars)
    @settings(max_examples=300, deadline=None)
    def test_ring_operations(self, theta, a, b, c):
        x, y = TorusElement(theta, a), TorusElement(theta, b)
        assert bits(x * y) == bits(reference_mul(x, y))
        assert bits(y * x) == bits(reference_mul(y, x))
        assert bits(x + y) == bits(reference_add(x, y))
        assert bits(x - y) == bits(reference_sub(x, y))
        assert bits(-x) == bits(reference_neg(x))
        assert bits(x * c) == bits(reference_mul(x, c))
        assert bits(c * x) == bits(reference_mul(x, c))
        assert bits(x.star()) == bits(reference_star(x))
        for j in (1, 2):
            assert bits(x.delta(j)) == bits(reference_delta(x, j))

    @pytest.mark.parametrize("theta", THETAS)
    def test_random_sparse_chains(self, theta):
        rng = np.random.default_rng(0x70A5)
        for _ in range(100):
            x, y, z = (random_sparse(theta, rng, terms=6, span=8) for _ in range(3))
            assert bits((x * y) * z) == bits(reference_mul(reference_mul(x, y), z))
            assert bits(x * y - y * x) == bits(
                reference_sub(reference_mul(x, y), reference_mul(y, x))
            )
            assert bits((x * y).star()) == bits(reference_star(reference_mul(x, y)))
            assert bits((x * y).delta(2)) == bits(reference_delta(reference_mul(x, y), 2))

    @given(theta=st.sampled_from(THETAS), a=coeff_maps, b=coeff_maps)
    @settings(max_examples=100, deadline=None)
    def test_exact_zeros_are_dropped(self, theta, a, b):
        x, y = TorusElement(theta, a), TorusElement(theta, b)
        p = x * y
        assert (p - p).coeffs == {}
        assert (x * y - x * y).coeffs == {}
        assert (x * 0).coeffs == {}
        assert all(v != 0 for v in p.coeffs.values())

    def test_signed_zeros_follow_the_reference(self):
        # a sum starts from the int 0, and 0 + (-0.0) is +0.0
        theta = THETAS[0]
        x = TorusElement(theta, {(0, 0): complex(-0.0, 1.0), (1, 0): complex(2.0, -0.0)})
        y = TorusElement(theta, {(0, 0): complex(-1.0, -0.0), (0, 1): complex(-0.0, -0.0)})
        zero = TorusElement.zero(theta)
        assert bits(zero + x) == bits(reference_add(zero, x))
        assert bits(zero - x) == bits(reference_sub(zero, x))
        assert bits(x * y) == bits(reference_mul(x, y))
        assert bits(y.star()) == bits(reference_star(y))
        assert bits(x * -1.0) == bits(reference_mul(x, -1.0))

    def test_an_overflowed_difference_stays_visible(self):
        # (1e300)^2 is inf + nan i; p - p is nan + nan i, which must not
        # be dropped and read as 0
        big = TorusElement(THETAS[0], {(0, 0): 1e300})
        p = big * big
        assert math.isnan((p - p).norm())

    def test_theta_mismatch_is_still_raised(self):
        x, y = TorusElement.U(THETAS[0]), TorusElement.V(THETAS[1])
        for op in (lambda: x * y, lambda: x + y, lambda: x - y):
            with pytest.raises(ThetaMismatch):
                op()

    def test_public_constructor_still_checks_input(self):
        x = TorusElement(THETAS[0], {(np.int64(1), 2.0): 3, (0, 0): 1e-13}, tol=1e-12)
        assert list(x.coeffs) == [(1, 2)]
        assert all(type(i) is int for i in next(iter(x.coeffs)))
        assert type(x.coeffs[(1, 2)]) is complex

    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    def test_public_constructor_keeps_nan(self, tol):
        # as `_of` does: a NaN coefficient is not below any tolerance
        x = TorusElement(THETAS[0], {(0, 0): math.nan, (1, 0): complex(0, math.nan)}, tol=tol)
        assert len(x.coeffs) == 2
        assert math.isnan(x.norm())
        assert math.isnan(TorusElement(THETAS[0], {(0, 0): math.nan}).norm())


class TestPhaseCache:
    @pytest.mark.parametrize("theta", THETAS)
    def test_cached_phases_are_the_computed_ones(self, theta):
        for k in range(-300, 301):
            assert _phase(theta, k) == reference_phase(theta, k)
            assert _phase(theta, k).real.hex() == reference_phase(theta, k).real.hex()
            assert _phase(theta, k).imag.hex() == reference_phase(theta, k).imag.hex()

    def test_cache_stays_bounded_over_10_4_distinct_k(self):
        theta = THETAS[1]
        v = TorusElement.V(theta)
        row = TorusElement(theta, {(m, 0): 1.0 for m in range(10_000)})
        p = v * row  # one phase e^{2 pi i theta m} per term
        assert _phase.cache_info().maxsize == PHASE_CACHE_SIZE
        assert _phase.cache_info().currsize <= PHASE_CACHE_SIZE
        assert len(p.coeffs) == 10_000
        assert bits(p) == bits(reference_mul(v, row))
