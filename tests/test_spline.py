"""The numpy spline kernel against scipy's CubicSpline as a test-only oracle.

`spline_table` solves the not-a-knot slope system on a uniform grid of step
h; `CubicSpline` solves it on the knots it is given.  `np.linspace` knots
are uniform only to about eps * L, so on the L = 12 grids the two splines
solve systems that differ at rounding level.  The coefficients are held to
1e-12 of their largest there.  The values are held to 1e-14 on grids whose
knots are exact (h a power of two), where both kernels solve the same
system, and on the L = 12 grids on Schwartz-class samples; on white noise
the point x itself is only known to eps * L, which moves a read by eps * L
times the slope, so that is added to the bound.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from ncgauge.heisenberg import GridSpec, HeisenbergElement, spline_table
from ncgauge.quadfield import GOLDEN, SQRT2, ThetaContext

SIZES = [6, 8, 64, 1024, 2048]
SECTORS = [1, 2, 12]
# sector count S -> a context and grade with |c_m| = S
CASES = {
    1: (ThetaContext(GOLDEN), 1),
    2: (ThetaContext(SQRT2), 1),
    12: (ThetaContext(SQRT2), 2),
}
EPS = np.finfo(float).eps


def exact_grid(N: int) -> GridSpec:
    """A grid whose N knots np.linspace returns exactly: h = 2^-k."""
    h = 2.0 ** -np.ceil(np.log2(N / 16))
    grid = GridSpec(L=(N - 1) * h / 2, N=N)
    assert np.all(np.diff(grid.xs) == grid.h)
    return grid


def white_noise(rng, S, N):
    return rng.standard_normal((S, N)) + 1j * rng.standard_normal((S, N))


def element(samples, grid):
    """An element with S = samples.shape[0] sectors."""
    ctx, m = CASES[samples.shape[0]]
    return HeisenbergElement(m, samples, ctx, grid)


def read_points(rng, grid):
    """Random points, every knot and exactly -L and L."""
    return np.concatenate([rng.uniform(-grid.L, grid.L, 300), grid.xs, [-grid.L, grid.L]])


def reads(f, pts):
    """All sectors of f at pts, one batched read."""
    S = f.samples.shape[0]
    return f.evaluate(pts, np.arange(S))


@pytest.mark.parametrize("S", SECTORS)
@pytest.mark.parametrize("N", SIZES)
def test_coefficients_match_scipy(N, S):
    grid = GridSpec(N=N)
    samples = white_noise(np.random.default_rng(N + S), S, N)
    ref = CubicSpline(grid.xs, samples, axis=1).c  # (4, N - 1, S)
    table = spline_table(samples, grid.h)
    assert table.shape == (4, S, N - 1)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(table - ref.transpose(0, 2, 1))) <= 1e-12 * scale


@pytest.mark.parametrize("S", SECTORS)
@pytest.mark.parametrize("N", SIZES)
def test_values_match_scipy_on_exact_knots(N, S):
    grid = exact_grid(N)
    rng = np.random.default_rng(10 * N + S)
    samples = white_noise(rng, S, N)
    pts = read_points(rng, grid)
    ref = CubicSpline(grid.xs, samples, axis=1, extrapolate=False)(pts)
    got = reads(element(samples, grid), pts)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the coefficients agree to rounding too when the systems are the same
    c = CubicSpline(grid.xs, samples, axis=1).c.transpose(0, 2, 1)
    assert np.max(np.abs(spline_table(samples, grid.h) - c)) <= 1e-14 * np.max(np.abs(c))


@pytest.mark.parametrize("S", SECTORS)
@pytest.mark.parametrize("N", SIZES)
def test_values_match_scipy_on_linspace_knots(N, S):
    grid = GridSpec(N=N)
    rng = np.random.default_rng(20 * N + S)
    pts = read_points(rng, grid)
    # Schwartz-class samples: Gaussians of random width and phase per sector
    widths = rng.uniform(1.0, 3.0, S)[:, None]
    smooth = np.exp(-(grid.xs / widths) ** 2) * white_noise(rng, S, 1)
    noise = white_noise(rng, S, N)
    for samples, slack in ((smooth, 0.0), (noise, 1.0)):
        spline = CubicSpline(grid.xs, samples, axis=1, extrapolate=False)
        ref = spline(pts)
        got = reads(element(samples, grid), pts)
        slope = np.max(np.abs(spline.c[2]))
        bound = 1e-14 * np.max(np.abs(ref)) + slack * EPS * grid.L * slope
        assert np.max(np.abs(got - ref)) <= bound


@pytest.mark.parametrize("N", [6, 1024])
def test_batched_reads_equal_row_reads(N):
    grid = GridSpec(N=N)
    rng = np.random.default_rng(N)
    f = element(white_noise(rng, 12, N), grid)
    pts = rng.uniform(-1.2 * grid.L, 1.2 * grid.L, (5, 40))
    sectors = [3, 0, 11, 3, 25]  # taken mod S, repeats allowed
    rows = np.array([f.evaluate(p, s) for p, s in zip(pts, sectors)])
    assert np.array_equal(f.evaluate(pts, sectors), rows)
    shared = np.array([f.evaluate(pts[0], s) for s in sectors])
    assert np.array_equal(f.evaluate(pts[0], sectors), shared)
    grid_of_rows = f.evaluate(pts[:, None, :], [[s, s + 1] for s in sectors])
    assert grid_of_rows.shape == (5, 2, 40)
    assert np.array_equal(grid_of_rows[:, 0], rows)


def test_reads_outside_the_window_are_zero_and_nan_points_stay_nan():
    grid = GridSpec(L=4.0, N=64)
    f = element(white_noise(np.random.default_rng(5), 2, 64), grid)
    pts = np.array([-np.inf, -1e300, -4.0 - 1e-9, np.nan, 0.3, 4.0 + 1e-9, np.inf])
    with np.errstate(all="raise"):
        vals = f.evaluate(pts, [0, 1])
    assert np.all(vals[:, [0, 1, 2, 5, 6]] == 0.0)
    assert np.isnan(vals[:, 3]).all()
    assert np.isfinite(vals[:, 4]).all() and np.all(vals[:, 4] != 0.0)
