"""Desk-scale Heisenberg modules over a real-multiplication torus.

A grade-m sector (m != 0) is the Schwartz space S(R) tensor C[Z_{|c_m|}]
sampled on a uniform grid, where (a_m, b_m; c_m, d_m) are the integer
entries of the m-th power of the canonical stabilizer generator.  The
module actions, star, twisted derivations and graded multiplication below
realize the grade-m pieces as self-Morita bimodules over the torus algebra
and assemble them into a Z-graded algebra whose grade-0 part is exact
(a TorusElement).

Translations by irrational amounts are done with not-a-knot cubic splines
(zero extension outside the window, legitimate for Schwartz-class data),
the continuous derivation with 4th-order centered finite differences, and
integrals with the trapezoid rule, as a sum against one weight vector per
grid (`GridSpec.weights`).  The splines are numpy only: each
element holds one coefficient table for all its sectors, whose slopes come
from one tridiagonal solve by parallel cyclic reduction.

There are two reads of the table.  `evaluate` takes arbitrary points and
finds each one's interval.  `translate` takes the grid translated by one
shift per row, which meets every interval at the same offset, so a row is
Horner's rule on a window of the table with one scalar; it serves the V
translations of the module actions and the g-factor of the lattice sum.
The scaled grids (the f-factor of the lattice sum, the torus pairing, the
star) go through `evaluate`.  Every kernel reads in blocks of at most
_ROW_BUDGET rows of N points, which bounds its temporaries whatever the
number of sectors or of terms.

A kernel's result is a fresh array, which its element takes over without
a copy; the public constructor copies the caller's array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .quadfield import ThetaContext
from .torus import TorusElement

TWO_PI = 2.0 * math.pi


class GradeZero(ValueError):
    """Operation requires a genuine Heisenberg sector (m != 0)."""


class WindowOverflow(RuntimeError):
    """Rescaled data no longer fits the sample window at this tolerance."""


class TruncationWarning(UserWarning):
    """A truncated sum left a tail above the configured tolerance."""


@dataclass(frozen=True)
class GridSpec:
    """Sampling window [-L, L] with N points per sector.

    J caps the per-side width of the lattice sums in the graded product;
    modes is the Fourier box |n1|,|n2| <= modes for grade-cancelling
    products; tol drives truncation warnings and window checks.
    """

    L: float = 12.0
    N: int = 1024
    J: int = 8
    tol: float = 1e-6
    modes: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be finite and positive, got {self.L}")
        if self.N % 2 != 0:
            raise ValueError("N must be even")
        # the 4th-order derivative reads 5 points and a not-a-knot cubic
        # spline 4; the smallest even N that holds both is 6
        if self.N < 6:
            raise ValueError(f"N must be at least 6, got {self.N}")
        if self.J < 1:
            raise ValueError(f"J must be at least 1, got {self.J}")
        # the spline's cubic coefficients scale like 1/h^3
        if self.h**3 < np.finfo(float).tiny:
            raise ValueError(f"the step h = 2L/(N-1) = {self.h:.3g} is too small: h^3 underflows")

    @cached_property
    def xs(self) -> np.ndarray:
        """The N sample points, built once per grid and shared read-only."""
        xs = np.linspace(-self.L, self.L, self.N)
        xs.flags.writeable = False
        return xs

    @cached_property
    def weights(self) -> np.ndarray:
        """The trapezoid weights of `xs`, built once per grid and shared read-only."""
        return _trapezoid_weights(self.xs)

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)


def _trapezoid_weights(xs: np.ndarray) -> np.ndarray:
    """Weights w with sum_i w_i y_i the trapezoid rule on the points xs:
    half of each step to either end of it."""
    steps = np.diff(xs) / 2.0
    weights = np.zeros(xs.size)
    weights[:-1] = steps
    weights[1:] += steps
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=None)
def _band_weights(grid: GridSpec, band: float) -> tuple:
    """(columns, weights) of the trapezoid rule on the points |x| > L - band.

    Each half of the band, x < -(L - band) and x > L - band, gets a rule of
    its own, so no step spans the gap between them; a band wider than L
    is the whole window.
    """
    inner = grid.L - band
    halves = [grid.xs < -inner, grid.xs > inner] if inner >= 0 else [np.full(grid.N, True)]
    columns = np.concatenate([np.flatnonzero(half) for half in halves])
    columns.flags.writeable = False
    return columns, np.concatenate([_trapezoid_weights(grid.xs[half]) for half in halves])


def sector_count(ctx: ThetaContext, m: int) -> int:
    if m == 0:
        raise GradeZero("grade 0 has no sector structure")
    return abs(ctx.c(m))


def sample_bytes(ctx: ThetaContext, grid: GridSpec, m: int) -> int:
    """Size of one grade-m sample array: |c_m| * N complex128 values."""
    return sector_count(ctx, m) * grid.N * np.dtype(complex).itemsize


@lru_cache(maxsize=None)
def _slope_levels(N: int) -> tuple:
    """Parallel cyclic reduction of the not-a-knot slope system on N points.

    Times h, the system for the slopes depends on N alone: the rows are
    (1, 2), then (1, 4, 1) in the interior, then (2, 1).  The level of
    stride d adds lower_i d_{i-d} + upper_i d_{i+d} to each right-hand
    side d_i, which moves every coupling from distance d to 2d; after
    ceil(log2 N) levels the system is diagonal.  The couplings shrink
    like 0.27^d, so the reduction stops as soon as every one is below
    eps^2 of its diagonal (after stride 32 from N = 64 on): dividing by
    the diagonal then moves no slope by more than about eps^2 of the
    largest.  Returns the levels (d, lower, upper) and the reciprocal of
    the final diagonal.
    """
    a, b, c = np.ones(N), np.full(N, 4.0), np.ones(N)
    a[0], b[0], c[0] = 0.0, 1.0, 2.0
    a[-1], b[-1], c[-1] = 2.0, 1.0, 0.0
    levels = []
    d = 1
    while d < N and np.max((np.abs(a) + np.abs(c)) / b) > np.finfo(float).eps ** 2:
        lower = -a[d:] / b[:-d]
        upper = -c[:-d] / b[d:]
        new_a, new_b, new_c = np.zeros(N), b.copy(), np.zeros(N)
        new_a[d:] = lower * a[:-d]
        new_b[d:] += lower * c[:-d]
        new_b[:-d] += upper * a[d:]
        new_c[:-d] = upper * c[d:]
        a, b, c = new_a, new_b, new_c
        levels.append((d, lower, upper))
        d *= 2
    return tuple(levels), 1.0 / b


def spline_table(samples: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Not-a-knot cubic coefficients of every row of `samples`, shape (4, S, N-1).

    Row s on [x_i, x_i + h] is sum_j table[j, s, i] (x - x_i)^(3-j), the
    layout of scipy's `CubicSpline.c`.  The slopes solve the system of
    `_slope_levels` with right-hand sides (5 m_0 + m_1)/2, then
    3 (m_{i-1} + m_i), then (m_{N-3} + 5 m_{N-2})/2, where
    m_i = (y_{i+1} - y_i)/h; the coefficients are the Hermite formulas,
    written into `out` when it is given.
    """
    S, N = samples.shape
    slope = np.diff(samples, axis=1) / h
    rhs = np.empty((S, N), dtype=slope.dtype)
    rhs[:, 0] = (5.0 * slope[:, 0] + slope[:, 1]) / 2.0
    rhs[:, 1:-1] = 3.0 * (slope[:, :-1] + slope[:, 1:])
    rhs[:, -1] = (slope[:, -2] + 5.0 * slope[:, -1]) / 2.0
    levels, inv_diag = _slope_levels(N)
    for d, lower, upper in levels:
        nxt = rhs.copy()
        nxt[:, d:] += lower * rhs[:, :-d]
        nxt[:, :-d] += upper * rhs[:, d:]
        rhs = nxt
    s = rhs * inv_diag
    t = (s[:, :-1] + s[:, 1:] - 2.0 * slope) / h
    table = np.empty((4, S, N - 1), dtype=slope.dtype) if out is None else out
    table[0] = t / h
    table[1] = (slope - s[:, :-1]) / h - t
    table[2] = s[:, :-1]
    table[3] = samples[:, :-1]
    return table


# Rows of N points that one spline read holds at a time: the kernels read
# in blocks of at most this many rows, which bounds their temporaries.  An
# 8-row `evaluate` keeps its working set (about 90 KB a row at N = 1024) in
# L2; on a 2-vCPU Xeon VM with 2 MB of L2 a core, a row read 16 or 32 at a
# time cost twice as much.
_ROW_BUDGET = 8


class HeisenbergElement:
    """Grid samples of a grade-m vector: array of shape (|c_m|, N).

    The samples are a read-only array that the element owns, so the spline
    table cached on the first read always describes them.
    """

    __slots__ = ("m", "samples", "ctx", "grid", "_table", "_windows")

    def __init__(self, m: int, samples: np.ndarray, ctx: ThetaContext, grid: GridSpec):
        # a copy: the caller still holds its array and could write to it
        self._adopt(m, np.array(samples, dtype=complex), ctx, grid)

    @classmethod
    def _owning(cls, m: int, samples: np.ndarray, ctx: ThetaContext,
                grid: GridSpec) -> "HeisenbergElement":
        """The element on `samples`, a fresh complex array that no one else
        holds (a kernel's result): made read-only in place, not copied."""
        self = object.__new__(cls)
        self._adopt(m, np.asarray(samples, dtype=complex), ctx, grid)
        return self

    def _adopt(self, m: int, samples: np.ndarray, ctx: ThetaContext, grid: GridSpec):
        if m == 0:
            raise GradeZero("use TorusElement for grade 0")
        S = sector_count(ctx, m)
        if samples.shape != (S, grid.N):
            raise ValueError(f"expected shape {(S, grid.N)}, got {samples.shape}")
        samples.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_windows", None)

    def __setattr__(self, *a):
        raise AttributeError("HeisenbergElement is immutable")

    # -- numeric plumbing -------------------------------------------------
    def _coefficients(self) -> np.ndarray:
        """The spline table, flat, shape (4, (S + 2)(N + 1)); built on the first read.

        Sector s holds the entries [(s + 1)(N + 1), (s + 2)(N + 1)): its N - 1
        intervals between two constant pieces that hold the end samples (x = L
        reads the right one, and a translated point that rounding carries
        just past an end reads either).  A zero sector before the first and
        after the last keeps a window of N entries that starts anywhere in a
        sector inside the table.
        """
        if self._table is None:
            S, N = self.samples.shape
            table = np.zeros((4, S + 2, N + 1), dtype=complex)
            # written in place: a separate table would add its size to the peak
            spline_table(self.samples, self.grid.h, out=table[:, 1:-1, 1:-1])
            table[3, 1:-1, 0] = self.samples[:, 0]
            table[3, 1:-1, -1] = self.samples[:, -1]
            table = table.reshape(4, -1)
            object.__setattr__(self, "_table", table)
            # row j of _windows[c] is the N entries of coefficient c from j on
            object.__setattr__(self, "_windows", sliding_window_view(table, N, axis=1))
        return self._table

    def evaluate(self, pts: np.ndarray, sector) -> np.ndarray:
        """Spline reads at arbitrary points, zero outside the window.

        `sector` is one sector or an array of them; the points carry a
        trailing axis of P points that broadcasts against the sectors, so
        one sector reads points of shape (P,), and R sectors points of
        shape (R, P), or (P,) shared by all.  The interval of a point is
        floor((x + L)/h) on the uniform grid, and the read is Horner's rule
        on the coefficient table.  Only the reads outside [-L, L] are
        zeroed, by position; a NaN read inside the window (an overflowing
        spline, or a NaN point) stays NaN, so every check built on it fails.
        """
        table = self._coefficients()
        S, N = self.samples.shape
        L, h = self.grid.L, self.grid.h
        pts = np.asarray(pts, dtype=float)
        rows = (np.asarray(sector) % S)[..., None]
        # reads outside the window are zeroed below; clipping keeps them finite
        dx = np.clip(pts, -L, L)
        # x + L >= 0, x = L reads the end piece, and fmin sends a NaN point
        # there too, where its read stays NaN
        idx = np.fmin((dx + L) / h, N - 1).astype(np.intp)
        dx -= self.grid.xs[idx]
        flat = idx + 1 + (N + 1) * (rows + 1)
        c0, c1, c2, c3 = table
        vals = c0.take(flat)
        for c in (c1, c2, c3):
            vals *= dx
            vals += c.take(flat)
        np.copyto(vals, 0.0, where=(pts < -L) | (pts > L))
        return vals

    def translate(self, shifts, sectors) -> np.ndarray:
        """Spline reads on translated grids: sector `sectors[r]` at xs + `shifts[r]`.

        The shifts and sectors broadcast against each other; the result has
        their shape and a trailing axis of N points.  A translated grid
        meets every interval at the same offset t - q h, q = floor(t/h), so
        a row is Horner's rule with that one scalar on a window of N
        consecutive table entries: no interval index per point.  The reads
        are `evaluate(xs + t, sector)` to rounding, zero where xs + t lies
        outside [-L, L], and NaN for a NaN shift or a NaN spline.
        """
        self._coefficients()
        S, N = self.samples.shape
        L, h = self.grid.L, self.grid.h
        shifts, sectors = np.broadcast_arrays(np.asarray(shifts, dtype=float),
                                              np.asarray(sectors) % S)
        shape = shifts.shape + (N,)
        shifts = shifts.ravel()
        q = np.floor(shifts / h)
        # no point of a row with |q| >= N, or with an infinite shift, is inside
        # the window; such a row reads at q = 0, which keeps it in the table
        far = ~(np.abs(q) < N)
        q[far] = 0.0
        dx = np.where(far & ~np.isnan(shifts), 0.0, shifts - q * h)[:, None]
        starts = (N + 1) * (sectors.ravel() + 1) + 1 + q.astype(np.intp)
        c0, c1, c2, c3 = self._windows
        vals = c0[starts]
        # the real and imaginary parts scale by the same real offset
        parts = vals.view(float)
        for c in (c1, c2, c3):
            parts *= dx
            vals += c[starts]
        outside = np.add.outer(shifts, self.grid.xs)
        np.abs(outside, out=outside)
        np.copyto(vals, 0.0, where=outside > L)
        return vals.reshape(shape)

    def with_samples(self, samples: np.ndarray) -> "HeisenbergElement":
        return HeisenbergElement(self.m, samples, self.ctx, self.grid)

    def _with_owned(self, samples: np.ndarray) -> "HeisenbergElement":
        """`with_samples` on a fresh array, which the element takes over."""
        return HeisenbergElement._owning(self.m, samples, self.ctx, self.grid)

    # -- linear structure --------------------------------------------------
    def _compat(self, other: "HeisenbergElement"):
        if self.m != other.m or self.ctx is not other.ctx or self.grid != other.grid:
            raise ValueError("incompatible grades or contexts")

    def __add__(self, other):
        self._compat(other)
        return self._with_owned(self.samples + other.samples)

    def __sub__(self, other):
        self._compat(other)
        return self._with_owned(self.samples - other.samples)

    def __neg__(self):
        return self._with_owned(-self.samples)

    def scale(self, c) -> "HeisenbergElement":
        return self._with_owned(self.samples * c)

    # the part protocol of GradedElement, shared with TorusElement; each
    # method calls its module function, so wrapping that function is seen
    def star(self) -> "HeisenbergElement":
        return star_heis(self)

    def sigma(self) -> "HeisenbergElement":
        """The twisting automorphism on grade m: scaling by eps^{-m}."""
        return self.scale(self.ctx.eps_pow_float(-self.m))

    def delta(self, j: int) -> "HeisenbergElement":
        return partial_heis(j, self)

    def norm(self) -> float:
        """l^2 norm: sqrt of the trapezoid integral of |f|^2 summed over
        sectors, one sum against the grid's weights (a NaN sample gives NaN)."""
        dens = np.abs(self.samples) ** 2
        dens *= self.grid.weights
        return math.sqrt(float(dens.sum()))

    def inner(self, other: "HeisenbergElement") -> complex:
        """<self, other>: the trapezoid integral of conj(self) other summed
        over sectors, one sum against the grid's weights."""
        self._compat(other)
        dens = np.conj(self.samples)
        dens *= other.samples
        dens *= self.grid.weights
        return complex(dens.sum())

    def boundary_fraction(self, band: float = 1.0) -> float:
        """Fraction of l^2 mass in the outer band |x| > L - band of the window."""
        dens = np.abs(self.samples) ** 2
        columns, edge_weights = _band_weights(self.grid, band)
        edge = float((dens[:, columns] * edge_weights).sum())
        dens *= self.grid.weights
        total = float(dens.sum())
        if total == 0.0:
            return 0.0
        return edge / total


# -- module actions ---------------------------------------------------------


def _powers(ex: np.ndarray, lo: int, hi: int, unit=1.0) -> np.ndarray:
    """Rows unit * ex^r for lo <= r <= hi, lo <= 0 <= hi, by recurrence from
    r = 0 (|ex| = 1, so the inverse is the conjugate)."""
    powers = np.empty((hi - lo + 1, ex.size), dtype=complex)
    powers[-lo] = unit
    for r in range(1, hi + 1):
        np.multiply(powers[r - 1 - lo], ex, out=powers[r - lo])
    inv = np.conj(ex)
    for r in range(-1, lo - 1, -1):
        np.multiply(powers[r + 1 - lo], inv, out=powers[r - lo])
    return powers


def _torus_action(f: HeisenbergElement, b: TorusElement, scale: float, shift: float,
                  drift: float, nums, sources) -> HeisenbergElement:
    """The module action of b = sum b_{rs} U^r V^s on f, shared by both sides.

    Output sector k at x is
        sum_{r,s} b_{rs} e^{2 pi i r (x/scale + drift s - nums(k, s)/c_m)}
                  f(x + shift s, sources(k, s)).
    A row is one pair (k, s), read by `translate`.  Its phase is the powers
    of e^{2 pi i x/scale}, one table for every row, contracted with one
    weight per (k, s, r): b_{rs} e^{2 pi i r drift s} times the root of
    unity of the integer residue of r nums(k, s) mod c_m.  A block of rows
    is whole sectors k, or part of the V powers of one sector when they
    alone pass _ROW_BUDGET: one read, one contraction over the powers it
    uses, and a sum over s into its sectors.  A block with no shift reads
    the samples themselves.
    """
    c = f.ctx.c(f.m)
    S = f.samples.shape[0]
    out = np.zeros_like(f.samples)
    if not b.coeffs:
        return f._with_owned(out)
    keys = np.array(list(b.coeffs), dtype=np.int64)
    lo, hi = min(0, keys[:, 0].min()), max(0, keys[:, 0].max())
    rs = np.arange(lo, hi + 1)
    vs, at = np.unique(keys[:, 1], return_inverse=True)
    coeffs = np.zeros((vs.size, rs.size), dtype=complex)
    coeffs[at, keys[:, 0] - lo] = list(b.coeffs.values())
    coeffs *= np.exp(2j * np.pi * drift * np.outer(vs, rs))
    # the powers that V power s uses: rs[first[s]:last[s]]
    used = coeffs != 0
    first, last = used.argmax(axis=1), rs.size - used[:, ::-1].argmax(axis=1)
    ks = np.arange(S)[:, None]
    weights = coeffs * np.exp(-2j * np.pi * ((rs * (nums(ks, vs) % c)[..., None]) % c) / c)
    shifts = shift * vs
    sectors = sources(ks, vs)
    powers = _powers(np.exp(2j * np.pi * (f.grid.xs / scale)), lo, hi)
    k_step = max(1, _ROW_BUDGET // vs.size)
    s_step = min(vs.size, _ROW_BUDGET)
    for k0 in range(0, S, k_step):
        k1 = min(k0 + k_step, S)
        for s0 in range(0, vs.size, s_step):
            s1 = min(s0 + s_step, vs.size)
            span = slice(first[s0:s1].min(), last[s0:s1].max())
            phase = np.einsum("ksr,rx->ksx", weights[k0:k1, s0:s1, span], powers[span],
                              optimize=False)
            if shifts[s0:s1].any():
                phase *= f.translate(shifts[s0:s1], sectors[k0:k1, s0:s1])
            else:
                phase *= f.samples[sectors[k0:k1, s0:s1]]
            out[k0:k1] += phase.sum(axis=1)
    return f._with_owned(out)


def _generator(gen: str, theta: float) -> TorusElement:
    if gen == "U":
        return TorusElement.U(theta)
    if gen == "V":
        return TorusElement.V(theta)
    raise ValueError("gen must be 'U' or 'V'")


def right_act(gen: str, f: HeisenbergElement) -> HeisenbergElement:
    """f . U or f . V."""
    return right_act_torus(f, _generator(gen, f.ctx.theta_float))


def left_act(gen: str, f: HeisenbergElement) -> HeisenbergElement:
    """U . f or V . f."""
    return left_act_torus(_generator(gen, f.ctx.theta_float), f)


def right_act_torus(f: HeisenbergElement, b: TorusElement) -> HeisenbergElement:
    """f . b for b = sum b_{rs} U^r V^s.

    (f.U)(x,k) = e^{2 pi i (x - k d_m/c_m)} f(x,k);
    (f.V)(x,k) = f(x - eps^m/c_m, k-1).  The monomial U^r V^s reads sector
    k - s at x - s eps^m/c_m, and its U phase at those translated points is
    e^{2 pi i r x} e^{-2 pi i r s eps^m/c_m} e^{-2 pi i r (k - s) d_m/c_m}.
    """
    p = f.ctx.power(f.m)
    S = f.samples.shape[0]
    step = f.ctx.eps_pow_float(f.m) / p.c
    return _torus_action(f, b, 1.0, -step, -step,
                         lambda k, s: (k - s) * p.d, lambda k, s: (k - s) % S)


def left_act_torus(b: TorusElement, f: HeisenbergElement) -> HeisenbergElement:
    """b . f: per monomial, first V^s (translation by s/c_m and sector
    shift by s a_m), then the U^r phase e^{2 pi i r (x/eps^m - k/c_m)}."""
    p = f.ctx.power(f.m)
    S = f.samples.shape[0]
    return _torus_action(f, b, f.ctx.eps_pow_float(f.m), -1.0 / p.c, 0.0,
                         lambda k, s: k, lambda k, s: (k - s * p.a) % S)


# -- star --------------------------------------------------------------------


def star_heis(f: HeisenbergElement) -> HeisenbergElement:
    """f*(x, k) = conj(f(eps^m x, -a_m k)), landing in grade -m."""
    ctx, grid, m = f.ctx, f.grid, f.m
    p = ctx.power(m)
    S = f.samples.shape[0]
    xs = grid.xs
    pts = ctx.eps_pow_float(m) * xs
    out = np.empty_like(f.samples)
    for start in range(0, S, _ROW_BUDGET):
        ks = np.arange(start, min(start + _ROW_BUDGET, S))
        out[ks] = np.conj(f.evaluate(pts, (-p.a * ks) % S))
    if f.samples.any() and not out.any():
        raise WindowOverflow(
            f"star of grade {m} is zero on the grid though its argument is not; "
            "refine N or enlarge L"
        )
    res = HeisenbergElement._owning(-m, out, ctx, grid)
    # rescaling by eps^{-m} stretches the data; refuse when the result
    # carries real mass in the outer band (factor 100 leaves room for the
    # ordinary tail of admissible vectors)
    if res.boundary_fraction() > 100.0 * grid.tol:
        raise WindowOverflow(
            f"star of grade {m} pushed {res.boundary_fraction():.2e} of the mass "
            f"into the outer band; enlarge L"
        )
    return res


# -- twisted derivations ------------------------------------------------------


def _derivative(samples: np.ndarray, h: float) -> np.ndarray:
    """4th-order centered first derivative, zero outside the window
    (Schwartz decay): (f[j-2] - 8 f[j-1] + 8 f[j+1] - f[j+2]) / (12 h),
    written into one array by slice updates."""
    out = np.zeros_like(samples)
    out[:, :-1] += samples[:, 1:]
    out[:, 1:] -= samples[:, :-1]
    out *= 8.0
    out[:, 2:] += samples[:, :-2]
    out[:, :-2] -= samples[:, 2:]
    out /= 12.0 * h
    return out


def partial_heis(j: int, f: HeisenbergElement) -> HeisenbergElement:
    """partial_1 = -i d/dx; partial_2 = multiplication by 2 pi eps^{-m} c_m x."""
    if j == 1:
        return f._with_owned(-1j * _derivative(f.samples, f.grid.h))
    if j == 2:
        coef = TWO_PI * float(f.ctx.eps_pow(-f.m) * f.ctx.c(f.m))
        return f._with_owned(coef * f.grid.xs[None, :] * f.samples)
    raise ValueError("j must be 1 or 2")


# -- graded elements -----------------------------------------------------------


class GradedElement:
    """Finite sum of graded parts: grade 0 exact, other grades on the grid.

    Both kinds of part have scale, star, sigma and delta(j), so `scale`,
    `sigma`, `star_P` and `partial` act part by part with no grade-0 case.
    """

    __slots__ = ("parts", "ctx", "grid")

    def __init__(self, parts: dict, ctx: ThetaContext, grid: GridSpec):
        clean = {}
        for m, part in parts.items():
            if m == 0:
                if not isinstance(part, TorusElement):
                    raise TypeError("grade 0 part must be a TorusElement")
                if part.theta != ctx.theta_float:
                    raise ValueError(f"the grade 0 part has theta {part.theta}, "
                                     f"not the context's {ctx.theta_float}")
                if part.coeffs:
                    clean[0] = part
            else:
                if not isinstance(part, HeisenbergElement):
                    raise TypeError("nonzero grades must be HeisenbergElements")
                if part.ctx is not ctx or part.grid != grid:
                    raise ValueError(f"the grade {m} part lies on another grid or context")
                clean[m] = part
        object.__setattr__(self, "parts", clean)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "grid", grid)

    def __setattr__(self, *a):
        raise AttributeError("GradedElement is immutable")

    @classmethod
    def from_torus(cls, b: TorusElement, ctx, grid) -> "GradedElement":
        return cls({0: b}, ctx, grid)

    @classmethod
    def from_heis(cls, f: HeisenbergElement) -> "GradedElement":
        return cls({f.m: f}, f.ctx, f.grid)

    def grades(self):
        return sorted(self.parts)

    def part(self, m: int):
        if m == 0:
            return self.parts.get(0, TorusElement.zero(self.ctx.theta_float))
        return self.parts.get(m)

    def _compat(self, other: "GradedElement"):
        if self.ctx is not other.ctx or self.grid != other.grid:
            raise ValueError("incompatible contexts")

    def __add__(self, other):
        self._compat(other)
        out = dict(self.parts)
        for m, p in other.parts.items():
            out[m] = (out[m] + p) if m in out else p
        return GradedElement(out, self.ctx, self.grid)

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "GradedElement":
        return GradedElement({m: p.scale(c) for m, p in self.parts.items()}, self.ctx, self.grid)

    # the coefficient protocol of torus.Form, shared with TorusElement; each
    # method calls its module function, so wrapping that function is seen
    def __mul__(self, other):
        return mul_P(self, other) if isinstance(other, GradedElement) else self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def star(self) -> "GradedElement":
        return star_P(self)

    def sigma(self) -> "GradedElement":
        return sigma(self)

    def delta(self, j: int) -> "GradedElement":
        return partial(j, self)

    def norm(self) -> float:
        return math.sqrt(sum(p.norm() ** 2 for p in self.parts.values()))

    def is_zero(self, tol=0.0) -> bool:
        return self.norm() <= tol


def sigma(p: GradedElement) -> GradedElement:
    """Grade-wise scaling by eps^{-m}; the twisting automorphism."""
    return GradedElement({m: part.sigma() for m, part in p.parts.items()}, p.ctx, p.grid)


def star_P(p: GradedElement) -> GradedElement:
    """The star of each part, from grade m to grade -m."""
    return GradedElement({-m: part.star() for m, part in p.parts.items()}, p.ctx, p.grid)


def partial(j: int, p: GradedElement) -> GradedElement:
    """Grade-preserving twisted derivations; grade 0 restricts to delta_j."""
    return GradedElement({m: part.delta(j) for m, part in p.parts.items()}, p.ctx, p.grid)


# -- graded multiplication ------------------------------------------------------


def _pair_to_torus(f: HeisenbergElement, g: HeisenbergElement) -> TorusElement:
    """Product P_{-m} x P_m -> A_theta.

    Coefficient of U^{n1} V^{n2}:
        sum_k int (V^{-n2} U^{-n1} . f)(x/eps^m, k) g(x, -a_m k) dx
    with m the grade of g.  Normal-ordering the acting monomial gives
    V^{-n2} U^{-n1} = e^{2 pi i theta n1 n2} U^{-n1} V^{-n2}.

    One interpolation per V power; U phases are evaluated analytically at
    the scaled points.  The V box grows adaptively (the coefficient decay
    is set by overlap of translates, which is slow when the first factor
    has positive grade), the U box is grid.modes + 4 since Fourier decay
    of Schwartz data is fast; both warn when the cap is hit non-negligibly.

    The U phase of sector k at the scaled points factors as
    e0(x)^{n1} omega^{k n1}, with e0 = e^{-2 pi i x/(eps^m eps^{m_f})} and
    omega = e^{2 pi i/c_f}.  The powers of e0, times the trapezoid weights,
    form one (2 b1 + 1, N) table built by recurrence, and the powers of
    omega one (2 b1 + 1, S) matrix, so each V-row is S spline reads, one
    contraction over the grid points and a sum over sectors.  The rows
    (n2, k) are read in blocks of at most _ROW_BUDGET: first every row
    |n2| < modes, which the stopping rule never skips, then the pairs
    (n2, -n2), two to a call while the last pair was loud and one after a
    quiet pair.  The rule, replayed pair by pair, stops after two quiet
    pairs in a row, which is always the last pair of a call: every pair
    read is one that a pair-by-pair read takes, so the coefficients, keys
    and warnings are the same.
    """
    ctx, grid = f.ctx, f.grid
    m = g.m
    p = ctx.power(m)
    pf = ctx.power(f.m)
    S = g.samples.shape[0]
    xs = grid.xs
    scaled = xs / ctx.eps_pow_float(m)
    b1 = grid.modes + 4
    n2_cap = 8 * grid.modes
    g_rows = g.samples[[(-p.a * k) % S for k in range(S)]]
    n1s = np.arange(-b1, b1 + 1)
    e0 = np.exp(-2j * np.pi * scaled / ctx.eps_pow_float(f.m))
    weighted = _powers(e0, -b1, b1, grid.weights)
    roots = np.exp(2j * np.pi * np.outer(n1s, np.arange(S)) / pf.c)

    def v_rows(n2s: np.ndarray) -> np.ndarray:
        # (V^{-n2} f)(y, k) = f(y + n2/c_f, k + n2 a_f): fuse the translation
        # into one evaluation of the original spline so mass that leaves the
        # window is still seen; then exact U phases per n1 on top
        vals = np.zeros((n2s.size, n1s.size), dtype=complex)
        width = min(S, _ROW_BUDGET)
        per_block = _ROW_BUDGET // width
        for start in range(0, n2s.size, per_block):
            shifts = n2s[start:start + per_block]
            pts = scaled + (shifts / pf.c)[:, None, None]
            for k0 in range(0, S, width):
                ks = np.arange(k0, min(k0 + width, S))
                rows = f.evaluate(pts, (ks + shifts[:, None] * pf.a) % S)
                rows *= g_rows[ks]
                # sum over the grid per (n1, sector), then over sectors with the roots
                per_sector = np.einsum("nj,rkj->rnk", weighted, rows, optimize=False)
                vals[start:start + per_block] += (per_sector * roots[:, ks]).sum(axis=2)
        vals *= np.exp(2j * np.pi * ((ctx.theta_float * n1s * n2s[:, None]) % 1.0))
        return vals

    coeffs: dict = {}

    def keep(n2s, vals) -> float:
        for n2, row in zip(n2s, vals.tolist()):
            for n1, val in zip(n1s.tolist(), row):
                coeffs[(n1, n2)] = val
        return float(np.max(np.abs(vals)))

    first = [0] + [n for n2 in range(1, grid.modes) for n in (n2, -n2)]
    total_max = keep(first, v_rows(np.array(first)))
    quiet = 0
    n2 = max(grid.modes - 1, 0)
    while n2 < n2_cap and quiet < 2:
        # the rule stops after two quiet pairs in a row, so it reads at
        # least 2 - quiet more pairs, and it can stop only after the last
        block = np.arange(n2 + 1, min(n2 + 2 - quiet, n2_cap) + 1)
        vals = v_rows(np.stack([block, -block], axis=1).ravel())
        for n2, pair in zip(block.tolist(), vals.reshape(-1, 2, n1s.size)):
            row = keep((n2, -n2), pair)
            total_max = max(total_max, row)
            if row <= grid.tol * max(total_max, 1e-300):
                quiet += 1
            else:
                quiet = 0
    if quiet < 2 and total_max > 0:
        warnings.warn(
            f"V-mode cap {n2_cap} hit with non-negligible coefficients",
            TruncationWarning,
            stacklevel=3,
        )
    # prune the numerical noise floor; keeps downstream module actions sparse
    return TorusElement(ctx.theta_float, coeffs, tol=1e-9 * total_max)


def _pair_to_heis(f: HeisenbergElement, g: HeisenbergElement) -> HeisenbergElement:
    """Product P_m x P_n -> P_{m+n} for m, n, m+n all nonzero.

    (f.g)(x,k) = sum_i f(x/eps^n - eps^m (i/c_m + k/c_{m+n}), -i)
                       . g(x + i/c_n + c_m k/(c_n c_{m+n}), k + a_n i),
    sectors mod |c_m| and |c_n|, k mod |c_{m+n}|; the lattice sum is taken
    over an adaptive window around its center -c_m k / c_{m+n}, capped at
    J * max(|c_m|, |c_n|) terms per side.  The terms i of one output
    sector are read in blocks of _ROW_BUDGET: the f-factor, on a scaled
    grid, by `evaluate`, and the g-factor, on a translated one, by
    `translate`.
    """
    ctx, grid = f.ctx, f.grid
    m, n = f.m, g.m
    cm, cn, cmn = ctx.c(m), ctx.c(n), ctx.c(m + n)
    an = ctx.power(n).a
    em, en = ctx.eps_pow_float(m), ctx.eps_pow_float(n)
    Sf, Sg = abs(cm), abs(cn)
    S = abs(cmn)
    L = grid.L
    # window: both factors must be inside their decay windows
    wf = abs(cm) * L * (1.0 + 1.0 / en) / em
    wg = abs(cn) * 2.0 * L
    cap = grid.J * max(Sf, Sg)
    W = min(max(wf, 1.0), max(wg, 1.0), cap)
    scaled = grid.xs / en
    out = np.zeros((S, grid.N), dtype=complex)
    edge_mass = 0.0
    for k in range(S):
        center = -cm * k / cmn
        i_lo = math.ceil(center - W)
        i_hi = math.floor(center + W)
        for start in range(i_lo, i_hi + 1, _ROW_BUDGET):
            block = range(start, min(start + _ROW_BUDGET, i_hi + 1))
            i = np.array(block)
            terms = f.evaluate(scaled - (em * (i / cm + k / cmn))[:, None], (-i) % Sf)
            terms *= g.translate(i / cn + cm * k / (cn * cmn), (k + an * i) % Sg)
            out[k] += terms.sum(axis=0)
            for j in (i_lo, i_hi):
                if j in block:
                    edge_mass = max(edge_mass, float(np.max(np.abs(terms[j - start]))))
    scale = float(np.max(np.abs(out))) if out.size else 0.0
    if scale > 0 and edge_mass > grid.tol * scale:
        warnings.warn(
            f"lattice window {W:.1f} leaves edge terms at {edge_mass/scale:.2e} "
            "relative size",
            TruncationWarning,
            stacklevel=3,
        )
    res = HeisenbergElement._owning(m + n, out, ctx, grid)
    # products across widely separated grades spread at rate
    # eps^n |c_{m+n}| / (|c_m| |c_n|) per lattice step and can genuinely
    # outgrow the window; surface that instead of silently clipping
    if res.boundary_fraction() > 100.0 * grid.tol:
        warnings.warn(
            f"product P_{m} x P_{n} leaves {res.boundary_fraction():.2e} of its "
            "mass in the outer band; result is window-clipped",
            TruncationWarning,
            stacklevel=3,
        )
    return res


def _mul_parts(a, b):
    """Dispatch one graded pair; returns (grade, part)."""
    a_is_t = isinstance(a, TorusElement)
    b_is_t = isinstance(b, TorusElement)
    if a_is_t and b_is_t:
        return 0, a * b
    if a_is_t:
        return b.m, left_act_torus(a, b)
    if b_is_t:
        return a.m, right_act_torus(a, b)
    if a.m + b.m == 0:
        return 0, _pair_to_torus(a, b)
    return a.m + b.m, _pair_to_heis(a, b)


def mul_P(p: GradedElement, q: GradedElement) -> GradedElement:
    """Bilinear graded product; P_m . P_n lands in P_{m+n}."""
    p._compat(q)
    acc: dict = {}
    for pa in p.parts.values():
        for qa in q.parts.values():
            grade, part = _mul_parts(pa, qa)
            acc[grade] = (acc[grade] + part) if grade in acc else part
    return GradedElement(acc, p.ctx, p.grid)


# -- test vectors -----------------------------------------------------------------


def natural_width(ctx: ThetaContext, m: int) -> float:
    """Width scale sqrt(eps^m / |c_m|) of the grade-m coherent vectors.

    Gaussians of this width form a star-closed family (star maps the
    grade-m natural width to the grade minus-m one) and their graded
    products stay localized; far-from-natural widths produce genuinely
    delocalized products that no fixed window holds.
    """
    return math.sqrt(ctx.eps_pow_float(m) / abs(ctx.c(m)))


def gaussian(
    ctx: ThetaContext,
    grid: GridSpec,
    m: int,
    center: float = 0.0,
    width: float | None = None,
    sector_weights=None,
    momentum: float = 0.0,
) -> HeisenbergElement:
    """Gaussian packet exp(-(x-c)^2/(2 w^2)) e^{2 pi i p x} per sector.

    width defaults to the grade's natural width.
    """
    S = sector_count(ctx, m)
    if width is None:
        width = natural_width(ctx, m)
    xs = grid.xs
    base = np.exp(-((xs - center) ** 2) / (2.0 * width**2)) * np.exp(
        2j * np.pi * momentum * xs
    )
    if sector_weights is None:
        sector_weights = np.ones(S)
    samples = np.outer(np.asarray(sector_weights, dtype=complex), base)
    return HeisenbergElement._owning(m, samples, ctx, grid)


def random_packet(
    ctx: ThetaContext,
    grid: GridSpec,
    m: int,
    rng: np.random.Generator,
    terms: int = 2,
) -> HeisenbergElement:
    """Random Schwartz-class vector: Gaussians times low-degree polynomials,
    widths jittered around the grade's natural width."""
    S = sector_count(ctx, m)
    xs = grid.xs
    w0 = natural_width(ctx, m)
    samples = np.zeros((S, grid.N), dtype=complex)
    for _ in range(terms):
        c = rng.uniform(-0.6, 0.6)
        w = w0 * rng.uniform(0.85, 1.15)
        mom = rng.uniform(-0.4, 0.4)
        poly = rng.standard_normal() + rng.standard_normal() * (xs - c) / 2.0
        base = (
            poly
            * np.exp(-((xs - c) ** 2) / (2 * w * w))
            * np.exp(2j * np.pi * mom * xs)
        )
        weights = rng.standard_normal(S) + 1j * rng.standard_normal(S)
        samples += np.outer(weights, base)
    return HeisenbergElement._owning(m, samples, ctx, grid)
