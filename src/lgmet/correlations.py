"""Two-time correlations, the Leggett-Garg parameter, and violation search.

The correlation C(theta) = (1/d) Tr[A U(theta) A U(-theta)] is evaluated
through its Fourier form over the J_x spectrum:

    C(theta) = (1/d) sum_{k,l} |A~_{kl}|^2 cos((lam_k - lam_l) theta),

with A~ = V^T A V.  The weights |A~_{kl}|^2 belong to the measurement
(meas.weights).  Each gap lam_k - lam_l is the integer k - l, one of the
2d - 1 frequencies -(d - 1), ..., d - 1, so a point costs O(d) trig plus an
O(d^2) Toeplitz copy and dot product.  One primitive, _series, sums
sum_kl w_kl trig((k - l) theta) / d over a theta grid for a whole stack of
weights (one per b) at once, in Toeplitz tables of at most BLOCK_ELEMENTS
values at every spin: a table holds several thetas while d^2 fits the budget,
and a chunk of rows k of one theta above it, with one np.vecdot per table.
With g the d^2 gap table k - l, each quantity is one call: C and C(3 theta)
are cos series of w, C' = -(sin series of w g) and C'' = -(cos series of
(w g) g).  _correlation_klg returns C and K_LG = 3 C(theta) - C(3 theta) for
the sweep rows, klg_equal_interval and max_violation.  Each sum runs over
(k, l) in the order of a direct d^2 evaluation, chunk by chunk, and equals it
bit for bit.  A non-finite theta, or one whose
largest phase 3 |theta| (d - 1) overflows or reaches 2**54 (where a phase's
float spacing passes pi), is a ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from .measurement import NoisyDichotomicMeasurement, _squared_transform
from .spin import SpinSystem

# Brent's golden-section step: this fraction of the larger part of the bracket.
GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0

# Largest number of values in a Toeplitz table, and in a b block's weight stack:
# 512 KiB at every spin, so a table and the weight slice it is dotted with stay in
# L2 together.  While d^2 fits (two_j <= 255) a table holds BLOCK_ELEMENTS // d^2
# thetas of all d rows k, and above that BLOCK_ELEMENTS // d rows k of one theta.
BLOCK_ELEMENTS = 2 ** 16

# Largest grid count, for every "lo:hi:count" sweep grid and every
# max_violation grid; about 2000x the largest figure grid (512).
MAX_GRID_COUNT = 10 ** 6

# Bound on the largest phase 3 |theta| (d - 1): from 2**54 on, the float spacing
# of a phase is 4 or more, past pi, so its cos and sin are rounding noise.
MAX_PHASE = 2.0 ** 54


def _block_size(sys: SpinSystem) -> int:
    """Rows of d^2 values per block: b values per weight stack in scan.sweep, and, while
    d^2 fits the budget, the thetas per _series table."""
    return max(1, BLOCK_ELEMENTS // sys.dim ** 2)


def _check_phases(dim: int, thetas) -> None:
    """ValueError for a non-finite theta, or one whose largest phase 3 |theta| (dim - 1)
    overflows or reaches MAX_PHASE."""
    thetas = np.asarray(thetas, float)
    with np.errstate(over="ignore"):
        phases = np.abs(3.0 * thetas * (dim - 1))
    bad = ~np.isfinite(phases)
    if bad.any():
        theta = float(thetas[bad][0])
        raise ValueError(("theta must be finite, got %r" % theta) if not math.isfinite(theta) else
                         "theta=%r rad is too large: 3 theta times %d overflows" % (theta, dim - 1))
    bad = phases >= MAX_PHASE
    if bad.any():
        raise ValueError("theta=%r rad is too large: 3 theta times %d reaches 2**54, where the "
                         "float spacing of a phase passes pi" % (float(thetas[bad][0]), dim - 1))


def _toeplitz(table: np.ndarray, first: int = 0, rows: int | None = None) -> np.ndarray:
    """C-contiguous (T, rows d) Toeplitz copy of rows k = first, ..., first + rows - 1 (all d
    by default) of a (T, 2d - 1) table over the descending frequencies d - 1, ..., -(d - 1):
    [t, (k - first) d + l] = table[t, d - 1 - k + l], the value at frequency k - l.

    One reshape copies the view [t, k, l] = table[t, d - 1 - k + l], offsets checked.  With
    the frequencies descending, the inner (l) axis of that view reads forward, so the
    reshape copies contiguous runs.  A sliding_window_view of an ascending table reads it
    backwards: at two_j = 401 it took 104 us per one-theta table against 45 us for this
    copy (Intel Xeon, best of 7 x 200 calls).
    """
    table = np.ascontiguousarray(table)
    t, d, step = len(table), (table.shape[1] + 1) // 2, table.itemsize
    rows = min(d - first, d if rows is None else rows)
    view = np.ndarray((t, rows, d), table.dtype, table, (d - 1 - first) * step,
                      (table.strides[0], -step, step))
    # one row k of several thetas reshapes to a strided view, not a copy
    return np.ascontiguousarray(view.reshape(t, rows * d))


def _series(sys: SpinSystem, weights: np.ndarray, thetas: np.ndarray, trig) -> np.ndarray:
    """(B, T) sums sum_kl weights[:, k d + l] trig((k - l) theta) / d of a (B, d^2) stack.

    trig is np.cos or np.sin.  The raveled (k, l) axis is cut into chunks of
    min(d, BLOCK_ELEMENTS // d) rows k, and the thetas into blocks that keep a chunk's
    table within BLOCK_ELEMENTS values.  Chunks run outside and theta blocks inside, so a
    chunk's weight slice stays in cache across the grid.  Per (chunk, block), trig is taken
    on the d frequencies n >= 0 and mirrored to -n (cos(-x) = cos(x), sin(-x) = -sin(x) and
    (-n) theta = -(n theta), bit for bit), and _toeplitz copies the chunk's rows of that
    table for all B weight rows.  np.vecdot then calls, per (b, theta), the ddot that np.dot
    calls on two 1-D arrays; a matrix product (gemv, gemm, einsum) sums in another order.
    So up to two_j = 255, where one chunk holds every row, each sum equals the direct d^2
    sum bit for bit; above, the row-chunk dot products added in row order.
    _correlation_klg checks the thetas first.
    """
    d = sys.dim
    rows = min(d, BLOCK_ELEMENTS // d)
    step = max(1, BLOCK_ELEMENTS // (rows * d))
    descending = np.arange(d - 1.0, -1.0, -1.0)
    out = np.empty((len(weights), len(thetas)))
    for first in range(0, d, rows):
        w = weights[:, None, first * d:(first + rows) * d]
        for start in range(0, len(thetas), step):
            block = thetas[start:start + step]
            table = np.empty((len(block), 2 * d - 1))
            # frequencies d - 1, ..., 0, then their mirror -1, ..., -(d - 1)
            half = trig(np.multiply.outer(block, descending), out=table[:, :d])
            if trig is np.sin:
                np.negative(half[:, -2::-1], out=table[:, d:])
            else:
                table[:, d:] = half[:, -2::-1]
            sums = np.vecdot(_toeplitz(table, first, rows), w)
            if first:
                out[:, start:start + step] += sums
            else:
                out[:, start:start + step] = sums
    out /= d
    return out


def _correlation_klg(sys: SpinSystem, weights: np.ndarray, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) arrays C and K_LG = 3 C(theta) - C(3 theta) of a (B, d^2) weight stack.

    The weight shape and _check_phases are checked first, so no trig sees inf or nan.
    """
    if weights.shape[-1] != sys.dim ** 2:
        raise ValueError("measurement weights have %d columns, but a spin of dimension %d needs "
                         "%d: the measurement was built on another spin"
                         % (weights.shape[-1], sys.dim, sys.dim ** 2))
    thetas = np.asarray(thetas, float)
    _check_phases(sys.dim, thetas)
    c = _series(sys, weights, thetas, np.cos)
    return c, 3.0 * c - _series(sys, weights, 3.0 * thetas, np.cos)


def klg_equal_interval(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                       theta: float) -> float:
    """Equal-interval Leggett-Garg parameter 3 C(theta) - C(3 theta)."""
    return float(_correlation_klg(sys, meas.weights[None], [theta])[1][0, 0])


def _klg_kernel(sys: SpinSystem, theta: float) -> np.ndarray:
    """Matrix Q with K_LG(theta) = a^T Q a for every observable diagonal a.

    C(t) = (1/d) sum_kl a_k a_l |U_kl(t)|^2 with U(t) = V diag(e^{-i lam t}) V^T,
    so Q = (3 |U(theta)|^2 - |U(3 theta)|^2) / d, each |U|^2 the sum of the squared
    real and imaginary parts of U.  Each square is added as it is built, so the four
    d x d squares are never live at once.
    """
    lam = np.arange(sys.dim) - sys.two_j / 2

    def square(trig, t):  # the squared real (cos) or imaginary (sin) part of U(t)
        return _squared_transform(sys.eigenvectors, trig(lam * t)[None])[0]

    return (3.0 * square(np.cos, theta) + 3.0 * square(np.sin, theta)
            - square(np.cos, 3.0 * theta) - square(np.sin, 3.0 * theta)) / sys.dim


def max_violation(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                  theta_lo: float, theta_hi: float,
                  grid_points: int = 512) -> tuple[float, float]:
    """Locate the maximum of |K_LG| on [theta_lo, theta_hi].

    Dense-grid argmax, then Brent's method (golden-section and safeguarded
    parabolic steps; Brent 1973, ch. 5) on the bracketing grid interval,
    started at the grid argmax, down to a theta error of 1e-8 (a few float
    spacings for |theta| beyond about 3e7).  Returns (theta_star, k_max), the
    best point evaluated, so k_max is never below the grid maximum.
    """
    # every grid and refinement phase lies between the bound phases 3 theta (d - 1);
    # with d >= 2, finite bound phases also keep the width theta_hi - theta_lo finite
    _check_phases(sys.dim, (theta_lo, theta_hi))
    if theta_lo > theta_hi:
        raise ValueError("theta_lo must not exceed theta_hi")
    if not isinstance(grid_points, (int, np.integer)):
        raise ValueError("grid_points must be an integer, got %r" % (grid_points,))
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    if grid_points > MAX_GRID_COUNT:
        raise ValueError("grid_points %d exceeds the limit of %d" % (grid_points, MAX_GRID_COUNT))

    def f(theta: float) -> float:
        return -abs(klg_equal_interval(sys, meas, theta))

    grid = np.linspace(theta_lo, theta_hi, grid_points)
    values = np.abs(_correlation_klg(sys, meas.weights[None], grid)[1][0])
    i = int(np.argmax(values))
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, grid_points - 1)])

    # Brent's minimization of f = -|K_LG| on [a, b] from x = grid[i], whose value the
    # grid holds.  x is the best point so far, w the second best, v the previous w.
    # tol is 1e-8 or, for |theta| beyond about 3e7, 4 float spacings.  Steps are at
    # least tol1 = tol / 4 long, and the loop ends once x is within 2 tol1 of both ends.
    tol1 = 0.25 * max(1e-8, 4.0 * math.ulp(max(abs(a), abs(b))))
    x = w = v = float(grid[i])
    fx = fw = fv = -float(values[i])
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol1 - 0.5 * (b - a):
            return x, -fx
        p = q = r = 0.0
        if abs(e) > tol1:
            # the parabola through (v, fv), (w, fw), (x, fx) has its vertex at x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            # the vertex lies inside (a, b) and the step is under half the one before last
            d = p / q
            if x + d - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                d = tol1 if x < m else -tol1
        else:
            e = (a if x >= m else b) - x
            d = GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
