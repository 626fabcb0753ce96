"""Two-time correlations, the Leggett-Garg parameter, and violation search.

The correlation C(theta) = (1/d) Tr[A U(theta) A U(-theta)] is evaluated
through its Fourier form over the J_x spectrum:

    C(theta) = (1/d) sum_{k,l} |A~_{kl}|^2 cos((lam_k - lam_l) theta),

with A~ = V^T A V.  The weights |A~_{kl}|^2 belong to the measurement
(meas.weights).  Each gap lam_k - lam_l is the integer k - l, one of the
2d - 1 frequencies of the spin system (sys.frequencies), so a point costs
O(d) trig plus an O(d^2) Toeplitz copy and dot product.  A theta grid is
evaluated in blocks of at most BLOCK_ELEMENTS table values, for a whole
stack of weights (one per b) at once, with one np.vecdot per block for each
of C(theta), C(3 theta), C' and C''; the evaluator returns C and
K_LG = 3 C(theta) - C(3 theta), and every public function reads its columns.
Each sum runs over (k, l) in the order of a direct d^2 evaluation and equals
it bit for bit.  A non-finite theta, or one whose largest phase
3 theta (d - 1) overflows, is a ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from .measurement import NoisyDichotomicMeasurement, _squared_transform
from .spin import SpinSystem

# Brent's golden-section step: this fraction of the larger part of the bracket.
GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0

# Largest number of (theta, gap) table elements per block: a block holds
# max(1, BLOCK_ELEMENTS // d^2) thetas, so each Toeplitz table stays within
# 512 KiB and is one theta wide from two_j = 255 on, whatever the grid size.
BLOCK_ELEMENTS = 2 ** 16

# Largest grid count, for every "lo:hi:count" sweep grid and every
# max_violation grid; about 2000x the largest figure grid (512).
MAX_GRID_COUNT = 10 ** 6


def _block_size(sys: SpinSystem) -> int:
    """Rows of d^2 values per block: thetas per Toeplitz table, or b values per weight stack."""
    return max(1, BLOCK_ELEMENTS // sys.dim ** 2)


def _check_phases(sys: SpinSystem, thetas) -> None:
    """ValueError for a non-finite theta, or one whose largest phase 3 theta (d - 1) overflows."""
    thetas = np.asarray(thetas, float)
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(3.0 * thetas * (sys.dim - 1))
    if bad.any():
        theta = float(thetas[bad][0])
        raise ValueError(("theta must be finite, got %r" % theta) if not math.isfinite(theta) else
                         "theta=%r is too large: 3 theta times %d overflows" % (theta, sys.dim - 1))


def _toeplitz(table: np.ndarray) -> np.ndarray:
    """C-contiguous (T, d^2) copy of a (T, 2d - 1) table, [t, k d + l] = table[t, k - l + d - 1].

    One reshape copies the reversed rows r as [t, k, l] = r[t, d - 1 - k + l], offsets checked.
    """
    t, d, step = len(table), (table.shape[1] + 1) // 2, table.itemsize
    r = table[:, ::-1].copy()
    view = np.ndarray((t, d, d), r.dtype, r, (d - 1) * step, (r.strides[0], -step, step))
    return view.reshape(t, d * d)


def _fourier_sums(sys: SpinSystem, weights: np.ndarray, thetas,
                  derivatives: bool) -> np.ndarray:
    """(C, K_LG), or (C, K_LG, dC/dtheta, d2C/dtheta2) if derivatives, per (b, theta).

    Shape (B, T, 2) or (B, T, 4) for a (B, d^2) stack of weights, with
    K_LG = 3 C(theta) - C(3 theta).  Each block of thetas gets one (theta, frequency)
    cos/sin table per angle, copied by _toeplitz into a (theta, k l) array shared by all
    B weight rows.  np.vecdot of it with the broadcast weights calls, once per (b, theta),
    the same ddot that np.dot calls on two 1-D arrays, so each sum equals the direct d^2
    sum bit for bit; a matrix product (gemv, gemm, einsum) sums in another order.
    """
    if weights.shape[-1] != sys.dim ** 2:
        raise ValueError("measurement weights have %d columns, but a spin of dimension %d needs "
                         "%d: the measurement was built on another spin"
                         % (weights.shape[-1], sys.dim, sys.dim ** 2))
    thetas = np.asarray(thetas, float)
    # checked here, so no trig sees inf or nan
    _check_phases(sys, thetas)
    w = weights[:, None]
    if derivatives:
        g = _toeplitz(sys.frequencies[None])[0]
        wg = w * g
        wg2 = wg * g
    out = np.empty((len(weights), thetas.size, 4 if derivatives else 2))
    step = _block_size(sys)
    for start in range(0, thetas.size, step):
        t = thetas[start:start + step]
        block = out[:, start:start + step]
        phases = np.multiply.outer(3.0 * t, sys.frequencies)
        block[..., 1] = np.vecdot(_toeplitz(np.cos(phases)), w)
        phases = np.multiply.outer(t, sys.frequencies)
        cos_gt = _toeplitz(np.cos(phases))
        block[..., 0] = np.vecdot(cos_gt, w)
        if derivatives:
            block[..., 2] = -np.vecdot(_toeplitz(np.sin(phases)), wg)
            block[..., 3] = -np.vecdot(cos_gt, wg2)
    out /= sys.dim
    # after the division, as 3.0 * C(theta) - C(3.0 * theta) of two returned values
    out[..., 1] = 3.0 * out[..., 0] - out[..., 1]
    return out


def correlation(sys: SpinSystem, meas: NoisyDichotomicMeasurement, theta: float) -> float:
    """C(theta); real, even, 2*pi periodic, bounded by C(0) = Tr A^2 / d."""
    return float(_fourier_sums(sys, meas.weights[None], [theta], False)[0, 0, 0])


def correlation_derivatives(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                            theta: float) -> tuple[float, float, float]:
    """(C, dC/dtheta, d2C/dtheta2) from the analytic Fourier form."""
    return tuple(_fourier_sums(sys, meas.weights[None], [theta], True)[0, 0, [0, 2, 3]].tolist())


def klg_equal_interval(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                       theta: float) -> float:
    """Equal-interval Leggett-Garg parameter 3 C(theta) - C(3 theta)."""
    return float(_fourier_sums(sys, meas.weights[None], [theta], False)[0, 0, 1])


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
    _check_phases(sys, (theta_lo, theta_hi))
    if theta_lo > theta_hi:
        raise ValueError("theta_lo must not exceed theta_hi")
    if not isinstance(grid_points, (int, np.integer)):
        raise ValueError("grid_points must be an integer, got %r" % (grid_points,))
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    if grid_points > MAX_GRID_COUNT:
        raise ValueError("grid_points %d exceeds the limit of %d" % (grid_points, MAX_GRID_COUNT))
    if theta_lo == theta_hi:
        return float(theta_lo), abs(klg_equal_interval(sys, meas, theta_lo))

    def f(theta: float) -> float:
        return -abs(klg_equal_interval(sys, meas, theta))

    grid = np.linspace(theta_lo, theta_hi, grid_points)
    values = np.abs(_fourier_sums(sys, meas.weights[None], grid, False)[0, :, 1])
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
