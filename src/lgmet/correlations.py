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

from .measurement import NoisyDichotomicMeasurement
from .spin import SpinSystem

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

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
    so Q = (3 |U(theta)|^2 - |U(3 theta)|^2) / d.  The real and imaginary
    parts of U are real matmuls into one buffer, squared and summed in place,
    so three d x d arrays are live at a time.
    """
    v = sys.eigenvectors
    lam = np.arange(sys.dim) - sys.two_j / 2
    kernel, square, scaled = np.zeros_like(v), np.empty_like(v), np.empty_like(v)
    for weight, t in ((3.0, theta), (-1.0, 3.0 * theta)):
        for trig in (np.cos, np.sin):
            np.multiply(v, trig(lam * t), out=scaled)
            np.matmul(scaled, v.T, out=square)  # real or imaginary part of U(t)
            square *= square
            square *= weight
            kernel += square
    kernel /= sys.dim
    return kernel


def max_violation(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                  theta_lo: float, theta_hi: float,
                  grid_points: int = 512) -> tuple[float, float]:
    """Locate the maximum of |K_LG| on [theta_lo, theta_hi].

    Dense-grid argmax followed by golden-section refinement of the bracketing
    interval down to a theta error of 1e-8 (a few float spacings for |theta|
    beyond about 3e7).  Returns (theta_star, k_max).
    """
    if not (math.isfinite(theta_lo) and math.isfinite(theta_hi)):
        raise ValueError("theta_lo and theta_hi must be finite, got %r and %r"
                         % (theta_lo, theta_hi))
    if theta_lo > theta_hi:
        raise ValueError("theta_lo must not exceed theta_hi")
    # every grid and golden-section phase lies between the bound phases 3 theta (d - 1);
    # with d >= 2, finite bound phases also keep the width theta_hi - theta_lo finite
    if not all(math.isfinite(3.0 * float(t) * (sys.dim - 1)) for t in (theta_lo, theta_hi)):
        raise ValueError("theta range [%r, %r] is too large: 3 theta times %d overflows"
                         % (theta_lo, theta_hi, sys.dim - 1))
    if not isinstance(grid_points, (int, np.integer)):
        raise ValueError("grid_points must be an integer, got %r" % (grid_points,))
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    if grid_points > MAX_GRID_COUNT:
        raise ValueError("grid_points %d exceeds the limit of %d" % (grid_points, MAX_GRID_COUNT))
    if theta_lo == theta_hi:
        return theta_lo, abs(klg_equal_interval(sys, meas, theta_lo))

    def f(theta: float) -> float:
        return abs(klg_equal_interval(sys, meas, theta))

    grid = np.linspace(theta_lo, theta_hi, grid_points)
    values = np.abs(_fourier_sums(sys, meas.weights[None], grid, False)[0, :, 1])
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_points - 1)]

    # golden-section maximization on [lo, hi], down to 1e-8 or, for |theta|
    # beyond about 3e7, to 4 float spacings of theta: a bracket of about 3
    # spacings can stop shrinking
    tol = max(1e-8, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
    theta_star = 0.5 * (lo + hi)
    return float(theta_star), f(theta_star)
