"""Two-time correlations, the Leggett-Garg parameter, and violation search.

The correlation C(theta) = (1/d) Tr[A U(theta) A U(-theta)] is evaluated
through its Fourier form over the J_x spectrum:

    C(theta) = (1/d) sum_{k,l} |A~_{kl}|^2 cos((lam_k - lam_l) theta),

with A~ = V^dag A V.  The weights |A~_{kl}|^2 belong to the measurement
(meas.weights) and the gaps lam_k - lam_l to the spin system (sys.gaps), so
C and its analytic theta-derivatives cost O(d^2) per point.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .measurement import NoisyDichotomicMeasurement
from .spin import SpinSystem

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def correlation(sys: SpinSystem, meas: NoisyDichotomicMeasurement, theta: float) -> float:
    """C(theta); real, even, 2*pi periodic, bounded by C(0) = Tr A^2 / d."""
    return float(np.dot(meas.weights, np.cos(sys.gaps * theta))) / sys.dim


def correlation_two_time(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                         t_i: float, t_j: float) -> float:
    """C_ij for measurements at t_i and t_j; stationary because rho_0 = I/d."""
    return correlation(sys, meas, t_j - t_i)


def correlation_derivatives(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                            theta: float) -> tuple[float, float, float]:
    """(C, dC/dtheta, d2C/dtheta2) from the analytic Fourier form."""
    w, g = meas.weights, sys.gaps
    gt = g * theta
    cos_gt = np.cos(gt)
    wg = w * g
    c = float(np.dot(w, cos_gt)) / sys.dim
    c1 = -float(np.dot(wg, np.sin(gt))) / sys.dim
    c2 = -float(np.dot(wg * g, cos_gt)) / sys.dim
    return c, c1, c2


def klg_equal_interval(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                       theta: float) -> float:
    """Equal-interval Leggett-Garg parameter 3 C(theta) - C(3 theta)."""
    return 3.0 * correlation(sys, meas, theta) - correlation(sys, meas, 3.0 * theta)


def klg_four_time(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                  t1: float, t2: float, t3: float, t4: float) -> float:
    """Four-time Leggett-Garg parameter C12 + C23 + C34 - C14."""
    if not (t1 <= t2 <= t3 <= t4):
        warnings.warn("measurement times are not ordered t1 <= t2 <= t3 <= t4",
                      stacklevel=2)
    return (correlation_two_time(sys, meas, t1, t2)
            + correlation_two_time(sys, meas, t2, t3)
            + correlation_two_time(sys, meas, t3, t4)
            - correlation_two_time(sys, meas, t1, t4))


def max_violation(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                  theta_lo: float, theta_hi: float,
                  grid_points: int = 512) -> tuple[float, float]:
    """Locate the maximum of |K_LG| on [theta_lo, theta_hi].

    Dense-grid argmax followed by golden-section refinement of the bracketing
    interval down to a theta error of 1e-8.  Returns (theta_star, k_max).
    """
    if theta_lo > theta_hi:
        raise ValueError("theta_lo must not exceed theta_hi")
    if theta_lo == theta_hi:
        return theta_lo, abs(klg_equal_interval(sys, meas, theta_lo))
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")

    def f(theta: float) -> float:
        return abs(klg_equal_interval(sys, meas, theta))

    grid = np.linspace(theta_lo, theta_hi, grid_points)
    values = np.array([f(t) for t in grid])
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_points - 1)]

    # golden-section maximization on [lo, hi]
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-8:
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
