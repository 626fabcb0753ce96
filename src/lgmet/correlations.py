"""Two-time correlations, the Leggett-Garg parameter, and violation search.

C(theta) = (1/d) Tr[A U(theta) A U(-theta)] = (1/d) sum_kl W_kl cos((k - l) theta), with
the weights W = (V^T A V)^2 of the observable A = diag(a) over the J_x eigenvectors V.
_coefficients forms, once per caller, what _series sums for a stack of diagonals a (one per
b): up to spin.REFERENCE_DIM the d^2 weights of every level, else d harmonic coefficients,
folded from each b's level-truncated product as it is formed; _series sums C, C' or C'' from
either over a theta grid, by the width it is given.
_correlation_klg gives C and K_LG = 3 C(theta) - C(3 theta) to the sweep rows and
max_violation; _klg_kernel is K_LG at one theta as a quadratic form in the observable
diagonal.  A non-finite theta, or one whose largest phase 3 |theta| (d - 1) overflows or
reaches 2**54, is a ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from .measurement import NoisyDichotomicMeasurement
from .spin import REFERENCE_DIM, SpinSystem

# Largest number of values in a _series table or buffer, in _coefficients' fold buffer and in
# a b block's weight stack (up to REFERENCE_DIM; none exists above): 512 KiB at every spin, so
# that a table and the weights it meets stay in L2.  A memory budget only; it picks no route.
BLOCK_ELEMENTS = 2 ** 16

# Above REFERENCE_DIM, levels with |a_k| < LEVEL_CUTOFF max|a| leave each b's product in
# _coefficients; up to it every level stays.  V is orthogonal, so each entry of V^T A V moves
# by at most LEVEL_CUTOFF max|a|, and, as the Frobenius norms of the dropped part and of
# V^T A V are at most sqrt(d) times that and sqrt(d) max|a|, C = sum_kl W_kl cos / d by at
# most 2 LEVEL_CUTOFF max|a|^2 = 2^-59 max|a|^2 <= 2^-59 sqrt(d) max|a|^2 in exact
# arithmetic.  The truncated and the full gemms have different shapes and round
# differently; as W >= 0, sum_kl W_kl = sum_k a_k^2 scales that rounding.  To first order in
# u = 2^-53, a gemm's |dM| <= (d+1) u |V|^T |A| |V| gives sum_kl |dW_kl| <= sum_kl 2 |M dM|
# <= 2 (d+1) u |a|_1 |a|_2 <= 2 (d+1) sqrt(d) u sum_k a_k^2 (the rows of V have unit norm),
# squaring adds u sum_k a_k^2 and the d^2-term sum over the same cos table d^2 u sum_k a_k^2,
# and C divides them by d: it rounds by at most (d + 2 sqrt(d) + 4) u sum_k a_k^2 per route, so
# the two computed C differ by at most a further (d + 2 sqrt(d) + 4) eps sum_k a_k^2, with
# eps = 2^-52.  (At d = 46 and b = 1.08e-7 they differ by 1.44 exact-arithmetic bounds.)
LEVEL_CUTOFF = 2.0 ** -60

# Largest grid count, for every "lo:hi:count" sweep grid and every
# max_violation grid; about 2000x the largest figure grid (512).
MAX_GRID_COUNT = 10 ** 6

# Most refinement steps of one max_violation search.  A step that bisects halves the
# bracket, and no bracket needs more than about 50 halvings to reach four float spacings.
MAX_NEWTON_STEPS = 64

# Bound on the largest phase 3 |theta| (d - 1): from 2**54 on, the float spacing
# of a phase is 4 or more, past pi, so its cos and sin are rounding noise.
MAX_PHASE = 2.0 ** 54


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


def _coefficients(sys: SpinSystem, a_diags: np.ndarray) -> np.ndarray:
    """What _series sums for a (B, d) stack of observable diagonals, formed once per caller for
    all its orders and thetas: while d <= REFERENCE_DIM the (B, d^2) weights
    w = ((V^T diag(a)) V)^2 raveled over (k, l), one stacked matmul, each slice the gemm of its
    diagonal alone, bit for bit; else the (B, d) c_n + c_-n (n = d - 1, ..., 1) and c_0,
    c_n = sum_{k - l = n} w_kl over each b's kept levels S, |a_k| >= LEVEL_CUTOFF max|a|: its
    ((V_S^T diag(a_S)) V_S)^2 is formed into one reused d x d array, and its rows k go,
    BLOCK_ELEMENTS // (2d - 1) at a time, into a zeroed buffer at [k, d - 1 - k + l], one
    frequency per column; the chunks' column sums over the band they fill are added in row
    order.  ValueError, before any product is formed, unless the diagonals have d levels."""
    d, v = sys.dim, sys.eigenvectors
    if a_diags.shape[-1] != d:
        raise ValueError("measurement diagonal has %d levels, but the spin has dimension %d: "
                         "the measurement was built on another spin" % (a_diags.shape[-1], d))
    if d <= REFERENCE_DIM:
        weights = np.matmul(v.T * a_diags[:, None, :], v)
        weights **= 2
        return weights.reshape(len(a_diags), -1)
    rows = max(1, BLOCK_ELEMENTS // (2 * d - 1))
    product, buffer, sums = np.empty((d, d)), None, np.zeros((len(a_diags), 2 * d - 1))
    for a, c in zip(a_diags, sums):
        keep = np.abs(a) >= LEVEL_CUTOFF * np.abs(a).max()
        v_s = v if keep.all() else v[keep]
        np.matmul(v_s.T * a[keep], v_s, out=product)
        product **= 2
        if buffer is None:  # after the first product, whose temporaries are freed by now
            buffer = np.zeros((rows, 2 * d - 1))
            view = np.ndarray((rows, d), float, buffer, (d - 1) * 8, ((2 * d - 2) * 8, 8))
        for first in range(0, d, rows):
            count = min(rows, d - first)
            view[:count] = product[first:first + count]
            # buffer column j holds frequency d - 1 + first - j
            c[d - count - first:2 * d - 1 - first] += buffer[:count, d - count:].sum(axis=0)
    sums[:, :d - 1] += sums[:, :d - 1:-1]
    return sums[:, :d]


def _series(sys: SpinSystem, coefs: np.ndarray, thetas: np.ndarray, order: int) -> np.ndarray:
    """(B, T) order-th theta-derivatives (order 0, 1 or 2) of the sums
    sum_kl w[:, k d + l] cos((k - l) theta) / d of (B, d^2) weights w, from _coefficients.
    The term cos(n theta), -n sin(n theta) or -n^2 cos(n theta) is even in n, so the trig
    is taken per theta block on the d frequencies n >= 0 alone.  Given d^2 weights, the
    terms are mirrored to -n and copied into a Toeplitz table, so each sum is the direct d^2
    sum bit for bit, as the figures' digests pin; given d coefficients, a copy is scaled by
    -n or -n^2: O(d) per (b, theta).  np.vecdot runs the ddot of np.dot per (b, theta), so a
    value does not depend on its grid (a gemv or gemm sums in an order that does).  Tables
    and buffers hold at most BLOCK_ELEMENTS values; _correlation_klg checks thetas.
    """
    d, width = sys.dim, coefs.shape[-1]
    toeplitz, step = width == d * d, max(1, BLOCK_ELEMENTS // width)
    descending = np.arange(d - 1.0, -1.0, -1.0)
    trig, scale = (np.sin, -descending) if order == 1 else (np.cos, -descending ** 2)
    coefs = coefs * scale if order and not toeplitz else coefs  # a copy: callers reuse theirs
    out = np.empty((len(coefs), len(thetas)))
    buffer = np.empty((min(step, len(thetas)), 2 * d - 1 if toeplitz else d))
    for start in range(0, len(thetas), step):
        block = thetas[start:start + step]
        table = buffer[:len(block)]
        if toeplitz:
            # frequencies d - 1, ..., 0, then their mirror -1, ..., -(d - 1)
            half = trig(np.multiply.outer(block, descending), out=table[:, :d])
            if order:
                half *= scale
            table[:, d:] = half[:, -2::-1]
            # [t, k, l] = table[t, d - 1 - k + l], the term at frequency k - l, its inner (l)
            # axis read forward; one reshape copies the strided view, offsets checked
            table = np.ndarray((len(block), d, d), float, table, (d - 1) * 8,
                               (table.strides[0], -8, 8)).reshape(len(block), d * d)
        else:
            trig(np.multiply.outer(block, descending, out=table), out=table)
        out[:, start:start + step] = np.vecdot(table, coefs[:, None])
    out /= d
    return out


def _correlation_klg(sys: SpinSystem, coefs: np.ndarray, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) arrays C and K_LG = 3 C(theta) - C(3 theta) from a diagonal stack's _coefficients,
    both grids in one _series call; _check_phases runs first, so no trig sees inf or nan."""
    thetas = np.asarray(thetas, float)
    _check_phases(sys.dim, thetas)
    c, c3 = np.split(_series(sys, coefs, np.concatenate([thetas, 3.0 * thetas]), 0), 2, axis=1)
    return c, 3.0 * c - c3


def _klg_kernel(sys: SpinSystem, theta: float) -> np.ndarray:
    """Matrix Q with K_LG(theta) = a^T Q a for every observable diagonal a: C(t) =
    (1/d) sum_kl a_k a_l |U_kl(t)|^2, U(t) = V diag(e^{-i lam t}) V^T, so Q = (3 |U(theta)|^2
    - |U(3 theta)|^2) / d.  Z J_x Z = -J_x, Z = diag((-1)^i), pairs column k of V with
    d - 1 - k (lam with -lam), so over the columns lam < 0 (doubled) and integer spin's
    lam = 0, Re U = V diag(cos) V^T fills the same-parity blocks [E, E], [O, O] of the even
    and odd rows and Im U = -V diag(sin) V^T the [E, O] block and its transpose: 3 d^3 / 8
    multiply-adds per t in place of 2 d^3."""
    d, h = sys.dim, (sys.dim + 1) // 2
    lam = np.arange(h) - sys.two_j / 2
    halves = sys.eigenvectors[0::2, :h], sys.eigenvectors[1::2, :h]
    q = np.empty((d, d))
    for i, j, trig in ((0, 0, np.cos), (1, 1, np.cos), (0, 1, np.sin)):
        x, y = halves[i] * (2.0 - (lam == 0.0)), halves[j].T  # integer spin's lam = 0 pairs itself
        q[i::2, j::2] = (3.0 * ((x * trig(lam * theta)) @ y) ** 2
                         - ((x * trig(lam * (3.0 * theta))) @ y) ** 2) / d
    q[1::2, 0::2] = q[0::2, 1::2].T
    return q


def max_violation(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                  theta_lo: float, theta_hi: float,
                  grid_points: int = 512) -> tuple[float, float]:
    """Locate the maximum of |K_LG| on [theta_lo, theta_hi].

    Dense-grid argmax, then safeguarded Newton steps on the slope of |K_LG| inside the
    bracketing grid interval, from the grid argmax down to a step or bracket of 1e-8 (a few
    float spacings for |theta| beyond about 3e7).  Returns (theta_star, k_max), the better
    of the grid argmax and the last step, so k_max is never below the grid maximum.
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

    coefs = _coefficients(sys, meas.a_diag[None])
    grid = np.linspace(theta_lo, theta_hi, grid_points)
    klg = _correlation_klg(sys, coefs, grid)[1][0]
    i = int(np.argmax(np.abs(klg)))
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid_points - 1)])
    start, best = float(grid[i]), abs(float(klg[i]))

    # s K, s the sign of K at the grid argmax, has slope 3 s (C'(theta) - C'(3 theta)) and
    # curvature s (3 C''(theta) - 9 C''(3 theta)).  A step moves the bracket end downhill of
    # theta to theta, then takes the Newton step, or bisects where that step leaves the
    # bracket or the curvature is not negative (the step would head for a minimum).
    sign = -1.0 if klg[i] < 0.0 else 1.0
    tol = max(1e-8, 4.0 * math.ulp(max(abs(a), abs(b))))
    theta = start
    for _ in range(MAX_NEWTON_STEPS):
        if b - a <= tol:
            break
        pair = np.array([theta, 3.0 * theta])
        c1, c1_3 = _series(sys, coefs, pair, 1)[0].tolist()
        c2, c2_3 = _series(sys, coefs, pair, 2)[0].tolist()
        slope, curvature = sign * (3.0 * c1 - 3.0 * c1_3), sign * (3.0 * c2 - 9.0 * c2_3)
        if slope == 0.0:
            break
        a, b = (theta, b) if slope > 0.0 else (a, theta)
        new = theta - slope / curvature if curvature < 0.0 else math.nan
        if not a < new < b:
            new = 0.5 * (a + b)
        step, theta = abs(new - theta), new
        if step <= tol:
            break
    k = abs(float(_correlation_klg(sys, coefs, [theta])[1][0, 0])) if theta != start else best
    return (theta, k) if k >= best else (start, best)
