"""Classical and quantum Fisher information for the dichotomic parity probe.

The classical Fisher information comes from the correlation function,
F = (dC/dtheta)^2 / (1 - C^2), with C' the order-1 correlations._series and the
limit |d2C/dtheta2| where C^2 -> 1, the only place the order-2 series (C'') is
evaluated.  The quantum Fisher information of the unitary family
U(theta) rho U(-theta) with generator J_x is theta-independent; _qfi evaluates
the spectral formula for the state that the + outcome prepares as an O(d)
tridiagonal sum.  A sweep row holds the COLUMNS values of one (theta, b) point;
rows are float64 record arrays of ROW_DTYPE.
"""

from __future__ import annotations

import numpy as np

from .correlations import _coefficients, _correlation_klg, _series
from .spin import SpinSystem

SINGULAR_DENOMINATOR = 1e-10

COLUMNS = ("theta", "b", "C", "K_LG", "F", "F_Q", "F_ratio")
# np.record, so that a row read from any array of this dtype has .F etc.
ROW_DTYPE = np.dtype((np.record, [(name, np.float64) for name in COLUMNS]))


class InconsistentCorrelationError(ArithmeticError):
    """C^2 = 1 with a nonzero slope; smoothness is violated numerically."""


def _fisher(c, c1, second_derivative):
    """C'^2 / (1 - C^2) for (B, T) arrays C, C'; at C^2 = 1, |C''| of second_derivative(columns)."""
    den = 1.0 - c * c
    singular = den <= SINGULAR_DENOMINATOR
    if np.any(singular & (np.abs(c1) > 1e-6)):
        raise InconsistentCorrelationError("C^2 = 1 with |dC/dtheta| > 1e-6; numerical fault")
    f = c1 * c1 / np.where(singular, 1.0, den)
    if singular.any():
        columns = singular.any(axis=0)
        f[singular] = np.abs(second_derivative(columns))[singular[:, columns]]
    return f


def _qfi(sys: SpinSystem, a_diags: np.ndarray) -> np.ndarray:
    """QFI of the state E+^{1/2} (I/d) E+^{1/2} / p that outcome + prepares, per diagonal.

    Its J_z populations are e / (d p), e = (1 + a)/2, p = sum(e) / d, and J_x is
    tridiagonal there, so the spectral QFI formula reduces to the O(d) sum
    4 sum_k (p_k - p_{k+1})^2 / (p_k + p_{k+1}) J_x[k, k+1]^2, theta-independent.
    Each row of the (B, d) stack is bit-equal to the sum over that row alone.  The
    diagonals come from _a_diags, with a = +b^(g^2) >= 0 at even k, so p_k >= 1/(2d)
    there and no pair sum is zero.  (The default partition's - arm is the mirror
    image: same QFI.)
    """
    e = (1.0 + a_diags) / 2
    p = e / (sys.dim * (np.sum(e, axis=1, keepdims=True) / sys.dim))
    ratio = (p[:, :-1] - p[:, 1:]) ** 2 / (p[:, :-1] + p[:, 1:])
    return 4.0 * np.sum(ratio * sys.jx_ladder ** 2, axis=1)


def _rows(sys: SpinSystem, b_values, a_diags: np.ndarray, thetas) -> np.recarray:
    """Table rows, one per (b, theta) in that order, for the (B, d) observable diagonals.

    From one _coefficients of the diagonals, C with C(3 theta), and C', are one _series call
    each, C'' one more for the theta columns of F's C^2 -> 1 limit alone, and one _qfi call
    gives F_Q; every value is bit-identical to a call for its (b, theta) alone."""
    thetas = np.asarray(thetas, float)
    coefs = _coefficients(sys, a_diags)
    c, k_lg = _correlation_klg(sys, coefs, thetas)
    f_q = _qfi(sys, a_diags)[:, None]
    f = _fisher(c, _series(sys, coefs, thetas, 1),
                lambda columns: _series(sys, coefs, thetas[columns], 2))
    ratio = np.divide(f, f_q, out=np.zeros(f.shape), where=f_q > 0.0)
    columns = (thetas, np.asarray(b_values, float)[:, None], c, k_lg, f, f_q, ratio)
    rows = np.empty(c.shape, ROW_DTYPE)
    for name, values in zip(COLUMNS, columns):
        rows[name] = values
    return rows.ravel().view(np.recarray)
