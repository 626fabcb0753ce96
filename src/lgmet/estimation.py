"""Classical and quantum Fisher information for the dichotomic parity probe.

The classical Fisher information comes from the correlation function,
F = (dC/dtheta)^2 / (1 - C^2).  The quantum Fisher information of the
unitary family U(theta) rho U(-theta) with generator J_x is
theta-independent; qfi evaluates the spectral formula for the state that
the + outcome prepares as an O(d) tridiagonal sum.  A sweep row holds the
COLUMNS values of one (theta, b) point; rows are float64 record arrays of
ROW_DTYPE.
"""

from __future__ import annotations

import numpy as np

from .correlations import _fourier_sums
from .measurement import DegeneratePreparationError, NoisyDichotomicMeasurement
from .spin import SpinSystem

SINGULAR_DENOMINATOR = 1e-10
QFI_EIGENVALUE_CUTOFF = 1e-12

COLUMNS = ("theta", "b", "C", "K_LG", "F", "F_Q", "F_ratio")
# np.record, so that a row read from any array of this dtype has .F etc.
ROW_DTYPE = np.dtype((np.record, [(name, np.float64) for name in COLUMNS]))


class InconsistentCorrelationError(ArithmeticError):
    """C^2 = 1 with a nonzero slope; smoothness is violated numerically."""


def _fisher(c, c1, c2):
    """(dC/dtheta)^2 / (1 - C^2) from arrays of (C, C', C''), with the |C''| limit at C^2 = 1."""
    den = 1.0 - c * c
    singular = den <= SINGULAR_DENOMINATOR
    if np.any(singular & (np.abs(c1) > 1e-6)):
        raise InconsistentCorrelationError("C^2 = 1 with |dC/dtheta| > 1e-6; numerical fault")
    return np.where(singular, np.abs(c2), c1 * c1 / np.where(singular, 1.0, den))


def fisher_from_correlation(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                            theta: float) -> float:
    """Fisher information (dC/dtheta)^2 / (1 - C^2) with the singular limit.

    Where C^2 = 1 (projective common extrema) the 0/0 limit equals |C''|,
    which is returned instead.
    """
    return float(_fisher(*_fourier_sums(sys, meas.weights[None], [theta], True)[0, 0, [0, 2, 3]]))


def qfi(sys: SpinSystem, meas: NoisyDichotomicMeasurement) -> float:
    """QFI of the state E+^{1/2} (I/d) E+^{1/2} / p that outcome + prepares; theta-independent.

    Its J_z populations are e / (d p), e = (1 + a)/2, p = sum(e) / d, and J_x is
    tridiagonal there, so the spectral QFI formula reduces to the O(d) sum
    4 sum_k (p_k - p_{k+1})^2 / (p_k + p_{k+1}) J_x[k, k+1]^2 over the pairs
    with p_k + p_{k+1} above the null-subspace cutoff.  DegeneratePreparationError
    if p is zero.  (The default partition's - arm is the mirror image: same QFI.)
    """
    return _qfi(sys, meas.a_diag)


def _qfi(sys: SpinSystem, a_diag: np.ndarray) -> float:
    """The qfi sum for the observable diagonal a_diag."""
    if len(a_diag) != sys.dim:
        raise ValueError("observable diagonal has length %d, but the spin has dimension %d: "
                         "the measurement was built on another spin" % (len(a_diag), sys.dim))
    e = (1.0 + a_diag) / 2
    prob = float(np.sum(e)) / sys.dim
    if prob <= 0.0:
        raise DegeneratePreparationError("outcome +1 has zero probability; preparation undefined")
    p = e / (sys.dim * prob)
    psum = p[:-1] + p[1:]
    mask = psum > QFI_EIGENVALUE_CUTOFF
    ratio = (p[:-1] - p[1:])[mask] ** 2 / psum[mask]
    return float(4.0 * np.sum(ratio * sys.jx_ladder[mask] ** 2))


def _rows(sys: SpinSystem, b_values, a_diags: np.ndarray, weights: np.ndarray,
          thetas) -> np.recarray:
    """Table rows, one per (b, theta) in that order, for the (B, d) diagonals and (B, d^2) weights.

    One _fourier_sums call evaluates the block and F_Q is computed once per b.
    Each value is bit-identical to the one composed from correlation,
    klg_equal_interval, fisher_from_correlation and qfi at that point.
    """
    f_q = np.array([_qfi(sys, a) for a in a_diags])[:, None]
    thetas = np.asarray(thetas, float)
    c, k_lg, c1, c2 = np.moveaxis(_fourier_sums(sys, weights, thetas, True), -1, 0)
    f = _fisher(c, c1, c2)
    ratio = np.divide(f, f_q, out=np.zeros(f.shape), where=f_q > 0.0)
    columns = (thetas, np.asarray(b_values, float)[:, None], c, k_lg, f, f_q, ratio)
    rows = np.empty(c.shape, ROW_DTYPE)
    for name, values in zip(COLUMNS, columns):
        rows[name] = values
    return rows.ravel().view(np.recarray)


def estimation_report(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                      theta: float) -> np.record:
    """Assemble C, K_LG, F (correlation route), F_Q and F/F_Q at one point."""
    return _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], [theta])[0]
