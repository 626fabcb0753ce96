"""Classical and quantum Fisher information for the dichotomic parity probe.

The classical Fisher information comes from the correlation function,
F = (dC/dtheta)^2 / (1 - C^2).  The quantum Fisher information of the
unitary family U(theta) rho U(-theta) with generator J_x is
theta-independent; qfi evaluates the spectral formula for the prepared
states as an O(d) tridiagonal sum.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .correlations import _correlations, _derivatives, correlation_derivatives
from .measurement import NoisyDichotomicMeasurement, prepare_states
from .spin import SpinSystem

SINGULAR_DENOMINATOR = 1e-10
QFI_EIGENVALUE_CUTOFF = 1e-12


class InconsistentCorrelationError(ArithmeticError):
    """C^2 = 1 with a nonzero slope; smoothness is violated numerically."""


@dataclass(frozen=True)
class EstimationRecord:
    """One (theta, b) evaluation: correlation, K_LG, F, F_Q, and F/F_Q."""

    theta: float
    b: float
    C: float
    K_LG: float
    F: float
    F_Q: float
    F_ratio: float

    def as_dict(self) -> dict:
        return asdict(self)


def _fisher(c: float, c1: float, c2: float) -> float:
    """(dC/dtheta)^2 / (1 - C^2) from (C, C', C''), with the |C''| limit at C^2 = 1."""
    den = 1.0 - c * c
    if den <= SINGULAR_DENOMINATOR:
        if abs(c1) > 1e-6:
            raise InconsistentCorrelationError(
                "C^2 = 1 with |dC/dtheta| > 1e-6; numerical fault")
        return abs(c2)
    return c1 * c1 / den


def fisher_from_correlation(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                            theta: float) -> float:
    """Fisher information (dC/dtheta)^2 / (1 - C^2) with the singular limit.

    Where C^2 = 1 (projective common extrema) the 0/0 limit equals |C''|,
    which is returned instead.
    """
    return _fisher(*correlation_derivatives(sys, meas, theta))


def qfi(sys: SpinSystem, meas: NoisyDichotomicMeasurement, prep_sign: int = +1) -> float:
    """QFI for the prepared state of the given sign; theta-independent.

    The prepared state is diagonal in the J_z basis and J_x is tridiagonal
    there, so the spectral QFI formula reduces to the O(d) sum
    4 sum_k (p_k - p_{k+1})^2 / (p_k + p_{k+1}) J_x[k, k+1]^2 over the pairs
    with p_k + p_{k+1} above the null-subspace cutoff.
    """
    plus, minus = prepare_states(sys, meas)
    prep = plus if prep_sign == +1 else minus
    p = prep.populations
    psum = p[:-1] + p[1:]
    mask = psum > QFI_EIGENVALUE_CUTOFF
    ratio = (p[:-1] - p[1:])[mask] ** 2 / psum[mask]
    return float(4.0 * np.sum(ratio * sys.jx_ladder[mask] ** 2))


def _rows(sys: SpinSystem, meas: NoisyDichotomicMeasurement, thetas) -> list[EstimationRecord]:
    """Records for one measurement at each theta; F_Q is computed once.

    Each value is bit-identical to the one composed from correlation,
    klg_equal_interval, fisher_from_correlation and qfi at that theta.
    """
    f_q = qfi(sys, meas, +1)
    thetas = np.asarray(thetas, float)
    rows = []
    for theta, (c, c1, c2), c3 in zip(thetas.tolist(), _derivatives(sys, meas, thetas),
                                      _correlations(sys, meas, 3.0 * thetas)):
        k = 3.0 * c - c3
        f = _fisher(c, c1, c2)
        rows.append(EstimationRecord(theta=theta, b=meas.b, C=c, K_LG=k, F=f, F_Q=f_q,
                                     F_ratio=f / f_q if f_q > 0.0 else 0.0))
    return rows


def estimation_report(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                      theta: float) -> EstimationRecord:
    """Assemble C, K_LG, F (correlation route), F_Q and F/F_Q at one point."""
    return _rows(sys, meas, [theta])[0]
