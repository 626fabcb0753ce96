"""Classical and quantum Fisher information for the dichotomic parity probe.

Two independent routes to the classical Fisher information are provided:
finite differences of the outcome probabilities (the defining sum
F = sum_l P_l (d ln P_l / d theta)^2) and the analytic correlation route
F = (dC/dtheta)^2 / (1 - C^2).  The quantum Fisher information of the
unitary family U(theta) rho U(-theta) with generator J_x comes from the
standard spectral formula (qfi_of_state, for any state) and is
theta-independent; qfi evaluates it for the prepared states as an O(d)
tridiagonal sum.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .correlations import correlation, correlation_derivatives
from .measurement import NoisyDichotomicMeasurement, prepare_states
from .spin import SpinSystem

SINGULAR_DENOMINATOR = 1e-10
QFI_EIGENVALUE_CUTOFF = 1e-12
DEFAULT_FD_STEP = 1e-5


class NearSingularProbabilityError(ArithmeticError):
    """An outcome probability vanishes while still carrying a derivative."""


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


def outcome_probabilities(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                          prep_sign: int, theta: float) -> tuple[float, float]:
    """(P_plus, P_minus) for the second measurement after preparation prep_sign.

    Evaluated directly as Tr(E_pm rho_sign(theta)) with dense matrices formed
    here, independent of the Fourier weights, and cross-checked against the
    closed form 1/2 pm sign*C(theta)/2.
    """
    if prep_sign not in (+1, -1):
        raise ValueError("prep_sign must be +1 or -1")
    plus, minus = prepare_states(sys, meas)
    prep = plus if prep_sign == +1 else minus
    lam, v = sys.jx_spectrum
    u = (v * np.exp(-1j * theta * lam)) @ v.conj().T
    rho_t = u @ np.diag(prep.populations) @ u.conj().T
    p_plus = float(np.real(np.trace(np.diag((1.0 + meas.a_diag) / 2) @ rho_t)))
    p_minus = float(np.real(np.trace(np.diag((1.0 - meas.a_diag) / 2) @ rho_t)))

    c = correlation(sys, meas, theta)
    if abs(p_plus - (0.5 + prep_sign * c / 2)) > 1e-10:
        raise InconsistentCorrelationError(
            "direct probability disagrees with 1/2 + sign*C/2 beyond 1e-10")
    return p_plus, p_minus


def fisher_from_probabilities(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                              prep_sign: int, theta: float,
                              fd_step: float = DEFAULT_FD_STEP) -> float:
    """Fisher information from central finite differences of the probabilities."""
    if not 1e-7 <= fd_step <= 1e-2:
        raise ValueError("fd_step must lie in [1e-7, 1e-2]")
    p = outcome_probabilities(sys, meas, prep_sign, theta)
    p_hi = outcome_probabilities(sys, meas, prep_sign, theta + fd_step)
    p_lo = outcome_probabilities(sys, meas, prep_sign, theta - fd_step)
    total = 0.0
    for pl, hi, lo in zip(p, p_hi, p_lo):
        dp = (hi - lo) / (2.0 * fd_step)
        if pl < 1e-14:
            if abs(dp) > 1e-9:
                raise NearSingularProbabilityError(
                    "outcome probability below 1e-14 with nonzero derivative; "
                    "use the correlation route")
            continue
        total += dp * dp / pl
    return total


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


def qfi_of_state(sys: SpinSystem, rho: np.ndarray) -> float:
    """QFI of theta -> U(theta) rho U(-theta) with generator J_x.

    Spectral formula 2 sum_{k,l} (p_k - p_l)^2 / (p_k + p_l) |<v_k|J_x|v_l>|^2,
    restricted to pairs with p_k + p_l above the null-subspace cutoff.
    """
    p, v = np.linalg.eigh(rho)
    jx_t = v.conj().T @ sys.jx @ v
    psum = p[:, None] + p[None, :]
    pdiff = p[:, None] - p[None, :]
    mask = psum > QFI_EIGENVALUE_CUTOFF
    ratio = np.zeros_like(psum)
    ratio[mask] = pdiff[mask] ** 2 / psum[mask]
    return float(2.0 * np.sum(ratio * np.abs(jx_t) ** 2))


def qfi(sys: SpinSystem, meas: NoisyDichotomicMeasurement, prep_sign: int = +1) -> float:
    """QFI for the prepared state of the given sign; theta-independent.

    The prepared state is diagonal in the J_z basis and J_x is tridiagonal
    there, so the spectral formula of qfi_of_state reduces to the O(d) sum
    4 sum_k (p_k - p_{k+1})^2 / (p_k + p_{k+1}) |J_x[k, k+1]|^2.
    """
    plus, minus = prepare_states(sys, meas)
    prep = plus if prep_sign == +1 else minus
    p = prep.populations
    psum = p[:-1] + p[1:]
    mask = psum > QFI_EIGENVALUE_CUTOFF
    ratio = (p[:-1] - p[1:])[mask] ** 2 / psum[mask]
    return float(4.0 * np.sum(ratio * np.abs(np.diag(sys.jx, 1))[mask] ** 2))


def _rows(sys: SpinSystem, meas: NoisyDichotomicMeasurement, thetas) -> list[EstimationRecord]:
    """Records for one measurement at each theta; F_Q is computed once.

    Each value is bit-identical to the one composed from correlation,
    klg_equal_interval, fisher_from_correlation and qfi at that theta.
    """
    f_q = qfi(sys, meas, +1)
    rows = []
    for theta in thetas:
        theta = float(theta)
        c, c1, c2 = correlation_derivatives(sys, meas, theta)
        k = 3.0 * c - correlation(sys, meas, 3.0 * theta)
        f = _fisher(c, c1, c2)
        rows.append(EstimationRecord(theta=theta, b=meas.b, C=c, K_LG=k, F=f, F_Q=f_q,
                                     F_ratio=f / f_q if f_q > 0.0 else 0.0))
    return rows


def estimation_report(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                      theta: float) -> EstimationRecord:
    """Assemble C, K_LG, F (correlation route), F_Q and F/F_Q at one point."""
    return _rows(sys, meas, [theta])[0]
