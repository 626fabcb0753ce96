"""Independent dense-matrix routes that the tests compare lgmet against.

None of this runs in the pipeline.  Each route forms the d x d operators
itself: the dense J_x from two_j alone, the propagator e^{-i theta J_x},
the two-time correlation Tr[A(t_i) A(t_j)] / d of Heisenberg operators,
the states E^{1/2} (I/d) E^{1/2} / p that each outcome prepares,
outcome probabilities Tr(E_pm rho(theta)) with their finite-difference
Fisher information, and the general eigh-based QFI of any state.  The
threshold bisection builds a full measurement at every step.  The
direct Fourier sums apply the trig functions to all d^2 eigenvalue gaps
and add them in one np.dot over the d^2 values, the summation order of
lgmet's Toeplitz route, which must match them bit for bit (its harmonic
coefficient route, above spin.REFERENCE_DIM, within a rounding bound).  The
derivative sums take the terms -g sin(g theta) and -g^2 cos(g theta) of
each gap g.

fourier_weights, the one way the tests reach a measurement's d^2 weights,
forms the full product (V^T diag(a)) V over every level itself: lgmet's
reference route returns those bits, and above spin.REFERENCE_DIM, where
lgmet drops the levels below LEVEL_CUTOFF max|a|, it is the untruncated
truth.  From lgmet this module takes only the spin and measurement builders
and their types, and _coefficients with _correlation_klg for point_klg, the
one-theta K_LG that threshold_b's Fourier-weight route and the tests read; it
evaluates nothing else through the code it checks, and raises its own errors.
"""

from __future__ import annotations

import numpy as np

from lgmet.correlations import _coefficients, _correlation_klg
from lgmet.measurement import NoisyDichotomicMeasurement, PartitionSpec, build_measurement
from lgmet.spin import SpinSystem, make_spin_system

DEFAULT_FD_STEP = 1e-5

# Eigenvalue pairs of a state summing to at most this are its null subspace, where
# eigh leaves rounding noise; chosen here, not shared with the runtime's QFI.
NULL_EIGENVALUE_CUTOFF = 1e-12


class NearSingularProbabilityError(ArithmeticError):
    """An outcome probability vanishes while still carrying a derivative."""


class DegenerateOutcomeError(ValueError):
    """An outcome has zero probability, so the state it prepares is undefined."""


def dense_jx(two_j: int) -> np.ndarray:
    """J_x = (J_+ + J_-)/2 in the J_z basis m = j, ..., -j, as a complex matrix.

    J_+|m> = sqrt((j - m)(j + m + 1)) |m + 1>, and |m + 1> sits one index
    before |m>.
    """
    j = two_j / 2
    m = j - np.arange(two_j + 1)
    jp = np.diag(np.sqrt((j - m[1:]) * (j + m[1:] + 1)), 1)
    return ((jp + jp.T) / 2).astype(complex)


def ladder(sys: SpinSystem) -> np.ndarray:
    """J_x eigenvalues lam_k = k - j, in the column order of sys.eigenvectors."""
    return np.arange(sys.dim) - sys.two_j / 2


def gaps(sys: SpinSystem) -> np.ndarray:
    """Eigenvalue differences lam_k - lam_l of the J_x ladder, raveled over (k, l)."""
    lam = ladder(sys)
    return (lam[:, None] - lam[None, :]).ravel()


def fourier_weights(sys: SpinSystem, meas: NoisyDichotomicMeasurement) -> np.ndarray:
    """The d^2 weights (V^T A V)_kl^2 of meas, raveled over (k, l): the full product
    (V^T diag(a)) V over every level, squared."""
    v = sys.eigenvectors
    return (((v.T * meas.a_diag) @ v) ** 2).ravel()


def direct_correlation(sys: SpinSystem, meas: NoisyDichotomicMeasurement, theta: float) -> float:
    """C(theta) = weights . cos(gaps theta) / d, with cos taken on every gap, one np.dot."""
    return float(np.dot(fourier_weights(sys, meas), np.cos(gaps(sys) * theta))) / sys.dim


def direct_klg(sys: SpinSystem, meas: NoisyDichotomicMeasurement, theta: float) -> float:
    """K_LG = 3 C(theta) - C(3 theta) from direct_correlation."""
    return 3.0 * direct_correlation(sys, meas, theta) - direct_correlation(sys, meas, 3.0 * theta)


def direct_correlation_derivatives(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                                   theta: float) -> tuple[float, float, float]:
    """(C, C', C'') as weights . (cos, -g sin, -g^2 cos)(g theta) / d over the gaps g, one
    np.dot each."""
    w, g = fourier_weights(sys, meas), gaps(sys)
    gt = g * theta
    cos_gt = np.cos(gt)
    return tuple(float(np.dot(w, terms)) / sys.dim
                 for terms in (cos_gt, -g * np.sin(gt), -(g * g) * cos_gt))


def point_klg(sys: SpinSystem, meas: NoisyDichotomicMeasurement, theta: float) -> float:
    """K_LG(theta) = 3 C(theta) - C(3 theta) of one measurement, read from lgmet's
    _correlation_klg."""
    return float(_correlation_klg(sys, _coefficients(sys, meas.a_diag[None]), [theta])[1][0, 0])


def propagator(sys: SpinSystem, theta: float) -> np.ndarray:
    """Unitary e^{-i theta J_x}, evaluated from the J_x ladder and eigenvectors."""
    v = sys.eigenvectors
    return (v * np.exp(-1j * theta * ladder(sys))) @ v.conj().T


def two_time_correlation(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                         t_i: float, t_j: float) -> float:
    """C_ij = Tr[A(t_i) A(t_j)] / d with A(t) = U(t)^dag A U(t), from dense propagators.

    The initial state is I/d, so stationarity makes this C(t_j - t_i).
    """
    a = np.diag(meas.a_diag)
    u_i, u_j = propagator(sys, t_i), propagator(sys, t_j)
    a_i = u_i.conj().T @ a @ u_i
    a_j = u_j.conj().T @ a @ u_j
    return float(np.real(np.trace(a_i @ a_j))) / sys.dim


def prepared_state(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                   sign: int) -> tuple[np.ndarray, float]:
    """(rho, p): the state E^{1/2} (I/d) E^{1/2} / p that outcome sign prepares, and p.

    E = (I + sign A)/2 is formed as a dense matrix and p = Tr(E)/d; E is
    diagonal, so its square root is taken entrywise.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    eye = np.eye(sys.dim)
    e = (eye + sign * np.diag(meas.a_diag)) / 2
    p = float(np.trace(e)) / sys.dim
    if p <= 0.0:
        raise DegenerateOutcomeError("outcome %+d has zero probability" % sign)
    root = np.sqrt(e)
    return root @ (eye / sys.dim) @ root / p, p


def outcome_probabilities(sys: SpinSystem, meas: NoisyDichotomicMeasurement,
                          prep_sign: int, theta: float) -> tuple[float, float]:
    """(P_plus, P_minus) for the second measurement after preparation prep_sign.

    Evaluated directly as Tr(E_pm rho_sign(theta)) with dense matrices formed
    here (prepared_state), independent of the Fourier weights, and
    cross-checked against the closed form 1/2 pm sign*C(theta)/2 with C from
    direct_correlation.
    """
    rho, _ = prepared_state(sys, meas, prep_sign)
    u = propagator(sys, theta)
    rho_t = u @ rho @ u.conj().T
    p_plus = float(np.real(np.trace(np.diag((1.0 + meas.a_diag) / 2) @ rho_t)))
    p_minus = float(np.real(np.trace(np.diag((1.0 - meas.a_diag) / 2) @ rho_t)))

    c = direct_correlation(sys, meas, theta)
    if abs(p_plus - (0.5 + prep_sign * c / 2)) > 1e-10:
        raise AssertionError("direct probability disagrees with 1/2 + sign*C/2 beyond 1e-10")
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


def qfi_of_state(sys: SpinSystem, rho: np.ndarray) -> float:
    """QFI of theta -> U(theta) rho U(-theta) with generator J_x.

    Spectral formula 2 sum_{k,l} (p_k - p_l)^2 / (p_k + p_l) |<v_k|J_x|v_l>|^2,
    restricted to pairs with p_k + p_l above the null-subspace cutoff.
    """
    p, v = np.linalg.eigh(rho)
    jx_t = v.conj().T @ dense_jx(sys.two_j) @ v
    psum = p[:, None] + p[None, :]
    pdiff = p[:, None] - p[None, :]
    mask = psum > NULL_EIGENVALUE_CUTOFF
    ratio = np.zeros_like(psum)
    ratio[mask] = pdiff[mask] ** 2 / psum[mask]
    return float(2.0 * np.sum(ratio * np.abs(jx_t) ** 2))


def threshold_b(two_j: int, theta: float, b_lo: float = 0.0, b_hi: float = 1.0,
                tol: float = 1e-4, partition: PartitionSpec | None = None) -> float:
    """Smallest b in (b_lo, b_hi] with |K_LG(theta)| > 2, by bisection.

    Every step builds the measurement and reads K_LG from its Fourier weights
    (point_klg), not from a fixed-theta kernel.
    """
    sys = make_spin_system(two_j)

    def violates(b: float) -> bool:
        return abs(point_klg(sys, build_measurement(sys, b, partition), theta)) > 2.0

    if violates(b_lo) or not violates(b_hi):
        raise ValueError("[b_lo, b_hi] does not bracket the violation threshold")
    lo, hi = b_lo, b_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def svg_polyline_points(table, x_column: str, y_columns: list[str],
                        width: int = 720, height: int = 480) -> list[str]:
    """The points attribute of each render_svg_lineplot polyline, one "%g,%g" per point.

    Each point is scaled and formatted on its own, as the plot did before it
    formatted whole columns.
    """
    margin = 60.0
    x = table.rows[x_column]
    ys = [table.rows[c] for c in y_columns]
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_all = np.concatenate(ys)
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    return [" ".join("%g,%g" % (sx(xv), sy(yv)) for xv, yv in zip(x, y)) for y in ys]
