import math
import re
import warnings

import numpy as np
import pytest

from lgmet import (build_measurement, correlation, correlation_derivatives, estimation_report,
                   fisher_from_correlation, klg_equal_interval, make_spin_system,
                   max_violation, qfi)
import lgmet.estimation
from lgmet.correlations import _block_size
from lgmet.estimation import COLUMNS, InconsistentCorrelationError, _fisher, _rows
from lgmet.measurement import (DegeneratePreparationError, NoisyDichotomicMeasurement,
                               PartitionSpec, _a_diag, _weights, default_partition)
from lgmet.scan import RunConfig, sweep, violation_threshold_b
from conftest import count_calls, random_partition
from oracles import (NearSingularProbabilityError, fisher_from_probabilities,
                     outcome_probabilities, prepared_state, propagator, qfi_of_state)


def _null_measurement():
    """two_j=1 with swapped centers: A = diag(b, -b), so A = 0 at b = 0."""
    sys = make_spin_system(1)
    part = PartitionSpec(((-1, (1,)), (1, (-1,))))
    return sys, build_measurement(sys, 0.0, part)


class TestOutcomeProbabilities:
    def test_repeated_projective_parity(self, spin52, parity52):
        assert outcome_probabilities(spin52, parity52, +1, 0.0) == pytest.approx((1.0, 0.0))
        assert outcome_probabilities(spin52, parity52, -1, 0.0) == pytest.approx((0.0, 1.0))

    def test_balanced_at_half_pi(self, spin52, parity52):
        p = outcome_probabilities(spin52, parity52, +1, math.pi / 2)
        assert p == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_normalized_and_bounded(self, spin52):
        rng = np.random.default_rng(41)
        for _ in range(25):
            meas = build_measurement(spin52, rng.uniform(0, 1))
            p_plus, p_minus = outcome_probabilities(spin52, meas, +1, rng.uniform(-4, 4))
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
            assert -1e-12 <= p_plus <= 1 + 1e-12

    def test_rejects_bad_sign(self, spin52, parity52):
        with pytest.raises(ValueError):
            outcome_probabilities(spin52, parity52, 0, 0.1)


class TestFisherFromProbabilities:
    def test_projective_at_half_pi(self, spin52, parity52):
        assert fisher_from_probabilities(spin52, parity52, +1, math.pi / 2) == \
            pytest.approx(1.0, abs=1e-8)

    def test_flat_distribution_carries_nothing(self):
        sys, meas = _null_measurement()
        for theta in (0.3, 1.1, 2.0):
            assert fisher_from_probabilities(sys, meas, +1, theta) == \
                pytest.approx(0.0, abs=1e-12)

    def test_preparation_sign_irrelevant(self, spin52):
        rng = np.random.default_rng(47)
        for _ in range(20):
            meas = build_measurement(spin52, rng.uniform(0.1, 0.98))
            theta = rng.uniform(0.1, 3.0)
            f_plus = fisher_from_probabilities(spin52, meas, +1, theta)
            f_minus = fisher_from_probabilities(spin52, meas, -1, theta)
            assert f_minus == pytest.approx(f_plus, rel=1e-9, abs=1e-12)

    def test_near_singular_point_rejected(self, spin52, parity52):
        # just off theta=0 at b=1: vanishing probability, nonzero slope
        with pytest.raises(NearSingularProbabilityError):
            fisher_from_probabilities(spin52, parity52, +1, 3e-8)

    def test_fd_step_validation(self, spin52, parity52):
        for bad in (1e-8, 0.1):
            with pytest.raises(ValueError):
                fisher_from_probabilities(spin52, parity52, +1, 1.0, fd_step=bad)


class TestFisherFromCorrelation:
    def test_projective_limit_at_pi(self, spin52, parity52):
        assert fisher_from_correlation(spin52, parity52, math.pi) == \
            pytest.approx(35 / 3, abs=1e-10)

    def test_noise_collapse_at_pi(self, spin52):
        meas = build_measurement(spin52, 0.99)
        assert fisher_from_correlation(spin52, meas, math.pi) < 1e-6

    def test_zero_at_origin_for_weak_measurement(self, spin52):
        for b in (0.2, 0.7, 0.99):
            meas = build_measurement(spin52, b)
            assert fisher_from_correlation(spin52, meas, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_probability_route(self, spin52):
        rng = np.random.default_rng(53)
        count = 0
        while count < 50:
            b = rng.uniform(0.05, 1.0)
            theta = rng.uniform(-3, 3)
            meas = build_measurement(spin52, b)
            if 1 - correlation(spin52, meas, theta) ** 2 <= 1e-6:
                continue
            f_corr = fisher_from_correlation(spin52, meas, theta)
            f_prob = fisher_from_probabilities(spin52, meas, +1, theta)
            assert f_prob == pytest.approx(f_corr, rel=1e-6, abs=1e-9)
            count += 1


class TestFisherArrays:
    def test_regular_and_singular_rows(self):
        c = np.array([0.5, 1.0, -1.0, 0.0])
        c1 = np.array([0.3, 0.0, 1e-7, -1.0])
        c2 = np.array([2.0, -35 / 3, 4.0, 0.0])
        f = _fisher(c, c1, c2)
        assert f.tolist() == [0.3 * 0.3 / (1.0 - 0.5 * 0.5), 35 / 3, 4.0, 1.0]

    def test_any_singular_row_with_a_slope_raises(self):
        c = np.array([0.5, 1.0, -1.0])
        c1 = np.array([0.3, 0.0, 1e-5])
        with pytest.raises(InconsistentCorrelationError):
            _fisher(c, c1, np.ones(3))


class TestQuantumFisherInformation:
    def test_projective_closed_form(self, spin52, parity52):
        assert qfi(spin52, parity52) == pytest.approx(35 / 3, abs=1e-10)

    def test_only_the_requested_arm_must_be_defined(self, spin52):
        broken = NoisyDichotomicMeasurement(1.0, default_partition(spin52), np.ones(6),
                                            np.zeros(36))
        assert qfi(spin52, broken) == 0.0  # E+ = 1 prepares I/d; the - arm is never prepared
        with pytest.raises(DegeneratePreparationError, match="outcome -1"):
            prepared_state(spin52, broken, -1)

    def test_spin_half_closed_form(self):
        sys = make_spin_system(1)
        meas = build_measurement(sys, 1.0)
        assert qfi(sys, meas) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_carries_nothing(self):
        sys, meas = _null_measurement()
        assert qfi(sys, meas) == pytest.approx(0.0, abs=1e-12)

    def test_theta_independent(self, spin52):
        meas = build_measurement(spin52, 0.8)
        rho, _ = prepared_state(spin52, meas, +1)
        base = qfi_of_state(spin52, rho)
        for theta in (0.1, 1.0, 2.5):
            u = propagator(spin52, theta)
            evolved = u @ rho @ u.conj().T
            assert qfi_of_state(spin52, evolved) == pytest.approx(base, abs=1e-8)

    def test_bounds_classical_fisher(self, spin52):
        for b in (0.3, 0.8, 1.0):
            meas = build_measurement(spin52, b)
            f_q = qfi(spin52, meas)
            for theta in np.linspace(0, math.pi, 101):
                assert fisher_from_correlation(spin52, meas, theta) <= f_q + 1e-8

    def test_fragility_under_infinitesimal_noise(self, spin52):
        for b in (0.999, 0.99, 0.9):
            meas = build_measurement(spin52, b)
            for n in (1, 2):
                assert fisher_from_correlation(spin52, meas, n * math.pi) <= 1e-4


def _one_row_qfi(sys, a_diag):
    """The qfi sum over one 1-D diagonal, every reduction on that row alone."""
    e = (1.0 + a_diag) / 2
    p = e / (sys.dim * (float(np.sum(e)) / sys.dim))
    psum = p[:-1] + p[1:]
    return float(4.0 * np.sum((p[:-1] - p[1:]) ** 2 / psum * sys.jx_ladder ** 2))


class TestQfiPerBlock:
    """_rows computes the F_Q column of a whole b block in one _qfi call."""

    @pytest.mark.parametrize("two_j", [1, 2, 5, 12, 51, 201, 401])
    def test_block_column_bit_equal_to_per_row_qfi(self, two_j):
        rng = np.random.default_rng(two_j)
        sys = make_spin_system(two_j)
        partition = random_partition(rng, two_j)
        step = _block_size(sys)
        for size in sorted({1, min(2, step), min(7, step), step}):
            bs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, max(0, size - 2))])[:size]
            a_diags = np.array([_a_diag(sys, b, partition) for b in bs.tolist()])
            f_q = _rows(sys, bs, a_diags, _weights(sys, a_diags), [0.3]).F_Q
            expected = [qfi(sys, build_measurement(sys, b, partition)) for b in bs.tolist()]
            assert f_q.tobytes() == np.array(expected).tobytes(), (two_j, size)
            assert f_q.tobytes() == np.array([_one_row_qfi(sys, a) for a in a_diags]).tobytes()

    @pytest.mark.parametrize("two_j", [5, 51])
    def test_one_qfi_evaluation_per_b_block(self, two_j, monkeypatch):
        calls = count_calls(monkeypatch, lgmet.estimation._qfi)
        sweep("scan-b", RunConfig(two_j, np.linspace(0.0, 1.0, 201), [0.95 * math.pi]))
        # _block_size is 1820 b values at two_j = 5 and 24 at two_j = 51
        assert [a_diags.shape[0] for _, a_diags in calls] == {5: [201], 51: [24] * 8 + [9]}[two_j]


class TestEstimationReport:
    def test_is_one_float64_record(self, spin52, parity52):
        rec = estimation_report(spin52, parity52, 0.3)
        assert rec.dtype.names == COLUMNS
        assert all(rec.dtype[c] == np.float64 for c in COLUMNS)
        assert rec.tolist() == tuple(rec[c] for c in COLUMNS)
        assert (rec.theta, rec.b) == (0.3, 1.0)

    def test_projective_at_pi(self, spin52, parity52):
        rec = estimation_report(spin52, parity52, math.pi)
        assert rec.C == pytest.approx(-1.0, abs=1e-10)
        assert rec.K_LG == pytest.approx(-2.0, abs=1e-10)
        assert rec.F == pytest.approx(35 / 3, abs=1e-10)
        assert rec.F_Q == pytest.approx(35 / 3, abs=1e-10)
        assert rec.F_ratio == pytest.approx(1.0, abs=1e-10)

    def test_projective_at_origin(self, spin52, parity52):
        rec = estimation_report(spin52, parity52, 0.0)
        assert rec.C == pytest.approx(1.0, abs=1e-10)
        assert rec.K_LG == pytest.approx(2.0, abs=1e-10)
        assert rec.F == pytest.approx(35 / 3, abs=1e-10)
        assert rec.F_ratio == pytest.approx(1.0, abs=1e-10)

    def test_invariants_on_grid(self, spin52):
        for b in (0.2, 0.6, 0.95):
            meas = build_measurement(spin52, b)
            for theta in np.linspace(0, math.pi, 25):
                rec = estimation_report(spin52, meas, theta)
                assert rec.F <= rec.F_Q + 1e-8
                assert 0 <= rec.F_ratio <= 1 + 1e-10

    def test_no_violation_window_for_any_b(self, spin52):
        theta = 0.34 * math.pi
        for b in np.linspace(0, 1, 51):
            rec = estimation_report(spin52, build_measurement(spin52, b), theta)
            assert abs(rec.K_LG) <= 2.0


def _rows_around(sys, meas, theta):
    return _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], [0.1, theta, 0.2])


def _max_violation_lo(sys, meas, theta):
    return max_violation(sys, meas, theta, 1.0)


def _max_violation_hi(sys, meas, theta):
    return max_violation(sys, meas, -1.0, theta)


def _violation_threshold_b(sys, meas, theta):
    return violation_threshold_b(sys.two_j, theta)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 1e308, -1e308, -7e307])
@pytest.mark.parametrize("fn", [correlation, correlation_derivatives, klg_equal_interval,
                                fisher_from_correlation, estimation_report, _rows_around,
                                _max_violation_lo, _max_violation_hi, _violation_threshold_b])
def test_non_finite_theta_rejected_without_warning(fn, theta, monkeypatch):
    # every entry point applies the one theta-domain rule, before any grid or kernel
    # is built; a finite theta whose phase 3 theta (d - 1) overflows is named as given
    message = ("theta must be finite, got %r" if not math.isfinite(theta)
               else "theta=%r is too large") % theta
    monkeypatch.setattr(np, "linspace", None)
    monkeypatch.setattr("lgmet.scan._klg_kernel", None)
    for two_j in (1, 5):
        sys = make_spin_system(two_j)
        meas = build_measurement(sys, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                fn(sys, meas, theta)


WEIGHTS_OF_ANOTHER_SPIN = "weights have 36 columns, but a spin of dimension 8 needs 64"
DIAGONAL_OF_ANOTHER_SPIN = "diagonal has length 6, but the spin has dimension 8"


@pytest.mark.parametrize("fn, message", [
    (lambda s, m: correlation(s, m, 0.3), WEIGHTS_OF_ANOTHER_SPIN),
    (lambda s, m: correlation_derivatives(s, m, 0.3), WEIGHTS_OF_ANOTHER_SPIN),
    (lambda s, m: klg_equal_interval(s, m, 0.3), WEIGHTS_OF_ANOTHER_SPIN),
    (lambda s, m: fisher_from_correlation(s, m, 0.3), WEIGHTS_OF_ANOTHER_SPIN),
    (lambda s, m: max_violation(s, m, 0.0, 1.0), WEIGHTS_OF_ANOTHER_SPIN),
    (qfi, DIAGONAL_OF_ANOTHER_SPIN),
    (lambda s, m: estimation_report(s, m, 0.3), DIAGONAL_OF_ANOTHER_SPIN),
], ids=["correlation", "correlation_derivatives", "klg_equal_interval",
        "fisher_from_correlation", "max_violation", "qfi", "estimation_report"])
def test_measurement_of_another_spin_rejected(fn, message):
    """A two_j = 5 measurement given with a two_j = 7 spin is a ValueError naming both sizes."""
    meas = build_measurement(make_spin_system(5), 0.9)
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(make_spin_system(7), meas)
