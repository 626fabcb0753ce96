import math
import re
import warnings

import numpy as np
import pytest

from lgmet import (build_measurement, correlation, correlation_derivatives, estimation_report,
                   fisher_from_correlation, klg_equal_interval, make_spin_system, qfi)
from lgmet.estimation import COLUMNS, InconsistentCorrelationError, _fisher, _rows
from lgmet.measurement import (DegeneratePreparationError, NoisyDichotomicMeasurement,
                               PartitionSpec, default_partition)
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


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 1e308, -1e308])
@pytest.mark.parametrize("fn", [correlation, correlation_derivatives, klg_equal_interval,
                                fisher_from_correlation, estimation_report, _rows_around])
def test_non_finite_theta_rejected_without_warning(fn, theta):
    # a finite theta whose phase 3 theta (d - 1) overflows is named as given
    message = ("theta must be finite, got %r" if not math.isfinite(theta)
               else "theta=%r is too large") % theta
    for two_j in (1, 5):
        sys = make_spin_system(two_j)
        meas = build_measurement(sys, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                fn(sys, meas, theta)
