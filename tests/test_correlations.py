import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgmet import (build_measurement, correlation, correlation_derivatives,
                   correlation_two_time, fisher_from_correlation,
                   klg_equal_interval, klg_four_time, max_violation)
from conftest import brute_force_correlation, parity_correlation_closed_form


class TestCorrelation:
    def test_projective_boundary_values(self, spin52, parity52):
        assert correlation(spin52, parity52, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert correlation(spin52, parity52, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert correlation(spin52, parity52, math.pi) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_closed_form(self, spin52, parity52):
        rng = np.random.default_rng(21)
        for theta in rng.uniform(0.05, math.pi - 0.05, size=40):
            assert correlation(spin52, parity52, theta) == pytest.approx(
                parity_correlation_closed_form(6, theta), abs=1e-12)

    def test_matches_brute_force(self, spin52):
        rng = np.random.default_rng(22)
        for b in (0.3, 0.8, 1.0):
            meas = build_measurement(spin52, b)
            for theta in rng.uniform(-4, 4, size=8):
                assert correlation(spin52, meas, theta) == pytest.approx(
                    brute_force_correlation(spin52, meas, theta), abs=1e-10)

    def test_bounded_by_c_zero(self, spin52):
        for b in (0.2, 0.6, 1.0):
            meas = build_measurement(spin52, b)
            c0 = correlation(spin52, meas, 0.0)
            for theta in np.linspace(0, 2 * math.pi, 61):
                assert abs(correlation(spin52, meas, theta)) <= c0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(-8, 8), b=st.floats(0, 1))
    def test_even_and_periodic(self, spin52, theta, b):
        meas = build_measurement(spin52, b)
        c = correlation(spin52, meas, theta)
        assert correlation(spin52, meas, -theta) == pytest.approx(c, abs=1e-12)
        assert correlation(spin52, meas, theta + 2 * math.pi) == pytest.approx(c, abs=1e-10)


class TestStationarity:
    def test_shift_invariance(self, spin52, parity52):
        theta = 0.63
        assert correlation_two_time(spin52, parity52, 0.3, 0.3 + theta) == pytest.approx(
            correlation(spin52, parity52, theta), abs=1e-10)

    def test_equal_times(self, spin52, parity52):
        assert correlation_two_time(spin52, parity52, 0.0, 0.0) == pytest.approx(
            correlation(spin52, parity52, 0.0), abs=1e-12)

    def test_reversed_times_use_evenness(self, spin52, parity52):
        assert correlation_two_time(spin52, parity52, 1.0, 0.2) == pytest.approx(
            correlation(spin52, parity52, 0.8), abs=1e-12)


class TestDerivatives:
    def test_symmetry_at_origin(self, spin52):
        for b in (0.4, 1.0):
            meas = build_measurement(spin52, b)
            _, c1, _ = correlation_derivatives(spin52, meas, 0.0)
            assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_projective_values_at_pi(self, spin52, parity52):
        _, c1, c2 = correlation_derivatives(spin52, parity52, math.pi)
        assert c1 == pytest.approx(0.0, abs=1e-10)
        assert c2 == pytest.approx(35 / 3, abs=1e-10)

    def test_projective_slope_at_half_pi(self, spin52, parity52):
        _, c1, _ = correlation_derivatives(spin52, parity52, math.pi / 2)
        assert c1 == pytest.approx(-1.0, abs=1e-10)

    def test_against_finite_differences(self, spin52):
        rng = np.random.default_rng(31)
        h = 1e-4
        for _ in range(30):
            b = rng.uniform(0, 1)
            theta = rng.uniform(-3, 3)
            meas = build_measurement(spin52, b)
            c, c1, c2 = correlation_derivatives(spin52, meas, theta)
            cp = correlation(spin52, meas, theta + h)
            cm = correlation(spin52, meas, theta - h)
            assert c1 == pytest.approx((cp - cm) / (2 * h), abs=1e-6)
            assert c2 == pytest.approx((cp - 2 * c + cm) / h ** 2, abs=1e-6)


class TestLeggettGargParameter:
    def test_boundary_at_zero(self, spin52, parity52):
        assert klg_equal_interval(spin52, parity52, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_boundary_at_pi(self, spin52, parity52):
        assert klg_equal_interval(spin52, parity52, math.pi) == pytest.approx(-2.0, abs=1e-10)

    def test_violation_near_pi(self, spin52, parity52):
        assert abs(klg_equal_interval(spin52, parity52, 0.95 * math.pi)) > 2.0

    def test_bound_by_four_c_zero(self, spin52):
        for b in (0.3, 0.7, 1.0):
            meas = build_measurement(spin52, b)
            c0 = correlation(spin52, meas, 0.0)
            for theta in np.linspace(0, math.pi, 101):
                assert abs(klg_equal_interval(spin52, meas, theta)) <= 4 * c0 + 1e-12

    def test_four_time_reduces_to_equal_interval(self, spin52, parity52):
        theta = 0.41
        assert klg_four_time(spin52, parity52, 0, theta, 2 * theta, 3 * theta) == \
            pytest.approx(klg_equal_interval(spin52, parity52, theta), abs=1e-10)

    def test_four_time_degenerate(self, spin52, parity52):
        assert klg_four_time(spin52, parity52, 0, 0, 0, 0) == pytest.approx(2.0, abs=1e-12)

    def test_four_time_general_gaps(self, spin52, parity52):
        expected = (correlation(spin52, parity52, 0.2)
                    + correlation(spin52, parity52, 0.3)
                    + correlation(spin52, parity52, 0.4)
                    - correlation(spin52, parity52, 0.9))
        assert klg_four_time(spin52, parity52, 0, 0.2, 0.5, 0.9) == \
            pytest.approx(expected, abs=1e-12)

    def test_four_time_warns_on_unordered_times(self, spin52, parity52):
        with pytest.warns(UserWarning, match="not ordered"):
            klg_four_time(spin52, parity52, 0.5, 0.1, 0.7, 0.9)


class TestMaxViolation:
    def test_projective_violates(self, spin52, parity52):
        _, k_max = max_violation(spin52, parity52, 0.0, math.pi)
        assert k_max > 2.0

    def test_weak_measurement_does_not(self, spin52):
        meas = build_measurement(spin52, 0.5)
        _, k_max = max_violation(spin52, meas, 0.0, math.pi)
        assert k_max <= 2.0

    def test_collapsed_range(self, spin52, parity52):
        theta_star, k_max = max_violation(spin52, parity52, math.pi, math.pi)
        assert theta_star == math.pi
        assert k_max == pytest.approx(2.0, abs=1e-10)

    def test_refinement_is_local_maximum(self, spin52, parity52):
        theta_star, k_max = max_violation(spin52, parity52, 0.0, math.pi)
        for eps in (1e-4, -1e-4):
            assert abs(klg_equal_interval(spin52, parity52, theta_star + eps)) <= k_max + 1e-10

    def test_monotone_in_measurability(self, spin52):
        maxima = []
        for b in (0.5, 0.7, 0.9, 0.99, 1.0):
            meas = build_measurement(spin52, b)
            maxima.append(max_violation(spin52, meas, 0.0, math.pi)[1])
        assert np.all(np.diff(maxima) >= -1e-10)

    def test_rejects_bad_arguments(self, spin52, parity52):
        with pytest.raises(ValueError):
            max_violation(spin52, parity52, 1.0, 0.0)
        with pytest.raises(ValueError):
            max_violation(spin52, parity52, 0.0, 1.0, grid_points=8)


class TestCommonExtremumTheorem:
    @pytest.mark.parametrize("b", [1.0, 0.9])
    def test_extrema_of_c_pin_fisher(self, spin52, b):
        # at every stationary point of C, either C^2 = 1 (b=1 only) or F = 0
        meas = build_measurement(spin52, b)
        grid = np.linspace(0.0, math.pi, 4001)
        slopes = np.array([correlation_derivatives(spin52, meas, t)[1] for t in grid])
        for i in np.flatnonzero(np.sign(slopes[:-1]) * np.sign(slopes[1:]) < 0):
            lo, hi = grid[i], grid[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if slopes[i] * correlation_derivatives(spin52, meas, mid)[1] > 0:
                    lo = mid
                else:
                    hi = mid
            theta_e = 0.5 * (lo + hi)
            c = correlation(spin52, meas, theta_e)
            if abs(c * c - 1.0) > 1e-8:
                assert fisher_from_correlation(spin52, meas, theta_e) <= 1e-8
            else:
                assert b == 1.0


def test_measurement_freed_after_use(spin52):
    """Correlation calls keep no reference to the measurement they were given."""
    meas = build_measurement(spin52, 0.9)
    correlation(spin52, meas, 0.4)
    klg_equal_interval(spin52, meas, 0.4)
    max_violation(spin52, meas, 0.0, 1.0)
    ref = weakref.ref(meas)
    del meas
    assert ref() is None
