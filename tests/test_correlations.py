import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgmet import (build_measurement, correlation, correlation_derivatives,
                   fisher_from_correlation, klg_equal_interval, make_spin_system,
                   max_violation)
import lgmet.correlations
from lgmet.correlations import MAX_GRID_COUNT, _klg_kernel
from conftest import brute_force_correlation, parity_correlation_closed_form, random_partition
from oracles import two_time_correlation


def _dense_klg_four_time(sys, meas, t1, t2, t3, t4):
    """C12 + C23 + C34 - C14 from the dense two-time route."""
    def c(t_i, t_j):
        return two_time_correlation(sys, meas, t_i, t_j)
    return c(t1, t2) + c(t2, t3) + c(t3, t4) - c(t1, t4)


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
    """correlation(theta) against the dense two-time route C_ij at shifted times."""

    def test_shift_invariance(self, spin52, parity52):
        theta = 0.63
        assert two_time_correlation(spin52, parity52, 0.3, 0.3 + theta) == pytest.approx(
            correlation(spin52, parity52, theta), abs=1e-10)

    def test_equal_times(self, spin52, parity52):
        assert two_time_correlation(spin52, parity52, 0.0, 0.0) == pytest.approx(
            correlation(spin52, parity52, 0.0), abs=1e-12)

    def test_reversed_times_use_evenness(self, spin52, parity52):
        assert two_time_correlation(spin52, parity52, 1.0, 0.2) == pytest.approx(
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
        assert _dense_klg_four_time(spin52, parity52, 0, theta, 2 * theta, 3 * theta) == \
            pytest.approx(klg_equal_interval(spin52, parity52, theta), abs=1e-10)

    def test_four_time_degenerate(self, spin52, parity52):
        assert _dense_klg_four_time(spin52, parity52, 0, 0, 0, 0) == pytest.approx(2.0, abs=1e-12)

    def test_four_time_general_gaps(self, spin52, parity52):
        expected = (correlation(spin52, parity52, 0.2)
                    + correlation(spin52, parity52, 0.3)
                    + correlation(spin52, parity52, 0.4)
                    - correlation(spin52, parity52, 0.9))
        assert _dense_klg_four_time(spin52, parity52, 0, 0.2, 0.5, 0.9) == \
            pytest.approx(expected, abs=1e-12)


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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "linspace", None)  # rejected before any grid is built
            for count in (20.5, 20.0, np.float64(20)):
                with pytest.raises(ValueError, match="grid_points"):
                    max_violation(spin52, parity52, 0.0, 1.0, grid_points=count)
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0),
                       (math.inf, math.inf), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                max_violation(spin52, parity52, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, 1e308), (-1e308, 0.0),
                                        (1e308, 1e308), (-7e307, -7e307), (6e307, 7e307)])
    def test_rejects_overflowing_range_without_warning(self, spin52, parity52, monkeypatch,
                                                        lo, hi):
        # a width hi - lo or a bound phase 3 theta (d - 1) beyond the float range is named
        # with the bounds given, before any grid is built
        monkeypatch.setattr(np, "linspace", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("theta range [%r, %r] is too large"
                                                           % (lo, hi))):
                max_violation(spin52, parity52, lo, hi)

    @pytest.mark.parametrize("lo", [1e9, -1e12, 2.0 ** 60])
    def test_terminates_at_large_theta(self, spin52, parity52, monkeypatch, lo):
        # 1e-8 is below the float spacing there; count evaluations so that a
        # regression fails here instead of hanging the suite
        calls = []
        klg = klg_equal_interval

        def counted(*args):
            calls.append(1)
            if len(calls) > 500:
                raise AssertionError("golden section did not terminate")
            return klg(*args)

        monkeypatch.setattr(lgmet.correlations, "klg_equal_interval", counted)
        hi = lo + 1e6 * math.ulp(lo)
        theta_star, k_max = max_violation(spin52, parity52, lo, hi)
        assert lo <= theta_star <= hi
        assert k_max == abs(klg(spin52, parity52, theta_star))

    def test_rejects_grid_above_limit(self, spin52, parity52, monkeypatch):
        # linspace must never see the count: a grid this large cannot be allocated
        monkeypatch.setattr(np, "linspace", None)
        for count in (MAX_GRID_COUNT + 1, 10 ** 18):
            with pytest.raises(ValueError, match="limit of %d" % MAX_GRID_COUNT):
                max_violation(spin52, parity52, 0.0, 1.0, grid_points=count)


def _kernel_klg_error(sys, meas, theta):
    """|a^T Q a - klg_equal_interval| and its bound max(1e-13, 1e-15 d |theta|)."""
    got = float(meas.a_diag @ _klg_kernel(sys, theta) @ meas.a_diag)
    return abs(got - klg_equal_interval(sys, meas, theta)), max(1e-13, 1e-15 * sys.dim * abs(theta))


class TestKlgKernel:
    """The fixed-theta quadratic form against the Fourier-weight route."""

    @settings(max_examples=150, deadline=None)
    @given(two_j=st.integers(1, 15), seed=st.integers(0, 2 ** 32 - 1),
           b=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           theta=st.one_of(st.sampled_from([0.0, math.pi, -math.pi, 0.95 * math.pi, 1e3]),
                           st.floats(-2 * math.pi, 2 * math.pi), st.floats(-1e3, 1e3)))
    def test_matches_fourier_route(self, two_j, seed, b, theta):
        sys = make_spin_system(two_j)
        meas = build_measurement(sys, b, random_partition(np.random.default_rng(seed), two_j))
        error, bound = _kernel_klg_error(sys, meas, theta)
        assert error <= bound

    @pytest.mark.parametrize("two_j", [201, 401])
    def test_large_spin(self, two_j):
        sys = make_spin_system(two_j)
        for b in (0.3, 0.99, 1.0):
            meas = build_measurement(sys, b)
            for theta in (1.0 / sys.dim, 3 * math.pi / sys.dim, 0.95 * math.pi, -7.0, 999.9):
                error, bound = _kernel_klg_error(sys, meas, theta)
                assert error <= bound


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
