import math
import re
import struct
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lgmet import build_measurement, make_spin_system, max_violation
import lgmet.correlations
import lgmet.spin
from lgmet.correlations import (MAX_GRID_COUNT, MAX_NEWTON_STEPS, _coefficients, _correlation_klg,
                                _klg_kernel, _series)
from lgmet.spin import REFERENCE_DIM
from conftest import (brute_force_correlation, count_calls, derivative_columns,
                      parity_correlation_closed_form, random_partition, rows_at,
                      sign_partition)
from oracles import (direct_correlation_derivatives, direct_klg, fourier_weights, gaps, point_klg,
                     propagator, two_time_correlation)


def _refine(sys, meas, lo, hi, grid_points):
    """max_violation checked against the direct sums; returns (grid, argmax i, the theta of
    each refinement step, read from its _series call of order 1).

    theta* lies in the bracketing grid interval, takes fewer than MAX_NEWTON_STEPS steps,
    and k_max is |K_LG(theta*)|, at least the grid maximum, and, unless theta* is the grid
    argmax itself, a local maximum.
    """
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, lgmet.correlations._series)
        theta_star, k_max = max_violation(sys, meas, lo, hi, grid_points)
    steps = [float(args[2][0]) for args in calls if args[3] == 1]
    grid = np.linspace(lo, hi, grid_points)
    values = [abs(direct_klg(sys, meas, theta)) for theta in grid]
    i = int(np.argmax(values))
    assert len(steps) < MAX_NEWTON_STEPS
    assert grid[max(i - 1, 0)] <= theta_star <= grid[min(i + 1, grid_points - 1)]
    assert k_max == abs(direct_klg(sys, meas, theta_star)) >= values[i]
    if theta_star != grid[i]:
        for eps in (1e-6, -1e-6):
            assert abs(direct_klg(sys, meas, theta_star + eps)) <= k_max + 1e-9
    return grid, i, steps


# (two_j, partition seed, b, lo, span, grid points) where the refinement bisects: the grid
# argmax at the low and at the high window edge, its slope pointing out of the window, and an
# interior argmax where sign(K_LG) K_LG'' > 0, so that the Newton step heads for a minimum
FALLBACK_CASES = {"low edge": (3, 0, 0.95, 0.5, 1.0, 16), "high edge": (3, 0, 0.95, 1.0, 8.0, 16),
                  "convex start": (6, 0, 0.95, 0.0, 6.0, 16)}


def _random_measurement(two_j, seed, b):
    sys = make_spin_system(two_j)
    return sys, build_measurement(sys, b, random_partition(np.random.default_rng(seed), two_j))


def _dense_klg_four_time(sys, meas, t1, t2, t3, t4):
    """C12 + C23 + C34 - C14 from the dense two-time route."""
    def c(t_i, t_j):
        return two_time_correlation(sys, meas, t_i, t_j)
    return c(t1, t2) + c(t2, t3) + c(t3, t4) - c(t1, t4)


class TestCorrelation:
    def test_projective_boundary_values(self, spin52, parity52):
        c = rows_at(spin52, parity52, [0.0, math.pi / 2, math.pi]).C
        assert c.tolist() == pytest.approx([1.0, 0.0, -1.0], abs=1e-12)

    def test_matches_closed_form(self, spin52, parity52):
        rng = np.random.default_rng(21)
        thetas = rng.uniform(0.05, math.pi - 0.05, size=40)
        for theta, c in zip(thetas, rows_at(spin52, parity52, thetas).C):
            assert c == pytest.approx(parity_correlation_closed_form(6, theta), abs=1e-12)

    def test_matches_brute_force(self, spin52):
        rng = np.random.default_rng(22)
        for b in (0.3, 0.8, 1.0):
            meas = build_measurement(spin52, b)
            thetas = rng.uniform(-4, 4, size=8)
            for theta, c in zip(thetas, rows_at(spin52, meas, thetas).C):
                assert c == pytest.approx(brute_force_correlation(spin52, meas, theta), abs=1e-10)

    def test_bounded_by_c_zero(self, spin52):
        for b in (0.2, 0.6, 1.0):
            c = rows_at(spin52, build_measurement(spin52, b), np.linspace(0, 2 * math.pi, 61)).C
            assert np.all(np.abs(c) <= c[0] + 1e-12)  # c[0] is C(0)

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(-8, 8), b=st.floats(0, 1))
    def test_even_and_periodic(self, spin52, theta, b):
        meas = build_measurement(spin52, b)
        thetas = np.array([theta, -theta, theta + 2 * math.pi])
        c, c_neg, c_shift = _series(spin52, _coefficients(spin52, meas.a_diag[None]), thetas, 0)[0]
        assert c_neg == pytest.approx(c, abs=1e-12)
        assert c_shift == pytest.approx(c, abs=1e-10)


class TestStationarity:
    """C(theta) of the sweep rows against the dense two-time route C_ij at shifted times."""

    def test_shift_invariance(self, spin52, parity52):
        theta = 0.63
        assert two_time_correlation(spin52, parity52, 0.3, 0.3 + theta) == pytest.approx(
            rows_at(spin52, parity52, theta).C[0], abs=1e-10)

    def test_equal_times(self, spin52, parity52):
        assert two_time_correlation(spin52, parity52, 0.0, 0.0) == pytest.approx(
            rows_at(spin52, parity52, 0.0).C[0], abs=1e-12)

    def test_reversed_times_use_evenness(self, spin52, parity52):
        assert two_time_correlation(spin52, parity52, 1.0, 0.2) == pytest.approx(
            rows_at(spin52, parity52, 0.8).C[0], abs=1e-12)


def _check_against_mpmath(two_j):
    """C, C' and C'' of derivative_columns' series against 50-digit sums over the weights
    grouped by gap (see TestDerivatives.test_against_mpmath).

    The series takes each phase as the float n theta, which is within 2**-53 |n theta| of
    the exact one.  So against the terms at the float phases each value is within the
    rounding bound 4e-15 S_p, S_p = sum_kl |w_kl| |k - l|^p / d, and against the terms at
    the exact phases within 4e-15 S_p + 2**-53 |theta| S_(p+1) (at two_j = 257 the phases
    alone take C'' past 4e-15 S_2, on every route).
    """
    rng = np.random.default_rng(two_j)
    sys = make_spin_system(two_j)
    d, g = sys.dim, np.abs(gaps(sys))
    for _ in range(8):
        meas = build_measurement(sys, rng.uniform(0.0, 1.0), random_partition(rng, two_j))
        theta = rng.uniform(-4.0, 4.0)
        w = fourier_weights(sys, meas)
        weights = w.reshape(d, d)
        with mpmath.workdps(50):
            grouped = {}
            for n in range(1 - d, d):
                diagonal = np.diagonal(weights, -n).tolist()
                total = math.fsum(diagonal)
                # plus the rounded residual: within 2**-106 of the exact sum
                grouped[n] = mpmath.mpf(total) + math.fsum(diagonal + [-total])
            truths = []
            for phase in (lambda n: mpmath.mpf(theta) * n, lambda n: mpmath.mpf(float(n) * theta)):
                terms = [(n, w, *mpmath.cos_sin(phase(n))) for n, w in grouped.items()]
                truths.append([float(t / d) for t in (
                    mpmath.fsum(w * cos for n, w, cos, sin in terms),
                    -mpmath.fsum(w * n * sin for n, w, cos, sin in terms),
                    -mpmath.fsum(w * n * n * cos for n, w, cos, sin in terms))])
        columns = [_series(sys, _coefficients(sys, meas.a_diag[None]), np.array([theta]), 0)[0],
                   *derivative_columns(sys, meas, theta)]
        sums = [float(np.sum(w * g ** p)) / d for p in range(4)]
        for p, ((value,), exact, float_phases) in enumerate(zip(columns, *truths)):
            bound = 4e-15 * sums[p]
            assert abs(value - float_phases) <= bound, (p, theta, value, float_phases)
            assert abs(value - exact) <= bound + 2.0 ** -53 * abs(theta) * sums[p + 1], (
                p, theta, value, exact)


class TestDerivatives:
    """C' and C'' from correlations._series, as _rows forms them."""

    def test_symmetry_at_origin(self, spin52):
        for b in (0.4, 1.0):
            meas = build_measurement(spin52, b)
            (c1,), _ = derivative_columns(spin52, meas, 0.0)
            assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_projective_values_at_pi(self, spin52, parity52):
        (c1,), (c2,) = derivative_columns(spin52, parity52, math.pi)
        assert c1 == pytest.approx(0.0, abs=1e-10)
        assert c2 == pytest.approx(35 / 3, abs=1e-10)

    def test_projective_slope_at_half_pi(self, spin52, parity52):
        (c1,), _ = derivative_columns(spin52, parity52, math.pi / 2)
        assert c1 == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("two_j", [5, 12, 25, 51, 257])
    def test_against_mpmath(self, two_j):
        """C, C' and C'' against 50-digit sums at random partitions, b and theta, within the
        bounds of _check_against_mpmath; from two_j = 25 on d > REFERENCE_DIM, so the sums
        take the harmonic-coefficient route, at 257 folded in three row chunks."""
        _check_against_mpmath(two_j)

    def test_against_finite_differences(self, spin52):
        rng = np.random.default_rng(31)
        h = 1e-4
        for _ in range(30):
            b = rng.uniform(0, 1)
            theta = rng.uniform(-3, 3)
            meas = build_measurement(spin52, b)
            c, cp, cm = _series(spin52, _coefficients(spin52, meas.a_diag[None]),
                                np.array([theta, theta + h, theta - h]), 0)[0]
            (c1,), (c2,) = derivative_columns(spin52, meas, theta)
            assert c1 == pytest.approx((cp - cm) / (2 * h), abs=1e-6)
            assert c2 == pytest.approx((cp - 2 * c + cm) / h ** 2, abs=1e-6)


class TestLeggettGargParameter:
    def test_boundary_at_zero(self, spin52, parity52):
        assert point_klg(spin52, parity52, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_boundary_at_pi(self, spin52, parity52):
        assert point_klg(spin52, parity52, math.pi) == pytest.approx(-2.0, abs=1e-10)

    def test_violation_near_pi(self, spin52, parity52):
        assert abs(point_klg(spin52, parity52, 0.95 * math.pi)) > 2.0

    def test_bound_by_four_c_zero(self, spin52):
        for b in (0.3, 0.7, 1.0):
            meas = build_measurement(spin52, b)
            c0 = rows_at(spin52, meas, 0.0).C[0]
            for theta in np.linspace(0, math.pi, 101):
                assert abs(point_klg(spin52, meas, theta)) <= 4 * c0 + 1e-12

    def test_four_time_reduces_to_equal_interval(self, spin52, parity52):
        theta = 0.41
        assert _dense_klg_four_time(spin52, parity52, 0, theta, 2 * theta, 3 * theta) == \
            pytest.approx(point_klg(spin52, parity52, theta), abs=1e-10)

    def test_four_time_degenerate(self, spin52, parity52):
        assert _dense_klg_four_time(spin52, parity52, 0, 0, 0, 0) == pytest.approx(2.0, abs=1e-12)

    def test_four_time_general_gaps(self, spin52, parity52):
        c2, c3, c4, c9 = rows_at(spin52, parity52, [0.2, 0.3, 0.4, 0.9]).C
        expected = c2 + c3 + c4 - c9
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
        # the general path: a grid of one repeated theta, and no refinement step
        theta_star, k_max = max_violation(spin52, parity52, math.pi, math.pi)
        assert theta_star == math.pi
        assert k_max == pytest.approx(2.0, abs=1e-10)
        assert struct.pack("<d", k_max) == struct.pack(
            "<d", abs(point_klg(spin52, parity52, math.pi)))
        for bound in (1, np.float32(1.0), np.float64(1.0)):
            theta_star, k_max = max_violation(spin52, parity52, bound, bound)
            assert type(theta_star) is float and type(k_max) is float
            assert theta_star == 1.0
            assert struct.pack("<d", k_max) == struct.pack(
                "<d", abs(point_klg(spin52, parity52, 1.0)))

    def test_refinement_is_local_maximum(self, spin52, parity52):
        theta_star, k_max = max_violation(spin52, parity52, 0.0, math.pi)
        for eps in (1e-4, -1e-4):
            assert abs(point_klg(spin52, parity52, theta_star + eps)) <= k_max + 1e-10

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
        # a width hi - lo or a bound phase 3 theta (d - 1) beyond the float range names
        # the first such bound as given, before any grid is built
        monkeypatch.setattr(np, "linspace", None)
        bad = next(t for t in (lo, hi) if not math.isfinite(3.0 * t * (spin52.dim - 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("theta=%r rad is too large: 3 theta "
                                                           "times 5 overflows" % bad)):
                max_violation(spin52, parity52, lo, hi)

    @pytest.mark.parametrize("lo", [2.0 ** 60, -1e16])
    def test_rejects_range_of_noise_phases(self, spin52, parity52, monkeypatch, lo):
        # a bound phase 3 theta (d - 1) of 2**54 or more has a float spacing past pi;
        # it is named as given, before any grid is built
        monkeypatch.setattr(np, "linspace", None)
        hi = lo + 1e6 * math.ulp(lo)
        with pytest.raises(ValueError, match=re.escape("theta=%r rad is too large: 3 theta times 5 "
                                                       "reaches 2**54" % lo)):
            max_violation(spin52, parity52, lo, hi)

    @pytest.mark.parametrize("dim", [2, 6, 402])
    def test_phase_bound_is_two_to_the_54(self, dim):
        # the largest theta whose phase rounds below 2**54 passes; the next float fails
        theta = 2.0 ** 54 / (3 * (dim - 1))
        while 3.0 * theta * (dim - 1) >= 2.0 ** 54:
            theta = math.nextafter(theta, 0.0)
        for sign in (1.0, -1.0):
            lgmet.correlations._check_phases(dim, [sign * theta])
            with pytest.raises(ValueError, match="reaches 2"):
                lgmet.correlations._check_phases(dim, [0.0, sign * math.nextafter(theta, math.inf)])

    @pytest.mark.parametrize("lo", [1e9, -1e12])
    def test_terminates_at_large_theta(self, spin52, parity52, monkeypatch, lo):
        # 1e-8 is below the float spacing there; count the series sums so that a
        # regression fails here instead of hanging the suite
        calls = []
        series = lgmet.correlations._series

        def counted(*args):
            calls.append(args[3])
            if len(calls) > 2 * MAX_NEWTON_STEPS + 4:
                raise AssertionError("the refinement did not terminate")
            return series(*args)

        monkeypatch.setattr(lgmet.correlations, "_series", counted)
        hi = lo + 1e6 * math.ulp(lo)
        theta_star, k_max = max_violation(spin52, parity52, lo, hi)
        assert calls.count(1) >= 1
        assert lo <= theta_star <= hi
        assert k_max == abs(point_klg(spin52, parity52, theta_star))

    @pytest.mark.parametrize("two_j", [5, 51, 201, 401])
    def test_refinement_evaluations(self, monkeypatch, two_j):
        # the violation-search window [0, 3 pi / d] on a 32-point grid; each Newton step is
        # one _series call of order 1 and one of order 2
        sys = make_spin_system(two_j)
        calls = count_calls(monkeypatch, lgmet.correlations._series)
        for b in (1.0, 0.95):
            del calls[:]
            max_violation(sys, build_measurement(sys, b), 0.0, 3 * math.pi / sys.dim, 32)
            orders = [args[3] for args in calls]
            assert 1 <= orders.count(1) == orders.count(2) <= 6

    @pytest.mark.parametrize("two_j", [23, 25, 255, 257, 401])
    def test_one_fold_per_call(self, monkeypatch, two_j):
        """_coefficients runs once per max_violation call and once per _rows call, whose grid
        here holds the C^2 = 1 columns 0 and pi (so C'' is summed too); while d <=
        REFERENCE_DIM it returns the weights themselves, above it folds them into d harmonic
        coefficients, on both sides of d^2 = BLOCK_ELEMENTS (two_j 255 and 257) alike."""
        sys = make_spin_system(two_j)
        meas = build_measurement(sys, 1.0)
        calls = count_calls(monkeypatch, lgmet.correlations._coefficients)
        max_violation(sys, meas, 0.0, 3 * math.pi / sys.dim, 32)
        assert len(calls) == 1
        rows = rows_at(sys, meas, [0.0, 0.4, math.pi])
        assert len(calls) == 2 and rows.F[0] > 0.0
        coefs = lgmet.correlations._coefficients(sys, meas.a_diag[None])
        assert coefs.shape == (1, sys.dim ** 2 if sys.dim <= REFERENCE_DIM else sys.dim)

    @pytest.mark.parametrize("two_j", [5, 51, 201])
    @pytest.mark.parametrize("b", [1.0, 0.95])
    def test_refinement_reaches_oracle_maximum(self, two_j, b):
        """theta* stays in the bracketing grid interval, and k_max is at least the dense
        oracle maximum of |K_LG| over that interval."""
        sys = make_spin_system(two_j)
        meas = build_measurement(sys, b)
        grid = np.linspace(0.0, 3 * math.pi / sys.dim, 32)
        i = int(np.argmax([abs(direct_klg(sys, meas, theta)) for theta in grid]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        theta_star, k_max = max_violation(sys, meas, grid[0], grid[-1], grid.size)
        assert lo <= theta_star <= hi
        assert k_max >= max(abs(direct_klg(sys, meas, t)) for t in np.linspace(lo, hi, 401)) - 1e-12

    @pytest.mark.parametrize("two_j", [51, 201, 401])
    def test_parity_closed_form_optimum(self, two_j):
        """At b = 1 on the [0, 3 pi / d] window, against scipy's bounded minimize_scalar of
        -|K_LG| from the closed form C = sin(d theta) / (d sin theta) on the bracketing grid
        interval."""
        from scipy.optimize import minimize_scalar

        sys = make_spin_system(two_j)

        def k_closed_form(theta):
            return abs(3.0 * parity_correlation_closed_form(sys.dim, theta)
                       - parity_correlation_closed_form(sys.dim, 3.0 * theta))

        grid = np.linspace(0.0, 3 * math.pi / sys.dim, 32)
        i = int(np.argmax([k_closed_form(theta) for theta in grid]))
        optimum = minimize_scalar(lambda theta: -k_closed_form(theta), method="bounded",
                                  bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
                                  options={"xatol": 1e-12})
        theta_star, k_max = max_violation(sys, build_measurement(sys, 1.0), 0.0, grid[-1], 32)
        assert k_max >= -optimum.fun - 1e-12
        assert abs(theta_star - optimum.x) <= 1e-7

    @settings(max_examples=60, deadline=None)
    @given(two_j=st.integers(1, 15), seed=st.integers(0, 2 ** 32 - 1),
           b=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           lo=st.floats(-50.0, 50.0), span=st.floats(0.0, 20.0, exclude_min=True),
           grid_points=st.integers(16, 64))
    @example(*FALLBACK_CASES["low edge"])
    @example(*FALLBACK_CASES["high edge"])
    @example(*FALLBACK_CASES["convex start"])
    def test_refinement_against_direct_sums(self, two_j, seed, b, lo, span, grid_points):
        sys, meas = _random_measurement(two_j, seed, b)
        _refine(sys, meas, lo, lo + span, grid_points)

    @pytest.mark.parametrize("case", FALLBACK_CASES)
    def test_fallback_bisects(self, case):
        """FALLBACK_CASES reach the bisection: at a window edge the bracket closes on the
        edge after one step; from a convex start the second step is a half-bracket midpoint."""
        two_j, seed, b, lo, span, grid_points = FALLBACK_CASES[case]
        sys, meas = _random_measurement(two_j, seed, b)
        grid, i, steps = _refine(sys, meas, lo, lo + span, grid_points)
        if case == "convex start":
            _, _, c2 = direct_correlation_derivatives(sys, meas, grid[i])
            _, _, c2_3 = direct_correlation_derivatives(sys, meas, 3.0 * grid[i])
            assert 0 < i < grid.size - 1
            assert direct_klg(sys, meas, grid[i]) * (3.0 * c2 - 9.0 * c2_3) > 0.0
            assert steps[0] == grid[i]
            assert steps[1] in (0.5 * (grid[i - 1] + grid[i]), 0.5 * (grid[i] + grid[i + 1]))
        else:
            assert i == (0 if case == "low edge" else grid.size - 1)
            assert steps == [grid[i]]

    def test_huge_range_cannot_exceed_true_maximum(self):
        # K_LG is 2 pi periodic, so no range holds a larger |K_LG| than [0, 2 pi] does
        sys = make_spin_system(1)
        meas = build_measurement(sys, 0.97)
        grid = np.linspace(0.0, 2 * math.pi, 2 ** 18 + 1)
        coefs = _coefficients(sys, meas.a_diag[None])
        true_max = float(np.max(np.abs(_correlation_klg(sys, coefs, grid)[1])))
        try:
            k_max = max_violation(sys, meas, -1e307, 1e307, 16)[1]
        except ValueError:
            return
        assert k_max <= true_max + 1e-9

    def test_rejects_grid_above_limit(self, spin52, parity52, monkeypatch):
        # linspace must never see the count: a grid this large cannot be allocated
        monkeypatch.setattr(np, "linspace", None)
        for count in (MAX_GRID_COUNT + 1, 10 ** 18):
            with pytest.raises(ValueError, match="limit of %d" % MAX_GRID_COUNT):
                max_violation(spin52, parity52, 0.0, 1.0, grid_points=count)


def _kernel_klg_error(sys, meas, theta):
    """|a^T Q a - point_klg| and its bound max(1e-13, 1e-15 d |theta|)."""
    got = float(meas.a_diag @ _klg_kernel(sys, theta) @ meas.a_diag)
    return abs(got - point_klg(sys, meas, theta)), max(1e-13, 1e-15 * sys.dim * abs(theta))


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

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 51, 200, 201])
    def test_matches_dense_propagator(self, two_j):
        """Q against (3 |U(theta)|^2 - |U(3 theta)|^2) / d from the complex propagator, entry
        by entry within 16 eps / sqrt(d): d = 2, and the self-paired lam = 0 column of
        integer spin."""
        sys = make_spin_system(two_j)
        bound = 16 * np.finfo(float).eps / math.sqrt(sys.dim)
        for theta in (0.0, 1e-7, 0.37, -1.3, 2.5, math.pi, 1e3, -1e3):
            dense = (3.0 * np.abs(propagator(sys, theta)) ** 2
                     - np.abs(propagator(sys, 3.0 * theta)) ** 2) / sys.dim
            assert np.max(np.abs(_klg_kernel(sys, theta) - dense)) <= bound


class TestCommonExtremumTheorem:
    @pytest.mark.parametrize("b", [1.0, 0.9])
    def test_extrema_of_c_pin_fisher(self, spin52, b):
        # at every stationary point of C, either C^2 = 1 (b=1 only) or F = 0
        meas = build_measurement(spin52, b)
        grid = np.linspace(0.0, math.pi, 4001)
        slopes = derivative_columns(spin52, meas, grid)[0]
        for i in np.flatnonzero(np.sign(slopes[:-1]) * np.sign(slopes[1:]) < 0):
            lo, hi = grid[i], grid[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if slopes[i] * derivative_columns(spin52, meas, mid)[0][0] > 0:
                    lo = mid
                else:
                    hi = mid
            (row,) = rows_at(spin52, meas, 0.5 * (lo + hi))
            if abs(row.C * row.C - 1.0) > 1e-8:
                assert row.F <= 1e-8
            else:
                assert b == 1.0


def test_measurement_freed_after_use(spin52):
    """Evaluations keep no reference to the measurement they were given."""
    meas = build_measurement(spin52, 0.9)
    rows_at(spin52, meas, 0.4)
    point_klg(spin52, meas, 0.4)
    max_violation(spin52, meas, 0.0, 1.0)
    ref = weakref.ref(meas)
    del meas
    assert ref() is None


def test_reference_dim_picks_both_forks(monkeypatch):
    """spin.REFERENCE_DIM alone picks the arithmetic that the figure digests pin: across
    two_j 23 to 26 (d = 24 to 27) _coefficients hands _series the d^2 weights iff d <=
    REFERENCE_DIM, and the spin build solves the mirror block iff the spin is half-integer
    and d > REFERENCE_DIM."""
    blocks = count_calls(monkeypatch, lgmet.spin._mirror_eigh)
    routes = set()
    for two_j in range(23, 27):
        del blocks[:]
        sys = make_spin_system(two_j)
        toeplitz = sys.dim <= REFERENCE_DIM
        meas = build_measurement(sys, 0.9, sign_partition(two_j))
        coefs = _coefficients(sys, meas.a_diag[None])
        assert coefs.shape == (1, sys.dim ** 2 if toeplitz else sys.dim), two_j
        assert len(blocks) == (two_j % 2 == 1 and not toeplitz), two_j
        routes.add(toeplitz)
    assert routes == {True, False}
