import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from lgmet import build_measurement, make_spin_system, max_violation
import lgmet.correlations
import lgmet.estimation
from lgmet.correlations import _coefficients, _correlation_klg
from lgmet.estimation import COLUMNS, InconsistentCorrelationError, _fisher, _rows
from lgmet.measurement import PartitionSpec, _a_diags, _weights, resolve_partition
from lgmet.scan import RunConfig, sweep, violation_threshold_b
from conftest import (count_calls, parity_correlation_closed_form, random_partition, rows_at,
                      sign_partition)
from oracles import (NearSingularProbabilityError, fisher_from_probabilities,
                     outcome_probabilities, point_klg, prepared_state, propagator,
                     qfi_of_state)


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
    """The F column of the sweep rows, (dC/dtheta)^2 / (1 - C^2) with its |C''| limit."""

    def test_projective_limit_at_pi(self, spin52, parity52):
        assert rows_at(spin52, parity52, math.pi).F[0] == pytest.approx(35 / 3, abs=1e-10)

    def test_noise_collapse_at_pi(self, spin52):
        meas = build_measurement(spin52, 0.99)
        assert rows_at(spin52, meas, math.pi).F[0] < 1e-6

    def test_zero_at_origin_for_weak_measurement(self, spin52):
        for b in (0.2, 0.7, 0.99):
            meas = build_measurement(spin52, b)
            assert rows_at(spin52, meas, 0.0).F[0] == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_probability_route(self, spin52):
        rng = np.random.default_rng(53)
        count = 0
        while count < 50:
            b = rng.uniform(0.05, 1.0)
            theta = rng.uniform(-3, 3)
            meas = build_measurement(spin52, b)
            (row,) = rows_at(spin52, meas, theta)
            if 1 - row.C ** 2 <= 1e-6:
                continue
            f_corr = row.F
            f_prob = fisher_from_probabilities(spin52, meas, +1, theta)
            assert f_prob == pytest.approx(f_corr, rel=1e-6, abs=1e-9)
            count += 1


class TestFisherArrays:
    def test_regular_and_singular_rows(self):
        c = np.array([[0.5, 1.0, -1.0, 0.0], [0.5, 0.2, 0.3, 0.0]])
        c1 = np.array([[0.3, 0.0, 1e-7, -1.0], [0.3, 0.1, 0.2, -1.0]])
        c2 = np.array([[2.0, -35 / 3, 4.0, 0.0], [2.0, 5.0, 6.0, 0.0]])
        asked = []
        f = _fisher(c, c1, lambda columns: asked.append(columns.tolist()) or c2[:, columns])
        assert asked == [[False, True, True, False]]
        assert f.tolist() == [[0.3 * 0.3 / (1.0 - 0.5 * 0.5), 35 / 3, 4.0, 1.0],
                              [0.3 * 0.3 / (1.0 - 0.5 * 0.5), 0.1 * 0.1 / (1.0 - 0.2 * 0.2),
                               0.2 * 0.2 / (1.0 - 0.3 * 0.3), 1.0]]

    def test_no_singular_row_evaluates_no_second_derivative(self):
        f = _fisher(np.array([[0.5, 0.0]]), np.array([[0.3, -1.0]]),
                    lambda columns: pytest.fail("C'' evaluated with no singular row"))
        assert f.tolist() == [[0.3 * 0.3 / (1.0 - 0.5 * 0.5), 1.0]]

    def test_any_singular_row_with_a_slope_raises(self):
        c = np.array([[0.5, 1.0, -1.0]])
        c1 = np.array([[0.3, 0.0, 1e-5]])
        with pytest.raises(InconsistentCorrelationError):
            _fisher(c, c1, lambda columns: pytest.fail("C'' evaluated before the slope check"))


class TestQuantumFisherInformation:
    """The F_Q column of the sweep rows."""

    def test_projective_closed_form(self, spin52, parity52):
        assert rows_at(spin52, parity52, 0.0).F_Q[0] == pytest.approx(35 / 3, abs=1e-10)

    def test_spin_half_closed_form(self):
        sys = make_spin_system(1)
        meas = build_measurement(sys, 1.0)
        assert rows_at(sys, meas, 0.0).F_Q[0] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_carries_nothing(self):
        sys, meas = _null_measurement()
        assert rows_at(sys, meas, 0.0).F_Q[0] == pytest.approx(0.0, abs=1e-12)

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
            rows = rows_at(spin52, build_measurement(spin52, b), np.linspace(0, math.pi, 101))
            assert np.all(rows.F <= rows.F_Q + 1e-8)

    def test_fragility_under_infinitesimal_noise(self, spin52):
        for b in (0.999, 0.99, 0.9):
            meas = build_measurement(spin52, b)
            assert np.all(rows_at(spin52, meas, [math.pi, 2 * math.pi]).F <= 1e-4)


def _one_row_qfi(sys, a_diag):
    """The F_Q sum over one 1-D diagonal, every reduction on that row alone."""
    e = (1.0 + a_diag) / 2
    p = e / (sys.dim * (float(np.sum(e)) / sys.dim))
    psum = p[:-1] + p[1:]
    return float(4.0 * np.sum((p[:-1] - p[1:]) ** 2 / psum * sys.jx_ladder ** 2))


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 51, 201, 401])
def test_projective_closed_forms_at_every_spin(two_j):
    """At b = 1 the observable is the parity for every partition: C(theta) = sin(d theta) /
    (d sin theta) at every spin, and F_Q = 4 j (j + 1) / 3 at half-integer spin.

    theta = n / 64 keeps d theta exact, so the closed form itself is accurate to a few ulps.
    """
    d, j = two_j + 1, two_j / 2
    thetas = np.arange(202) / 64  # 0 ... 3.1406
    partition = None if two_j % 2 else sign_partition(two_j)
    rows = sweep("scan-theta", RunConfig(two_j, [1.0], thetas, partition)).rows
    closed = np.array([parity_correlation_closed_form(d, theta) for theta in thetas.tolist()])
    assert np.max(np.abs(rows.C - closed)) <= 1e-14
    if two_j % 2:
        assert np.max(np.abs(rows.F_Q / (4 * j * (j + 1) / 3) - 1)) <= 1e-14


@pytest.mark.parametrize("two_j", [3, 5, 23, 25, 51, 255, 257, 401, 801])
def test_sharp_closed_forms_at_every_spin(two_j):
    """At b = 0 the default partition keeps a = +1 at m = j and -1 at m = -j, so with
    c = cos(theta / 2) and s = sin(theta / 2), C = (2/d)(c^(4j) - s^(4j)),
    C' = -(4j/d)(c^(4j-1) s + s^(4j-1) c) and F_Q = 8j / (3d), whence K_LG and
    F = C'^2 / (1 - C^2).  Checked against 30-digit values on both routes of the Fourier
    sums (Toeplitz while d <= REFERENCE_DIM, up to two_j = 24), at random thetas and near 0
    and pi.
    """
    d, four_j = two_j + 1, 2 * two_j
    rng = np.random.default_rng(two_j)
    thetas = np.concatenate([rng.uniform(0.0, math.pi, 8), [1e-8, 1e-3, 0.1],
                             math.pi - np.array([0.1, 1e-3, 1e-8])])
    rows = sweep("scan-theta", RunConfig(two_j, [0.0], thetas)).rows
    with mpmath.workdps(30):
        def correlation(theta):
            c, s = mpmath.cos(theta / 2), mpmath.sin(theta / 2)
            return 2 * (c ** four_j - s ** four_j) / d

        for row, theta in zip(rows, thetas.tolist()):
            x = mpmath.mpf(theta)
            c, s = mpmath.cos(x / 2), mpmath.sin(x / 2)
            slope = -four_j * (c ** (four_j - 1) * s + s ** (four_j - 1) * c) / d
            f_q = mpmath.mpf(4 * two_j) / (3 * d)
            truth = {"C": correlation(x), "K_LG": 3 * correlation(x) - correlation(3 * x),
                     "F_Q": f_q}
            for name, t in truth.items():
                assert abs(row[name] - float(t)) <= 1e-14 * max(1.0, abs(float(t))), (name, theta)
            f = slope ** 2 / (1 - correlation(x) ** 2)
            assert abs(row.F - float(f)) <= 1e-13 * float(f_q), theta


class TestQfiPerBlock:
    """_rows computes the F_Q column of a whole b block in one _qfi call."""

    @pytest.mark.parametrize("two_j", [1, 2, 5, 12, 51, 201, 401])
    def test_block_column_bit_equal_to_per_row_qfi(self, two_j):
        """Each F_Q of a block equals that of a one-b block built from its measurement."""
        rng = np.random.default_rng(two_j)
        sys = make_spin_system(two_j)
        partition = random_partition(rng, two_j)
        step = max(1, lgmet.correlations.BLOCK_ELEMENTS // sys.dim ** 2)  # b values per block
        for size in sorted({1, min(2, step), min(7, step), step}):
            bs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, max(0, size - 2))])[:size]
            a_diags = _a_diags(resolve_partition(sys.two_j, partition), bs)
            f_q = _rows(sys, bs, a_diags, _weights(sys, a_diags), [0.3]).F_Q
            expected = [rows_at(sys, build_measurement(sys, b, partition), 0.3).F_Q[0]
                        for b in bs.tolist()]
            assert f_q.tobytes() == np.array(expected).tobytes(), (two_j, size)
            assert f_q.tobytes() == np.array([_one_row_qfi(sys, a) for a in a_diags]).tobytes()

    @pytest.mark.parametrize("two_j", [5, 51])
    def test_one_qfi_evaluation_per_b_block(self, two_j, monkeypatch):
        calls = count_calls(monkeypatch, lgmet.estimation._qfi)
        sweep("scan-b", RunConfig(two_j, np.linspace(0.0, 1.0, 201), [0.95 * math.pi]))
        # a b block is 1820 b values at two_j = 5 and 24 at two_j = 51
        assert [a_diags.shape[0] for _, a_diags in calls] == {5: [201], 51: [24] * 8 + [9]}[two_j]


class TestEstimationReport:
    """The rows of the report sweep, and of scan-b and phase-map sweeps of spin 5/2."""

    def test_is_one_float64_record(self):
        (rec,) = sweep("report", RunConfig(5, [1.0], [0.3])).rows
        assert rec.dtype.names == COLUMNS
        assert all(rec.dtype[c] == np.float64 for c in COLUMNS)
        assert rec.tolist() == tuple(rec[c] for c in COLUMNS)
        assert (rec.theta, rec.b) == (0.3, 1.0)

    def test_projective_at_pi(self):
        (rec,) = sweep("report", RunConfig(5, [1.0], [math.pi])).rows
        assert rec.C == pytest.approx(-1.0, abs=1e-10)
        assert rec.K_LG == pytest.approx(-2.0, abs=1e-10)
        assert rec.F == pytest.approx(35 / 3, abs=1e-10)
        assert rec.F_Q == pytest.approx(35 / 3, abs=1e-10)
        assert rec.F_ratio == pytest.approx(1.0, abs=1e-10)

    def test_projective_at_origin(self):
        (rec,) = sweep("report", RunConfig(5, [1.0], [0.0])).rows
        assert rec.C == pytest.approx(1.0, abs=1e-10)
        assert rec.K_LG == pytest.approx(2.0, abs=1e-10)
        assert rec.F == pytest.approx(35 / 3, abs=1e-10)
        assert rec.F_ratio == pytest.approx(1.0, abs=1e-10)

    def test_invariants_on_grid(self):
        rows = sweep("phase-map", RunConfig(5, [0.2, 0.6, 0.95], np.linspace(0, math.pi, 25))).rows
        assert rows.size == 3 * 25
        assert np.all(rows.F <= rows.F_Q + 1e-8)
        assert np.all((0 <= rows.F_ratio) & (rows.F_ratio <= 1 + 1e-10))

    def test_no_violation_window_for_any_b(self):
        rows = sweep("scan-b", RunConfig(5, np.linspace(0, 1, 51), [0.34 * math.pi])).rows
        assert np.all(np.abs(rows.K_LG) <= 2.0)


def _rows_around(sys, meas, theta):
    return _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], [0.1, theta, 0.2])


def _max_violation_lo(sys, meas, theta):
    return max_violation(sys, meas, theta, 1.0)


def _max_violation_hi(sys, meas, theta):
    return max_violation(sys, meas, -1.0, theta)


def _violation_threshold_b(sys, meas, theta):
    return violation_threshold_b(sys.two_j, theta)


# Each case reaches the theta check through another caller or block shape.  Three ids keep
# the names of the deleted functions whose routes they replaced, so that the case names stay
# stable: klg_equal_interval calls oracles.point_klg (C with K_LG), fisher_from_correlation
# conftest.rows_at (F of one row), estimation_report a _rows block of two b.
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 1e308, -1e308, -7e307, 1e16])
@pytest.mark.parametrize("fn", [
    pytest.param(lambda s, m, t: _correlation_klg(s, _coefficients(s, m.weights[None]), [t]),
                 id="correlation"),
    pytest.param(point_klg, id="klg_equal_interval"),
    pytest.param(rows_at, id="fisher_from_correlation"),
    pytest.param(lambda s, m, t: _rows(s, [m.b] * 2, np.stack([m.a_diag] * 2),
                                       np.stack([m.weights] * 2), [t]), id="estimation_report"),
    _rows_around, _max_violation_lo, _max_violation_hi, _violation_threshold_b])
def test_non_finite_theta_rejected_without_warning(fn, theta, monkeypatch):
    # every entry point applies the one theta-domain rule, before any grid or kernel
    # is built; a finite theta whose phase 3 theta (d - 1) overflows or reaches 2**54 is
    # named as given
    message = ("theta must be finite, got %r" if not math.isfinite(theta)
               else "theta=%r rad is too large") % theta
    monkeypatch.setattr(np, "linspace", None)
    monkeypatch.setattr("lgmet.scan._klg_kernel", None)
    for two_j in (1, 5):
        sys = make_spin_system(two_j)
        meas = build_measurement(sys, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                fn(sys, meas, theta)


# ids as in test_non_finite_theta_rejected_without_warning
@pytest.mark.parametrize("fn", [
    lambda s, m: _correlation_klg(s, _coefficients(s, m.weights[None]), [0.3]),
    lambda s, m: point_klg(s, m, 0.3),
    lambda s, m: rows_at(s, m, 0.3),
    lambda s, m: max_violation(s, m, 0.0, 1.0),
], ids=["correlation", "klg_equal_interval", "fisher_from_correlation", "max_violation"])
def test_measurement_of_another_spin_rejected(fn):
    """A two_j = 5 measurement given with a two_j = 7 spin is a ValueError naming both sizes."""
    meas = build_measurement(make_spin_system(5), 0.9)
    with pytest.raises(ValueError, match=re.escape(
            "weights have 36 columns, but a spin of dimension 8 needs 64")):
        fn(make_spin_system(7), meas)
