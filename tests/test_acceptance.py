"""Acceptance suite: one test per quantitative claim, printed pass/fail lines.

Everything runs on spin 5/2 (two_j=5, d=6), except the contour limit of criterion 5,
which runs over both spin parities, and the large-spin limit of the weakest violating
measurement.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from lgmet import build_measurement, max_violation
from lgmet.scan import RunConfig, reproduce_figure, sweep, violation_threshold_b
from conftest import (derivative_columns, parity_correlation_closed_form, random_partition,
                      sign_partition)
from oracles import fisher_from_probabilities, prepared_state, two_time_correlation

PI = math.pi


def _verdict(num, label, ok):
    print("criterion %2d (%s): %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (num, label)


@pytest.fixture(scope="module")
def phase_map_table():
    grid = RunConfig(b_values=[0.5, 0.7, 0.9, 0.99, 1.0],
                     theta_values=np.linspace(0, PI / 2, 256))
    return sweep("phase-map", grid)


def test_criterion_1_projective_optimum():
    (row,) = sweep("report", RunConfig(5, [1.0], [PI])).rows
    f, f_q = row.F, row.F_Q
    closed_form = 4 * 2.5 * 3.5 / 3  # 4 j(j+1)/3
    ok = (abs(f - f_q) <= 1e-6 * f_q
          and abs(f - closed_form) <= 1e-6 * closed_form
          and abs(f_q - closed_form) <= 1e-6 * closed_form)
    _verdict(1, "projective optimum F = F_Q = 35/3 at theta=pi", ok)


def test_criterion_2_noise_collapse():
    rows = sweep("scan-b", RunConfig(5, [0.999, 0.99, 0.9], [PI])).rows
    ok = bool(np.all(rows.F <= 1e-4)) and rows.F_Q[1] > 1.0
    _verdict(2, "Fisher collapse at theta=pi for b < 1", ok)


def test_criterion_3_violation_threshold():
    b_star = violation_threshold_b(5, 0.95 * PI, tol=1e-4)
    _verdict(3, "violation threshold b* in [0.93, 0.95] at theta=0.95pi",
             0.93 <= b_star <= 0.95)


def test_criterion_4_null_case():
    rows = sweep("scan-b", RunConfig(5, np.linspace(0, 1, 201), [0.34 * PI])).rows
    worst = float(np.max(np.abs(rows.K_LG)))
    _verdict(4, "no violation at theta=0.34pi for any b", worst <= 2.0)


def test_criterion_5_violation_floor_on_fisher(phase_map_table):
    ratios = [r.F_ratio for r in phase_map_table.rows if abs(r.K_LG) > 2.0]
    floor = min(ratios)
    _verdict(5, "min F/F_Q among violating rows in [0.24, 0.30]",
             bool(ratios) and 0.24 <= floor <= 0.30)


@pytest.mark.parametrize("two_j, limit", [
    (3, Fraction(1, 4)), (5, Fraction(1, 4)), (7, Fraction(1, 4)),
    (2, Fraction(1, 3)), (4, Fraction(3, 10)), (8, Fraction(5, 18))])
def test_criterion_5_contour_limit(two_j, limit):
    """On the violation contour b*(theta), F/F_Q tends to r / (2d), r = ceil(d / 2), from
    above as theta -> 0, with a deviation that shrinks like theta^2."""
    d = two_j + 1
    assert limit == Fraction(math.ceil(d / 2), 2 * d)
    partition = sign_partition(two_j)
    deviation = {}
    for theta in (1e-2, 1e-3):
        b_star = violation_threshold_b(two_j, theta, tol=1e-14, partition=partition)
        (row,) = sweep("report", RunConfig(two_j, [b_star], [theta], partition)).rows
        deviation[theta] = row.F_ratio - float(limit)
    print("two_j=%d: F/F_Q - r/(2d) = %.3g at theta=1e-2, %.3g at 1e-3"
          % (two_j, deviation[1e-2], deviation[1e-3]))
    _verdict(5, "F/F_Q on the violation contour tends to r/(2d) = %s like theta^2" % limit,
             0.0 < deviation[1e-3] <= 2e-5 and 90 <= deviation[1e-2] / deviation[1e-3] <= 110)


def test_weakest_violation_large_spin_limit():
    """The smallest b that still violates, b* = min over theta of the threshold, converges
    at large spin: with b = exp(-1 / (2 sigma^2)), sigma*/j, theta* d and F/F_Q at (b*, theta*)
    tend to about 1.2011, 1.0847 and 0.42546, each moving less from two_j = 201 to 401 than
    from 51 to 201."""
    limits = {}
    for two_j in (51, 201, 401):
        d = two_j + 1
        best = minimize_scalar(lambda x: violation_threshold_b(two_j, x / d, tol=1e-13),
                               bounds=(0.6, 1.8), method="bounded", options={"xatol": 1e-8})
        (row,) = sweep("report", RunConfig(two_j, [best.fun], [best.x / d])).rows
        sigma = (-2.0 * math.log(best.fun)) ** -0.5
        limits[two_j] = np.array([best.x, sigma / (two_j / 2), row.F_ratio])
        print("two_j=%d: theta* d = %.6g, sigma*/j = %.6g, F/F_Q = %.6g, j^2 (1 - b*) = %.4g"
              % (two_j, *limits[two_j], (two_j / 2) ** 2 * (1.0 - best.fun)))
    near = np.abs(limits[401] - [1.0847, 1.2011, 0.42546]) <= 1e-4
    shrinking = np.abs(limits[401] - limits[201]) < np.abs(limits[201] - limits[51])
    _verdict(11, "theta* d, sigma*/j and F/F_Q of the weakest violation converge in two_j",
             bool(near.all() and shrinking.all()))


def test_criterion_6_near_optimal_needs_violation(phase_map_table):
    offenders = [r for r in phase_map_table.rows
                 if r.F_ratio > 0.85 and abs(r.K_LG) <= 2.0]
    _verdict(6, "F/F_Q > 0.85 only inside the violation region", not offenders)


def test_criterion_7_oracle_equivalence(spin52):
    rng = np.random.default_rng(101)
    ok = True
    count = 0
    while count < 200:
        b = rng.uniform(0.05, 1.0)
        theta = rng.uniform(-PI, PI)
        (row,) = sweep("report", RunConfig(5, [b], [theta])).rows
        if 1 - row.C ** 2 <= 1e-6:
            continue
        f_corr = row.F
        f_prob = fisher_from_probabilities(spin52, build_measurement(spin52, b), +1, theta)
        ok &= abs(f_prob - f_corr) <= 1e-6 * max(abs(f_corr), 1e-3)
        count += 1
    thetas = rng.uniform(-2 * PI, 2 * PI, size=100)
    for row in sweep("scan-theta", RunConfig(5, [1.0], thetas)).rows:
        ok &= abs(row.C - parity_correlation_closed_form(6, row.theta)) <= 1e-10
    _verdict(7, "probability-route Fisher and closed-form C oracles agree", ok)


def test_criterion_8_structural_invariants(spin52):
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        symmetric = bool(rng.integers(0, 2))
        part = random_partition(rng, 5, symmetric=symmetric)
        b = rng.uniform(0, 1)
        meas = build_measurement(spin52, b, part)
        eplus, eminus = (1 + meas.a_diag) / 2, (1 - meas.a_diag) / 2
        ok &= bool(np.all(eplus + eminus == 1.0))
        ok &= np.min(eplus) >= -1e-12
        ok &= np.min(eminus) >= -1e-12
        if symmetric:
            ok &= abs(prepared_state(spin52, meas, +1)[1] - 0.5) <= 1e-12

        theta = rng.uniform(-PI, PI)
        t0 = rng.uniform(-2, 2)
        h = 1e-4
        rows = sweep("scan-theta", RunConfig(5, [b], [theta, -theta, theta + 2 * PI,
                                                      theta + h, theta - h], part)).rows
        c, c_neg, c_shift, cp, cm = rows.C
        ok &= abs(two_time_correlation(spin52, meas, t0, t0 + theta) - c) <= 1e-10
        ok &= abs(c_neg - c) <= 1e-12
        ok &= abs(c_shift - c) <= 1e-10
        ok &= rows.F[0] <= rows.F_Q[0] + 1e-8

        (c1,), (c2,) = derivative_columns(spin52, meas, theta)
        ok &= abs(c1 - (cp - cm) / (2 * h)) <= 1e-6
        ok &= abs(c2 - (cp - 2 * c + cm) / h ** 2) <= 1e-6
    _verdict(8, "POVM, stationarity, symmetry, Cramer-Rao, derivative checks", ok)


def test_criterion_9_monotonicity(spin52):
    maxima = [max_violation(spin52, build_measurement(spin52, b), 0.0, PI)[1]
              for b in (0.5, 0.7, 0.9, 0.99, 1.0)]
    ok = bool(np.all(np.diff(maxima) >= -1e-10))
    table = sweep("scan-b", RunConfig(b_values=np.linspace(0, 1, 101),
                                      theta_values=[0.95 * PI]))
    ok &= bool(np.all(np.diff(table.rows.F) >= -1e-9))
    ok &= bool(np.all(np.diff(table.rows.F_Q) >= -1e-9))
    _verdict(9, "violation and Fisher quantities nondecreasing in b", ok)


def test_criterion_10_determinism(tmp_path):
    (first,) = reproduce_figure("1a", tmp_path / "run1")
    (second,) = reproduce_figure("1a", tmp_path / "run2")
    _verdict(10, "repeated figure 1a runs are byte-identical",
             first.read_bytes() == second.read_bytes())
