"""Acceptance suite: one test per quantitative claim, printed pass/fail lines.

Everything runs on spin 5/2 (two_j=5, d=6).
"""

import math

import numpy as np
import pytest

from lgmet import (build_measurement, correlation, correlation_derivatives,
                   correlation_two_time, fisher_from_correlation,
                   fisher_from_probabilities, make_spin_system, max_violation,
                   prepare_states, qfi)
from lgmet.scan import (RunConfig, phase_map, reproduce_figure, scan_b,
                        violation_threshold_b)
from conftest import parity_correlation_closed_form, random_partition

PI = math.pi


def _verdict(num, label, ok):
    print("criterion %2d (%s): %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (num, label)


@pytest.fixture(scope="module")
def phase_map_table():
    grid = RunConfig(b_values=[0.5, 0.7, 0.9, 0.99, 1.0],
                     theta_values=np.linspace(0, PI / 2, 256))
    return phase_map(grid)


def test_criterion_1_projective_optimum(spin52, parity52):
    f = fisher_from_correlation(spin52, parity52, PI)
    f_q = qfi(spin52, parity52)
    closed_form = 4 * 2.5 * 3.5 / 3  # 4 j(j+1)/3
    ok = (abs(f - f_q) <= 1e-6 * f_q
          and abs(f - closed_form) <= 1e-6 * closed_form
          and abs(f_q - closed_form) <= 1e-6 * closed_form)
    _verdict(1, "projective optimum F = F_Q = 35/3 at theta=pi", ok)


def test_criterion_2_noise_collapse(spin52):
    ok = True
    for b in (0.999, 0.99, 0.9):
        meas = build_measurement(spin52, b)
        ok &= fisher_from_correlation(spin52, meas, PI) <= 1e-4
        if b == 0.99:
            ok &= qfi(spin52, meas) > 1.0
    _verdict(2, "Fisher collapse at theta=pi for b < 1", ok)


def test_criterion_3_violation_threshold():
    b_star = violation_threshold_b(5, 0.95 * PI, b_lo=0.0, b_hi=1.0, tol=1e-4)
    _verdict(3, "violation threshold b* in [0.93, 0.95] at theta=0.95pi",
             0.93 <= b_star <= 0.95)


def test_criterion_4_null_case(spin52):
    theta = 0.34 * PI
    worst = max(abs(3 * correlation(spin52, build_measurement(spin52, b), theta)
                    - correlation(spin52, build_measurement(spin52, b), 3 * theta))
                for b in np.linspace(0, 1, 201))
    _verdict(4, "no violation at theta=0.34pi for any b", worst <= 2.0)


def test_criterion_5_violation_floor_on_fisher(phase_map_table):
    ratios = [r.F_ratio for r in phase_map_table.rows if abs(r.K_LG) > 2.0]
    floor = min(ratios)
    _verdict(5, "min F/F_Q among violating rows in [0.24, 0.30]",
             bool(ratios) and 0.24 <= floor <= 0.30)


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
        meas = build_measurement(spin52, b)
        if 1 - correlation(spin52, meas, theta) ** 2 <= 1e-6:
            continue
        f_corr = fisher_from_correlation(spin52, meas, theta)
        f_prob = fisher_from_probabilities(spin52, meas, +1, theta)
        ok &= abs(f_prob - f_corr) <= 1e-6 * max(abs(f_corr), 1e-3)
        count += 1
    parity = build_measurement(spin52, 1.0)
    for theta in rng.uniform(-2 * PI, 2 * PI, size=100):
        ok &= abs(correlation(spin52, parity, theta)
                  - parity_correlation_closed_form(6, theta)) <= 1e-10
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
            plus, minus = prepare_states(spin52, meas)
            ok &= abs(plus.probability - 0.5) <= 1e-12

        theta = rng.uniform(-PI, PI)
        t0 = rng.uniform(-2, 2)
        c = correlation(spin52, meas, theta)
        ok &= abs(correlation_two_time(spin52, meas, t0, t0 + theta) - c) <= 1e-10
        ok &= abs(correlation(spin52, meas, -theta) - c) <= 1e-12
        ok &= abs(correlation(spin52, meas, theta + 2 * PI) - c) <= 1e-10
        ok &= fisher_from_correlation(spin52, meas, theta) <= qfi(spin52, meas) + 1e-8

        h = 1e-4
        _, c1, c2 = correlation_derivatives(spin52, meas, theta)
        cp = correlation(spin52, meas, theta + h)
        cm = correlation(spin52, meas, theta - h)
        ok &= abs(c1 - (cp - cm) / (2 * h)) <= 1e-6
        ok &= abs(c2 - (cp - 2 * c + cm) / h ** 2) <= 1e-6
    _verdict(8, "POVM, stationarity, symmetry, Cramer-Rao, derivative checks", ok)


def test_criterion_9_monotonicity(spin52):
    maxima = [max_violation(spin52, build_measurement(spin52, b), 0.0, PI)[1]
              for b in (0.5, 0.7, 0.9, 0.99, 1.0)]
    ok = bool(np.all(np.diff(maxima) >= -1e-10))
    table = scan_b(RunConfig(b_values=np.linspace(0, 1, 101),
                             theta_values=[0.95 * PI]))
    ok &= bool(np.all(np.diff(table.column("F")) >= -1e-9))
    ok &= bool(np.all(np.diff(table.column("F_Q")) >= -1e-9))
    _verdict(9, "violation and Fisher quantities nondecreasing in b", ok)


def test_criterion_10_determinism(tmp_path):
    def data_section(path):
        return [l for l in path.read_text().split("\n") if not l.startswith("#")]

    (first,) = reproduce_figure("1a", tmp_path / "run1")
    (second,) = reproduce_figure("1a", tmp_path / "run2")
    _verdict(10, "repeated figure 1a runs are byte-identical",
             data_section(first) == data_section(second))
