"""The integer-frequency trig tables against the direct d^2 Fourier sums, bit for bit."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lgmet import (InconsistentCorrelationError, build_measurement, correlation,
                   correlation_derivatives, klg_equal_interval, make_spin_system,
                   max_violation, qfi)
from lgmet.correlations import THETA_BLOCK
from lgmet.estimation import _fisher, _rows
from conftest import random_partition
from oracles import direct_correlation, direct_correlation_derivatives

SPECIAL = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 1e3, -1e3]
thetas = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))
b_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
setups = st.tuples(st.integers(1, 15), st.integers(0, 2 ** 32 - 1), b_values)


def _measurement(setup):
    two_j, seed, b = setup
    sys = make_spin_system(two_j)
    return sys, build_measurement(sys, b, random_partition(np.random.default_rng(seed), two_j))


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", x) for x in values]


def _direct_klg(sys, meas, theta):
    return 3.0 * direct_correlation(sys, meas, theta) - direct_correlation(sys, meas, 3.0 * theta)


@settings(max_examples=150, deadline=None)
@given(setup=setups, theta=thetas)
def test_point_functions(setup, theta):
    sys, meas = _measurement(setup)
    assert _bits([correlation(sys, meas, theta)]) == _bits([direct_correlation(sys, meas, theta)])
    assert (_bits(correlation_derivatives(sys, meas, theta))
            == _bits(direct_correlation_derivatives(sys, meas, theta)))
    assert _bits([klg_equal_interval(sys, meas, theta)]) == _bits([_direct_klg(sys, meas, theta)])


@settings(max_examples=40, deadline=None)
@given(setup=setups, points=st.lists(thetas, max_size=4), lo=thetas, hi=thetas,
       count=st.integers(0, 2 * THETA_BLOCK + 3))
def test_rows(setup, points, lo, hi, count):
    """Every row over a grid that spans several trig-table blocks."""
    sys, meas = _measurement(setup)
    grid = points + list(np.linspace(lo, hi, count))
    f_q = qfi(sys, meas)
    try:
        expected = []
        for theta in grid:
            c, c1, c2 = direct_correlation_derivatives(sys, meas, theta)
            f = _fisher(c, c1, c2)
            expected.append((theta, meas.b, c, _direct_klg(sys, meas, theta), f, f_q,
                             f / f_q if f_q > 0.0 else 0.0))
    except InconsistentCorrelationError:
        with pytest.raises(InconsistentCorrelationError):
            _rows(sys, meas, grid)
        return
    rows = _rows(sys, meas, grid)
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert _bits(row.tolist()) == _bits(want)


@settings(max_examples=40, deadline=None)
@given(setup=setups, lo=thetas, span=st.floats(0.0, 20.0, exclude_min=True),
       grid_points=st.integers(16, THETA_BLOCK + 40))
def test_max_violation_grid(setup, lo, span, grid_points):
    """The |K_LG| values max_violation takes its argmax over, and its result."""
    sys, meas = _measurement(setup)
    hi = lo + span
    assume(hi > lo)
    seen = []
    argmax = np.argmax
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argmax", lambda a, *args, **kw: seen.append(np.array(a)) or argmax(a, *args, **kw))
        result = max_violation(sys, meas, lo, hi, grid_points)
    grid = np.linspace(lo, hi, grid_points)
    values = [abs(_direct_klg(sys, meas, theta)) for theta in grid]
    assert len(seen) == 1
    assert _bits(seen[0]) == _bits(values)
    assert lo <= result[0] <= hi
