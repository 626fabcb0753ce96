"""The block evaluator of the Fourier sums against the direct d^2 sums, bit for bit."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lgmet import (InconsistentCorrelationError, build_measurement, correlation,
                   correlation_derivatives, klg_equal_interval, make_spin_system,
                   max_violation, qfi)
import lgmet.correlations
from lgmet.estimation import _fisher, _rows
from conftest import narrow_blocks, random_partition
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
       count=st.integers(0, 515))
def test_rows(setup, points, lo, hi, count):
    """Every row over a grid that spans many evaluator blocks."""
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
        with narrow_blocks(sys), pytest.raises(InconsistentCorrelationError):
            _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], grid)
        return
    with narrow_blocks(sys):
        rows = _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], grid)
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert _bits(row.tolist()) == _bits(want)


@settings(max_examples=40, deadline=None)
@given(setup=setups, lo=thetas, span=st.floats(0.0, 20.0, exclude_min=True),
       grid_points=st.integers(16, 296))
def test_max_violation_grid(setup, lo, span, grid_points):
    """The |K_LG| values max_violation takes its argmax over, and its result."""
    sys, meas = _measurement(setup)
    hi = lo + span
    assume(hi > lo)
    seen = []
    argmax = np.argmax
    with narrow_blocks(sys) as mp:
        mp.setattr(np, "argmax", lambda a, *args, **kw: seen.append(np.array(a)) or argmax(a, *args, **kw))
        result = max_violation(sys, meas, lo, hi, grid_points)
    grid = np.linspace(lo, hi, grid_points)
    values = [abs(_direct_klg(sys, meas, theta)) for theta in grid]
    assert len(seen) == 1
    assert _bits(seen[0]) == _bits(values)
    assert lo <= result[0] <= hi
    assert result[1] >= max(values)


def test_blocks_bounded_and_contiguous_at_large_spin(monkeypatch):
    """At two_j = 401 a block is one theta wide: each stacked operand holds d^2 values."""
    sys = make_spin_system(401)
    meas = build_measurement(sys, 0.99)
    grid = np.linspace(0.0, math.pi, 300)
    operands = []  # (C-contiguous, size) of each first operand, not the array itself
    vecdot = np.vecdot
    monkeypatch.setattr(np, "vecdot", lambda a, b, **kw: (
        operands.append((a.flags.c_contiguous, a.size)) or vecdot(a, b, **kw)))
    rows = _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], grid)
    monkeypatch.undo()
    limit = max(lgmet.correlations.BLOCK_ELEMENTS, sys.dim ** 2)
    assert len(operands) == 4 * grid.size  # C, C', C'' at theta and C at 3 theta
    assert all(contiguous and size <= limit for contiguous, size in operands)
    for i in (0, 150, 299):
        c, c1, c2 = direct_correlation_derivatives(sys, meas, grid[i])
        assert (_bits([rows.C[i], rows.K_LG[i], rows.F[i]])
                == _bits([c, _direct_klg(sys, meas, grid[i]), _fisher(c, c1, c2)]))


def test_rows_make_no_vector_dot(monkeypatch):
    """A 2000-point grid is summed by the stacked evaluator, not one np.dot per theta."""
    sys = make_spin_system(5)
    meas = build_measurement(sys, 0.9)
    calls = []
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda a, b, *args: calls.append(np.ndim(a)) or dot(a, b, *args))
    grid = np.linspace(-10.0, 10.0, 2000)
    rows = _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], grid)
    assert rows.size == 2000
    assert 1 not in calls
