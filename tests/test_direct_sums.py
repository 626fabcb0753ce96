"""The block evaluator of the Fourier sums against the direct d^2 sums, bit for bit.

The Hypothesis tests also patch the element budget below d^2 (rows of a chunk drawn), so that
small spins run the row-chunked tables of large spin against the chunked direct sums.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lgmet import InconsistentCorrelationError, build_measurement, make_spin_system, max_violation
import lgmet.correlations
import lgmet.estimation
from lgmet.correlations import _correlation_klg, _series
from lgmet.estimation import _fisher, _qfi, _rows
from conftest import narrow_blocks, random_partition
from oracles import direct_correlation, direct_correlation_derivatives, direct_klg, point_klg

SPECIAL = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 1e3, -1e3]
thetas = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))
b_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
setups = st.tuples(st.integers(1, 15), st.integers(0, 2 ** 32 - 1), b_values)
# rows k per chunk for narrow_blocks: None keeps all d rows (three thetas per table); an
# integer below d splits each sum into chunks, one theta per table
chunk_rows = st.one_of(st.none(), st.integers(1, 16))


def _measurement(setup):
    two_j, seed, b = setup
    sys = make_spin_system(two_j)
    return sys, build_measurement(sys, b, random_partition(np.random.default_rng(seed), two_j))


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", x) for x in values]


def _record_operands(mp) -> list:
    """Patch np.vecdot to record, per call, (C-contiguous, size) of its Toeplitz table and of
    its weight slice."""
    operands = []
    vecdot = np.vecdot
    mp.setattr(np, "vecdot", lambda a, b, **kw: operands.append(
        [(x.flags.c_contiguous, x.size) for x in (a, b)]) or vecdot(a, b, **kw))
    return operands


def _point_fisher(c, c1, c2):
    """_fisher of one (C, C', C'') point."""
    return float(_fisher(np.array([[c]]), np.array([[c1]]), lambda columns: np.array([[c2]]))[0, 0])


@settings(max_examples=150, deadline=None)
@given(setup=setups, theta=thetas, rows=chunk_rows)
def test_point_functions(setup, theta, rows):
    """One theta: C, C(3 theta), C' and C'' as _series calls of order 0, 0, 1 and 2, and K_LG
    of a stack and of one measurement, each Toeplitz table C-contiguous and within the
    patched budget."""
    sys, meas = _measurement(setup)
    w, t = meas.weights[None], np.array([theta])
    with narrow_blocks(sys, rows=rows) as mp:
        budget = lgmet.correlations.BLOCK_ELEMENTS
        operands = _record_operands(mp)
        (c,), (c3,) = _series(sys, w, t, 0)[0], _series(sys, w, 3.0 * t, 0)[0]
        (c1,), (c2,) = _series(sys, w, t, 1)[0], _series(sys, w, t, 2)[0]
        (c_k,), (k_lg,) = (column[0] for column in _correlation_klg(sys, w, [theta]))
        k_point = point_klg(sys, meas, theta)
    assert all(contiguous and size <= budget for call in operands for contiguous, size in call)
    assert _bits([c, c3]) == _bits([direct_correlation(sys, meas, x, rows)
                                    for x in (theta, 3.0 * theta)])
    assert _bits([c_k, c1, c2]) == _bits(direct_correlation_derivatives(sys, meas, theta, rows))
    assert _bits([k_lg, k_point]) == _bits([direct_klg(sys, meas, theta, rows)] * 2)


@settings(max_examples=40, deadline=None)
@given(setup=setups, points=st.lists(thetas, max_size=4), lo=thetas, hi=thetas,
       count=st.integers(0, 515), rows=chunk_rows)
def test_rows(setup, points, lo, hi, count, rows):
    """Every row over a grid that spans many evaluator blocks."""
    sys, meas = _measurement(setup)
    grid = points + list(np.linspace(lo, hi, count))
    f_q = _qfi(sys, meas.a_diag[None])[0]
    try:
        expected = []
        for theta in grid:
            c, c1, c2 = direct_correlation_derivatives(sys, meas, theta, rows)
            f = _point_fisher(c, c1, c2)
            expected.append((theta, meas.b, c, direct_klg(sys, meas, theta, rows), f, f_q,
                             f / f_q if f_q > 0.0 else 0.0))
    except InconsistentCorrelationError:
        with narrow_blocks(sys, rows=rows), pytest.raises(InconsistentCorrelationError):
            _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], grid)
        return
    with narrow_blocks(sys, rows=rows):
        rows = _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], grid)
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert _bits(row.tolist()) == _bits(want)


@settings(max_examples=40, deadline=None)
@given(setup=setups, lo=thetas, span=st.floats(0.0, 20.0, exclude_min=True),
       grid_points=st.integers(16, 296), rows=chunk_rows)
def test_max_violation_grid(setup, lo, span, grid_points, rows):
    """The |K_LG| values max_violation takes its argmax over, and its result."""
    sys, meas = _measurement(setup)
    hi = lo + span
    assume(hi > lo)
    seen = []
    argmax = np.argmax
    with narrow_blocks(sys, rows=rows) as mp:
        mp.setattr(np, "argmax", lambda a, *args, **kw: seen.append(np.array(a)) or argmax(a, *args, **kw))
        result = max_violation(sys, meas, lo, hi, grid_points)
    grid = np.linspace(lo, hi, grid_points)
    values = [abs(direct_klg(sys, meas, theta, rows)) for theta in grid]
    assert len(seen) == 1
    assert _bits(seen[0]) == _bits(values)
    assert lo <= result[0] <= hi
    assert result[1] >= max(values)


def test_blocks_bounded_and_contiguous_at_large_spin():
    """At two_j = 401 a sum is three row-chunk dot products: 163 + 163 + 76 rows k.

    Each Toeplitz table is one theta of one chunk; it and its weight slice are C-contiguous
    and within BLOCK_ELEMENTS.
    C(theta), C(3 theta) and C' take one vecdot per (chunk, theta); C'' takes as many more
    only for a theta column where C^2 = 1 (theta = 0 and pi at b = 1).  Rows are bit-equal to
    the chunked direct sums, and within 1e-15 of the single d^2 dot product.
    """
    sys = make_spin_system(401)
    d, budget = sys.dim, lgmet.correlations.BLOCK_ELEMENTS
    rows_per_chunk = min(d, budget // d)
    chunks = -(-d // rows_per_chunk)
    assert (rows_per_chunk, chunks) == (163, 3)
    grid = np.linspace(0.0, math.pi, 300)
    for measurability, singular_columns in ((0.99, 0), (1.0, 2)):
        meas = build_measurement(sys, measurability)
        with pytest.MonkeyPatch.context() as mp:
            operands = _record_operands(mp)
            rows = _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], grid)
        assert len(operands) == chunks * (3 * grid.size + singular_columns)
        assert all(contiguous and size <= budget
                   for call in operands for contiguous, size in call)
        for i in (0, 150, 299):
            c, c1, c2 = direct_correlation_derivatives(sys, meas, grid[i], rows_per_chunk)
            assert (_bits([rows.C[i], rows.K_LG[i], rows.F[i]])
                    == _bits([c, direct_klg(sys, meas, grid[i], rows_per_chunk),
                              _point_fisher(c, c1, c2)]))
            single = direct_correlation_derivatives(sys, meas, grid[i])
            assert abs(rows.C[i] - single[0]) <= 1e-15
            assert abs(rows.K_LG[i] - direct_klg(sys, meas, grid[i])) <= 1e-15


def test_second_derivative_only_for_singular_columns(spin52, monkeypatch):
    """One b block where C'' is evaluated for a theta column but read only by its C^2 = 1 rows.

    C'' is the one _series call of order 2.
    """
    measurements = [build_measurement(spin52, b) for b in (0.5, 0.99, 1.0)]
    grid = np.array([0.0, math.pi, math.pi + 1e-9, math.pi - 1e-9, 0.3])
    asked = []
    series = lgmet.estimation._series
    monkeypatch.setattr(lgmet.estimation, "_series", lambda sys, weights, thetas, order: (
        order == 2 and asked.append(thetas.tolist())) or series(sys, weights, thetas, order))
    rows = _rows(spin52, [m.b for m in measurements], np.array([m.a_diag for m in measurements]),
                 np.array([m.weights for m in measurements]), grid)
    assert asked == [grid[:4].tolist()]
    singular = 0
    for row, (meas, theta) in zip(rows, [(m, t) for m in measurements for t in grid]):
        c, c1, c2 = direct_correlation_derivatives(spin52, meas, theta)
        singular += 1.0 - c * c <= lgmet.estimation.SINGULAR_DENOMINATOR
        f_q = _qfi(spin52, meas.a_diag[None])[0]
        f = _point_fisher(c, c1, c2)
        assert _bits(row.tolist()) == _bits([theta, meas.b, c, direct_klg(spin52, meas, theta),
                                              f, f_q, f / f_q if f_q > 0.0 else 0.0])
    assert singular == 4  # the b = 1 row of each of the first four columns


def test_inconsistent_row_raises_before_second_derivative(spin52, monkeypatch):
    """theta = 1e-6, b = 1 - 5e-12: 1 - C^2 is singular with |C'| = 1.2e-5, and no C'' is formed."""
    meas = build_measurement(spin52, 0.9999999999949978)
    series = lgmet.estimation._series
    monkeypatch.setattr(lgmet.estimation, "_series", lambda sys, weights, thetas, order: (
        order == 2 and pytest.fail("C'' evaluated for an inconsistent row")
        or series(sys, weights, thetas, order)))
    with pytest.raises(InconsistentCorrelationError):
        _rows(spin52, [meas.b], meas.a_diag[None], meas.weights[None], [1e-6])


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
