"""The block evaluator of the Fourier sums against the direct d^2 sums.

Up to d = REFERENCE_DIM (the Toeplitz route) every value is the direct sum bit for bit;
above it (the harmonic-coefficient route) each value is within the rounding bound _bounds of
the direct sum.  The Hypothesis tests draw spins on both sides, two_j 1 to 40, and narrow the
element budget, which splits theta blocks and the fold's row chunks but picks no route.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lgmet import InconsistentCorrelationError, build_measurement, make_spin_system, max_violation
import lgmet.correlations
import lgmet.estimation
from lgmet.correlations import _coefficients, _correlation_klg, _series
from lgmet.estimation import _fisher, _qfi, _rows
from lgmet.spin import REFERENCE_DIM
from conftest import narrow_blocks, random_partition
from oracles import (direct_correlation, direct_correlation_derivatives, direct_klg,
                     fourier_weights, gaps, point_klg)

SPECIAL = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 1e3, -1e3]
thetas = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))
b_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# two_j 1 to 24 sum Toeplitz tables (d <= REFERENCE_DIM), 25 to 40 harmonic coefficients
setups = st.tuples(st.integers(1, 40), st.integers(0, 2 ** 32 - 1), b_values)
# per_block for narrow_blocks: 1 folds the coefficients in two or three row chunks
per_blocks = st.integers(1, 3)


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


def _bounds(sys, meas) -> list[float]:
    """4e-15 sum_kl |w_kl| |k - l|^p / d for p = 0, 1, 2: the rounding bounds of C, C', C''
    on the coefficient route."""
    g, w = np.abs(gaps(sys)), np.abs(fourier_weights(sys, meas))
    return [4e-15 * float(np.sum(w * g ** p)) / sys.dim for p in (0, 1, 2)]


def _assert_close(got, want, bounds):
    for x, y, bound in zip(got, want, bounds, strict=True):
        assert abs(x - y) <= bound, (x, y, bound)


def _fisher_bound(c, c1, c2, t0, t1, t2):
    """Bound on |F - F(c, c1, c2)| for an F formed from values within t0, t1, t2 of c, c1, c2,
    or None where 1 - C^2 is within reach of the singular threshold, so either branch may run."""
    den, reach = 1.0 - c * c, t0 * (2.0 * abs(c) + t0)
    if abs(den - lgmet.estimation.SINGULAR_DENOMINATOR) <= reach:
        return None
    if den <= lgmet.estimation.SINGULAR_DENOMINATOR:
        return t2
    f = c1 * c1 / den
    return (t1 * (2.0 * abs(c1) + t1) + f * reach) / (den - reach) + 8.0 * math.ulp(f)


def _point_fisher(c, c1, c2):
    """_fisher of one (C, C', C'') point."""
    return float(_fisher(np.array([[c]]), np.array([[c1]]), lambda columns: np.array([[c2]]))[0, 0])


@settings(max_examples=150, deadline=None)
@given(setup=setups, theta=thetas, per_block=per_blocks)
def test_point_functions(setup, theta, per_block):
    """One theta: C, C(3 theta), C' and C'' as _series calls of order 0, 0, 1 and 2, and K_LG
    of a stack and of one measurement, each np.vecdot operand C-contiguous and within the
    patched budget.  Bit-equal to the direct sums while d <= REFERENCE_DIM (the Toeplitz
    route); above it (d coefficients per vecdot) within _bounds, five times the C bound for
    K_LG."""
    sys, meas = _measurement(setup)
    t = np.array([theta])
    with narrow_blocks(sys, per_block) as mp:
        budget = lgmet.correlations.BLOCK_ELEMENTS
        operands = _record_operands(mp)
        w = _coefficients(sys, meas.a_diag[None])
        (c,), (c3,) = _series(sys, w, t, 0)[0], _series(sys, w, 3.0 * t, 0)[0]
        (c1,), (c2,) = _series(sys, w, t, 1)[0], _series(sys, w, t, 2)[0]
        (c_k,), (k_lg,) = (column[0] for column in _correlation_klg(sys, w, [theta]))
        k_point = point_klg(sys, meas, theta)
    assert all(contiguous and size <= budget for call in operands for contiguous, size in call)
    assert _bits([c_k, k_point]) == _bits([c, k_lg])
    got = [c, c3, c1, c2, k_lg]
    want = [direct_correlation(sys, meas, theta), direct_correlation(sys, meas, 3.0 * theta),
            *direct_correlation_derivatives(sys, meas, theta)[1:], direct_klg(sys, meas, theta)]
    if sys.dim <= REFERENCE_DIM:
        assert _bits(got) == _bits(want)
    else:
        assert all(call[1][1] == sys.dim for call in operands)
        t0, t1, t2 = _bounds(sys, meas)
        _assert_close(got, want, [t0, t0, t1, t2, 5.0 * t0])


@settings(max_examples=40, deadline=None)
@given(setup=setups, points=st.lists(thetas, max_size=4), lo=thetas, hi=thetas,
       count=st.integers(0, 515), per_block=per_blocks)
def test_rows(setup, points, lo, hi, count, per_block):
    """Every row over a grid that spans many evaluator blocks: bit-equal to the direct sums
    while d <= REFERENCE_DIM; above it theta, b and F_Q bit-equal, C, K_LG and F within the
    bounds that _bounds propagates to them, and F_ratio = F / F_Q."""
    sys, meas = _measurement(setup)
    grid = points + list(np.linspace(lo, hi, count))
    f_q = _qfi(sys, meas.a_diag[None])[0]
    exact = sys.dim <= REFERENCE_DIM
    try:
        expected = []
        for theta in grid:
            c, c1, c2 = direct_correlation_derivatives(sys, meas, theta)
            f = _point_fisher(c, c1, c2)
            expected.append((theta, meas.b, c, direct_klg(sys, meas, theta), f, f_q,
                             f / f_q if f_q > 0.0 else 0.0, c1, c2))
    except InconsistentCorrelationError:
        with narrow_blocks(sys, per_block), pytest.raises(InconsistentCorrelationError):
            _rows(sys, [meas.b], meas.a_diag[None], grid)
        return
    with narrow_blocks(sys, per_block):
        table = _rows(sys, [meas.b], meas.a_diag[None], grid)
    assert len(table) == len(expected)
    t0, t1, t2 = _bounds(sys, meas)
    for row, (*want, c1, c2) in zip(table, expected):
        if exact:
            assert _bits(row.tolist()) == _bits(want)
            continue
        assert _bits([row.theta, row.b, row.F_Q, row.F_ratio]) == _bits(
            [want[0], want[1], f_q, row.F / f_q if f_q > 0.0 else 0.0])
        _assert_close([row.C, row.K_LG], want[2:4], [t0, 5.0 * t0])
        bound = _fisher_bound(want[2], c1, c2, t0, t1, t2)
        if bound is not None:
            assert abs(row.F - want[4]) <= bound, (row.F, want[4], bound)


@settings(max_examples=40, deadline=None)
@given(setup=setups, lo=thetas, span=st.floats(0.0, 20.0, exclude_min=True),
       grid_points=st.integers(16, 296), per_block=per_blocks)
def test_max_violation_grid(setup, lo, span, grid_points, per_block):
    """The |K_LG| values max_violation takes its argmax over (bit-equal to the direct sums
    while d <= REFERENCE_DIM, within five times the C bound of _bounds above it), and its
    result, at least their maximum."""
    sys, meas = _measurement(setup)
    hi = lo + span
    assume(hi > lo)
    seen = []
    argmax = np.argmax
    with narrow_blocks(sys, per_block) as mp:
        mp.setattr(np, "argmax", lambda a, *args, **kw: seen.append(np.array(a)) or argmax(a, *args, **kw))
        result = max_violation(sys, meas, lo, hi, grid_points)
    grid = np.linspace(lo, hi, grid_points)
    values = [abs(direct_klg(sys, meas, theta)) for theta in grid]
    assert len(seen) == 1
    if sys.dim <= REFERENCE_DIM:
        assert _bits(seen[0]) == _bits(values)
    else:
        _assert_close(seen[0], values, [5.0 * _bounds(sys, meas)[0]] * grid_points)
    assert lo <= result[0] <= hi
    assert result[1] >= max(seen[0])


def test_coefficient_route_bounded_at_large_spin():
    """At two_j = 401, d^2 exceeds BLOCK_ELEMENTS: each np.vecdot pairs a trig table within
    the budget with the d coefficients, each _coefficients call with the _series call on its
    coefficients peaks below two budgets of traced allocations plus one b's product and its
    scaled operand (2 d^2 values; d^2 values are 2.47 budgets), rows are bit-equal to their
    theta summed alone, and
    within 1e-15 (C), 4e-15 (K_LG = 3 C(theta) - C(3 theta)) and 1e-13 F_Q (F) of the
    single d^2 np.dot of the direct sums."""
    sys = make_spin_system(401)
    d, budget = sys.dim, lgmet.correlations.BLOCK_ELEMENTS
    assert 2 * budget < d * d < 3 * budget
    grid = np.linspace(0.0, math.pi, 300)
    for measurability in (0.99, 1.0):
        meas = build_measurement(sys, measurability)
        with pytest.MonkeyPatch.context() as mp:
            operands = _record_operands(mp)
            rows = _rows(sys, [meas.b], meas.a_diag[None], grid)
        assert all(table <= budget and coefficients == d for (_, table), (_, coefficients)
                   in operands)
        for order in (0, 1, 2):
            tracemalloc.start()
            try:
                out = _series(sys, _coefficients(sys, meas.a_diag[None]), grid, order)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes <= (2 * budget + 2 * d * d) * out.itemsize
        for i in range(0, 300, 23):  # 14 thetas, the last pi
            alone = _rows(sys, [meas.b], meas.a_diag[None], grid[i:i + 1])
            assert _bits(rows[i].tolist()) == _bits(alone[0].tolist())
            c, c1, c2 = direct_correlation_derivatives(sys, meas, grid[i])
            assert abs(rows.C[i] - c) <= 1e-15
            assert abs(rows.K_LG[i] - direct_klg(sys, meas, grid[i])) <= 4e-15
            assert abs(rows.F[i] - _point_fisher(c, c1, c2)) <= 1e-13 * rows.F_Q[i]


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
                 grid)
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
        _rows(spin52, [meas.b], meas.a_diag[None], [1e-6])


def test_rows_make_no_vector_dot(monkeypatch):
    """A 2000-point grid is summed by the stacked evaluator, not one np.dot per theta."""
    sys = make_spin_system(5)
    meas = build_measurement(sys, 0.9)
    calls = []
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda a, b, *args: calls.append(np.ndim(a)) or dot(a, b, *args))
    grid = np.linspace(-10.0, 10.0, 2000)
    rows = _rows(sys, [meas.b], meas.a_diag[None], grid)
    assert rows.size == 2000
    assert 1 not in calls
