"""Sweep rows against one-point evaluations, and the F_Q column against the eigh form."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lgmet import InconsistentCorrelationError, build_measurement, make_spin_system
from lgmet.measurement import PartitionSpec, _a_diags, parse_partition, resolve_partition
from lgmet.scan import RunConfig, sweep
import lgmet.correlations
import lgmet.measurement
from conftest import count_calls, narrow_blocks, random_partition, rows_at
from oracles import prepared_state, qfi_of_state


@st.composite
def partitions(draw):
    """(two_j, partition) with any block layout and any lattice center, integer spin included."""
    two_j = draw(st.integers(1, 12))
    ladder = [two_j - 2 * k for k in range(two_j + 1)]
    labels = draw(st.lists(st.integers(0, 3), min_size=len(ladder), max_size=len(ladder)))
    blocks = tuple((draw(st.sampled_from(ladder)),
                    tuple(t for t, label in zip(ladder, labels) if label == block))
                   for block in sorted(set(labels)))
    return two_j, PartitionSpec(blocks)


b_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
theta_values = st.one_of(st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi, 0.95 * math.pi]),
                         st.floats(-7.0, 7.0))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _composed(sys, meas, theta):
    """The row of one (b, theta) point evaluated alone, its F_ratio divided here."""
    (row,) = rows_at(sys, meas, theta)
    return (theta, meas.b, row.C, row.K_LG, row.F, row.F_Q,
            row.F / row.F_Q if row.F_Q > 0.0 else 0.0)


@settings(max_examples=60, deadline=None)
@given(setup=partitions(),
       bs=st.lists(b_values, min_size=1, max_size=40),
       thetas=st.lists(theta_values, min_size=1, max_size=5),
       per_block=st.integers(1, 4))
def test_sweep_rows_bit_equal_to_composed_values(setup, bs, thetas, per_block):
    """Every row, with a block of per_block b values or thetas, so that blocks split the grid."""
    two_j, partition = setup
    sys = make_spin_system(two_j)
    measurements = {b: build_measurement(sys, b, partition) for b in bs}
    sweeps = [
        ("scan-theta", RunConfig(two_j, [bs[0]], thetas, partition),
         [(bs[0], t) for t in thetas]),
        ("scan-b", RunConfig(two_j, bs, [thetas[0]], partition), [(b, thetas[0]) for b in bs]),
        ("phase-map", RunConfig(two_j, bs, thetas, partition),
         [(b, t) for b in bs for t in thetas]),
    ]
    for kind, config, grid in sweeps:
        try:
            expected = [_composed(sys, measurements[b], t) for b, t in grid]
        except InconsistentCorrelationError:
            with narrow_blocks(sys, per_block), pytest.raises(InconsistentCorrelationError):
                sweep(kind, config)
            continue
        with narrow_blocks(sys, per_block):
            rows = sweep(kind, config).rows
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            got = row.tolist()
            assert [_bits(x) for x in got] == [_bits(x) for x in want], (kind, got, want)


def test_scan_b_evaluates_all_b_in_one_block(monkeypatch):
    """201 b values at two_j = 5 are one block: no measurement, one partition walk, one
    vecdot for C and C(3 theta) together and one for C' (no C'': no row has C^2 = 1)."""
    builds = count_calls(monkeypatch, lgmet.measurement.build_measurement)
    walks = count_calls(monkeypatch, lgmet.measurement.resolve_partition)
    sums = []
    vecdot = np.vecdot
    monkeypatch.setattr(np, "vecdot", lambda a, b, **kw: sums.append(a.shape) or vecdot(a, b, **kw))
    rows = sweep("scan-b", RunConfig(5, np.linspace(0.0, 1.0, 201), [0.95 * math.pi])).rows
    assert rows.size == 201
    # theta and 3 theta, then theta; d^2 = 36
    assert (len(builds), len(walks), sums) == (0, 1, [(2, 36), (1, 36)])


@pytest.mark.parametrize("two_j, partition", [(51, None), (4, "4:4,2,0;-4:-2,-4")])
def test_scan_b_walks_the_partition_once(monkeypatch, two_j, partition):
    """A 201-b scan-b resolves its gaps once and gathers one diagonal stack per b block."""
    walks = count_calls(monkeypatch, lgmet.measurement.resolve_partition)
    stacks = count_calls(monkeypatch, lgmet.measurement._a_diags)
    config = RunConfig(two_j, np.linspace(0.0, 1.0, 201), [0.95 * math.pi],
                       None if partition is None else parse_partition(partition))
    sweep("scan-b", config)
    assert len(walks) == 1
    # a b block is 24 b values at two_j = 51, and more than 201 at two_j = 4
    assert [len(b_values) for _, b_values in stacks] == {51: [24] * 8 + [9], 4: [201]}[two_j]


def test_phase_map_weight_stacks_stay_within_budget(monkeypatch):
    """300 b values at two_j = 23 span several b blocks; no vecdot operand exceeds the budget,
    and several b values share each Toeplitz table (d <= REFERENCE_DIM)."""
    sizes = []
    vecdot = np.vecdot
    monkeypatch.setattr(np, "vecdot", lambda a, b, **kw: (
        sizes.append((a.size, b.size)) or vecdot(a, b, **kw)))
    rows = sweep("phase-map",
                 RunConfig(23, np.linspace(0.0, 1.0, 300), np.linspace(-3.0, 3.0, 7))).rows
    monkeypatch.undo()
    d2 = 24 ** 2
    assert rows.size == 300 * 7
    assert max(max(pair) for pair in sizes) <= lgmet.correlations.BLOCK_ELEMENTS
    assert max(b for _, b in sizes) > d2  # several b values share each gathered table


@settings(max_examples=80, deadline=None)
@given(setup=partitions(), b=b_values)
def test_qfi_matches_eigh_form(setup, b):
    """F_Q against the eigh QFI of the dense state that outcome + prepares."""
    two_j, partition = setup
    sys = make_spin_system(two_j)
    meas = build_measurement(sys, b, partition)
    rho, _ = prepared_state(sys, meas, +1)
    assert rows_at(sys, meas, 0.0).F_Q[0] == pytest.approx(qfi_of_state(sys, rho),
                                                          rel=1e-12, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(two_j=st.integers(0, 25).map(lambda n: 2 * n + 1), b=b_values)
def test_qfi_of_the_minus_arm_is_the_mirror_image(two_j, b):
    """Under the default partition the - arm mirrors the + arm, so F_Q needs only the +."""
    sys = make_spin_system(two_j)
    meas = build_measurement(sys, b)
    rho, _ = prepared_state(sys, meas, -1)
    assert rows_at(sys, meas, 0.0).F_Q[0] == pytest.approx(qfi_of_state(sys, rho),
                                                          rel=1e-12, abs=1e-13)


@settings(max_examples=80, deadline=None)
@given(setup=partitions(), b=b_values)
def test_qfi_bit_equal_to_prepare_states_populations(setup, b):
    """F_Q sums over the + arm populations e / (d p), e = (1 + a)/2, p = sum(e) / d, bit for bit."""
    two_j, partition = setup
    sys = make_spin_system(two_j)
    meas = build_measurement(sys, b, partition)
    e = (1.0 + meas.a_diag) / 2
    p = e / (sys.dim * (float(np.sum(e)) / sys.dim))
    ratio = (p[:-1] - p[1:]) ** 2 / (p[:-1] + p[1:])
    expected = float(4.0 * np.sum(ratio * sys.jx_ladder ** 2))
    assert _bits(rows_at(sys, meas, 0.0).F_Q[0]) == _bits(expected)


@settings(max_examples=80, deadline=None)
@given(two_j=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1), b=b_values)
@example(two_j=201, seed=0, b=0.5)
@example(two_j=401, seed=1, b=1.0)
def test_qfi_cutoff_and_degenerate_branches_unreachable(two_j, seed, b):
    """_qfi divides by the + probability and by every adjacent population sum unguarded.

    Every even k of an _a_diags diagonal has a = +b^(g^2) >= 0, so e_k >= 1/2, the
    probability sum(e) / d is at most 1, and each such population, hence each adjacent
    pair sum, is at least 1/(2d).
    """
    sys = make_spin_system(two_j)
    gaps = resolve_partition(two_j, random_partition(np.random.default_rng(seed), two_j))
    e = (1.0 + _a_diags(gaps, [b])[0]) / 2
    p = e / (sys.dim * (float(np.sum(e)) / sys.dim))
    bound = 1.0 / (2 * sys.dim)
    assert np.all(p[0::2] >= bound)
    assert np.all(p[:-1] + p[1:] >= bound)
