"""Sweep rows against the single-point functions, and qfi against the eigh form."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgmet import (InconsistentCorrelationError, build_measurement, correlation,
                   fisher_from_correlation, klg_equal_interval, make_spin_system,
                   prepare_states, qfi, qfi_of_state)
from lgmet.measurement import PartitionSpec
from lgmet.scan import RunConfig, phase_map, scan_b, scan_theta


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
    c = correlation(sys, meas, theta)
    k = klg_equal_interval(sys, meas, theta)
    f = fisher_from_correlation(sys, meas, theta)
    f_q = qfi(sys, meas)
    return (theta, meas.b, c, k, f, f_q, f / f_q if f_q > 0.0 else 0.0)


@settings(max_examples=60, deadline=None)
@given(setup=partitions(),
       bs=st.lists(b_values, min_size=1, max_size=3),
       thetas=st.lists(theta_values, min_size=1, max_size=3))
def test_sweep_rows_bit_equal_to_composed_values(setup, bs, thetas):
    two_j, partition = setup
    sys = make_spin_system(two_j)
    measurements = {b: build_measurement(sys, b, partition) for b in bs}
    sweeps = [
        (scan_theta, RunConfig(two_j, [bs[0]], thetas, partition), [(bs[0], t) for t in thetas]),
        (scan_b, RunConfig(two_j, bs, [thetas[0]], partition), [(b, thetas[0]) for b in bs]),
        (phase_map, RunConfig(two_j, bs, thetas, partition), [(b, t) for b in bs for t in thetas]),
    ]
    for sweep, config, grid in sweeps:
        try:
            expected = [_composed(sys, measurements[b], t) for b, t in grid]
        except InconsistentCorrelationError:
            with pytest.raises(InconsistentCorrelationError):
                sweep(config)
            continue
        rows = sweep(config).rows
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            got = tuple(row.as_dict().values())
            assert [_bits(x) for x in got] == [_bits(x) for x in want], (sweep.__name__, got, want)


@settings(max_examples=80, deadline=None)
@given(setup=partitions(), b=b_values)
def test_qfi_matches_eigh_form(setup, b):
    two_j, partition = setup
    sys = make_spin_system(two_j)
    meas = build_measurement(sys, b, partition)
    for sign, state in zip((+1, -1), prepare_states(sys, meas)):
        rho = np.diag(state.populations)
        assert qfi(sys, meas, sign) == pytest.approx(qfi_of_state(sys, rho),
                                                     rel=1e-12, abs=1e-13)
