import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lgmet import build_measurement, format_partition, make_spin_system, parse_partition
import lgmet.correlations
from lgmet.correlations import BLOCK_ELEMENTS, LEVEL_CUTOFF, _coefficients, _series
from lgmet.measurement import NoisyDichotomicMeasurement, PartitionSpec, _a_diags, resolve_partition
from lgmet.spin import REFERENCE_DIM
import lgmet.measurement
from conftest import count_calls, random_partition, rows_at, sign_partition
from oracles import DegenerateOutcomeError, dense_jx, fourier_weights, prepared_state, qfi_of_state


class TestPartition:
    @pytest.mark.parametrize("two_j", [1, 3, 5, 51, 401])
    def test_default_is_the_sign_partition(self, two_j):
        assert resolve_partition(two_j, None) == resolve_partition(two_j, sign_partition(two_j))

    def test_default_rejects_integer_spin(self):
        with pytest.raises(ValueError, match="m=0"):
            resolve_partition(4, None)

    def test_validate_rejects_missing_m(self):
        part = PartitionSpec(((5, (5, 3)), (-5, (-1, -3, -5))))
        with pytest.raises(ValueError,
                           match=re.escape("does not cover 1 of the 6 m values (2m): [1]")):
            resolve_partition(5, part)

    def test_missing_m_names_the_first_eight_and_the_count(self):
        # an uncovered half of the largest ladder names 8 of its 2048 m values, not all
        part = PartitionSpec(((4095, tuple(range(4095, 0, -2))),))
        with pytest.raises(ValueError) as info:
            resolve_partition(4095, part)
        assert str(info.value) == ("partition does not cover 2048 of the 4096 m values (2m): "
                                   "[-4095, -4093, -4091, -4089, -4087, -4085, -4083, -4081, ...]")

    def test_validate_rejects_overlap(self):
        part = PartitionSpec(((5, (5, 3, 1)), (-5, (1, -1, -3, -5))))
        with pytest.raises(ValueError, match="2m=1 assigned more than once"):
            resolve_partition(5, part)

    def test_validate_rejects_out_of_range_center(self):
        part = PartitionSpec(((7, (5, 3, 1)), (-5, (-1, -3, -5))))
        with pytest.raises(ValueError, match="outside"):
            resolve_partition(5, part)

    @pytest.mark.parametrize("blocks, match", [
        (((4, (5, 3, 1)), (-5, (-1, -3, -5))), "2mu=4 off the m lattice"),
        (((5, (5, 3, 1, 2)), (-5, (-1, -3, -5))), "2m=2 not in the spin ladder"),
        (((5, (5, 3, 1, 7)), (-5, (-1, -3, -5))), "2m=7 not in the spin ladder"),
        (((5, (5, 3, 1)), (-5, (-1, -3, -5, -5))), "2m=-5 assigned more than once"),
    ])
    def test_validate_rejects_off_lattice(self, blocks, match):
        with pytest.raises(ValueError, match=match):
            resolve_partition(5, PartitionSpec(blocks))

    def test_text_round_trip(self):
        text = "5:5,3,1;-5:-1,-3,-5"
        part = parse_partition(text)
        assert resolve_partition(5, part) == [0, 1, 2, 2, 1, 0]
        assert format_partition(part) == text

    @pytest.mark.parametrize("bad", ["", "5:x,3", "nonsense"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_partition(bad)


class TestBuildMeasurement:
    def test_projective_limit_is_parity(self, spin52):
        meas = build_measurement(spin52, 1.0)
        np.testing.assert_allclose(meas.a_diag, [1, -1, 1, -1, 1, -1], atol=1e-15)
        np.testing.assert_allclose(meas.a_diag ** 2, np.ones(6), atol=1e-15)

    def test_walks_the_partition_once(self, monkeypatch, spin52):
        walks = count_calls(monkeypatch, lgmet.measurement.resolve_partition)
        build_measurement(spin52, 0.7)
        build_measurement(make_spin_system(4), 0.7, parse_partition("4:4,2,0;-4:-2,-4"))
        assert len(walks) == 2

    def test_half_measurability_entry(self, spin52):
        meas = build_measurement(spin52, 0.5)
        # m=3/2 sits one step from mu=5/2: (-1)^1 * 0.5^1
        assert meas.a_diag[1] == pytest.approx(-0.5)

    def test_zero_measurability(self, spin52):
        meas = build_measurement(spin52, 0.0)
        np.testing.assert_allclose(meas.a_diag, [1, 0, 0, 0, 0, -1], atol=1e-15)

    def test_povm_completeness_exact(self, spin52):
        meas = build_measurement(spin52, 0.73)
        assert np.all((1 + meas.a_diag) / 2 + (1 - meas.a_diag) / 2 == 1.0)

    def test_trace_a_squared_bounded(self, spin52):
        for b in (0.0, 0.3, 0.8, 1.0):
            meas = build_measurement(spin52, b)
            assert np.sum(meas.a_diag ** 2) <= spin52.dim + 1e-12

    def test_rejects_bad_b(self, spin52):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                build_measurement(spin52, bad)

    def test_magnitudes_nondecreasing_in_b(self, spin52):
        grid = np.linspace(0.0, 1.0, 21)
        mags = np.array([np.abs(build_measurement(spin52, b).a_diag) for b in grid])
        assert np.all(np.diff(mags, axis=0) >= -1e-15)

    def test_weak_limit_spectrum_strictly_inside(self, spin52):
        meas = build_measurement(spin52, 0.9)
        offcenter = np.abs(meas.a_diag)[1:5]
        assert np.max(offcenter) < 1.0

    def test_random_partitions_give_valid_povm(self, spin52):
        rng = np.random.default_rng(11)
        for _ in range(100):
            part = random_partition(rng, 5)
            meas = build_measurement(spin52, rng.uniform(0, 1), part)
            eplus, eminus = (1 + meas.a_diag) / 2, (1 - meas.a_diag) / 2
            assert np.all(eplus + eminus == 1.0)
            assert np.min(eplus) >= -1e-12
            assert np.min(eminus) >= -1e-12

    def test_symmetric_partition_traceless(self, spin52):
        rng = np.random.default_rng(13)
        for _ in range(50):
            part = random_partition(rng, 5, symmetric=True)
            meas = build_measurement(spin52, rng.uniform(0, 1), part)
            assert abs(np.sum(meas.a_diag)) <= 1e-12
            for sign in (+1, -1):
                assert prepared_state(spin52, meas, sign)[1] == pytest.approx(0.5, abs=1e-12)


class TestPrepareStates:
    """The state that outcome + prepares from I/d, read through F_Q and the dense oracle."""

    @staticmethod
    def _assert_qfi_of_populations(sys, meas, populations):
        rho, p = prepared_state(sys, meas, +1)
        np.testing.assert_allclose(np.diag(rho), populations, atol=1e-12)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert rows_at(sys, meas, 0.0).F_Q[0] == pytest.approx(
            qfi_of_state(sys, np.diag(populations)), rel=1e-12, abs=1e-13)

    def test_projective_preparation(self, spin52, parity52):
        self._assert_qfi_of_populations(spin52, parity52, [1 / 3, 0, 1 / 3, 0, 1 / 3, 0])

    def test_zero_measurability_preparation(self, spin52):
        self._assert_qfi_of_populations(spin52, build_measurement(spin52, 0.0),
                                        [1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 0])

    def test_probabilities_sum_to_one(self, spin52):
        rng = np.random.default_rng(2)
        for _ in range(20):
            meas = build_measurement(spin52, rng.uniform(0, 1),
                                     random_partition(rng, 5))
            p_plus, p_minus = (prepared_state(spin52, meas, sign)[1] for sign in (+1, -1))
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
            assert p_plus == pytest.approx((1.0 + np.mean(meas.a_diag)) / 2, abs=1e-12)

    def test_degenerate_arm_rejected(self, spin52):
        broken = NoisyDichotomicMeasurement(1.0, -np.ones(6))
        with pytest.raises(DegenerateOutcomeError, match="outcome \\+1"):
            prepared_state(spin52, broken, +1)


@settings(max_examples=60, deadline=None)
@given(two_j=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       b=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_diagonal_form_matches_dense_form(two_j, seed, b):
    """Weights, and the QFI of the + arm, against the dense matrices they replace; at d <= 13
    _coefficients returns the weights of every level."""
    sys = make_spin_system(two_j)
    meas = build_measurement(sys, b, random_partition(np.random.default_rng(seed), two_j))
    a = np.diag(meas.a_diag).astype(complex)
    v = sys.eigenvectors
    dense_weights = np.abs(v.conj().T @ a @ v) ** 2
    assert np.array_equal(_coefficients(sys, meas.a_diag[None])[0], dense_weights.ravel())

    eye = np.eye(sys.dim)
    e = np.real(eye + a) / 2
    p = np.trace(e) / sys.dim
    root = np.sqrt(e)  # E is diagonal, so its square root is entrywise
    rho = root @ (eye / sys.dim) @ root / p
    assert rows_at(sys, meas, 0.0).F_Q[0] == pytest.approx(qfi_of_state(sys, rho),
                                                          rel=1e-12, abs=1e-13)


def test_build_measurement_is_linear_in_d():
    """At two_j = 801 build_measurement's traced peak is at most 64 d float64 values: it forms
    the diagonal alone, not the d^2 weights (5.1 MB here)."""
    sys = make_spin_system(801)
    tracemalloc.start()
    try:
        build_measurement(sys, 0.99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * sys.dim * 8


def _a_diag_loop(sys, b, partition):
    """(-1)^(j-m) b^((m-mu)^2), one Python float ** int per entry."""
    center = {two_m: two_mu for two_mu, members in partition.blocks for two_m in members}
    a = np.empty(sys.dim)
    for k in range(sys.dim):
        two_m = sys.two_j - 2 * k
        sign = -1.0 if ((sys.two_j - two_m) // 2) % 2 else 1.0
        a[k] = sign * float(b) ** (((two_m - center[two_m]) // 2) ** 2)
    return a


@settings(max_examples=150, deadline=None)
@given(two_j=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       b=st.one_of(st.sampled_from([0.0, 1.0] + np.linspace(0.0, 1.0, 201).tolist()),
                   st.floats(0.0, 1.0)))
def test_a_diag_matches_scalar_loop(two_j, seed, b):
    """Each gathered diagonal of a C-contiguous stack is bit-equal to a scalar power per entry."""
    sys = make_spin_system(two_j)
    partition = random_partition(np.random.default_rng(seed), two_j)
    bs = [b, 0.0, 1.0, 1.0 - b]
    stack = _a_diags(resolve_partition(sys.two_j, partition), bs)
    assert stack.shape == (4, sys.dim) and stack.flags.c_contiguous
    for a, b_row in zip(stack, bs):
        assert a.tobytes() == _a_diag_loop(sys, b_row, partition).tobytes()
    assert build_measurement(sys, b, partition).a_diag.tobytes() == stack[0].tobytes()


@pytest.mark.parametrize("two_j", [201, 401])
def test_weights_match_complex_dense_route(two_j):
    """Real-eigenvector weights against |V^dag A V|^2 from the complex eigh of the dense J_x."""
    sys = make_spin_system(two_j)
    v = np.linalg.eigh(dense_jx(two_j))[1]
    for b in (0.3, 0.99, 1.0):
        meas = build_measurement(sys, b)
        dense = np.abs(v.conj().T @ np.diag(meas.a_diag).astype(complex) @ v) ** 2
        np.testing.assert_allclose(fourier_weights(sys, meas), dense.ravel(), rtol=0, atol=1e-14)


@pytest.mark.parametrize("two_j, count", [(1, 7), (2, 5), (5, 11), (12, 3), (51, 5), (201, 3),
                                          (401, 2)])
def test_stacked_weights_bit_equal_to_one_matmul_per_b(two_j, count):
    """Each row of a stack's _coefficients is _coefficients of its own diagonal, bit for bit,
    and, while d <= REFERENCE_DIM, the 2-D matmul over all of V, squared."""
    sys = make_spin_system(two_j)
    partition = random_partition(np.random.default_rng(two_j), two_j)
    bs = [0.0, 1.0, *np.random.default_rng(count).uniform(0.0, 1.0, count - 2)]
    a_diags = _a_diags(resolve_partition(sys.two_j, partition), bs)
    v = sys.eigenvectors
    stacked = _coefficients(sys, a_diags)
    assert stacked.shape == (count, sys.dim ** 2 if sys.dim <= REFERENCE_DIM else sys.dim)
    for a, row in zip(a_diags, stacked):
        assert row.tobytes() == _coefficients(sys, a[None])[0].tobytes()
        if sys.dim <= REFERENCE_DIM:
            assert row.tobytes() == (((v.T * a) @ v) ** 2).ravel().tobytes()


@pytest.mark.parametrize("two_j, bs", [(24, [0.05, 0.3, 0.7]), (12, [0.18])])
def test_reference_route_keeps_every_level(two_j, bs):
    """Up to REFERENCE_DIM no level is dropped: the weights are the full product bit for bit,
    also at b where some |a_k| lie below LEVEL_CUTOFF max|a|."""
    sys = make_spin_system(two_j)
    a_diags = _a_diags(resolve_partition(two_j, sign_partition(two_j)), bs)
    size = np.abs(a_diags)
    assert np.any(size < LEVEL_CUTOFF * size.max(axis=1, keepdims=True))
    v = sys.eigenvectors
    for a, row in zip(a_diags, _coefficients(sys, a_diags)):
        assert row.tobytes() == (((v.T * a) @ v) ** 2).ravel().tobytes()


def test_large_spin_coefficients_form_no_weight_stack():
    """Above REFERENCE_DIM _coefficients folds each b's product as it forms it: over 8
    diagonals at two_j = 201 its traced peak is at most 3 d^2 + 2 BLOCK_ELEMENTS float64
    values (one product, its scaled operand and kept rows, the fold buffer), well below the
    8 d^2 of a (B, d^2) weight stack."""
    sys = make_spin_system(201)
    a_diags = _a_diags(resolve_partition(201, None), np.linspace(0.3, 1.0, 8))
    tracemalloc.start()
    try:
        _coefficients(sys, a_diags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (3 * sys.dim ** 2 + 2 * BLOCK_ELEMENTS) * 8


def _check_truncation(sys, a_diags, thetas, rounding=False):
    """_coefficients against itself with LEVEL_CUTOFF = 0, which keeps every level: bit-equal
    where no level is dropped (every diagonal while d <= REFERENCE_DIM), else C within
    2^-59 sqrt(d) max|a|^2 at every theta, plus, with rounding, the (d + 2 sqrt(d) + 4) eps
    sum_k a_k^2 of the two sums' rounding (see LEVEL_CUTOFF); returns the dropped count of
    each diagonal."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lgmet.correlations, "LEVEL_CUTOFF", 0.0)
        full = _coefficients(sys, a_diags)
    truncated = _coefficients(sys, a_diags)
    c_full, c = (_series(sys, coefs, thetas, 0) for coefs in (full, truncated))
    spread = (sys.dim + 2 * np.sqrt(sys.dim) + 4) * np.finfo(float).eps if rounding else 0.0
    dropped = []
    for a, w, w_full, row, row_full in zip(a_diags, truncated, full, c, c_full):
        size = np.abs(a)
        dropped.append(0 if sys.dim <= REFERENCE_DIM
                       else int(np.sum(size < LEVEL_CUTOFF * size.max())))
        if not dropped[-1]:
            assert w.tobytes() == w_full.tobytes()
        bound = 2.0 ** -59 * np.sqrt(sys.dim) * size.max() ** 2 + spread * np.sum(a * a)
        assert np.max(np.abs(row - row_full)) <= bound
    return dropped


@pytest.mark.parametrize("two_j", [51, 201, 401, 801])
def test_level_truncation_bound_at_large_spin(two_j):
    """The default partition at b 0.3, 0.9, 0.94, 0.99 and 1, over 64 thetas on [0, pi]."""
    sys = make_spin_system(two_j)
    a_diags = _a_diags(resolve_partition(two_j, None), [0.3, 0.9, 0.94, 0.99, 1.0])
    dropped = _check_truncation(sys, a_diags, np.linspace(0.0, np.pi, 64))
    assert dropped[0] > 0 and dropped[-1] == 0


@st.composite
def gapped_partitions(draw):
    """(two_j, partition) whose every block center lies outside the block, on the m lattice
    next to one of its ends, so no level has gap 0 and max|a| < 1 for b < 1."""
    two_j = draw(st.integers(2, 60))
    ladder = [two_j - 2 * k for k in range(two_j + 1)]
    cuts = sorted(draw(st.sets(st.integers(1, two_j), min_size=1, max_size=6)))
    blocks = []
    for lo, hi in zip([0, *cuts], [*cuts, two_j + 1]):
        run = ladder[lo:hi]
        two_mu = run[0] + 2 if lo > 0 else run[-1] - 2  # a neighbour outside the run
        blocks.append((two_mu, tuple(run)))
    return two_j, PartitionSpec(tuple(blocks))


@settings(max_examples=80, deadline=None)
@given(setup=gapped_partitions(),
       b=st.one_of(st.sampled_from([0.0, 1.0, 0.01, 0.3]), st.floats(0.0, 1.0)),
       theta=st.floats(-4.0, 4.0))
# nothing is dropped at d = 5, so the sums are bit-equal, though a truncated gemm would move
# C = 5.7e-15 by 2 of its ulps; at d = 46 the truncated and full sums of C = 1.0e-15 differ by
# 1.44 times the exact-arithmetic 2^-59 sqrt(d) max|a|^2: the rounding term covers it
@example(setup=(4, PartitionSpec(((0, (4, 2)), (2, (0, -2, -4))))), b=1.192092896e-07,
         theta=0.0)
@example(setup=(45, PartitionSpec(((25, tuple(range(45, 26, -2))), (27, tuple(range(25, 16, -2))),
                                   (17, tuple(range(15, -22, -2))),
                                   (-21, tuple(range(-23, -46, -2)))))),
         b=1.0806923044301291e-07, theta=0.0)
def test_level_truncation_bound_without_zero_gap(setup, b, theta):
    two_j, partition = setup
    gaps = resolve_partition(two_j, partition)
    assert min(gaps) > 0
    _check_truncation(make_spin_system(two_j), _a_diags(gaps, [b, b ** 0.5]),
                      np.array([0.0, theta, np.pi]), rounding=True)
