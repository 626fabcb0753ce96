import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgmet import (DegeneratePreparationError, b_from_sigma, build_measurement,
                   default_partition, format_partition, make_spin_system,
                   parse_partition, prepare_states, sigma_from_b)
from lgmet.measurement import NoisyDichotomicMeasurement, PartitionSpec
from conftest import random_partition


class TestPartition:
    def test_default_spin_five_halves(self, spin52):
        part = default_partition(spin52)
        assert part.blocks == ((5, (5, 3, 1)), (-5, (-1, -3, -5)))

    def test_default_spin_half(self):
        part = default_partition(make_spin_system(1))
        assert part.blocks == ((1, (1,)), (-1, (-1,)))

    def test_default_rejects_integer_spin(self):
        with pytest.raises(ValueError, match="m=0"):
            default_partition(make_spin_system(4))

    def test_validate_rejects_missing_m(self, spin52):
        part = PartitionSpec(((5, (5, 3)), (-5, (-1, -3, -5))))
        with pytest.raises(ValueError, match="does not cover"):
            part.validate(spin52)

    def test_validate_rejects_overlap(self, spin52):
        part = PartitionSpec(((5, (5, 3, 1)), (-5, (1, -1, -3, -5))))
        with pytest.raises(ValueError, match="two blocks"):
            part.validate(spin52)

    def test_validate_rejects_out_of_range_center(self, spin52):
        part = PartitionSpec(((7, (5, 3, 1)), (-5, (-1, -3, -5))))
        with pytest.raises(ValueError, match="outside"):
            part.validate(spin52)

    def test_text_round_trip(self, spin52):
        text = "5:5,3,1;-5:-1,-3,-5"
        part = parse_partition(text)
        part.validate(spin52)
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
            plus, minus = prepare_states(spin52, meas)
            assert plus.probability == pytest.approx(0.5, abs=1e-12)
            assert minus.probability == pytest.approx(0.5, abs=1e-12)


class TestMeasurabilityConversions:
    def test_large_sigma_limit(self):
        assert b_from_sigma(1e6) > 1 - 1e-9

    def test_round_trip(self):
        assert b_from_sigma(sigma_from_b(0.7)) == pytest.approx(0.7, abs=1e-12)

    def test_unit_sigma(self):
        assert sigma_from_b(math.exp(-0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                sigma_from_b(bad)
        with pytest.raises(ValueError):
            b_from_sigma(0.0)


class TestPrepareStates:
    def test_projective_preparation(self, spin52, parity52):
        plus, _ = prepare_states(spin52, parity52)
        np.testing.assert_allclose(plus.populations,
                                   [1 / 3, 0, 1 / 3, 0, 1 / 3, 0], atol=1e-12)
        assert plus.probability == pytest.approx(0.5, abs=1e-12)

    def test_zero_measurability_preparation(self, spin52):
        meas = build_measurement(spin52, 0.0)
        plus, _ = prepare_states(spin52, meas)
        np.testing.assert_allclose(plus.populations,
                                   [1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 0], atol=1e-12)
        assert plus.probability == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self, spin52):
        rng = np.random.default_rng(2)
        for _ in range(20):
            meas = build_measurement(spin52, rng.uniform(0, 1),
                                     random_partition(rng, 5))
            plus, minus = prepare_states(spin52, meas)
            assert plus.probability + minus.probability == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_arm_rejected(self, spin52):
        part = default_partition(spin52)
        broken = NoisyDichotomicMeasurement(1.0, part, np.ones(6), np.zeros(36))
        with pytest.raises(DegeneratePreparationError):
            prepare_states(spin52, broken)


@settings(max_examples=60, deadline=None)
@given(two_j=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       b=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_diagonal_form_matches_dense_form(two_j, seed, b):
    """Weights and populations against the dense matrices they replace."""
    sys = make_spin_system(two_j)
    meas = build_measurement(sys, b, random_partition(np.random.default_rng(seed), two_j))
    a = np.diag(meas.a_diag).astype(complex)
    v = sys.jx_spectrum.eigenvectors
    dense_weights = np.abs(v.conj().T @ a @ v) ** 2
    assert np.array_equal(meas.weights, dense_weights.ravel())

    eye = np.eye(sys.dim)
    for sign, state in zip((+1, -1), prepare_states(sys, meas)):
        e = np.real(eye + sign * a) / 2
        p = np.trace(e) / sys.dim
        root = np.sqrt(e)  # E is diagonal, so its square root is entrywise
        rho = root @ (eye / sys.dim) @ root / p
        assert state.probability == pytest.approx(p, rel=1e-14, abs=1e-16)
        np.testing.assert_allclose(state.populations, np.diag(rho), rtol=1e-13, atol=1e-16)
