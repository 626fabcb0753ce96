"""Leggett-Garg violation versus metrological performance for spin-J parity probes."""

__version__ = "0.1.0"

from .spin import SpinSystem, SpectralDecomposition, make_spin_system
from .measurement import (PartitionSpec, NoisyDichotomicMeasurement, PreparedState,
                          DegeneratePreparationError, default_partition,
                          build_measurement, prepare_states, b_from_sigma,
                          sigma_from_b, parse_partition, format_partition)
from .correlations import (correlation, correlation_two_time,
                           correlation_derivatives, klg_equal_interval,
                           klg_four_time, max_violation)
from .estimation import (EstimationRecord, InconsistentCorrelationError,
                         fisher_from_correlation, qfi, estimation_report)

__all__ = [
    "SpinSystem", "SpectralDecomposition", "make_spin_system",
    "PartitionSpec", "NoisyDichotomicMeasurement", "PreparedState",
    "DegeneratePreparationError", "default_partition", "build_measurement",
    "prepare_states", "b_from_sigma", "sigma_from_b", "parse_partition",
    "format_partition",
    "correlation", "correlation_two_time", "correlation_derivatives",
    "klg_equal_interval", "klg_four_time", "max_violation",
    "EstimationRecord", "InconsistentCorrelationError",
    "fisher_from_correlation", "qfi", "estimation_report",
]
