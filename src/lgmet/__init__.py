"""Leggett-Garg violation versus metrological performance for spin-J parity probes."""

__version__ = "0.1.0"

from .spin import SpinSystem, make_spin_system
from .measurement import (PartitionSpec, NoisyDichotomicMeasurement,
                          DegeneratePreparationError, default_partition,
                          build_measurement, parse_partition, format_partition)
from .correlations import (correlation, correlation_derivatives, klg_equal_interval,
                           max_violation)
from .estimation import (InconsistentCorrelationError, fisher_from_correlation, qfi,
                         estimation_report)

__all__ = [
    "SpinSystem", "make_spin_system",
    "PartitionSpec", "NoisyDichotomicMeasurement",
    "DegeneratePreparationError", "default_partition", "build_measurement",
    "parse_partition", "format_partition",
    "correlation", "correlation_derivatives", "klg_equal_interval", "max_violation",
    "InconsistentCorrelationError", "fisher_from_correlation", "qfi", "estimation_report",
]
