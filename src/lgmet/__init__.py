"""Leggett-Garg violation versus metrological performance for spin-J parity probes."""

__version__ = "0.1.0"

from .spin import SpinSystem, make_spin_system
from .measurement import (PartitionSpec, NoisyDichotomicMeasurement, build_measurement,
                          parse_partition, format_partition)
from .correlations import max_violation
from .estimation import InconsistentCorrelationError

__all__ = [
    "SpinSystem", "make_spin_system",
    "PartitionSpec", "NoisyDichotomicMeasurement", "build_measurement",
    "parse_partition", "format_partition",
    "max_violation",
    "InconsistentCorrelationError",
]
