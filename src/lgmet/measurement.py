"""Noisy dichotomic parity measurement: the observable A and its POVM E+-.

The observable is diagonal in the J_z basis with entries
(-1)^(j-m) * b^((m-mu)^2), where mu is the Gaussian center of the block
containing m and b in [0, 1] is the measurability (b = e^{-1/(2 sigma^2)}).
b = 1 is the projective parity operator; b = 0 keeps only the block centers
(0^0 = 1 convention).  Only that diagonal is stored: E+- = (1 +- a)/2 act
entrywise on it.

All m and mu values are carried as the integers 2m / 2mu so half-integer
spins need no floating-point bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import SpinSystem


class DegeneratePreparationError(ValueError):
    """A POVM arm has zero probability; the conditional state is undefined."""


@dataclass(frozen=True)
class PartitionSpec:
    """Blocks (two_mu, members) assigning every m to a Gaussian center mu.

    Members are 2m integers; blocks must be pairwise disjoint and cover the
    whole m ladder of the spin system they are used with.
    """

    blocks: tuple[tuple[int, tuple[int, ...]], ...]

    def validate(self, sys: SpinSystem) -> None:
        ladder = set(int(t) for t in (sys.two_j - 2 * np.arange(sys.dim)))
        seen: set[int] = set()
        for two_mu, members in self.blocks:
            if abs(two_mu) > sys.two_j:
                raise ValueError("block center 2mu=%d outside [-2j, 2j]" % two_mu)
            if (two_mu - sys.two_j) % 2 != 0:
                raise ValueError("block center 2mu=%d off the m lattice" % two_mu)
            for two_m in members:
                if two_m in seen:
                    raise ValueError("m value 2m=%d assigned to two blocks" % two_m)
                if two_m not in ladder:
                    raise ValueError("m value 2m=%d not in the spin ladder" % two_m)
                seen.add(two_m)
        if seen != ladder:
            missing = sorted(ladder - seen)
            raise ValueError("partition does not cover m values (2m): %s" % missing)


def default_partition(sys: SpinSystem) -> PartitionSpec:
    """Two blocks mu = +-j: positive m with +j, negative m with -j.

    Integer spin is rejected: m = 0 belongs to neither sign block, so the
    caller must supply an explicit PartitionSpec.
    """
    if sys.two_j % 2 == 0:
        raise ValueError("default partition needs half-integer spin; "
                         "m=0 is unassigned for integer spin")
    ladder = [int(t) for t in (sys.two_j - 2 * np.arange(sys.dim))]
    plus = tuple(t for t in ladder if t > 0)
    minus = tuple(t for t in ladder if t < 0)
    return PartitionSpec(((sys.two_j, plus), (-sys.two_j, minus)))


def resolve_partition(sys: SpinSystem, partition: PartitionSpec | None) -> PartitionSpec:
    """partition, or default_partition(sys) if None, validated against sys."""
    if partition is None:
        partition = default_partition(sys)
    partition.validate(sys)
    return partition


def parse_partition(text: str) -> PartitionSpec:
    """Parse "mu:m1,m2,...;mu:m1,..." with all numbers given as 2m integers."""
    blocks = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, tail = chunk.partition(":")
        try:
            two_mu = int(head)
            members = tuple(int(t) for t in tail.split(",") if t.strip())
        except ValueError as exc:
            raise ValueError("bad partition spec %r: %s" % (text, exc)) from None
        blocks.append((two_mu, members))
    if not blocks:
        raise ValueError("empty partition spec %r" % text)
    return PartitionSpec(tuple(blocks))


def format_partition(partition: PartitionSpec) -> str:
    return ";".join("%d:%s" % (two_mu, ",".join(str(t) for t in members))
                    for two_mu, members in partition.blocks)


@dataclass(frozen=True, eq=False)
class NoisyDichotomicMeasurement:
    """Observable A = diag(a_diag), measurability b, and the Fourier weights
    (V^T A V)_kl^2 over the real J_x eigenvectors V, raveled over (k, l)
    like the Toeplitz tables of correlations._fourier_sums.
    """

    b: float
    partition: PartitionSpec
    a_diag: np.ndarray
    weights: np.ndarray


def build_measurement(sys: SpinSystem, b: float,
                      partition: PartitionSpec | None = None) -> NoisyDichotomicMeasurement:
    """Build the diagonal of A and its Fourier weights for measurability b.

    partition=None uses the default +-j sign partition (half-integer spin only).
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("measurability b must lie in [0, 1], got %r" % b)
    partition = resolve_partition(sys, partition)
    a_diag = _a_diag(sys, b, partition)
    return NoisyDichotomicMeasurement(float(b), partition, a_diag, _weights(sys, a_diag[None])[0])


def _weights(sys: SpinSystem, a_diags: np.ndarray) -> np.ndarray:
    """(B, d^2) Fourier weights (V^T A V)_kl^2 of a (B, d) stack of diagonals, raveled over (k, l)."""
    return _squared_transform(sys.eigenvectors.T, a_diags).reshape(len(a_diags), -1)


def _squared_transform(m: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """(B, d, d) entrywise squares of m diag(x) m^T for each row x of a (B, d) stack of diagonals.

    Each slice of the stacked matmul is the gemm of its diagonal alone, bit for bit.
    """
    return ((m * diags[:, None, :]) @ m.T) ** 2


def _a_diag(sys: SpinSystem, b: float, partition: PartitionSpec) -> np.ndarray:
    """Diagonal (-1)^(j-m) b^((m-mu)^2) of A over m = j, ..., -j; partition already validated.

    Each power is a scalar float ** int, taken once per gap |m - mu| and
    gathered: np.power differs from it in the last bit for some (b, exponent).
    """
    gaps = [0] * sys.dim  # |m - mu| at index k = j - m
    for two_mu, members in partition.blocks:
        for two_m in members:
            gaps[(sys.two_j - two_m) // 2] = abs(two_m - two_mu) // 2
    powers = [float(b) ** (g * g) for g in range(max(gaps) + 1)]  # 0**0 == 1 covers b=0 at m=mu
    return np.array([-powers[g] if k % 2 else powers[g] for k, g in enumerate(gaps)])
