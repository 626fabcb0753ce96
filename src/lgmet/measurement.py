"""Noisy dichotomic parity measurement: observable A, POVM E+-, preparations.

The observable is diagonal in the J_z basis with entries
(-1)^(j-m) * b^((m-mu)^2), where mu is the Gaussian center of the block
containing m and b in [0, 1] is the measurability (b = e^{-1/(2 sigma^2)}).
b = 1 is the projective parity operator; b = 0 keeps only the block centers
(0^0 = 1 convention).  Only that diagonal is stored: E+- = (1 +- a)/2 and
the prepared states act entrywise on it.

All m and mu values are carried as the integers 2m / 2mu so half-integer
spins need no floating-point bookkeeping.
"""

from __future__ import annotations

import math
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
    |(V^dag A V)_kl|^2 over the J_x eigenvectors V, raveled like SpinSystem.gaps.
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
    if partition is None:
        partition = default_partition(sys)
    partition.validate(sys)

    center = {two_m: two_mu for two_mu, members in partition.blocks for two_m in members}
    a_diag = np.empty(sys.dim)
    for k in range(sys.dim):
        two_m = sys.two_j - 2 * k
        sign = -1.0 if ((sys.two_j - two_m) // 2) % 2 else 1.0
        gap_sq = ((two_m - center[two_m]) // 2) ** 2
        a_diag[k] = sign * float(b) ** gap_sq  # 0**0 == 1 covers b=0 at m=mu
    v = sys.jx_spectrum.eigenvectors
    weights = np.abs((v.conj().T * a_diag) @ v) ** 2
    return NoisyDichotomicMeasurement(float(b), partition, a_diag, weights.ravel())


def b_from_sigma(sigma: float) -> float:
    """Measurability b = e^{-1/(2 sigma^2)} of a Gaussian of width sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return math.exp(-1.0 / (2.0 * sigma * sigma))


def sigma_from_b(b: float) -> float:
    """Inverse of b_from_sigma; b must lie strictly inside (0, 1)."""
    if not 0.0 < b < 1.0:
        raise ValueError("no finite sigma for b outside (0, 1), got %r" % b)
    return math.sqrt(-1.0 / (2.0 * math.log(b)))


@dataclass(frozen=True)
class PreparedState:
    """One arm of the first measurement on I/d; populations is its J_z diagonal."""

    sign: int
    populations: np.ndarray
    probability: float


def prepare_states(sys: SpinSystem,
                   meas: NoisyDichotomicMeasurement) -> tuple[PreparedState, PreparedState]:
    """Post-measurement states E^{1/2} (I/d) E^{1/2} / p for both outcomes.

    A is diagonal, so E+- = (1 +- a)/2 are diagonal and the square roots act
    entrywise: the populations are e / (d p) with p = sum(e) / d.
    """
    d = sys.dim
    out = []
    for sign in (+1, -1):
        e = (1.0 + sign * meas.a_diag) / 2
        p = float(np.sum(e)) / d
        if p <= 0.0:
            raise DegeneratePreparationError(
                "outcome %+d has zero probability; preparation undefined" % sign)
        out.append(PreparedState(sign, e / (d * p), p))
    return out[0], out[1]
