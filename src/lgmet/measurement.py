"""Noisy dichotomic parity measurement: the observable A and its POVM E+-.

The observable is diagonal in the J_z basis with entries
(-1)^(j-m) * b^((m-mu)^2), where mu is the Gaussian center of the block
containing m and b in [0, 1] is the measurability (b = e^{-1/(2 sigma^2)}).
b = 1 is the projective parity operator; b = 0 keeps only the block centers
(0^0 = 1 convention).  Only that diagonal is stored: E+- = (1 +- a)/2 act
entrywise on it, and correlations._coefficients builds the Fourier sums from it.

All m and mu values are carried as the integers 2m / 2mu so half-integer
spins need no floating-point bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import SpinSystem


@dataclass(frozen=True)
class PartitionSpec:
    """Blocks (two_mu, members) of 2m integers, assigning every m to a Gaussian center mu."""

    blocks: tuple[tuple[int, tuple[int, ...]], ...]


def resolve_partition(two_j: int, partition: PartitionSpec | None) -> list[int]:
    """Gaps |m - mu| at each level k = j - m of the spin two_j = 2j under partition.

    None is the default two sign blocks mu = +-j, positive m with +j and negative m
    with -j, so the gap is min(k, two_j - k); it needs half-integer spin, since m = 0
    belongs to neither block.  ValueError unless the blocks are disjoint, cover the
    m ladder, and center on it; the uncovered-m error names the first 8 and the count.
    """
    if partition is None:
        if two_j % 2 == 0:
            raise ValueError("default partition needs half-integer spin; "
                             "m=0 is unassigned for integer spin")
        return [min(k, two_j - k) for k in range(two_j + 1)]
    level = {two_j - 2 * k: k for k in range(two_j + 1)}  # 2m -> k
    gaps: list = [None] * len(level)
    for two_mu, members in partition.blocks:
        if abs(two_mu) > two_j:
            raise ValueError("block center 2mu=%d outside [-2j, 2j]" % two_mu)
        if (two_mu - two_j) % 2 != 0:
            raise ValueError("block center 2mu=%d off the m lattice" % two_mu)
        for two_m in members:
            if two_m not in level:
                raise ValueError("m value 2m=%d not in the spin ladder" % two_m)
            if gaps[level[two_m]] is not None:
                raise ValueError("m value 2m=%d assigned more than once" % two_m)
            gaps[level[two_m]] = abs(two_m - two_mu) // 2
    missing = sorted(two_m for two_m, k in level.items() if gaps[k] is None)
    if missing:
        shown = ", ".join(map(str, missing[:8])) + (", ..." if len(missing) > 8 else "")
        raise ValueError("partition does not cover %d of the %d m values (2m): [%s]"
                         % (len(missing), len(level), shown))
    return gaps


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
    """Observable A = diag(a_diag) in the J_z basis, and its measurability b."""

    b: float
    a_diag: np.ndarray


def build_measurement(sys: SpinSystem, b: float,
                      partition: PartitionSpec | None = None) -> NoisyDichotomicMeasurement:
    """Build the diagonal of A for measurability b on the spin sys, in O(d).

    partition=None uses the default +-j sign partition (half-integer spin only).
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("measurability b must lie in [0, 1], got %r" % b)
    a_diag = _a_diags(resolve_partition(sys.two_j, partition), [b])[0]
    return NoisyDichotomicMeasurement(float(b), a_diag)


def _a_diags(gaps: list[int], b_values) -> np.ndarray:
    """(B, d) diagonals (-1)^k b^(gap_k^2) of A, one row per b, from resolve_partition's gaps.

    One scalar float ** int per (b, gap), as np.power differs from it in the last bit for
    some (b, exponent); 0**0 == 1 covers b = 0 at m = mu.  np.take, unlike fancy indexing,
    keeps the stack C-contiguous, so _qfi's row sums keep their bits.
    """
    powers = [[b ** (g * g) for g in range(max(gaps) + 1)] for b in map(float, b_values)]
    a_diags = np.take(powers, gaps, axis=1)
    a_diags[:, 1::2] *= -1.0  # exact
    return a_diags
