"""Spin-J systems: the J_x ladder elements and the exact J_x spectrum.

Vectors are indexed in the J_z eigenbasis ordered m = j, j-1, ..., -j.
Half-integer spins are tracked through the integer ``two_j`` so that every
m value is the exact rational (two_j - 2k)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STRUCTURAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Spin-J space: dimension, J_x ladder elements, and the J_x eigenvectors.

    two_j is 2j, so j may be half-integer.  J_x is tridiagonal in the J_z
    basis; jx_ladder holds its real off-diagonal J_x[k, k+1] (length dim - 1).
    The eigenvalues of the real symmetric J_x are the exact ladder
    lam_k = k - j, k = 0, ..., dim - 1, in ascending order, so only the real
    eigenvectors (columns, in that order) are stored; measurement weights
    reuse them.  The gap lam_k - lam_l is the integer k - l: frequencies holds
    the 2 dim - 1 values -(dim - 1), ..., dim - 1 as floats, so the d^2 gaps
    over (k, l) are the Toeplitz array frequencies[k - l + dim - 1].
    """

    two_j: int
    dim: int
    jx_ladder: np.ndarray
    eigenvectors: np.ndarray
    frequencies: np.ndarray


def _check_two_j(two_j) -> int:
    """two_j as an int; ValueError unless it is a Python or numpy integer >= 1 (a bool is not)."""
    if isinstance(two_j, bool) or not isinstance(two_j, (int, np.integer)) or two_j < 1:
        raise ValueError("two_j must be a positive integer (d >= 2), got %r" % (two_j,))
    return int(two_j)


def make_spin_system(two_j: int) -> SpinSystem:
    """Construct the spin system for a given two_j >= 1."""
    two_j = _check_two_j(two_j)
    dim = two_j + 1
    j = two_j / 2
    m = (two_j - 2 * np.arange(dim)) / 2

    # ladder element between m and m-1: (1/2) sqrt(j(j+1) - m(m-1))
    off = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] - 1))
    # J_x is real symmetric, so eigh gives real eigenvectors
    vals, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    # J_x spectrum is exactly {-j, ..., j}; eigh sorts ascending, so it is the ladder
    if np.max(np.abs(vals - (np.arange(dim) - j))) > STRUCTURAL_TOL:
        raise AssertionError("J_x eigenvalues deviate from the exact ladder")
    return SpinSystem(two_j, dim, off, vecs, np.arange(1.0 - dim, dim))
