"""Spin-J systems: the J_x ladder elements and the exact J_x spectrum.

Vectors are indexed in the J_z eigenbasis ordered m = j, j-1, ..., -j.
Half-integer spins are tracked through the integer ``two_j`` so that every
m value is the exact rational (two_j - 2k)/2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

STRUCTURAL_TOL = 1e-10

# Largest two_j: each d x d float64 array of a spin build (d = 4096 at most)
# then takes at most 128 MiB, and the few that a build holds fit in memory: at
# 4095 the d x d result and two h x h = d^2/4 arrays of the mirror block (227 MiB
# peak resident in a fresh process, numpy 2.4 on x86-64), at 4094 two d x d arrays
# of the full solve, its eigenvectors and their C-ordered copy (298 MiB).
MAX_TWO_J = 4095

# The one rule for the bits that bench/reference.json's figure digests pin: up to this
# dimension the J_x eigenvectors come from one solve of all of J_x, not the mirror block (25 is
# dstedc's SMLSIZ, below which the block saves little), and _series sums the d^2 weights through
# Toeplitz tables, not harmonic coefficients.  Once the digests are re-based, both forks go with it.
REFERENCE_DIM = 25


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Spin-J space: dimension, J_x ladder elements, and the J_x eigenvectors.

    two_j is 2j, so j may be half-integer.  J_x is tridiagonal in the J_z
    basis; jx_ladder holds its real off-diagonal J_x[k, k+1] (length dim - 1).
    The eigenvalues of the real symmetric J_x are the exact ladder
    lam_k = k - j, k = 0, ..., dim - 1, in ascending order, so only the real
    eigenvectors (columns, in that order) are stored; measurement weights
    reuse them, and each gap lam_k - lam_l is the integer k - l.
    """

    two_j: int
    dim: int
    jx_ladder: np.ndarray
    eigenvectors: np.ndarray


def _check_two_j(two_j) -> int:
    """two_j as an int; ValueError unless it is a Python or numpy integer (not a bool)
    in [1, MAX_TWO_J]."""
    if isinstance(two_j, bool) or not isinstance(two_j, (int, np.integer)) or two_j < 1:
        raise ValueError("two_j must be a positive integer (d >= 2), got %r" % (two_j,))
    if two_j > MAX_TWO_J:
        raise ValueError("two_j=%d is too large: the limit is %d, where one d x d float64 "
                         "array takes 128 MiB" % (two_j, MAX_TWO_J))
    return int(two_j)


@functools.cache
def _dstevd():
    """eigh of a symmetric tridiagonal matrix through LAPACK dstevd, or None.

    The function takes the diagonal and the off-diagonal and returns (ascending
    eigenvalues, eigenvectors as columns, a Fortran-ordered view).  It calls the
    ILP64 OpenBLAS that the numpy wheel ships and already loaded; None where no
    such library or symbol is found.  np.linalg.eigh runs dsyevd, which on a
    tridiagonal matrix is dsytrd with every reflector tau = 0, dstedc('I') on the
    same diagonals, and an identity back-transform, so dstevd (dstedc alone)
    returns the same bits without the two d^3 no-op passes.
    """
    import ctypes
    import glob
    import os

    lib = os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*")
    try:
        dstevd = ctypes.CDLL(glob.glob(lib)[0]).scipy_dstevd_64_
    except (IndexError, OSError, AttributeError):
        return None
    # JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO, then JOBZ's hidden length
    dstevd.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [ctypes.c_size_t]
    dstevd.restype = None

    def solve(diag: np.ndarray, off: np.ndarray):
        d = len(diag)
        n, lwork, liwork, info = (ctypes.c_int64(k) for k in (d, 1 + 4 * d + d * d, 3 + 5 * d, 0))
        # dstevd overwrites both diagonals
        diag, sub, z = np.array(diag, float), np.array(off, float), np.empty((d, d))
        work, iwork = np.empty(lwork.value), np.empty(liwork.value, np.int64)
        dstevd(b"V", ctypes.byref(n), diag.ctypes.data, sub.ctypes.data, z.ctypes.data,
               ctypes.byref(n), work.ctypes.data, ctypes.byref(lwork), iwork.ctypes.data,
               ctypes.byref(liwork), ctypes.byref(info), 1)
        if info.value != 0:
            raise np.linalg.LinAlgError("dstevd failed with info = %d" % info.value)
        return diag, z.T  # z holds the eigenvectors column-major

    return solve


def _dense_eigh(diag: np.ndarray, off: np.ndarray):
    """The fallback for _dstevd()'s solve: np.linalg.eigh of the dense tridiagonal matrix."""
    return np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def make_spin_system(two_j: int) -> SpinSystem:
    """Construct the spin system for a given two_j in [1, MAX_TWO_J]."""
    two_j = _check_two_j(two_j)
    dim = two_j + 1
    j = two_j / 2
    m = (two_j - 2 * np.arange(dim)) / 2

    # ladder element between m and m-1: (1/2) sqrt(j(j+1) - m(m-1))
    off = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] - 1))
    # J_x is real symmetric and tridiagonal with a zero diagonal: real eigenvectors;
    # half-integer spin above REFERENCE_DIM solves one half-size mirror block
    solve = _dstevd() or _dense_eigh
    if two_j % 2 == 0 or dim <= REFERENCE_DIM:
        vals, vecs = solve(np.zeros(dim), off)
        vecs = np.ascontiguousarray(vecs)
    else:
        vals, vecs = _mirror_eigh(off, solve)
    # J_x spectrum is exactly {-j, ..., j}; eigh sorts ascending, so it is the ladder
    if np.max(np.abs(vals - (np.arange(dim) - j))) > STRUCTURAL_TOL:
        raise AssertionError("J_x eigenvalues deviate from the exact ladder")
    return SpinSystem(two_j, dim, off, vecs)


def _mirror_eigh(off: np.ndarray, solve):
    """(eigenvalues, C-contiguous eigenvectors) of J_x for even d from one h = d/2 block.

    The mirror R: k -> d-1-k commutes with J_x, and the R-even vectors [u, u[::-1]]/sqrt(2)
    carry J_x to the h x h tridiagonal block on off[:h-1] whose diagonal is zero but for its
    last entry, off[h-1].  Its eigenvalues are the ladder's at the odd columns.  Z = diag((-1)^k)
    anticommutes with J_x and maps R-even vectors to R-odd ones, so each even column is a sign
    copy of an odd one: V[:, d-2-2i] = Z V[:, 2i+1], with no arithmetic.
    """
    dim = len(off) + 1
    h = dim // 2
    diag = np.zeros(h)
    diag[-1] = off[h - 1]
    block_vals, u = solve(diag, off[:h - 1])
    vals = np.empty(dim)
    vals[1::2] = block_vals
    vals[::2] = -block_vals[::-1]
    odd = u / np.sqrt(2.0)
    vecs = np.empty((dim, dim))
    vecs[:h, 1::2] = odd
    vecs[:h, ::2] = odd[:, ::-1]
    vecs[h:] = vecs[h - 1::-1]  # R-even odd columns; Z signs the even ones row by row
    vecs[1::2, ::2] *= -1.0
    return vals, vecs
