"""Spin-J operators, unitary propagators, and small dense Hermitian helpers.

All matrices are plain complex numpy arrays in the J_z eigenbasis ordered
m = j, j-1, ..., -j.  Half-integer spins are tracked through the integer
``two_j`` so that every m value is the exact rational (two_j - 2k)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12
STRUCTURAL_TOL = 1e-10


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def is_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return mat.shape[0] == mat.shape[1] and np.max(np.abs(mat - mat.conj().T)) <= tol


def assert_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    if not is_hermitian(mat, tol):
        raise ValueError("matrix is not Hermitian within tolerance %g" % tol)


def assert_density_matrix(rho: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Check Hermiticity, positivity and unit trace of a density matrix."""
    assert_hermitian(rho, tol)
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("density matrix trace differs from 1 by more than %g" % tol)
    if np.min(np.linalg.eigvalsh(rho)) < -tol:
        raise ValueError("density matrix has an eigenvalue below -%g" % tol)


def eigh(h: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix; rejects non-Hermitian input."""
    assert_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    return SpectralDecomposition(vals, vecs)


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(AB) for equal-dimension square matrices."""
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("trace_product requires equal square dimensions, got %s and %s"
                         % (a.shape, b.shape))
    return complex(np.sum(a * b.T))


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Spin-J space: dimension, J_x / J_z matrices, and the J_x spectrum.

    two_j is 2j, so j may be half-integer.  jx_spectrum holds the spectral
    decomposition of J_x with eigenvalues snapped to the exact ladder
    {-j, ..., j}; propagators and measurement weights reuse it.  gaps holds
    the eigenvalue differences lam_k - lam_l, raveled over (k, l).
    """

    two_j: int
    dim: int
    jx: np.ndarray
    jz: np.ndarray
    jx_spectrum: SpectralDecomposition
    gaps: np.ndarray


def make_spin_system(two_j: int) -> SpinSystem:
    """Construct the spin system for a given two_j >= 1."""
    if not isinstance(two_j, (int, np.integer)) or two_j < 1:
        raise ValueError("two_j must be a positive integer (dichotomic parity needs d >= 2)")
    two_j = int(two_j)
    dim = two_j + 1
    j = two_j / 2
    m = (two_j - 2 * np.arange(dim)) / 2

    jz = np.diag(m).astype(complex)
    # ladder element between m and m-1: (1/2) sqrt(j(j+1) - m(m-1))
    off = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] - 1))
    jx = np.diag(off, 1) + np.diag(off, -1)
    jx = jx.astype(complex)

    vals, vecs = np.linalg.eigh(jx)
    # J_x spectrum is exactly {-j, ..., j}; snap to the ladder for exact phases
    snapped = np.round(vals - (-j)) + (-j)
    if np.max(np.abs(vals - snapped)) > STRUCTURAL_TOL:
        raise AssertionError("J_x eigenvalues deviate from the exact ladder")
    gaps = (snapped[:, None] - snapped[None, :]).ravel()
    return SpinSystem(two_j, dim, jx, jz, SpectralDecomposition(snapped, vecs), gaps)


def propagator(sys: SpinSystem, theta: float) -> np.ndarray:
    """Unitary e^{-i theta J_x}, evaluated from the stored J_x spectrum."""
    lam, v = sys.jx_spectrum
    phases = np.exp(-1j * theta * lam)
    return (v * phases) @ v.conj().T


def evolve(sys: SpinSystem, rho: np.ndarray, theta: float) -> np.ndarray:
    """Conjugate a density matrix by e^{-i theta J_x}."""
    if rho.shape != (sys.dim, sys.dim):
        raise ValueError("density matrix dimension %s does not match system dim %d"
                         % (rho.shape, sys.dim))
    u = propagator(sys, theta)
    return u @ rho @ u.conj().T
