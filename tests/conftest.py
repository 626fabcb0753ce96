import math

import numpy as np
import pytest

from lgmet import build_measurement, make_spin_system
from lgmet.measurement import PartitionSpec


@pytest.fixture(scope="session")
def spin52():
    return make_spin_system(5)


@pytest.fixture(scope="session")
def parity52(spin52):
    """Projective parity measurement (b=1) on spin 5/2."""
    return build_measurement(spin52, 1.0)


def parity_correlation_closed_form(d, theta):
    """C(theta) = sin(d theta) / (d sin theta) for the projective parity case."""
    s = math.sin(theta)
    if abs(s) < 1e-9:
        # l'Hopital limit at theta = n*pi
        n = round(theta / math.pi)
        return float((-1) ** ((d - 1) * n))
    return math.sin(d * theta) / (d * s)


def brute_force_correlation(sys, meas, theta):
    """Direct matrix evaluation Tr[A U A U^dag] / d with an independent expm."""
    from scipy.linalg import expm

    u = expm(-1j * theta * sys.jx)
    a = np.diag(meas.a_diag)
    return float(np.real(np.trace(a @ u @ a @ u.conj().T))) / sys.dim


def random_density_matrix(rng, dim):
    """Random full-rank density matrix via Haar-ish unitary and Dirichlet weights."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    p = rng.dirichlet(np.ones(dim))
    return (q * p) @ q.conj().T


def random_partition(rng, two_j, symmetric=False):
    """Random valid PartitionSpec; symmetric=True mirrors blocks under m -> -m.

    Block centers are drawn from the block's own members so that (m - mu)^2
    stays a nonnegative integer.
    """
    ladder = [two_j - 2 * k for k in range(two_j + 1)]
    if symmetric:
        if two_j % 2 == 0:
            raise ValueError("symmetric random partitions need half-integer spin")
        pos = [t for t in ladder if t > 0]
        n_blocks = rng.integers(1, len(pos) + 1)
        assignment = rng.integers(0, n_blocks, size=len(pos))
        blocks = []
        for i in range(n_blocks):
            members = tuple(t for t, a in zip(pos, assignment) if a == i)
            if not members:
                continue
            mu = int(rng.choice(members))
            blocks.append((mu, members))
            blocks.append((-mu, tuple(-t for t in members)))
        return PartitionSpec(tuple(blocks))
    n_blocks = rng.integers(1, len(ladder) + 1)
    assignment = rng.integers(0, n_blocks, size=len(ladder))
    blocks = []
    for i in range(n_blocks):
        members = tuple(t for t, a in zip(ladder, assignment) if a == i)
        if not members:
            continue
        mu = int(rng.choice(members))
        blocks.append((mu, members))
    return PartitionSpec(tuple(blocks))
