import contextlib
import math
import sys as _sys

import numpy as np
import pytest

from lgmet import build_measurement, make_spin_system
import lgmet.correlations
from lgmet.correlations import _coefficients, _series
from lgmet.estimation import _rows
from lgmet.measurement import PartitionSpec

import oracles


@pytest.fixture(scope="session")
def spin52():
    return make_spin_system(5)


@pytest.fixture(scope="session")
def parity52(spin52):
    """Projective parity measurement (b=1) on spin 5/2."""
    return build_measurement(spin52, 1.0)


@contextlib.contextmanager
def narrow_blocks(sys, per_block=3):
    """Patch the element budget to per_block * d^2 values at this spin: per_block b values per
    weight stack, and per_block thetas per Toeplitz table or per_block * d per trig table; at
    per_block = 1 the harmonic-coefficient fold runs in two or three row chunks."""
    budget = per_block * sys.dim ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lgmet.correlations, "BLOCK_ELEMENTS", budget)
        yield mp


def count_calls(monkeypatch, fn) -> list:
    """Patch every binding of fn in the lgmet modules to record its calls' arguments."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(_sys.modules.items()):
        if name.split(".")[0] == "lgmet":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def rows_at(sys, meas, thetas):
    """One measurement's sweep rows at thetas (a scalar is one theta), from estimation._rows."""
    return _rows(sys, [meas.b], meas.a_diag[None], meas.weights[None], np.atleast_1d(thetas))


def derivative_columns(sys, meas, thetas):
    """(C', C'') of one measurement at thetas (a scalar is one theta), as _rows sums them."""
    thetas = np.atleast_1d(np.asarray(thetas, float))
    coefficients = _coefficients(sys, meas.weights[None])
    return tuple(_series(sys, coefficients, thetas, order)[0] for order in (1, 2))


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

    u = expm(-1j * theta * oracles.dense_jx(sys.two_j))
    a = np.diag(meas.a_diag)
    return float(np.real(np.trace(a @ u @ a @ u.conj().T))) / sys.dim


def sign_partition(two_j):
    """m >= 0 with mu = +j and m < 0 with mu = -j: the default partition, extended to integer spin."""
    ladder = range(two_j, -two_j - 1, -2)
    return PartitionSpec(((two_j, tuple(t for t in ladder if t >= 0)),
                          (-two_j, tuple(t for t in ladder if t < 0))))


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
