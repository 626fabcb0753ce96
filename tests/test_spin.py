import math
import os
import pathlib
import subprocess
import sys as _sys

import numpy as np
import pytest
from scipy.linalg import expm

import lgmet.spin
from lgmet import make_spin_system
from lgmet.scan import RunConfig
from lgmet.spin import MAX_TWO_J, REFERENCE_DIM, _check_two_j
from oracles import dense_jx, ladder, propagator


def mirror_assembly(off):
    """J_x eigenvectors from np.linalg.eigh of the dense h x h R-even block of even d.

    Columns 2i+1 are [u_i, reversed u_i]/sqrt(2); column d-2-2i is diag((-1)^k) times
    column 2i+1.
    """
    d = len(off) + 1
    h = d // 2
    block = np.diag(off[:h - 1], 1) + np.diag(off[:h - 1], -1)
    block[-1, -1] = off[h - 1]
    u = np.linalg.eigh(block)[1]
    odd = np.concatenate([u, u[::-1]]) / np.sqrt(2.0)
    vecs = np.empty((d, d))
    vecs[:, 1::2] = odd
    vecs[:, ::2] = ((-1.0) ** np.arange(d)[:, None] * odd)[:, ::-1]
    return vecs


class TestMakeSpinSystem:
    def test_spin_half(self):
        sys = make_spin_system(1)
        assert sys.dim == 2
        np.testing.assert_allclose(sys.jx_ladder, [0.5], atol=1e-15)

    def test_ladder_element(self):
        sys = make_spin_system(5)
        # element between m=5/2 and m=3/2
        assert sys.jx_ladder[0] == pytest.approx(math.sqrt(5) / 2, abs=1e-14)

    def test_jx_spectrum_is_exact_ladder(self):
        for two_j in (1, 2, 5, 11):
            sys = make_spin_system(two_j)
            vals, vecs = ladder(sys), sys.eigenvectors
            assert np.max(np.abs(np.linalg.eigvalsh(dense_jx(two_j)) - vals)) <= 1e-10
            recon = (vecs * vals) @ vecs.conj().T
            assert np.max(np.abs(recon - dense_jx(two_j))) <= 1e-10

    @pytest.mark.parametrize("two_j", [1, 5, 51, 201, 401, 801])
    def test_real_eigenvectors_match_complex_eigh_up_to_sign(self, two_j):
        # the full solve (d <= REFERENCE_DIM) is eigh's bits; the mirror block is a
        # different solve, so above it the columns agree to rounding
        vecs = make_spin_system(two_j).eigenvectors
        assert vecs.dtype == np.float64
        ref = np.linalg.eigh(dense_jx(two_j))[1]
        assert not ref.imag.any()
        pivot = np.argmax(np.abs(vecs), axis=0), np.arange(two_j + 1)
        signs = np.sign(vecs[pivot] * ref.real[pivot])
        if two_j + 1 <= REFERENCE_DIM:
            assert np.array_equal(vecs * signs, ref.real)
        else:
            assert np.max(np.abs(vecs * signs - ref.real)) <= 1e-13

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_rejects_bad_two_j(self, bad):
        with pytest.raises(ValueError):
            make_spin_system(bad)

    @pytest.mark.parametrize("route", ["dstevd", "eigh"])
    def test_eigenvectors_are_the_bits_of_dense_eigh(self, monkeypatch, route):
        # dstedc solves up to 25 rows directly and divides larger problems; both
        # routes must give np.linalg.eigh's bits of the dense real J_x, or, where the
        # mirror block runs, of the dense R-even block (CI checks that the dstevd route
        # is live on its numpy wheel)
        if route == "eigh":
            monkeypatch.setattr(lgmet.spin, "_dstevd", lambda: None)
        for two_j in [*range(1, 31), 51, 100, 201, 400, 401, 801]:
            sys = make_spin_system(two_j)
            off = sys.jx_ladder
            if two_j % 2 == 0 or sys.dim <= REFERENCE_DIM:
                vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1]
            else:
                vecs = mirror_assembly(off)
            assert sys.eigenvectors.flags.c_contiguous
            assert sys.eigenvectors.tobytes() == vecs.tobytes(), two_j

    @pytest.mark.parametrize("two_j", [27, 51, 201, 401, 801])
    def test_mirror_relations_orthogonality_and_residual(self, two_j):
        # odd columns are R-even, v_k = v_{d-1-k}, and each even column is Z = diag((-1)^k)
        # times an odd one, all bit for bit; then V is an orthogonal eigenbasis of dense J_x
        sys = make_spin_system(two_j)
        v, d, j = sys.eigenvectors, sys.dim, two_j / 2
        z = (-1.0) ** np.arange(d)
        assert np.array_equal(v[::-1, 1::2], v[:, 1::2])
        assert np.array_equal(v[:, ::2][:, ::-1], z[:, None] * v[:, 1::2])
        assert np.max(np.abs(v.T @ v - np.eye(d))) <= 1e-14
        residual = dense_jx(two_j).real @ v - v * ladder(sys)
        assert np.max(np.abs(residual)) <= 4e-15 * (j + 1)

    @pytest.mark.parametrize("route", ["dstevd", "eigh"])
    def test_integer_spin_and_small_dim_keep_the_full_solve(self, monkeypatch, route):
        # the d = 6 figures and every integer spin keep the bits of one solve of all of J_x
        if route == "eigh":
            monkeypatch.setattr(lgmet.spin, "_dstevd", lambda: None)

        def no_block(*args):
            raise AssertionError("the mirror block ran")

        monkeypatch.setattr(lgmet.spin, "_mirror_eigh", no_block)
        for two_j in [*range(1, REFERENCE_DIM), 26, 50, 100, 400, 800]:
            sys = make_spin_system(two_j)
            off = sys.jx_ladder
            vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1]
            assert sys.eigenvectors.tobytes() == vecs.tobytes(), two_j

    def test_import_looks_up_no_lapack_symbol(self):
        # numpy itself imports ctypes; lgmet adds no import of it and opens no library
        code = ("import sys, numpy; before = set(sys.modules); import lgmet.spin as s; "
                "print(s._dstevd.cache_info().currsize, 'ctypes' in set(sys.modules) - before)")
        src = pathlib.Path(lgmet.spin.__file__).resolve().parents[1]
        out = subprocess.run([_sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out == "0 False\n"

    @pytest.mark.parametrize("two_j", [MAX_TWO_J + 1, 10 ** 5, 10 ** 18, np.int64(10 ** 5)])
    def test_rejects_two_j_above_limit_before_allocating(self, monkeypatch, two_j):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before two_j was checked")

        for name in ("empty", "zeros", "arange"):
            monkeypatch.setattr(np, name, no_alloc)
        monkeypatch.setattr(np.linalg, "eigh", no_alloc)
        for build in (make_spin_system, RunConfig):
            with pytest.raises(ValueError, match="two_j=%d is too large" % two_j):
                build(two_j)

    def test_limit_itself_is_accepted(self):
        assert _check_two_j(MAX_TWO_J) == _check_two_j(np.int32(MAX_TWO_J)) == MAX_TWO_J
        assert 8 * (MAX_TWO_J + 1) ** 2 <= 2 ** 27

    @pytest.mark.parametrize("two_j", [1, 4, 5])
    def test_trace_identity(self, two_j):
        # Tr Jx^2 = 2 sum_k Jx[k, k+1]^2 = d j(j+1)/3
        sys = make_spin_system(two_j)
        j = two_j / 2
        expected = sys.dim * j * (j + 1) / 3
        assert 2 * np.sum(sys.jx_ladder ** 2) == pytest.approx(expected, abs=1e-10)


class TestPropagator:
    def test_zero_is_identity(self, spin52):
        np.testing.assert_allclose(propagator(spin52, 0.0), np.eye(6), atol=1e-14)

    def test_two_pi_half_integer_is_minus_identity(self, spin52):
        np.testing.assert_allclose(propagator(spin52, 2 * math.pi), -np.eye(6),
                                   atol=1e-10)

    def test_group_property(self, spin52):
        u1 = propagator(spin52, math.pi / 3)
        u2 = propagator(spin52, 2 * math.pi / 3)
        assert np.max(np.abs(u1 @ u1 - u2)) <= 1e-10

    @pytest.mark.parametrize("theta", [-3.7, 0.0, 0.4, 2.9, 9.99])
    def test_unitary(self, spin52, theta):
        u = propagator(spin52, theta)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-10

    @pytest.mark.parametrize("two_j", [4, 5])
    def test_periodicity(self, two_j):
        sys = make_spin_system(two_j)
        for theta in (0.0, 1.1, -2.3):
            u = propagator(sys, theta)
            assert np.max(np.abs(propagator(sys, theta + 4 * math.pi) - u)) <= 1e-10
            sign = (-1.0) ** two_j
            assert np.max(np.abs(propagator(sys, theta + 2 * math.pi) - sign * u)) <= 1e-10

    def test_matches_series_exponential(self, spin52):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-10, 10, size=12):
            u_ref = expm(-1j * theta * dense_jx(5))
            assert np.max(np.abs(propagator(spin52, theta) - u_ref)) <= 1e-8
