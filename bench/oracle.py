"""Reference values computed without lgmet, used to check the program's outputs.

Dense numpy route: build J_x and the default-partition observable A here,
form U(theta) = e^{-i theta J_x} from a real symmetric eigh, and evaluate
C(theta) = (1/d) sum_kl a_k a_l |U_kl|^2 (A is diagonal in the J_z basis).

Extended-precision route (mpmath): at b = 1 the observable is the parity
operator P, P J_x P = -J_x, so C(theta) = sin(d theta) / (d sin theta)
exactly; F = C'^2 / ((1 - C)(1 + C)) then needs no cancellation-prone step
once carried to 40 digits.
"""

from __future__ import annotations

import numpy as np


def observable_diag(two_j: int, b: float) -> np.ndarray:
    """Diagonal of A for the default +-j sign partition (basis m = j ... -j)."""
    two_m = two_j - 2 * np.arange(two_j + 1)
    two_mu = np.where(two_m > 0, two_j, -two_j)
    sign = np.where(((two_j - two_m) // 2) % 2 == 1, -1.0, 1.0)
    gap_sq = ((two_m - two_mu) // 2) ** 2
    return sign * np.power(float(b), gap_sq.astype(float))


class DenseSpin:
    """J_x of one spin and its real eigendecomposition."""

    def __init__(self, two_j: int):
        self.dim = two_j + 1
        j = two_j / 2
        m = j - np.arange(self.dim)
        self.off = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] - 1))
        jx = np.diag(self.off, 1) + np.diag(self.off, -1)
        self.lam, self.vecs = np.linalg.eigh(jx)

    def weights(self, theta: float) -> np.ndarray:
        """|U_kl(theta)|^2 for U = e^{-i theta J_x}."""
        u = (self.vecs * np.exp(-1j * theta * self.lam)) @ self.vecs.T
        return np.abs(u) ** 2

    def correlation(self, a: np.ndarray, weights: np.ndarray) -> float:
        return float(a @ weights @ a) / self.dim

    def klg(self, a: np.ndarray, w1: np.ndarray, w3: np.ndarray) -> float:
        """3 C(theta) - C(3 theta) from the weights at theta and 3 theta."""
        return 3.0 * self.correlation(a, w1) - self.correlation(a, w3)

    def qfi(self, a: np.ndarray) -> float:
        """QFI of the '+' preparation; rho is diagonal, J_x is tridiagonal.

        2 sum_kl (p_k - p_l)^2 / (p_k + p_l) |J_x,kl|^2 over the two
        off-diagonals, skipping pairs in the null subspace.
        """
        e = (1.0 + a) / 2.0
        p = e / e.sum()
        s = p[:-1] + p[1:]
        keep = s > 1e-12
        diff = (p[:-1] - p[1:])[keep]
        return float(4.0 * np.sum(diff * diff / s[keep] * self.off[keep] ** 2))


def projective_fisher(theta: float, dim: int = 6) -> float:
    """F at b = 1 in 40-digit arithmetic, theta taken exactly as the float given."""
    import mpmath

    with mpmath.workdps(40):
        t = mpmath.mpf(theta)
        s, c = mpmath.sin(t), mpmath.cos(t)
        sd, cd = mpmath.sin(dim * t), mpmath.cos(dim * t)
        corr = sd / (dim * s)
        slope = (dim * cd * s - sd * c) / (dim * s * s)
        return float(slope * slope / ((1 - corr) * (1 + corr)))
