"""Input generators and reference computations made apart from ptqm.

Nothing here imports ptqm: every expected value the benchmark compares
against comes either from a closed form, from a generator whose answer is
known by construction, or from a solver written here.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# ---------------------------------------------------------------------------
# 2x2 model H = [[r e^{i theta}, s], [s, r e^{-i theta}]], P = sigma_1.

THETA_EP = math.pi / 6
#: d = 1 - |r sin(theta) / s| of the near-exceptional-point draws (s = 1).
NEAR_EP_D = (1e-3, 1e-4, 1e-6)


def two_level_H(r, s, theta):
    return np.array(
        [[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]], dtype=complex
    )


def two_level_draw(rng):
    """(r, s, theta) deep in the unbroken region.

    ``x = r sin(theta) / s`` lies in 0.2 <= |x| <= 0.4 and theta in
    [pi/3, 2pi/3], so r/s stays within a factor of two and every draw
    costs about the same per time step (the expm cost depends on ||t H||).
    """
    s = rng.uniform(0.5, 2.0)
    x = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.2, 0.4)
    theta = rng.uniform(math.pi / 3, 2 * math.pi / 3)
    return x * s / math.sin(theta), s, theta


def near_ep_params(d):
    """(r, s, theta) with 1 - |r sin(theta)/s| = d, s = 1, theta = pi/6."""
    return 2.0 * (1.0 - d), 1.0, THETA_EP


def alpha_of(r, s, theta):
    return math.asin(r * math.sin(theta) / s)


def two_level_eigenvalues(r, s, theta):
    """(epsilon_+, epsilon_-) = r cos(theta) +- s cos(alpha)."""
    gap = s * math.cos(alpha_of(r, s, theta))
    return r * math.cos(theta) + gap, r * math.cos(theta) - gap


def two_level_eta(r, s, theta):
    """CPT metric sec(alpha) 1 + tan(alpha) sigma_2."""
    a = alpha_of(r, s, theta)
    return np.array(
        [[1.0 / math.cos(a), -1j * math.tan(a)], [1j * math.tan(a), 1.0 / math.cos(a)]]
    )


def two_level_eta_cond(r, s, theta):
    """cond(eta) = (sec + tan) / (sec - tan); grows as 2/d near the EP."""
    a = alpha_of(r, s, theta)
    return (1.0 + abs(math.sin(a))) / (1.0 - abs(math.sin(a)))


def check_period(r, s, theta):
    """Time span of ``ptqm check``: pi / (s cos(alpha))."""
    return math.pi / (s * math.cos(alpha_of(r, s, theta)))


def two_level_propagate(r, s, theta, t, psi0):
    """exp(-i t H) psi0 in closed form, one column per time in ``t``.

    H = r cos(theta) 1 + K with K^2 = (s cos(alpha))^2 1, so
    exp(-i t H) = e^{-i t r cos(theta)} (cos(w t) 1 - i sin(w t)/w K).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    w = s * math.cos(alpha_of(r, s, theta))
    K = two_level_H(r, s, theta) - r * math.cos(theta) * np.eye(2)
    Kpsi = (K @ psi0)[:, None]
    return np.exp(-1j * t * r * math.cos(theta)) * (
        np.cos(w * t) * np.asarray(psi0)[:, None] - 1j * (np.sin(w * t) / w) * Kpsi
    )


# ---------------------------------------------------------------------------
# Large-n PT-symmetric Hamiltonians with a known spectrum and metric.


def flip(n):
    """The flip (exchange) matrix J, used as the parity P."""
    return np.eye(n)[::-1].copy()


def parity_sectors(n):
    """Orthonormal real bases of the J-even and J-odd subspaces."""
    half = n // 2
    even = np.zeros((n, half))
    odd = np.zeros((n, half))
    for j in range(half):
        even[j, j] = even[n - 1 - j, j] = 1.0 / math.sqrt(2.0)
        odd[j, j] = 1.0 / math.sqrt(2.0)
        odd[n - 1 - j, j] = -1.0 / math.sqrt(2.0)
    return even, odd


class LargeN:
    """H = S H0 S^T with S = expm(i eps K), n even.

    K is real antisymmetric with J K J = -K and H0 is real symmetric,
    commutes with J and has the eigenvalues ``spectrum``.  Then S^T = S^-1,
    so H = S H0 S^-1 is complex symmetric, PT-symmetric (P = J, T = complex
    conjugation), has the spectrum of H0, and its CPT metric is
    eta = expm(-2 i eps K).  The PT-normalized eigenvectors are S q for a
    J-even eigenvector q of H0 (PT norm +1) and i S q for a J-odd one
    (PT norm -1).
    """

    def __init__(self, n, rng, eps=0.2):
        even, odd = parity_sectors(n)
        Qe = even @ np.linalg.qr(rng.standard_normal((n // 2, n // 2)))[0]
        Qo = odd @ np.linalg.qr(rng.standard_normal((n // 2, n // 2)))[0]
        # unit-gap spectrum 1..n, each level assigned at random to a sector
        levels = np.arange(1, n + 1, dtype=float)
        in_even = np.zeros(n, dtype=bool)
        in_even[rng.permutation(n)[: n // 2]] = True
        Q = np.empty((n, n))
        Q[:, in_even] = Qe
        Q[:, ~in_even] = Qo
        J = flip(n)
        A = rng.standard_normal((n, n))
        K = A - A.T
        K = 0.5 * (K - J @ K @ J)
        K /= np.linalg.norm(K, 2)
        S = scipy.linalg.expm(1j * eps * K)
        self.n = n
        self.eps = eps
        self.K = K
        self.P = J
        self.spectrum = levels
        self.H = S @ (Q * levels) @ Q.T @ S.T
        self.eta = scipy.linalg.expm(-2j * eps * K)
        phase = np.where(in_even, 1.0, 1j)
        #: PT-normalized eigenvectors (columns) and their PT-norm signs
        self.Phi = (S @ Q) * phase
        self.signs = np.where(in_even, 1, -1)

    def observable(self, rng):
        """O = Phi o Phi^T with o real symmetric and block-diagonal in the
        PT-sign sectors: symmetric and CPT-invariant, and eta-self-adjoint."""
        n = self.n
        o = np.zeros((n, n))
        for sector in (self.signs > 0, self.signs < 0):
            idx = np.nonzero(sector)[0]
            B = rng.standard_normal((idx.size, idx.size))
            o[np.ix_(idx, idx)] = B + B.T
        o /= np.linalg.norm(o, 2)
        return self.Phi @ o @ self.Phi.T


# ---------------------------------------------------------------------------
# Spectral reference: Galerkin projection of p^2 + x^2 (ix)^nu.


def galerkin_potential(x, nu):
    """x^2 (ix)^nu, principal branch, by complex power."""
    return x**2 * (1j * x.astype(complex)) ** nu


def galerkin_levels(nu, k, L=8.0, modes=160, nodes=400):
    """Lowest k levels (ascending real part) of p^2 + x^2 (ix)^nu projected
    onto the Dirichlet sine basis of [-L, L].

    Matrix elements of the potential use Gauss-Legendre quadrature on each
    half-line separately, since |x|^nu is not smooth at 0.  For nu > 1 the
    potential turns negative-real near the box walls and binds spurious
    wall states; a level is kept only when less than 1% of its weight lies
    in |x| > L/2.
    """
    g, w = np.polynomial.legendre.leggauss(nodes)
    x = np.concatenate([0.5 * L * (g - 1.0), 0.5 * L * (g + 1.0)])
    wq = np.concatenate([0.5 * L * w, 0.5 * L * w])
    m = np.arange(1, modes + 1)
    basis = np.sin(np.outer(m, np.pi * (x + L) / (2.0 * L))) / math.sqrt(L)
    G = (basis * (galerkin_potential(x, nu) * wq)) @ basis.T
    G[np.diag_indices(modes)] += (m * np.pi / (2.0 * L)) ** 2
    w_all, coef = np.linalg.eig(G)
    weight = np.abs(basis.T @ coef) ** 2 * wq[:, None]
    wall = weight[np.abs(x) > 0.5 * L].sum(axis=0) / weight.sum(axis=0)
    kept = w_all[wall < 0.01]
    return kept[np.argsort(kept.real)][:k]
