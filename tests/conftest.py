import os

# One BLAS thread, set before numpy loads, as benchmarks/run.py does: on a
# two-core machine two OpenBLAS threads make small complex matmuls up to
# 100 times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ptqm.errors import InvalidMetric  # noqa: E402
from ptqm.linalg import DEFAULT_TOL, eig, matrix_exponential  # noqa: E402
from ptqm.metric import build_C, metric_from_CPT, pt_normalize  # noqa: E402
from ptqm.two_level import TwoLevelParams  # noqa: E402


# Reference definitions the tests compare the toolkit against.


def pt_inner_product(P, psi, phi) -> complex:
    """Indefinite PT product (psi, phi) = (P psi*)^T phi.

    Antilinear in psi, linear in phi; indefinite (both signs occur).
    """
    u = np.asarray(psi, dtype=complex)
    return complex((np.asarray(P) @ u.conj()) @ np.asarray(phi, dtype=complex))


def cpt_inner_product(metric, psi, phi) -> complex:
    """Positive-definite product (psi, phi)_+ = psi^dagger eta phi."""
    u = np.asarray(psi, dtype=complex)
    return complex(u.conj() @ metric.eta @ np.asarray(phi, dtype=complex))


def is_self_adjoint_wrt(A, eta, tol=DEFAULT_TOL) -> bool:
    """True iff A is self-adjoint in the inner product <psi, phi> =
    psi^dagger eta phi, in plain numpy: eta must be Hermitian and positive
    definite to ``tol`` relative (InvalidMetric otherwise), and
    ||eta A - A^dagger eta|| / ||eta A|| <= tol in the Frobenius norm."""
    A, eta = np.asarray(A, dtype=complex), np.asarray(eta, dtype=complex)
    w = np.linalg.eigvalsh(eta)
    if not (np.linalg.norm(eta - eta.conj().T) <= tol * np.linalg.norm(eta)
            and w.min() > tol * np.abs(w).max()):
        raise InvalidMetric("metric is not Hermitian positive definite")
    lhs = eta @ A
    return bool(np.linalg.norm(lhs - A.conj().T @ eta) / np.linalg.norm(lhs) <= tol)


def random_valid_params(rng, margin=0.95):
    """Draw (r, s, theta) uniformly, rejected into the unbroken region."""
    while True:
        r = rng.uniform(-2.0, 2.0)
        s = rng.uniform(0.3, 2.0)
        theta = rng.uniform(-np.pi, np.pi)
        if abs(r * np.sin(theta) / s) < margin:
            return TwoLevelParams(r, s, theta)


def pt_symmetric_system(n, rng, eps=0.2):
    """(H, P, C, metric, O) for H = S H0 S^T with S = expm(i eps K), P the
    flip matrix, H0 real symmetric of unit norm with P H0 P = H0 and K real
    antisymmetric with P K P = -K; O = Phi o Phi^T with Phi the
    PT-normalized eigenvectors and o real symmetric, block-diagonal in the
    PT-norm signs, passes the symmetric/CPT-invariant check."""
    P = np.eye(n)[::-1]
    A = rng.normal(size=(n, n))
    H0 = A + A.T
    H0 = 0.5 * (H0 + P @ H0 @ P)
    H0 /= np.linalg.norm(H0, 2)
    K = A - A.T
    K = 0.5 * (K - P @ K @ P)
    S = matrix_exponential(1j * eps * K / np.linalg.norm(K, 2))
    H = S @ H0 @ S.T
    Phi, signs = pt_normalize(eig(H), P)
    C = build_C(Phi)
    metric = metric_from_CPT(C, P)
    signs = np.array(signs)
    B = rng.normal(size=(n, n))
    o = (B + B.T) * (signs[:, None] == signs[None, :])
    return H, P, C, metric, Phi @ (o / np.linalg.norm(o, 2)) @ Phi.T


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
