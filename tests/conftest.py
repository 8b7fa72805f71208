import importlib.util
import math
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads, as benchmarks/run.py does: on a
# two-core machine two OpenBLAS threads make small complex matmuls up to
# 100 times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ptqm.errors import InvalidMetric  # noqa: E402
from ptqm.linalg import DEFAULT_TOL  # noqa: E402
from ptqm.two_level import PARITY, SIGMA_0, SIGMA_1, SIGMA_3, S_mu, TwoLevelParams  # noqa: E402

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name):
    """``benchmarks/<name>.py`` loaded by its path, a new module on each
    call; the benchmark is no package, and the load writes no bytecode
    there."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


#: The benchmark's reference computations, which import no ptqm: the 2x2
#: closed forms and ``LargeN``, whose eta, spectrum and PT-normalized
#: eigenvectors are exact at any n.
oracles = load_benchmark_module("oracles")


# Reference definitions the tests compare the toolkit against.


def two_level_exact(p):
    """(C, eta, h) of the 2x2 model at ``p`` from the oracle's closed forms:
    eta = sec(alpha) 1 + tan(alpha) sigma_2, C = eta^T P (as eta = P^T C^T)
    and h = diag(epsilon_+, epsilon_-)."""
    eta = oracles.two_level_eta(p.r, p.s, p.theta)
    return eta.T @ PARITY, eta, np.diag(oracles.two_level_eigenvalues(p.r, p.s, p.theta))


def heisenberg_S2(p, t):
    """O_H(t) = sin(2 s cos(alpha) t) S_1 + cos(2 s cos(alpha) t) S_2."""
    omega = 2.0 * p.s * math.cos(p.alpha) * t
    return math.sin(omega) * S_mu(p, 1) + math.cos(omega) * S_mu(p, 2)


def bender_family(p, a, b, c):
    """Every observable the symmetric/CPT criterion admits, the real span
    of {S_0, S_2, S_3}: a sigma_0 + (b - i c sin(alpha)) sigma_1
    + (c + i b sin(alpha)) sigma_3."""
    sa = math.sin(p.alpha)
    return a * SIGMA_0 + (b - 1j * c * sa) * SIGMA_1 + (c + 1j * b * sa) * SIGMA_3


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
