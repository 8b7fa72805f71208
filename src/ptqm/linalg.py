"""Dense complex linear algebra: eigendecomposition with biorthonormal
left/right pairs, matrix exponential, Hermitian square root, the validated
metric record, and self-adjointness relative to a metric.

All routines are pure functions on square complex ``numpy`` arrays.  The
default tolerance ``DEFAULT_TOL`` is relative in the Frobenius norm.

Importing this module loads numpy only: the first call of
:func:`matrix_exponential` imports ``scipy.linalg``, once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMetric,
    NonDiagonalizable,
    NotPositiveDefinite,
)

DEFAULT_TOL = 1e-10


def as_square_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array, rejecting non-finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return A


def as_vector(psi, dim: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {dim}")
    return v


def frobenius(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with biorthonormal right/left eigenvector pairs.

    ``right_vectors[:, n]`` and ``left_vectors[:, n]`` hold the n-th right
    eigenvector phi_n and left eigenvector chi_n, normalized so that
    chi_m^dagger phi_n = delta_mn.  The left vectors are rows of the inverse
    of the right-vector matrix, so biorthonormality holds by construction.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """sum_n lambda_n phi_n chi_n^dagger."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors.conj().T


def eig(M, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Eigendecompose a diagonalizable matrix.

    Eigenvalues are sorted by descending real part, ties broken by
    descending imaginary part.  Raises :class:`NonDiagonalizable` when the
    spectral reconstruction misses the input by more than ``tol``
    (relative), which is how a defective matrix / exceptional point shows
    up numerically.
    """
    A = as_square_matrix(M)
    w, V = np.linalg.eig(A)
    order = np.lexsort((-w.imag, -w.real))
    w = w[order]
    V = V[:, order]
    try:
        Winv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizable("eigenvector matrix is singular") from exc
    left = Winv.conj().T
    es = EigenSystem(eigenvalues=w, right_vectors=V, left_vectors=left)
    scale = max(frobenius(A), 1.0)
    if frobenius(es.reconstruct() - A) > tol * scale:
        raise NonDiagonalizable(
            "spectral reconstruction residual exceeds tolerance; "
            "matrix is defective or near an exceptional point"
        )
    return es


#: Matrix entries per stacked operand: callers that evolve over many times
#: pass them to :func:`matrix_exponential` in chunks of this size, which
#: keeps the stacks small at large n (one matrix per chunk at n = 256).
STACK_ENTRIES = 2**16


def time_chunks(times, dim: int):
    """Consecutive slices of the 1-D ``times`` whose stacks of dim x dim
    matrices hold at most ``STACK_ENTRIES`` entries each (at least one
    time per slice)."""
    size = max(1, STACK_ENTRIES // (dim * dim))
    for start in range(0, len(times), size):
        yield times[start:start + size]


def matrix_exponential(M, times=None) -> np.ndarray:
    """exp(M) for an arbitrary finite square matrix.

    With a 1-D ``times`` (real or complex), the stack of exp(t M) over t,
    shape ``(len(times), n, n)``, from one batched ``expm`` call; each
    slice equals ``matrix_exponential(t * M)`` bit for bit.
    """
    import scipy.linalg

    A = as_square_matrix(M)
    if times is None:
        return scipy.linalg.expm(A)
    ts = np.asarray(times)
    if ts.ndim != 1:
        raise DimensionMismatch(f"times must be one-dimensional, got shape {ts.shape}")
    return scipy.linalg.expm(ts[:, None, None] * A)


def _positive_eigensystem(M, tol: float, name: str):
    """``(A, w, Q)``: M coerced, with the eigenvalues and eigenvectors of one
    ``eigh``.  Raises :class:`NotPositiveDefinite`, naming ``name``, unless
    M is Hermitian and its smallest eigenvalue exceeds ``tol`` times the
    largest magnitude (or 1)."""
    A = as_square_matrix(M, name)
    if frobenius(A - A.conj().T) > tol * max(frobenius(A), 1.0):
        raise NotPositiveDefinite(f"{name} is not Hermitian")
    w, Q = np.linalg.eigh(A)
    if w.min() <= tol * max(abs(w).max(), 1.0):
        raise NotPositiveDefinite(f"{name} has non-positive eigenvalue {w.min():.3e}")
    return A, w, Q


def _sqrt_from_eigensystem(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(Q sqrt(w)) Q^dagger, symmetrized: the Hermitian square root of the
    positive matrix whose ``eigh`` gave ``w`` and ``Q``."""
    root = (Q * np.sqrt(w)) @ Q.conj().T
    return 0.5 * (root + root.conj().T)


def hermitian_sqrt(P, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian positive-definite square root rho of P, rho^2 = P."""
    _, w, Q = _positive_eigensystem(P, tol, "matrix")
    return _sqrt_from_eigensystem(w, Q)


@dataclass(frozen=True)
class Metric:
    """Hermitian positive-definite matrix of a physical inner product,
    validated once, when built, at tolerance ``tol``; ``eigenvalues`` are
    the ascending eigenvalues the validation computed and the columns of
    ``eigenvectors`` their orthonormal eigenvectors."""

    eta: np.ndarray
    tol: float = DEFAULT_TOL
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            eta, w, Q = _positive_eigensystem(self.eta, self.tol, "metric")
        except NotPositiveDefinite as exc:
            raise InvalidMetric(str(exc)) from exc
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", Q)

    @property
    def dim(self) -> int:
        return self.eta.shape[0]


def intertwines(Am: np.ndarray, eta: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||eta A - A^dagger eta|| <= tol * ||eta A||, for a square
    complex array ``Am`` and an already validated metric matrix ``eta``."""
    if Am.shape != eta.shape:
        raise DimensionMismatch("operator and metric dimensions differ")
    lhs = eta @ Am
    resid = frobenius(lhs - Am.conj().T @ eta)
    return resid <= tol * max(frobenius(lhs), np.finfo(float).tiny)


def is_self_adjoint_wrt(A, eta, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is self-adjoint in the inner product <psi, phi> = psi^dagger eta phi.

    Validates eta as a :class:`Metric`, then tests the intertwining relation
    eta A = A^dagger eta with :func:`intertwines`.
    """
    return intertwines(as_square_matrix(A), Metric(eta, tol).eta, tol)
