"""Dense complex linear algebra: eigendecomposition with biorthonormal
left/right pairs, matrix exponential, the validated metric record, and
the one residual rule.

All routines are pure functions on square complex ``numpy`` arrays.  Every
residual test reads ``relative_gap(X, Y) <= bound``: relative in the
Frobenius norm with no floor, so it does not depend on the scale of X, and
a NaN fails it.  The tests of the construction from (H, P) to (C, eta, U)
read one bound, ``CONSTRUCTION_BOUND``; only the observable criteria of
:mod:`ptqm.equivalence` read a caller's ``tol`` (``DEFAULT_TOL`` by
default).

Importing this module loads numpy only.  :func:`matrix_exponential` of a
diagonal matrix never loads scipy; its first call on any other matrix
imports ``scipy.linalg``, once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    InvalidInput,
    InvalidMetric,
    NonDiagonalizable,
)

#: Default tolerance of the observable criteria, the caller's question.
DEFAULT_TOL = 1e-10

#: Bound on every relative residual the construction from (H, P) to
#: (C, eta, U) tests (eigendecomposition, metric Hermiticity, real spectrum,
#: eta H = H^dagger eta), and on 1/kappa of a metric.
CONSTRUCTION_BOUND = 1e-10


def as_square_matrix(M, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """Coerce the operand ``name`` to a square complex array, ``dim`` x
    ``dim`` when ``dim`` is given.  A wrong shape raises
    :class:`DimensionMismatch` naming the size expected and the shape got;
    a non-finite entry raises :class:`InvalidInput`."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or (dim is not None and A.shape[0] != dim):
        size = "square" if dim is None else f"{dim} x {dim}"
        raise DimensionMismatch(f"{name} must be {size}, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return A


def _norm(D: np.ndarray):
    """Frobenius norm of a matrix (a float), or of each matrix of a
    C-contiguous stack, by the strided dot products of ``np.linalg.norm``,
    so equal to it bit for bit."""
    if D.ndim == 2:
        r = D.ravel(order="K")
        return math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))
    R = D.reshape(len(D), -1)
    re = np.matmul(R.real[:, None, :], R.real[:, :, None])
    im = np.matmul(R.imag[:, None, :], R.imag[:, :, None])
    return np.sqrt(re + im)[:, 0, 0]


def relative_gap(X: np.ndarray, Y: np.ndarray):
    """||X - Y|| / ||X|| in the Frobenius norm for two square matrices, or
    for each pair of two C-contiguous (T, n, n) stacks, equal to the single
    gap bit for bit; X = Y = 0 gives 0.  A pair whose norms overflow, or
    underflow to 0, is scaled first by the exact power of two that brings
    its largest entry into [0.5, 1)."""
    with np.errstate(all="ignore"):
        num, den = _norm(X - Y), _norm(X)
        fine = (0 < den) & (num + den < math.inf)
        if fine if X.ndim == 2 else fine.all():
            return num / den
        top = np.maximum(abs(X).max(axis=(-2, -1)), abs(Y).max(axis=(-2, -1)))
        scale = np.where(fine, 1.0, np.ldexp(1.0, -np.frexp(top)[1]))[..., None, None]
        X, Y = scale * X, scale * Y
        num, den = _norm(X - Y), _norm(X)
        return np.where(num == 0, 0.0, np.divide(num, den))[()]


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


def eig(M) -> EigenSystem:
    """Eigendecompose a diagonalizable matrix.

    Eigenvalues are sorted by descending real part, ties broken by
    descending imaginary part.  Raises :class:`NonDiagonalizable` when the
    spectral reconstruction misses the input by more than
    ``CONSTRUCTION_BOUND`` (relative), which is how a defective matrix /
    exceptional point shows up numerically.
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
    if not relative_gap(A, es.reconstruct()) <= CONSTRUCTION_BOUND:
        raise NonDiagonalizable(
            "spectral reconstruction residual exceeds the construction bound "
            f"{CONSTRUCTION_BOUND:.3e}; matrix is defective or near an exceptional point"
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
    shape ``(len(times), n, n)``; each slice equals
    ``matrix_exponential(t * M)`` bit for bit.  A diagonal M (no nonzero
    entry off the diagonal) never loads scipy: numpy takes exp of the
    diagonal, as ``scipy.linalg.expm`` does for each such slice, so the
    bits are the same.  Any other M goes to one batched ``expm`` call.
    """
    A = as_square_matrix(M)
    if times is not None:
        ts = np.asarray(times)
        if ts.ndim != 1:
            raise DimensionMismatch(f"times must be one-dimensional, got shape {ts.shape}")
    d = np.diagonal(A)
    if np.count_nonzero(A) > np.count_nonzero(d):
        import scipy.linalg

        return scipy.linalg.expm(A if times is None else ts[:, None, None] * A)
    E = np.exp(d if times is None else ts[:, None] * d)
    out = np.zeros(E.shape + d.shape, dtype=complex)
    np.einsum("...ii->...i", out)[...] = E
    return out


@dataclass(frozen=True)
class Metric:
    """Hermitian positive-definite matrix of a physical inner product,
    validated once, when built, against ``CONSTRUCTION_BOUND``;
    ``eigenvalues`` are the ascending eigenvalues the validation computed
    and the columns of ``eigenvectors`` their orthonormal eigenvectors.  A
    relative anti-Hermitian part above the bound, or a smallest eigenvalue
    at or below n eps max|w|, raises :class:`InvalidMetric`; a smallest
    eigenvalue above that but at or below the bound times max|w| has kappa
    past its inverse (:class:`IllConditioned`)."""

    eta: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eta = as_square_matrix(self.eta, "metric")
        if not relative_gap(eta, eta.conj().T) <= CONSTRUCTION_BOUND:
            raise InvalidMetric("metric is not Hermitian")
        w, Q = np.linalg.eigh(eta)
        top = abs(w).max()
        if not w.min() > CONSTRUCTION_BOUND * top:
            if w.min() > len(w) * np.finfo(float).eps * top:
                raise IllConditioned(
                    f"metric is positive but ill-conditioned: kappa = {top / w.min():.3e}"
                    f" exceeds the bound {1 / CONSTRUCTION_BOUND:.3e}"
                )
            raise InvalidMetric(f"metric has non-positive eigenvalue {w.min():.3e}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", Q)

    @property
    def dim(self) -> int:
        return self.eta.shape[0]

