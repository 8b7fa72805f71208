"""Charge-conjugation operator, CPT inner product, and metric operators.

The charge-conjugation operator is assembled from PT-normalized
eigenvectors as C = sum_n phi_n phi_n^T (outer product without
conjugation, the finite-dimensional analog of a kernel C(x, y) =
sum_n phi_n(x) phi_n(y)).  The matrix eta of the CPT inner product
(psi, phi)_+ = (CPT psi) . phi follows by expanding the dot product:

    (C P psi*)^T phi = psi^dagger P^T C^T phi,   hence   eta = P^T C^T.

The order matters; eta = C P is wrong.  A second, C-free construction
builds eta from left eigenvectors of any diagonalizable matrix with real
spectrum: eta_b = sum_n chi_n chi_n^dagger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComplexSpectrum,
    DimensionMismatch,
    InvalidMetric,
    MetricNotPositive,
    NotPTSymmetric,
    SelfOrthogonalEigenvector,
)
from .linalg import (
    DEFAULT_TOL,
    EigenSystem,
    as_square_matrix,
    as_vector,
    check_metric_matrix,
    eig,
)

#: Below this PT self-product magnitude an eigenvector counts as
#: self-orthogonal: normalization would amplify noise past test tolerances.
EXCEPTIONAL_POINT_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Metric:
    """Hermitian positive-definite matrix of a physical inner product,
    validated once, when built, at tolerance ``tol``; ``eigenvalues`` are
    the ascending eigenvalues the validation computed."""

    eta: np.ndarray
    tol: float = DEFAULT_TOL
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eta, w = check_metric_matrix(self.eta, self.tol)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eigenvalues", w)

    @property
    def dim(self) -> int:
        return self.eta.shape[0]


def pt_normalize(es: EigenSystem, P):
    """PT-normalize the right eigenvectors of ``es``.

    Each phi_n is scaled so its PT self-product is exactly +1 or -1 (the
    sign is intrinsic: rescaling changes the self-product by |c|^2 only),
    then rotated to a PT-invariant representative P conj(phi) = phi: the
    unit-modulus ratio e^{i beta} of P conj(phi) to phi, read off the
    largest-magnitude component, is halved into the rotation e^{i beta/2}.
    The leftover sign freedom phi -> -phi is fixed by requiring
    Re(c) + Im(c) > 0 for the first component c of near-maximal magnitude;
    this convention reproduces the reference closed forms of the two-level
    model over the whole unbroken region.  All columns are processed at
    once; an error names the first failing column.

    Returns ``(vectors, signs)`` with signs in {+1, -1}.
    """
    Pm = as_square_matrix(P, "parity")
    V = np.array(es.right_vectors, dtype=complex)
    PV = Pm @ V.conj()
    nu = np.einsum("ij,ij->j", PV, V)
    mag = np.hypot(nu.real, nu.imag)
    degenerate = np.flatnonzero(
        ~(mag > EXCEPTIONAL_POINT_THRESHOLD * np.linalg.norm(V, axis=0) ** 2)
    )
    # no column from the first self-orthogonal one on is divided by its |nu|
    m = degenerate[0] if degenerate.size else es.dim
    V, PV = V[:, :m], PV[:, :m]
    scale = np.sqrt(mag[:m])
    V /= scale
    PV /= scale
    cols = np.arange(m)
    k = np.argmax(np.abs(V), axis=0)
    ratio = PV[k, cols] / V[k, cols]
    mod = np.hypot(ratio.real, ratio.imag)
    broken = ~(np.abs(mod - 1.0) <= 1e-6)
    # a column already found broken may have mod = 0: do not divide by it
    rot = np.exp(0.5j * np.angle(ratio / np.where(broken, 1.0, mod)))
    V *= rot
    PV *= rot.conj()
    PV -= V
    bound = 1e-8 * np.maximum(np.linalg.norm(V, axis=0), 1.0)
    broken |= ~(np.linalg.norm(PV, axis=0) <= bound)
    if broken.any():
        raise NotPTSymmetric(
            f"eigenvector {np.argmax(broken)} is not proportional to its PT image "
            "(broken PT phase)"
        )
    if m < es.dim:
        raise SelfOrthogonalEigenvector(
            f"eigenvector {m} has |(phi, phi)_PT| = {mag[m]:.3e}; "
            "exceptional point"
        )
    mags = np.abs(V)
    j = np.argmax(mags >= (1.0 - 1e-9) * mags.max(axis=0), axis=0)
    c = V[j, cols]
    tie = c.real + c.imag
    flip = (tie < 0) | ((np.abs(tie) < 1e-12) & (c.real < 0))
    np.negative(V, out=V, where=flip)
    return list(V.T), np.where(nu.real > 0, 1, -1).tolist()


def build_C(vectors) -> np.ndarray:
    """C = sum_n phi_n phi_n^T from PT-normalized eigenvectors."""
    if not vectors:
        raise DimensionMismatch("no eigenvectors supplied")
    dim = len(vectors[0])
    C = np.zeros((dim, dim), dtype=complex)
    for phi in vectors:
        v = as_vector(phi, dim, "eigenvector")
        C += np.outer(v, v)
    return C


def metric_from_CPT(C, P, tol: float = DEFAULT_TOL) -> Metric:
    """Metric eta = P^T C^T of the CPT inner product.

    Raises :class:`MetricNotPositive` when the candidate fails Hermiticity
    or positivity at ``tol``, which signals a broken PT phase or a
    sign-convention error upstream.
    """
    Cm = as_square_matrix(C, "charge conjugation")
    Pm = as_square_matrix(P, "parity")
    if Cm.shape != Pm.shape:
        raise DimensionMismatch("C and P dimensions differ")
    try:
        return Metric(Pm.T @ Cm.T, tol)
    except InvalidMetric as exc:
        raise MetricNotPositive(f"CPT {exc}") from exc


def cpt_system(H, P, tol: float = DEFAULT_TOL):
    """The chain from (H, P) to the CPT metric: eigendecomposition,
    PT normalization, C and eta.

    Returns ``(vectors, C, eta)`` with the PT-normalized eigenvectors in
    the eigenvalue order of :func:`~ptqm.linalg.eig`.
    """
    vectors, _ = pt_normalize(eig(H, tol), P)
    C = build_C(vectors)
    return vectors, C, metric_from_CPT(C, P, tol)


def cpt_inner_product(metric: Metric, psi, phi) -> complex:
    """Positive-definite product (psi, phi)_+ = psi^dagger eta phi."""
    u = as_vector(psi, metric.dim, "psi")
    v = as_vector(phi, metric.dim, "phi")
    return complex(u.conj() @ metric.eta @ v)


def metric_from_biorthonormal(es: EigenSystem, tol: float = DEFAULT_TOL) -> Metric:
    """eta_b = sum_n chi_n chi_n^dagger from the left eigenvectors.

    Requires a real spectrum; eta_b then intertwines the source matrix
    with its adjoint, eta_b H = H^dagger eta_b.
    """
    w = es.eigenvalues
    scale = max(np.abs(w).max(), 1.0)
    if np.abs(w.imag).max() > tol * scale:
        raise ComplexSpectrum(
            f"largest |Im eigenvalue| = {np.abs(w.imag).max():.3e}; "
            "a real spectrum is required"
        )
    L = es.left_vectors
    eta = L @ L.conj().T
    return Metric(0.5 * (eta + eta.conj().T), tol)
