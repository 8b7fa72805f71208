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

from dataclasses import dataclass

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
from .pt import pt_inner_product, rephase_to_pt_invariant

#: Below this PT self-product magnitude an eigenvector counts as
#: self-orthogonal: normalization would amplify noise past test tolerances.
EXCEPTIONAL_POINT_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Metric:
    """Hermitian positive-definite matrix of a physical inner product,
    validated once, when built, at tolerance ``tol``."""

    eta: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "eta", check_metric_matrix(self.eta, self.tol))

    @property
    def dim(self) -> int:
        return self.eta.shape[0]


def pt_normalize(es: EigenSystem, P):
    """PT-normalize the right eigenvectors of ``es``.

    Each phi_n is scaled so its PT self-product is exactly +1 or -1 (the
    sign is intrinsic: rescaling changes the self-product by |c|^2 only),
    then rotated to a PT-invariant representative P conj(phi) = phi.  The
    leftover sign freedom phi -> -phi is fixed by requiring Re(c) + Im(c) > 0
    for the first component c of near-maximal magnitude; this convention
    reproduces the reference closed forms of the two-level model over the
    whole unbroken region.

    Returns ``(vectors, signs)`` with signs in {+1, -1}.
    """
    Pm = as_square_matrix(P, "parity")
    vectors = []
    signs = []
    for n in range(es.dim):
        phi = es.right_vectors[:, n]
        nu = pt_inner_product(Pm, phi, phi)
        if abs(nu) < EXCEPTIONAL_POINT_THRESHOLD * float(np.linalg.norm(phi)) ** 2:
            raise SelfOrthogonalEigenvector(
                f"eigenvector {n} has |(phi, phi)_PT| = {abs(nu):.3e}; "
                "exceptional point"
            )
        sign = 1 if nu.real > 0 else -1
        phi = phi / np.sqrt(abs(nu))
        phi, ok = rephase_to_pt_invariant(phi, Pm)
        if not ok:
            raise NotPTSymmetric(
                f"eigenvector {n} is not proportional to its PT image "
                "(broken PT phase)"
            )
        mags = np.abs(phi)
        j = int(np.nonzero(mags >= (1.0 - 1e-9) * mags.max())[0][0])
        c = phi[j]
        if c.real + c.imag < 0 or (abs(c.real + c.imag) < 1e-12 and c.real < 0):
            phi = -phi
        vectors.append(phi)
        signs.append(sign)
    return vectors, signs


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
