"""Charge-conjugation operator and the metric of the CPT inner product.

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

import numpy as np

from .errors import (
    ComplexSpectrum,
    DimensionMismatch,
    IllConditioned,
    InvalidMetric,
    MetricNotPositive,
    NotPTSymmetric,
    SelfOrthogonalEigenvector,
)
from .linalg import (
    CONSTRUCTION_BOUND,
    EigenSystem,
    Metric,
    as_square_matrix,
    eig,
)

#: Below this PT self-product magnitude an eigenvector counts as
#: self-orthogonal: normalization would amplify noise past test tolerances.
EXCEPTIONAL_POINT_THRESHOLD = 1e-8


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

    Returns ``(Phi, signs)``: the n x m matrix whose columns are the
    PT-normalized phi_n, in the layout of ``es.right_vectors``, and their
    signs in {+1, -1}.
    """
    V = np.array(es.right_vectors, dtype=complex)
    Pm = as_square_matrix(P, "parity", len(V))
    finite = np.isfinite(V).all(axis=0)
    # zeroed before any product, a non-finite column counts as self-orthogonal
    V[:, ~finite] = 0.0
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
    # mod = 0 gives a NaN rotation, which the residual test below refuses
    with np.errstate(invalid="ignore"):
        rot = np.exp(0.5j * np.angle(ratio / np.hypot(ratio.real, ratio.imag)))
    V *= rot
    PV *= rot.conj()
    PV -= V
    # at the largest component k the residual is (mod - 1) phi_k, so this
    # test also bounds |mod - 1| by 1e-8 sqrt(n) for an orthogonal parity
    bound = 1e-8 * np.maximum(np.linalg.norm(V, axis=0), 1.0)
    broken = ~(np.linalg.norm(PV, axis=0) <= bound)
    if broken.any():
        raise NotPTSymmetric(
            f"eigenvector {np.argmax(broken)} is not proportional to its PT image "
            "(broken PT phase)"
        )
    if m < es.dim:
        raise SelfOrthogonalEigenvector(
            f"eigenvector {m} has |(phi, phi)_PT| = {mag[m]:.3e}; exceptional point"
            if finite[m] else f"eigenvector {m} has non-finite entries"
        )
    mags = np.abs(V)
    j = np.argmax(mags >= (1.0 - 1e-9) * mags.max(axis=0), axis=0)
    c = V[j, cols]
    tie = c.real + c.imag
    flip = (tie < 0) | ((np.abs(tie) < 1e-12) & (c.real < 0))
    np.negative(V, out=V, where=flip)
    return V, np.where(nu.real > 0, 1, -1).tolist()


def build_C(Phi) -> np.ndarray:
    """C = sum_n phi_n phi_n^T over the columns phi_n of the n x m matrix
    ``Phi`` of PT-normalized eigenvectors; m < n gives C on their span."""
    Phi = np.asarray(Phi, dtype=complex)
    if Phi.ndim != 2 or Phi.size == 0:
        raise DimensionMismatch(f"eigenvectors must form a non-empty matrix, got {Phi.shape}")
    # column by column: Phi @ Phi.T differs in the last bits the goldens print;
    # an F-ordered C, as np.zeros_like(Phi) gives, makes the sum 3.5x slower
    C = np.zeros((Phi.shape[0], Phi.shape[0]), dtype=complex)
    for v in Phi.T:
        C += np.outer(v, v)
    return C


def _constructed_metric(eta, source: str) -> Metric:
    """``Metric(eta)`` for an eta built from H: a failed validation is a
    breakdown of the construction, raised as :class:`MetricNotPositive`,
    or as :class:`IllConditioned` for a positive eta whose kappa exceeds
    the inverse of ``CONSTRUCTION_BOUND``, with ``source`` prefixed to the
    message."""
    try:
        return Metric(eta)
    except InvalidMetric as exc:
        raise MetricNotPositive(f"{source} {exc}") from exc
    except IllConditioned as exc:
        raise IllConditioned(f"{source} {exc}") from exc


def metric_from_CPT(C, P) -> Metric:
    """Metric eta = P^T C^T of the CPT inner product.

    Raises :class:`MetricNotPositive` when the candidate fails Hermiticity
    or positivity, which signals a broken PT phase or a sign-convention
    error upstream, and :class:`IllConditioned` when it is positive with a
    condition number past the inverse of ``CONSTRUCTION_BOUND``.
    """
    Cm = as_square_matrix(C, "charge conjugation")
    Pm = as_square_matrix(P, "parity", len(Cm))
    return _constructed_metric(Pm.T @ Cm.T, "CPT")


def cpt_system(H, P):
    """The chain from (H, P) to the CPT metric: eigendecomposition,
    PT normalization, C and eta.

    Returns ``(Phi, C, eta)`` with the columns of ``Phi`` the
    PT-normalized eigenvectors, in the eigenvalue order of
    :func:`~ptqm.linalg.eig`.
    """
    Phi, _ = pt_normalize(eig(H), P)
    C = build_C(Phi)
    return Phi, C, metric_from_CPT(C, P)


def metric_from_biorthonormal(es: EigenSystem) -> Metric:
    """eta_b = sum_n chi_n chi_n^dagger from the left eigenvectors.

    Requires a real spectrum, to ``CONSTRUCTION_BOUND`` relative to the
    largest |eigenvalue|; eta_b then intertwines the source matrix with its
    adjoint, eta_b H = H^dagger eta_b.  eta_b = L L^dagger is positive by
    construction, so a failed positivity test (a near-singular eigenvector
    matrix) raises :class:`IllConditioned`, or :class:`MetricNotPositive`
    for an eigenvalue within its rounding.
    """
    w = es.eigenvalues
    if not np.abs(w.imag).max() <= CONSTRUCTION_BOUND * np.abs(w).max():
        raise ComplexSpectrum(
            f"largest |Im eigenvalue| = {np.abs(w.imag).max():.3e}; "
            "a real spectrum is required"
        )
    L = es.left_vectors
    eta = L @ L.conj().T
    return _constructed_metric(0.5 * (eta + eta.conj().T), "biorthonormal")
