"""The indefinite PT inner product.

The PT operation acts as psi -> P psi* for a caller-supplied parity
matrix P.
"""

from __future__ import annotations

from .linalg import as_square_matrix, as_vector


def pt_inner_product(P, psi, phi) -> complex:
    """Indefinite PT product (psi, phi) = (P psi*)^T phi.

    Antilinear in psi, linear in phi; indefinite (both signs occur).
    """
    Pm = as_square_matrix(P, "parity")
    u = as_vector(psi, Pm.shape[0], "psi")
    v = as_vector(phi, Pm.shape[0], "phi")
    return complex((Pm @ u.conj()) @ v)
