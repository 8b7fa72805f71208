"""The indefinite PT inner product and PT-invariant rephasing.

The PT operation acts as psi -> P psi* for a caller-supplied parity
matrix P.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_square_matrix, as_vector


def pt_inner_product(P, psi, phi) -> complex:
    """Indefinite PT product (psi, phi) = (P psi*)^T phi.

    Antilinear in psi, linear in phi; indefinite (both signs occur).
    """
    Pm = as_square_matrix(P, "parity")
    u = as_vector(psi, Pm.shape[0], "psi")
    v = as_vector(phi, Pm.shape[0], "phi")
    return complex((Pm @ u.conj()) @ v)


def rephase_to_pt_invariant(phi, P):
    """Rescale phi by a phase so that P conj(phi) = phi, if possible.

    Returns ``(phi', ok)``; ``ok`` is False when phi is not proportional to
    its PT image (broken phase).  The unit-modulus ratio e^{i beta} of
    P conj(phi) to phi is read off the largest-magnitude component, and phi
    is rotated by e^{i beta/2}, which makes it PT-invariant whenever phi is
    proportional to its PT image.
    """
    Pm = as_square_matrix(P, "parity")
    v = as_vector(phi, Pm.shape[0], "eigenvector")
    u = Pm @ v.conj()
    k = int(np.argmax(np.abs(v)))
    if abs(v[k]) == 0.0:
        return v, False
    ratio = u[k] / v[k]
    mod = abs(ratio)
    if abs(mod - 1.0) > 1e-6:
        return v, False
    out = v * np.exp(0.5j * np.angle(ratio / mod))
    ok = np.linalg.norm(Pm @ out.conj() - out) <= 1e-8 * max(np.linalg.norm(out), 1.0)
    return out, ok
