"""Unitary equivalence between the metric Hilbert space and the Euclidean
one, observable pull-backs, Heisenberg evolution, and the two competing
observable criteria.

A map U with U^dagger U = eta turns the metric inner product into the
Euclidean one; h = U H U^{-1} is then an ordinary Hermitian Hamiltonian
with the same spectrum.  U is unique only up to a Euclidean unitary on
the left, so two canonical choices are provided:

* :func:`build_equivalence` works for any valid (H, eta) pair and fixes
  the gauge through the eigenvectors of rho H rho^{-1} (first nonzero
  component real positive).
* :func:`build_equivalence_pt` needs the parity matrix as well and uses
  the PT-normalized eigenvectors of H, which reproduces the reference
  closed-form map of the two-level model.  Pull-backs computed in the two
  gauges differ by conjugation with a diagonal phase unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    NotHermitianInput,
    PseudoHermiticityViolated,
)
from .linalg import (
    DEFAULT_TOL,
    _sqrt_from_eigensystem,
    as_square_matrix,
    frobenius,
    intertwines,
    matrix_exponential,
    time_chunks,
)
from .metric import Metric, cpt_system


@dataclass(frozen=True)
class EquivalencePair:
    """Equivalence map U (U^dagger U = eta) and Hermitian counterpart h."""

    U: np.ndarray
    h: np.ndarray


def _require_pseudo_hermitian(H: np.ndarray, eta: np.ndarray, tol: float):
    lhs = eta @ H
    resid = frobenius(lhs - H.conj().T @ eta)
    if resid > tol * max(frobenius(lhs), 1.0):
        raise PseudoHermiticityViolated(
            f"||eta H - H^dagger eta|| = {resid:.3e} exceeds tolerance"
        )


def build_equivalence(H, metric: Metric, tol: float = DEFAULT_TOL) -> EquivalencePair:
    """Canonical U = W rho with rho = sqrt(eta) and W the unitary
    diagonalizing rho H rho^{-1}, eigenvalues descending.

    The resulting h = U H U^{-1} is diagonal with real entries.
    Eigenvector phases in W: first component of magnitude above
    1e-12 of the maximum is made real positive.  rho comes from the
    eigensystem ``metric`` was validated with, at its own tolerance;
    ``tol`` bounds the pseudo-Hermiticity residual of H.
    """
    Hm = as_square_matrix(H, "Hamiltonian")
    eta = metric.eta
    if Hm.shape != eta.shape:
        raise DimensionMismatch("Hamiltonian and metric dimensions differ")
    _require_pseudo_hermitian(Hm, eta, tol)
    rho = _sqrt_from_eigensystem(metric.eigenvalues, metric.eigenvectors)
    h0 = rho @ Hm @ np.linalg.inv(rho)
    h0 = 0.5 * (h0 + h0.conj().T)
    w, V = np.linalg.eigh(h0)
    order = np.argsort(-w)
    V = V[:, order]
    mags = np.abs(V)
    c = V[np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0), np.arange(V.shape[1])]
    V /= c / np.hypot(c.real, c.imag)
    U = V.conj().T @ rho
    h = U @ Hm @ np.linalg.inv(U)
    return EquivalencePair(U=U, h=h)


def build_equivalence_pt(H, P, tol: float = DEFAULT_TOL) -> EquivalencePair:
    """PT-gauge equivalence map built from PT-normalized eigenvectors.

    Rows of U are (eta phi_n)^dagger, where the phi_n are the
    PT-normalized eigenvectors (eta-orthonormal in the unbroken phase),
    and eta is the CPT metric constructed on the way.  U maps phi_n to the
    n-th standard basis vector, so h is diagonal with descending entries.
    """
    Hm = as_square_matrix(H, "Hamiltonian")
    Phi, _, metric = cpt_system(Hm, P, tol)
    U = (metric.eta @ Phi).conj().T
    h = U @ Hm @ np.linalg.inv(U)
    return EquivalencePair(U=U, h=h)


def pull_back_observable(pair: EquivalencePair, o, tol: float = DEFAULT_TOL) -> np.ndarray:
    """O = U^{-1} o U for Euclidean-Hermitian o; O is eta-self-adjoint."""
    om = as_square_matrix(o, "observable")
    if frobenius(om - om.conj().T) > tol * max(frobenius(om), 1.0):
        raise NotHermitianInput("observable is not Hermitian in the Euclidean sense")
    if om.shape != pair.U.shape:
        raise DimensionMismatch("observable and equivalence map dimensions differ")
    return np.linalg.inv(pair.U) @ om @ pair.U


def heisenberg_evolve(H, O, t) -> np.ndarray:
    """O_H(t) = e^{itH} O e^{-itH}; similarity keeps the spectrum of O.

    ``t`` is a scalar, giving one matrix, or 1-D, giving the stack of
    O_H(t) over t from two batched exponentials.
    """
    Hm = as_square_matrix(H, "Hamiltonian")
    Om = as_square_matrix(O, "observable")
    if Hm.shape != Om.shape:
        raise DimensionMismatch("Hamiltonian and observable dimensions differ")
    ts = np.asarray(t)
    stack = np.atleast_1d(ts)
    out = matrix_exponential(Hm, 1j * stack) @ Om @ matrix_exponential(Hm, -1j * stack)
    return out if ts.ndim else out[0]


@dataclass(frozen=True)
class BenderCheck:
    """Result of the symmetric/CPT-invariant observable criterion."""

    symmetric: bool
    cpt_invariant: bool

    @property
    def passed(self) -> bool:
        return self.symmetric and self.cpt_invariant


def _frobenius_stack(D: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of the C-contiguous stack D, equal bit
    for bit to :func:`~ptqm.linalg.frobenius` of the slice: the squared
    real and imaginary parts are summed by the same strided dot products."""
    R = D.reshape(len(D), -1)
    re = np.matmul(R.real[:, None, :], R.real[:, :, None])
    im = np.matmul(R.imag[:, None, :], R.imag[:, :, None])
    return np.sqrt(re + im)[:, 0, 0]


def _bender_stack(Os: np.ndarray, CP: np.ndarray, tol: float):
    """(symmetric, cpt_invariant) boolean arrays over the (T, n, n) stack
    ``Os``, with ``CP`` = C P already coerced and multiplied."""
    scale = np.maximum(_frobenius_stack(Os), 1.0)
    symmetric = _frobenius_stack(Os - Os.transpose(0, 2, 1)) <= tol * scale
    OCP = Os @ CP
    bound = tol * np.maximum(_frobenius_stack(OCP), 1.0)
    OCP -= CP @ Os.conj()
    return symmetric, _frobenius_stack(OCP) <= bound


def _coerce_CP(C, P, n: int) -> np.ndarray:
    Cm = as_square_matrix(C, "charge conjugation")
    Pm = as_square_matrix(P, "parity")
    if Cm.shape != (n, n) or Pm.shape != (n, n):
        raise DimensionMismatch("operator dimensions differ")
    return Cm @ Pm


def check_observable_bender(O, C, P, tol: float = DEFAULT_TOL) -> BenderCheck:
    """Standard-basis transpose symmetry plus commutation with the
    antilinear CPT map (O (CP) = (CP) O*).

    Both tests are basis-dependent by construction; the standard basis is
    used throughout, matching the convention of the criterion under test.
    """
    Om = as_square_matrix(O, "observable")
    symmetric, cpt_invariant = _bender_stack(Om[None], _coerce_CP(C, P, len(Om)), tol)
    return BenderCheck(symmetric=bool(symmetric[0]), cpt_invariant=bool(cpt_invariant[0]))


def check_observable_hermitian(O, metric: Metric, tol: float = DEFAULT_TOL) -> bool:
    """Observable criterion of this toolkit: self-adjointness w.r.t. eta.

    ``metric`` was validated when it was built, so only the intertwining
    relation eta O = O^dagger eta is tested.
    """
    return intertwines(as_square_matrix(O, "observable"), metric.eta, tol)


@dataclass(frozen=True)
class ConsistencyRow:
    t: float
    symmetric: bool
    cpt_invariant: bool
    eta_hermitian: bool


def consistency_demo(H, C, P, metric: Metric, O, times, tol: float = DEFAULT_TOL):
    """Track both observable criteria along Heisenberg evolution.

    The input O must pass the symmetric/CPT-invariant check at t = 0.  For
    generic t that check fails while eta-Hermiticity survives, which is the
    dynamical-inconsistency demonstration; at special times where O_H(t)
    returns to +-O the symmetric/CPT-invariant check passes again.

    O_H(t) is evolved in stacks of :func:`~ptqm.linalg.time_chunks`.  The
    symmetric/CPT-invariant check runs on each whole stack, with C P formed
    once; eta-Hermiticity is checked one time at a time.
    """
    check0 = check_observable_bender(O, C, P, tol)
    if not check0.passed:
        raise InvalidInput(
            "input observable must be symmetric and CPT-invariant at t = 0"
        )
    CP = _coerce_CP(C, P, np.shape(O)[0])
    rows = []
    ts = np.asarray(times, dtype=float)
    for chunk in time_chunks(ts, len(CP)):
        Os = heisenberg_evolve(H, O, chunk)
        symmetric, cpt_invariant = _bender_stack(Os, CP, tol)
        for t, Ot, sym, cpt in zip(
            chunk.tolist(), Os, symmetric.tolist(), cpt_invariant.tolist()
        ):
            rows.append(
                ConsistencyRow(
                    t=t,
                    symmetric=sym,
                    cpt_invariant=cpt,
                    eta_hermitian=check_observable_hermitian(Ot, metric, tol),
                )
            )
    return rows
