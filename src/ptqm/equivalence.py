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

:func:`heisenberg_evolve` is the literal definition e^{iHt} O e^{-iHt}.
:func:`consistency_demo` evolves in the frame of the canonical U instead,
where h is real diagonal and the exponentials are phases: dense
e^{+-iHt} lose accuracy like kappa(eta)^2 eps, the frame like
kappa(eta) eps.  Under the CPT metric it evolves the Hermitian part of
o = U O U^{-1}, which the t = 0 symmetric/CPT-invariant test proves
Hermitian up to rounding, tests both criteria on whole stacks of times,
and refuses with :class:`~ptqm.errors.IllConditioned` a run whose
rounding fails a test that holds exactly, instead of printing wrong rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    InvalidInput,
    NotHermitianInput,
    PseudoHermiticityViolated,
)
from .linalg import (
    CONSTRUCTION_BOUND,
    DEFAULT_TOL,
    as_square_matrix,
    matrix_exponential,
    relative_gap,
    time_chunks,
)
from .metric import Metric, cpt_system


@dataclass(frozen=True)
class EquivalencePair:
    """Equivalence map U (U^dagger U = eta) and Hermitian counterpart h."""

    U: np.ndarray
    h: np.ndarray


def build_equivalence(H, metric: Metric) -> EquivalencePair:
    """Canonical U = W rho with rho = sqrt(eta) and W the unitary
    diagonalizing rho H rho^{-1}, eigenvalues descending.

    The resulting h = U H U^{-1} is diagonal with real entries.
    Eigenvector phases in W: first component of magnitude above
    1e-12 of the maximum is made real positive.  rho comes from the
    eigensystem ``metric`` was validated with; the relative
    pseudo-Hermiticity residual of H must not exceed ``CONSTRUCTION_BOUND``.
    """
    Hm = as_square_matrix(H, "Hamiltonian", metric.dim)
    U, U_inv, _ = _canonical_map(Hm, metric)
    return EquivalencePair(U=U, h=U @ Hm @ U_inv)


def _canonical_map(Hm: np.ndarray, metric: Metric):
    """(U, U^{-1}, w) of :func:`build_equivalence`: w holds the eigenvalues
    of rho H rho^{-1}, descending, which h = U H U^{-1} has on its
    diagonal up to rounding.  Its eta H test is :func:`check_observable_hermitian`
    at ``CONSTRUCTION_BOUND``."""
    if not check_observable_hermitian(Hm, metric, CONSTRUCTION_BOUND):
        raise PseudoHermiticityViolated(
            f"||eta H - H^dagger eta|| / ||eta H|| = {_eta_gap(Hm[None], metric.eta)[0]:.3e} "
            f"exceeds the construction bound {CONSTRUCTION_BOUND:.3e}"
        )
    Q = metric.eigenvectors
    rho = (Q * np.sqrt(metric.eigenvalues)) @ Q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    h0 = rho @ Hm @ np.linalg.inv(rho)
    h0 = 0.5 * (h0 + h0.conj().T)
    w, V = np.linalg.eigh(h0)
    order = np.argsort(-w)
    V = V[:, order]
    mags = np.abs(V)
    c = V[np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0), np.arange(V.shape[1])]
    V /= c / np.hypot(c.real, c.imag)
    U = V.conj().T @ rho
    return U, np.linalg.inv(U), w[order]


def build_equivalence_pt(H, P) -> EquivalencePair:
    """PT-gauge equivalence map built from PT-normalized eigenvectors.

    Rows of U are (eta phi_n)^dagger, where the phi_n are the
    PT-normalized eigenvectors (eta-orthonormal in the unbroken phase),
    and eta is the CPT metric constructed on the way.  U maps phi_n to the
    n-th standard basis vector, so h is diagonal with descending entries.
    """
    Hm = as_square_matrix(H, "Hamiltonian")
    Phi, _, metric = cpt_system(Hm, P)
    U = (metric.eta @ Phi).conj().T
    h = U @ Hm @ np.linalg.inv(U)
    return EquivalencePair(U=U, h=h)


def pull_back_observable(pair: EquivalencePair, o, tol: float = DEFAULT_TOL) -> np.ndarray:
    """O = U^{-1} o U for Euclidean-Hermitian o; O is eta-self-adjoint."""
    om = as_square_matrix(o, "observable", len(pair.U))
    if not relative_gap(om, om.conj().T) <= tol:
        raise NotHermitianInput("observable is not Hermitian in the Euclidean sense")
    return np.linalg.inv(pair.U) @ om @ pair.U


def heisenberg_evolve(H, O, t) -> np.ndarray:
    """O_H(t) = e^{itH} O e^{-itH}; similarity keeps the spectrum of O.

    ``t`` is a scalar, giving one matrix, or 1-D, giving the stack of
    O_H(t) over t from two batched exponentials.
    """
    Hm = as_square_matrix(H, "Hamiltonian")
    Om = as_square_matrix(O, "observable", len(Hm))
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


def _bender_stack(Os: np.ndarray, CP: np.ndarray, tol: float):
    """(symmetric, cpt_invariant) boolean arrays over the (T, n, n) stack
    ``Os``, with ``CP`` = C P already coerced and multiplied."""
    symmetric = relative_gap(Os, Os.transpose(0, 2, 1)) <= tol
    return symmetric, relative_gap(Os @ CP, CP @ Os.conj()) <= tol


def _coerce_CP(C, P, n: int) -> np.ndarray:
    return as_square_matrix(C, "charge conjugation", n) @ as_square_matrix(P, "parity", n)


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
    """Observable criterion of this toolkit: self-adjointness w.r.t. eta,
    tested as eta O = O^dagger eta; ``metric`` was validated when built."""
    Om = as_square_matrix(O, "observable", metric.dim)
    return bool(_eta_gap(Om[None], metric.eta)[0] <= tol)


def _eta_gap(Os: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """relative_gap(eta O, O^dagger eta) for each O of the (T, n, n) stack ``Os``."""
    return relative_gap(eta @ Os, Os.conj().transpose(0, 2, 1) @ eta)


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

    O_H(t) is evolved in the Hermitian frame of :func:`build_equivalence`,
    as O_H(t) = O + U^-1 (e^{iht} o e^{-iht} - o) U with o = U O U^-1 and
    h = U H U^-1 taken as the diagonal of its real eigenvalues, which the
    construction of U computed.  The exponentials are scalar phases,
    so the rounding error grows like kappa(eta) eps, not kappa(eta)^2 eps
    as with dense e^{+-iHt}, and the t = 0 row is O itself.  When
    ``metric`` is the CPT metric eta = (C P)^T, to ``CONSTRUCTION_BOUND``
    relative, o is replaced by its Hermitian part: for a symmetric O,
    (eta O - O^dagger eta)^T = O CP - CP O*, so passing the t = 0 test
    makes O eta-self-adjoint and o Hermitian up to rounding, and the
    projection drops that rounding instead of letting it grow along the
    flow.  For any other metric o is evolved as it is, and the rows say
    whether O is eta-self-adjoint.  ``tol`` decides the two criteria on
    each row, the t = 0 test included; the construction of U tests H
    against ``CONSTRUCTION_BOUND``.

    Under the CPT metric every row is eta-Hermitian in exact arithmetic, so
    a row that fails that test is rounding, and the run is refused with
    :class:`IllConditioned` instead of printing it.  So is a failed t = 0
    test whose CPT residual lies within its rounding scale
    2 n eps kappa(eta) ||O|| ||CP|| / ||O CP||; a larger residual, or an
    O that is not symmetric, is :class:`InvalidInput`, as is a non-finite
    O_H(t).  Both criteria are tested on each stack of
    :func:`~ptqm.linalg.time_chunks` times at once, with C P formed once.
    """
    Om = as_square_matrix(O, "observable")
    CP = _coerce_CP(C, P, len(Om))
    kappa = metric.eigenvalues[-1] / metric.eigenvalues[0]
    if not check_observable_bender(Om, C, P, tol).passed:
        gap = relative_gap(Om @ CP, CP @ Om.conj())
        scale = 2 * len(Om) * np.finfo(float).eps * kappa
        scale *= np.linalg.norm(Om) * np.linalg.norm(CP) / np.linalg.norm(Om @ CP)
        if relative_gap(Om, Om.T) <= tol and gap <= scale:
            raise IllConditioned(
                f"the t = 0 CPT-invariance residual {gap:.3e} is within its rounding "
                f"scale {scale:.3e} (kappa(eta) = {kappa:.3e}), so tolerance "
                f"{tol:.3e} cannot decide it"
            )
        raise InvalidInput("input observable must be symmetric and CPT-invariant at t = 0")
    # sized here, so that a refusal names the operand of the wrong size
    Hm = as_square_matrix(H, "Hamiltonian", len(CP))
    as_square_matrix(metric.eta, "metric", len(CP))
    U, U_inv, w = _canonical_map(Hm, metric)
    h = np.diag(w.astype(complex))
    o = U @ Om @ U_inv
    cpt_metric = relative_gap(metric.eta, CP.T) <= CONSTRUCTION_BOUND
    if cpt_metric:
        o = 0.5 * (o + o.conj().T)
    rows = []
    ts = np.asarray(times, dtype=float)
    for chunk in time_chunks(ts, len(CP)):
        dx = heisenberg_evolve(h, o, chunk)
        dx -= o
        Os = U_inv @ dx @ U
        Os += Om
        finite = np.isfinite(Os).all(axis=(1, 2))
        if not finite.all():
            raise InvalidInput(f"O_H(t) is not finite at t = {chunk[np.argmin(finite)]:.6g}")
        symmetric, cpt_invariant = _bender_stack(Os, CP, tol)
        eta_hermitian = _eta_gap(Os, metric.eta) <= tol
        if cpt_metric and not eta_hermitian.all():
            raise IllConditioned(
                f"rounding (kappa(eta) = {kappa:.3e}) fails the eta-Hermiticity "
                f"test at t = {chunk[np.argmin(eta_hermitian)]:.6g}, which the CPT "
                f"metric passes exactly, at tolerance {tol:.3e}"
            )
        rows += map(ConsistencyRow, chunk.tolist(), symmetric.tolist(), cpt_invariant.tolist(),
                    eta_hermitian.tolist())
        # free this chunk's stacks before the next one is evolved
        del dx, Os
    return rows
