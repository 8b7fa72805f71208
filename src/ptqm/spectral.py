"""Finite-difference eigensolver for H = p^2 + x^2 (i x)^nu, 0 <= nu < 2.

The potential is x^2 (i x)^nu on the principal branch of (i x)^nu.  The
eigenproblem is solved on the PT-symmetric complex contour

    x(t) = t - i a sqrt(1 + t^2),   a = tan(pi nu / (2 (nu + 4))),

whose ends run at the angle -arctan(a) below the real axis, through the
centres of the Stokes wedges in which the eigenfunctions decay
(Bender-Boettcher, PRL 80, 5243 (1998)).  There the decay is fastest, so a
short box suffices for every nu in the regime; at nu = 0 the contour is the
real axis.  Along the contour Re(i x) >= 0, so i x stays off the branch cut
of the principal branch and V(x(-t)) = conj(V(x(t))).

The operator -(1/x') d/dt (1/x') d/dt + V(x(t)) is discretized with
second-order central differences on a uniform t-grid with Dirichlet walls
at t = +-L, 1/x' taken at the half-steps.  With K the symmetric tridiagonal
matrix of -d/dt (1/x') d/dt + x' V and D = diag(x'), the solver works with
the similar matrix D^{-1/2} K D^{-1/2}: complex symmetric (not Hermitian)
and tridiagonal, and at nu = 0 the real-axis matrix.  The solver runs the
base grid and two dyadic refinements, pairs the surviving levels, and
reports Richardson-extrapolated eigenvalues (the h^2 error term of the
central-difference stencil is eliminated).  Every grid is solved the same
way, by ARPACK shift-invert about 0 for the k + 4 levels nearest it.

At the default L = 8, N = 1000 the five lowest levels are within 1.3e-8 of
the exact 1, 3, ..., 9 at nu = 0 (ground state 6.4e-11) and within 1.2e-8
of a fine-grid solution at nu = 1.  At nu = 2, outside the regime of
:class:`SpectralProblem`, the grid solver matches the Hermitian
p^2 + 4 x^4 - 2 x to 1e-7.

Each level has one error budget: its refinement gap plus the shift that
the Dirichlet walls put on it.  A wall raises a level by about
psi_x^2 / (2 kappa int psi^2 dx), Hadamard's formula integrated over the
decaying tail, with kappa = sqrt(V - E), Re kappa >= 0, and no conjugation,
as the operator is complex symmetric.  :func:`spectrum` returns k levels
within budget or a typed refusal: ``InvalidParams`` for k > N - 8, where
ARPACK has no room on the N grid, and ``NumericalFailure`` for an operator
that overflows or a level over budget.

Importing this module loads numpy only: the first grid assembly imports
``scipy.sparse``, and the first grid solve ``scipy.sparse.linalg``, once
per process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NumericalFailure, OutOfRegime

#: Defaults chosen so the nu = 0 levels are accurate to < 1e-7 (see above).
DEFAULT_L = 8.0
DEFAULT_N = 1000

#: Largest refinement gap plus wall shift of a reported level.
_CONVERGENCE_ABS = 1e-6


@dataclass(frozen=True)
class SpectralProblem:
    """Discretization of the eigenproblem: exponent nu, half-width L of the
    contour parameter t, and total grid size N (including both boundary
    points)."""

    nu: float
    L: float = DEFAULT_L
    N: int = DEFAULT_N

    def __post_init__(self):
        if not 0.0 <= self.nu < 2.0:
            raise OutOfRegime(
                f"nu = {self.nu} outside [0, 2), where the contour solver is validated"
            )
        if self.N < 3:
            raise InvalidParams("grid size N must be at least 3")
        if not 0 < self.L < np.inf:
            raise InvalidParams("box half-width L must be positive and finite")


@dataclass(frozen=True)
class SpectrumResult:
    """k levels within their error budget: :func:`spectrum` refuses any
    other.  ``converged`` is therefore always true; it stays because
    ``schemas/output.schema.json`` requires it in the ``spectrum`` JSON, and
    readers of that JSON test it."""

    eigenvalues: np.ndarray  # sorted ascending by real part
    max_imag: float
    converged = True


def _potential(x: np.ndarray, nu: float) -> np.ndarray:
    """x^2 (i x)^nu on the principal branch, vectorized over real or
    complex x; the regime of nu is checked by :class:`SpectralProblem`."""
    return x * x * (1j * x) ** nu


def _operator(nu: float, L: float, N: int):
    """(N-2) x (N-2) sparse complex symmetric matrix of the operator on the
    contour, grid spacing in t, and x' at the outer interior points, x'(+-L)
    and V(x(+-L)), each at both ends; :class:`NumericalFailure` if an entry
    overflows (1/h^2 for a tiny box, V(x(+-L)) for a huge one)."""
    import scipy.sparse as sp

    h = 2.0 * L / (N - 1)
    a = np.tan(np.pi * nu / (2.0 * (nu + 4.0)))

    def dx(t):  # x'(t)
        return 1.0 - 1j * a * t / np.sqrt(1.0 + t * t)

    with np.errstate(all="ignore"):  # an overflow is refused below
        t = np.linspace(-L, L, N)
        w = 1.0 / dx(0.5 * (t[:-1] + t[1:]))  # 1/x' at the N - 1 half-steps
        ends = t[[0, -1]]
        wall_V = _potential(ends - 1j * a * np.sqrt(1.0 + ends * ends), nu)
        t = t[1:-1]
        d = dx(t)
        off = -w[1:-1] / (h * h * np.sqrt(d[:-1] * d[1:]))
        diag = (w[:-1] + w[1:]) / (h * h * d) + _potential(t - 1j * a * np.sqrt(1.0 + t * t), nu)
    if not (np.isfinite(off).all() and np.isfinite(diag).all()):
        raise NumericalFailure(
            f"the operator on {N} grid points overflows double precision at L = {L}:"
            " 1/h^2 or the potential at the walls is too large"
        )
    A = sp.diags([off, diag, off], [-1, 0, 1], format="csc", dtype=complex)
    return A, h, d[[0, -1]], dx(ends), wall_V


def _solve_grid(nu: float, L: float, N: int, k: int, refinement: int):
    """(lowest k levels ascending by real part, the wall shift of each, NaN
    or inf where its estimate breaks down, grid spacing) on refinement * N points."""
    import scipy.sparse.linalg as spla

    A, h, d, dx, V = _operator(nu, L, refinement * N)
    n = refinement * N - 2
    try:
        # fixed start vector: ARPACK's default is random, which would
        # make repeated runs differ in the last few bits
        w, v = spla.eigs(A, k=k + 4, sigma=0.0, v0=np.ones(n) / np.sqrt(n))
    except spla.ArpackNoConvergence as exc:
        raise NumericalFailure(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(w.real)[:k]
    w, v = w[order], v[:, order]
    # psi = v / sqrt(x'), psi_x = psi_end / (h x'(+-L)) and int psi^2 dx = h sum v^2
    with np.errstate(all="ignore"):
        slope2 = v[[0, -1]] ** 2 / (d * (h * dx) ** 2)[:, None]
        walls = slope2 / (2.0 * np.sqrt(V[:, None] - w))
        shift = np.abs(walls.sum(axis=0) / (h * (v * v).sum(axis=0)))
    return w, shift, h


def _level(z: complex) -> str:
    """A refused level as its message names it: the real part to 6 digits,
    and the imaginary part only where it is at least ``_CONVERGENCE_ABS``,
    so that rounding noise, whose digits follow the BLAS thread count, is
    not printed."""
    return f"{z:.6g}" if abs(z.imag) >= _CONVERGENCE_ABS else f"{z.real:.6g}"


def _budget_share(x: float) -> str:
    """A wall shift or refinement gap to 2 digits where it exceeds 1% of
    ``_CONVERGENCE_ABS``; at or below that its digits are rounding noise."""
    floor = 0.01 * _CONVERGENCE_ABS
    return f"<{floor:.0e}" if x <= floor else f"{x:.1e}"


def spectrum(p: SpectralProblem, k: int) -> SpectrumResult:
    """Lowest k levels by real part, Richardson-extrapolated, each within
    its error budget.

    Three grids are solved (N, 2N, 4N at fixed L).  The reported levels
    extrapolate the (N, 2N) pair.  :class:`InvalidParams` unless
    1 <= k <= N - 8: ARPACK finds k + 4 levels on the N grid and needs
    k + 4 < N - 3.  :class:`NumericalFailure` if a grid's operator
    overflows, or naming each level whose (2N, 4N) extrapolation moves the
    real part by d, with d plus its largest wall shift over the grids 1e-6
    or more; "the box is too small" where the wall shift exceeds d.
    """
    if not 1 <= k <= p.N - 8:
        raise InvalidParams(f"k = {k} levels need 1 <= k <= N - 8, got N = {p.N}")

    # Each grid is solved once, 2N first: on the default grid the ascending
    # order N, 2N, 4N raised peak RSS by about 4% through allocator reuse.
    grid_2n, grid_n, grid_4n = (_solve_grid(p.nu, p.L, p.N, k, m) for m in (2, 1, 4))

    def richardson(coarse, fine):
        (w1, _, h1), (w2, _, h2) = coarse, fine
        rho = (h1 / h2) ** 2
        return (rho * w2 - w1) / (rho - 1.0)

    levels = richardson(grid_n, grid_2n)
    gap = np.abs(levels.real - richardson(grid_2n, grid_4n).real)
    shift = np.max([grid[1] for grid in (grid_n, grid_2n, grid_4n)], axis=0)
    over = [i for i in range(k) if not gap[i] + shift[i] < _CONVERGENCE_ABS]
    if over:
        named = ", ".join(f"{i} ({_level(levels[i])}: wall shift {_budget_share(shift[i])},"
                          f" refinement gap {_budget_share(gap[i])})" for i in over)
        box = f"(L = {p.L}, N = {p.N})"
        cause = (f"are shifted by the walls {box}: the box is too small"
                 if any(not shift[i] <= gap[i] for i in over)
                 else f"did not converge under grid refinement {box}")
        raise NumericalFailure(f"levels {named} at nu = {p.nu} {cause}")
    return SpectrumResult(eigenvalues=levels, max_imag=float(np.abs(levels.imag).max()))
