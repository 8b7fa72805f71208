import numpy as np
import pytest
import scipy.linalg

from ptqm import spectral
from ptqm.errors import InvalidParams, NumericalFailure, OutOfRegime
from ptqm.spectral import SpectralProblem, spectrum

# Ground-state energy for nu = 1 from an independent sine-basis Galerkin
# computation (250 modes on [-12, 12], trapezoid quadrature), converged to
# ~1e-8 against mode count.  Agrees with published values to 1e-7.
GALERKIN_E0_NU1 = 1.15626707
# The same level from this solver on a finer grid (L = 10, N = 4000), where
# it is stable to ~1e-12 against L and N.
E0_NU1 = 1.1562670719881
# Lowest levels at nu = 2 from quartic_oracle_levels (E3 = 18.45881870).
QUARTIC_LEVELS = [1.4771498, 6.0033861, 11.8024336, 18.4588187]


def galerkin_levels(nu, k, L=12.0, M=250, quad=6001):
    """Independent oracle: Galerkin projection onto a Dirichlet sine basis."""
    xq = np.linspace(-L, L, quad)
    wq = np.full(quad, xq[1] - xq[0])
    wq[0] = wq[-1] = 0.5 * wq[0]
    n = np.arange(1, M + 1)
    # basis_m(x) = sin(m pi (x + L) / (2 L)) / sqrt(L), orthonormal
    B = np.sin(np.outer(n, np.pi * (xq + L) / (2.0 * L))) / np.sqrt(L)
    V = xq**2 * (1j * xq) ** nu
    kinetic = np.diag((n * np.pi / (2.0 * L)) ** 2).astype(complex)
    W = (B * (V * wq)) @ B.T
    w = np.linalg.eigvals(kinetic + W)
    w = w[np.argsort(w.real)]
    return w[:k]


def quartic_oracle_levels(k, L=5.0, N=2000):
    """Independent oracle for nu = 2: -x^4 on the contour is isospectral to
    the Hermitian p^2 + 4 x^4 - 2 x on the real line (Buslaev-Grecchi;
    Jones-Mateo, PRD 73, 085002 (2006)).  Real tridiagonal eigh on N and
    2N points of [-L, L], Richardson-extrapolated."""
    grids = []
    for n in (N, 2 * N):
        x, h = np.linspace(-L, L, n, retstep=True)
        x = x[1:-1]
        w = scipy.linalg.eigh_tridiagonal(
            2.0 / h**2 + 4.0 * x**4 - 2.0 * x,
            np.full(n - 3, -1.0 / h**2),
            select="i",
            select_range=(0, k - 1),
            eigvals_only=True,
        )
        grids.append((w, h))
    (w1, h1), (w2, h2) = grids
    rho = (h1 / h2) ** 2
    return (rho * w2 - w1) / (rho - 1.0)


def richardson_grid_levels(nu, L, N, k):
    """The private grid solver on N and 2N points, Richardson-extrapolated."""
    (w1, _, h1), (w2, _, h2) = (spectral._solve_grid(nu, L, N, k, m) for m in (1, 2))
    rho = (h1 / h2) ** 2
    return (rho * w2 - w1) / (rho - 1.0)


class TestProblemValidation:
    def test_nu_out_of_range(self):
        for nu in (-0.1, 2.0, 3.5):
            with pytest.raises(OutOfRegime, match="where the contour solver is validated$"):
                SpectralProblem(nu)

    def test_bad_grid(self):
        with pytest.raises(InvalidParams):
            SpectralProblem(1.0, N=2)
        for L in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParams):
                SpectralProblem(1.0, L=L)

    def test_bad_k(self):
        p = SpectralProblem(0.0, N=400)
        with pytest.raises(InvalidParams):
            spectrum(p, 0)
        # ARPACK finds k + 4 levels on the N grid and needs k + 4 < N - 3
        for k in range(1, 11):
            for N in range(k + 2, k + 8):
                with pytest.raises(InvalidParams, match=rf"^k = {k} .* N = {N}$"):
                    spectrum(SpectralProblem(1.0, N=N), k)


class TestPotential:
    def test_harmonic_limit(self):
        x = np.linspace(-3.0, 3.0, 11)
        np.testing.assert_allclose(spectral._potential(x, 0.0), x**2)

    def test_cubic_values(self):
        # nu = 1: V = i x^3
        assert spectral._potential(2.0, 1.0) == pytest.approx(8.0j)
        assert spectral._potential(-2.0, 1.0) == pytest.approx(-8.0j)

    def test_pt_symmetry_of_potential(self):
        x = np.linspace(0.1, 4.0, 25)
        for nu in (0.5, 1.0, 1.7):
            np.testing.assert_allclose(
                spectral._potential(-x, nu), np.conj(spectral._potential(x, nu)), atol=1e-14
            )


class TestDiscretize:
    def test_shape_and_symmetry(self):
        M = spectral._operator(1.0, 5.0, 50)[0].toarray()
        assert M.shape == (48, 48)
        np.testing.assert_allclose(M, M.T)
        assert not np.allclose(M, M.conj().T)

    def test_harmonic_case_hermitian(self):
        M = spectral._operator(0.0, 5.0, 50)[0].toarray()
        np.testing.assert_allclose(M, M.conj().T)


class TestSpectrum:
    def test_harmonic_oscillator_levels(self):
        res = spectrum(SpectralProblem(0.0, L=10.0, N=1500), 5)
        np.testing.assert_allclose(
            res.eigenvalues.real, [1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-7
        )
        assert res.max_imag < 1e-9
        assert res.converged

    def test_cubic_ground_state_vs_galerkin(self):
        res = spectrum(SpectralProblem(1.0, L=12.0, N=2000), 1)
        assert res.eigenvalues[0].real == pytest.approx(GALERKIN_E0_NU1, abs=1e-6)
        oracle = galerkin_levels(1.0, 1)
        assert oracle[0].real == pytest.approx(GALERKIN_E0_NU1, abs=1e-6)

    def test_cubic_low_levels_vs_galerkin(self):
        res = spectrum(SpectralProblem(1.0, L=12.0, N=2000), 3)
        oracle = galerkin_levels(1.0, 3)
        np.testing.assert_allclose(
            res.eigenvalues.real, oracle.real, atol=1e-4
        )

    def test_reality_holds_in_regime(self):
        # real, positive and separated, from levels converged under refinement
        for nu in (0.5, 1.0):
            res = spectrum(SpectralProblem(nu, L=12.0, N=1200), 4)
            assert res.max_imag < 1e-6
            assert res.eigenvalues.real.min() > 0.0
            assert np.diff(res.eigenvalues.real).min() > 1e-6

    def test_reality_refused_when_unconverged(self):
        # too coarse to converge, although the levels look real
        levels, _, _ = spectral._solve_grid(1.0, 12.0, 100, 3, 1)
        assert np.abs(levels.imag).max() < 1e-6
        with pytest.raises(NumericalFailure, match="did not converge"):
            spectrum(SpectralProblem(1.0, L=12.0, N=100), 3)

    def test_one_solver_on_a_small_grid(self, monkeypatch):
        # ARPACK shift-invert on every grid; the lowest k levels of a dense
        # eig of the same operator are the oracle
        import scipy.sparse.linalg as spla

        calls = []

        def counting(name, solve):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)
            return wrapper

        nu, L, N, k = 1.0, 8.0, 100, 3
        monkeypatch.setattr(spla, "eigs", counting("eigs", spla.eigs))
        monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
        levels, _, _ = spectral._solve_grid(nu, L, N, k, 1)
        assert calls == ["eigs"]
        monkeypatch.undo()

        w = np.linalg.eigvals(spectral._operator(nu, L, N)[0].toarray())
        oracle = w[np.argsort(w.real)][:k]
        np.testing.assert_allclose(levels, oracle, rtol=0, atol=1e-10)

    def test_each_grid_solved_once(self, monkeypatch):
        sizes = []
        solve = spectral._solve_grid

        def counting(nu, L, N, k, refinement):
            sizes.append(refinement * N)
            return solve(nu, L, N, k, refinement)

        monkeypatch.setattr(spectral, "_solve_grid", counting)
        spectrum(SpectralProblem(1.0, L=8.0, N=300), 2)
        assert sorted(sizes) == [300, 600, 1200]

    def test_spectrum_rises_with_nu(self):
        # ground state grows monotonically with the exponent
        e = [
            spectrum(SpectralProblem(nu, L=12.0, N=1200), 1).eigenvalues[0].real
            for nu in (0.0, 0.5, 1.0)
        ]
        assert e[0] < e[1] < e[2]


class TestContour:
    def test_default_grid_accuracy_floor(self):
        res = spectrum(SpectralProblem(0.0), 5)
        exact = [1.0, 3.0, 5.0, 7.0, 9.0]
        assert abs(res.eigenvalues[0] - 1.0) < 1e-8
        np.testing.assert_allclose(res.eigenvalues, exact, rtol=0, atol=1e-7)
        e0 = spectrum(SpectralProblem(1.0), 1).eigenvalues[0]
        assert abs(e0 - E0_NU1) < 1e-7

    def test_nu_2_matches_hermitian_quartic_oracle(self):
        # SpectralProblem still refuses nu = 2, so the grid solver is
        # called directly on the default box
        oracle = quartic_oracle_levels(4)
        np.testing.assert_allclose(oracle, QUARTIC_LEVELS, rtol=0, atol=1e-6)
        levels = richardson_grid_levels(2.0, 8.0, 1000, 4)
        assert len(levels) == 4
        np.testing.assert_allclose(levels, oracle, rtol=0, atol=1e-6)

    def test_converged_or_refused_up_to_nu_2(self):
        # each nu either converges with real levels or is refused; the
        # ground states that converge rise towards the nu = 2 value
        ground = {}
        for nu in list(np.linspace(0.0, 1.9, 18)) + [1.99, 1.9999]:
            try:
                res = spectrum(SpectralProblem(nu), 5)
            except NumericalFailure:
                continue
            assert res.max_imag < 1e-9, nu
            ground[nu] = res.eigenvalues[0].real
        e0 = np.array(list(ground.values()))
        assert np.all(np.diff(e0) > 0) and e0.max() < QUARTIC_LEVELS[0]
        assert ground[1.9999] == pytest.approx(QUARTIC_LEVELS[0], abs=4e-5)


class TestBoxTooSmall:
    """A box too small for k levels is refused, not reported as converged:
    grid refinement at fixed L cannot see the wall's shift of the levels,
    so each level's budget adds the Hadamard estimate of that shift."""

    MESSAGE = (r"^levels 0 \(.*\) at nu = {nu} are shifted by the walls"
               r" \(L = {L}, N = 1000\): the box is too small$")

    def test_accepted_levels_agree_with_default_box(self):
        refused = {}
        for nu in (0.0, 0.5, 1.0, 1.7):
            reference = spectrum(SpectralProblem(nu), 5).eigenvalues
            for L in (2.0, 3.0, 4.0, 5.0, 6.0):
                try:
                    res = spectrum(SpectralProblem(nu, L=L), 5)
                except NumericalFailure as exc:
                    assert "the box is too small" in str(exc), (nu, L)
                    refused[nu, L] = True
                    continue
                refused[nu, L] = False
                np.testing.assert_allclose(
                    res.eigenvalues, reference, rtol=0, atol=1e-6,
                    err_msg=f"nu = {nu}, L = {L}",
                )
        # every nu is refused at L = 2 and a wider box never turns a level bad
        for nu in (0.0, 0.5, 1.0, 1.7):
            row = [refused[nu, L] for L in (2.0, 3.0, 4.0, 5.0, 6.0)]
            assert row[0] and row == sorted(row, reverse=True), (nu, row)
        assert not all(refused.values())

    def test_short_answer_refused(self):
        # the walls shift E0 ... E4 by 7.8e-4 ... 1.3
        with pytest.raises(NumericalFailure, match=self.MESSAGE.format(nu="0.0", L="3.0")):
            spectrum(SpectralProblem(0.0, L=3.0), 5)

    def test_shifted_levels_refused(self):
        # the wall shifts E0 by 3.0e-6 and E4 by 2.5e-2
        with pytest.raises(NumericalFailure, match=self.MESSAGE.format(nu="1.0", L="3.0")):
            spectrum(SpectralProblem(1.0, L=3.0), 5)

    @pytest.mark.parametrize("k", [12, 15])
    def test_high_harmonic_levels_on_default_box(self, k):
        # E11 and E14 carry a wall shift of 3.5e-12 and 1.6e-9 here
        res = spectrum(SpectralProblem(0.0), k)
        np.testing.assert_allclose(res.eigenvalues, 2.0 * np.arange(k) + 1.0, rtol=0, atol=1e-6)

    def test_wall_shift_beyond_refinement_gap_refused(self):
        # E9 converges under refinement but sits 3.5e-6 above its value in
        # a wider box; the wall shift names it
        with pytest.raises(NumericalFailure, match=(
            r"^levels 9 \(43\.9713: wall shift 4\.\de-06, refinement gap \d\.\de-0\d\)"
            r" at nu = 1\.2438 are shifted by the walls \(L = 4\.0, N = 1000\):"
            r" the box is too small$"
        )):
            spectrum(SpectralProblem(1.2438, L=4.0), 10)

    @pytest.mark.parametrize("nu, L, level", [
        (0.0, 3.0, 0), (0.0, 4.0, 4), (0.5, 4.0, 3), (1.0, 3.0, 0), (1.0, 3.0, 3),
    ])
    def test_wall_shift_matches_wider_box(self, nu, L, level):
        # the same grid spacing 2L / 1000 on a box 1.5 times wider
        w, shift, _ = spectral._solve_grid(nu, L, 1001, level + 1, 1)
        wide, _, _ = spectral._solve_grid(nu, 1.5 * L, 1501, level + 1, 1)
        assert shift[level] == pytest.approx(abs(w[level] - wide[level]), rel=0.1)
