import numpy as np
import pytest

from ptqm.errors import InvalidParams
from ptqm.linalg import eig
from ptqm.metric import cpt_system
from ptqm.two_level import (
    PARITY,
    SIGMA_0,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    S_mu,
    TwoLevelParams,
    U_printed,
    bender_return_period,
    build_H,
    eigenvalues_closed_form,
)

from conftest import bender_family, is_self_adjoint_wrt, random_valid_params, two_level_exact

REFERENCE = TwoLevelParams(1.0, 1.0, np.pi / 6)


class TestParams:
    def test_alpha_reference(self):
        assert REFERENCE.alpha == pytest.approx(np.pi / 6)

    def test_zero_s_rejected(self):
        with pytest.raises(InvalidParams):
            TwoLevelParams(1.0, 0.0, 0.3)

    def test_negative_s_normalized(self):
        p = TwoLevelParams(1.0, -1.0, np.pi / 6)
        assert p.s == 1.0

    def test_exceptional_point_rejected(self):
        with pytest.raises(InvalidParams):
            TwoLevelParams(1.0, 1.0, np.pi / 2)

    def test_broken_region_rejected(self):
        with pytest.raises(InvalidParams):
            TwoLevelParams(2.0, 1.0, np.pi / 2)

    def test_non_finite_rejected(self):
        # nan slips past |r sin(theta)/s| >= 1 and gives alpha = nan
        for args in ((np.nan, 1.0, 0.0), (1.0, np.inf, 0.0), (1.0, 1.0, np.inf)):
            with pytest.raises(InvalidParams, match="^r, s and theta must be finite$"):
                TwoLevelParams(*args)


class TestClosedForms:
    def test_reference_eigenvalues(self):
        # r cos(theta) = sqrt(3)/2, s cos(alpha) = sqrt(3)/2
        ep, em = eigenvalues_closed_form(REFERENCE)
        assert ep == pytest.approx(np.sqrt(3.0))
        assert em == pytest.approx(0.0, abs=1e-15)

    def test_H_is_traceful_pt_symmetric(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            H = build_H(p)
            np.testing.assert_allclose(PARITY @ H.conj() @ PARITY, H, atol=1e-14)
            assert np.trace(H) == pytest.approx(2.0 * p.r * np.cos(p.theta))

    def test_hermitian_limit(self):
        # theta = 0 gives an ordinary real symmetric matrix: alpha = 0,
        # and the C and eta built from it are P and the identity
        _, C, metric = cpt_system(build_H(TwoLevelParams(1.3, 0.7, 0.0)), PARITY)
        np.testing.assert_allclose(C, PARITY, atol=1e-15)
        np.testing.assert_allclose(metric.eta, SIGMA_0, atol=1e-15)

    def test_eta_self_adjointness(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            assert is_self_adjoint_wrt(build_H(p), two_level_exact(p)[1])

    def test_h_matches_spectrum(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            np.testing.assert_allclose(
                np.diag(two_level_exact(p)[2]),
                eig(build_H(p)).eigenvalues.real,
                atol=1e-12,
            )


class TestObservables:
    def test_su2_commutators(self, rng):
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
        eps[2, 1, 0] = eps[0, 2, 1] = eps[1, 0, 2] = -1.0
        for _ in range(10):
            p = random_valid_params(rng)
            S = [S_mu(p, mu) for mu in range(4)]
            for i in range(1, 4):
                for j in range(1, 4):
                    comm = S[i] @ S[j] - S[j] @ S[i]
                    target = sum(
                        1j * eps[i - 1, j - 1, k - 1] * S[k] for k in range(1, 4)
                    )
                    np.testing.assert_allclose(comm, target, atol=1e-12)

    def test_casimir(self, rng):
        for _ in range(10):
            p = random_valid_params(rng)
            total = sum(S_mu(p, k) @ S_mu(p, k) for k in range(1, 4))
            np.testing.assert_allclose(total, 0.75 * SIGMA_0, atol=1e-12)

    def test_S3_is_half_C(self, rng):
        for _ in range(10):
            p = random_valid_params(rng)
            np.testing.assert_allclose(S_mu(p, 3), 0.5 * two_level_exact(p)[0], atol=1e-14)

    def test_eta_self_adjoint(self, rng):
        for _ in range(10):
            p = random_valid_params(rng)
            eta = two_level_exact(p)[1]
            for mu in range(4):
                assert is_self_adjoint_wrt(S_mu(p, mu), eta)

    def test_bad_index(self):
        with pytest.raises(IndexError):
            S_mu(REFERENCE, 4)

    def test_bender_family_contains_S2_S3(self, rng):
        # invert the (b, c) -> (sigma_1, sigma_3) coefficient map and check
        # S_2 and S_3 come out with real coordinates
        for _ in range(10):
            p = random_valid_params(rng)
            M = np.array(
                [
                    [1.0, -1j * np.sin(p.alpha)],
                    [1j * np.sin(p.alpha), 1.0],
                ]
            )
            for mu in (2, 3):
                S = S_mu(p, mu)
                coef1 = 0.5 * np.trace(SIGMA_1 @ S)
                coef3 = 0.5 * np.trace(SIGMA_3 @ S)
                bc = np.linalg.solve(M, [coef1, coef3])
                assert np.abs(bc.imag).max() < 1e-12
                np.testing.assert_allclose(
                    bender_family(p, 0.0, bc[0].real, bc[1].real), S, atol=1e-12
                )

    def test_S1_outside_bender_family(self, rng):
        # sigma_2 has no representation with real a, b, c
        for _ in range(10):
            p = random_valid_params(rng)
            S = S_mu(p, 1)
            coef1 = 0.5 * np.trace(SIGMA_1 @ S)
            coef3 = 0.5 * np.trace(SIGMA_3 @ S)
            coef2 = 0.5 * np.trace(SIGMA_2 @ S)
            assert abs(coef2) > 0.4  # sigma_2 content cannot be produced
            assert abs(coef1) < 1e-14 and abs(coef3) < 1e-14


class TestPrintedMap:
    def test_reference_residual(self):
        # the verbatim matrix fails U^dagger U = eta by a finite amount
        U = U_printed(REFERENCE)
        resid = np.linalg.norm(
            U.conj().T @ U - two_level_exact(REFERENCE)[1], ord="fro"
        )
        assert resid == pytest.approx(0.4226, abs=5e-4)

    def test_residual_vanishes_at_alpha_zero(self):
        p = TwoLevelParams(1.0, 1.0, 0.0)
        U = U_printed(p)
        np.testing.assert_allclose(U.conj().T @ U, SIGMA_0, atol=1e-12)


def test_return_period_reference():
    # s cos(alpha) = sqrt(3)/2 at the reference point
    assert bender_return_period(REFERENCE) == pytest.approx(np.pi / np.sqrt(3.0))
