import numpy as np
import pytest

from ptqm.linalg import EigenSystem, eig
from ptqm.metric import pt_normalize
from ptqm.two_level import SIGMA_1, TwoLevelParams, build_H

from conftest import pt_inner_product, random_valid_params


class TestPTInnerProduct:
    def test_positive_witness(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert pt_inner_product(SIGMA_1, v, v) == pytest.approx(1.0)

    def test_negative_witness(self):
        v = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert pt_inner_product(SIGMA_1, v, v) == pytest.approx(-1.0)

    def test_eigenvector_orthogonality(self):
        H = build_H(TwoLevelParams(1.0, 1.0, np.pi / 6))
        es = eig(H)
        prod = pt_inner_product(
            SIGMA_1, es.right_vectors[:, 0], es.right_vectors[:, 1]
        )
        assert abs(prod) < 1e-12

    def test_linear_in_second_argument(self, rng):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = 0.7 - 0.2j, -1.1 + 0.5j
        lhs = pt_inner_product(SIGMA_1, psi, a * phi1 + b * phi2)
        rhs = a * pt_inner_product(SIGMA_1, psi, phi1) + b * pt_inner_product(
            SIGMA_1, psi, phi2
        )
        assert lhs == pytest.approx(rhs)


class TestRephase:
    def test_noisy_pt_invariant_vector_is_recovered(self):
        # P conj(v) = v for v = w + P conj(w) under the flip parity; a
        # global phase and 1e-9 noise must still PT-normalize to a
        # PT-invariant vector, rescaled but with its magnitudes' shape kept
        P = np.eye(4)[::-1]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = rng.normal(size=4) + 1j * rng.normal(size=4)
            v = (w + P @ w.conj()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            v = v + 1e-9 * (rng.normal(size=4) + 1j * rng.normal(size=4))
            es = EigenSystem(
                eigenvalues=np.ones(1), right_vectors=v[:, None], left_vectors=v[:, None]
            )
            Phi, _ = pt_normalize(es, P)
            out = Phi[:, 0]
            assert np.linalg.norm(P @ out.conj() - out) < 1e-8 * np.linalg.norm(out)
            np.testing.assert_allclose(
                np.abs(out) * np.linalg.norm(v), np.abs(v) * np.linalg.norm(out)
            )


def test_pt_normalized_self_products_have_opposite_signs(rng):
    for _ in range(50):
        p = random_valid_params(rng)
        es = eig(build_H(p))
        _, signs = pt_normalize(es, SIGMA_1)
        assert sorted(signs) == [-1, 1]
