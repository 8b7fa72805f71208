import numpy as np
import pytest
import scipy.linalg

from ptqm.errors import DimensionMismatch, InvalidInput, InvalidMetric, NonDiagonalizable
from ptqm.linalg import (
    STACK_ENTRIES,
    eig,
    matrix_exponential,
    relative_gap,
    time_chunks,
)
from ptqm.two_level import SIGMA_1, SIGMA_3, TwoLevelParams, build_H

from conftest import is_self_adjoint_wrt, random_valid_params, two_level_exact


class TestEig:
    def test_diagonal_input(self):
        es = eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(es.eigenvalues, [2.0, 1.0])
        np.testing.assert_allclose(es.right_vectors, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(es.left_vectors, np.eye(2), atol=1e-14)

    def test_sigma1(self):
        es = eig(SIGMA_1)
        np.testing.assert_allclose(es.eigenvalues, [1.0, -1.0], atol=1e-14)
        inv = 1.0 / np.sqrt(2.0)
        # columns defined up to phase; compare projectors
        for n, target in enumerate([np.array([inv, inv]), np.array([inv, -inv])]):
            v = es.right_vectors[:, n]
            np.testing.assert_allclose(
                np.outer(v, v.conj()), np.outer(target, target), atol=1e-12
            )

    def test_two_level_eigenvalues(self):
        H = build_H(TwoLevelParams(1.0, 1.0, np.pi / 6))
        es = eig(H)
        np.testing.assert_allclose(
            es.eigenvalues, [np.sqrt(3.0), 0.0], atol=1e-12
        )

    def test_ordering_ties_by_imag(self):
        es = eig(np.diag([1.0 + 1.0j, 1.0 - 1.0j, 2.0]))
        np.testing.assert_allclose(es.eigenvalues, [2.0, 1.0 + 1.0j, 1.0 - 1.0j])

    def test_biorthonormality_and_reconstruction(self, rng):
        for _ in range(20):
            n = rng.integers(2, 7)
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            es = eig(M)
            gram = es.left_vectors.conj().T @ es.right_vectors
            np.testing.assert_allclose(gram, np.eye(n), atol=1e-9)
            np.testing.assert_allclose(es.reconstruct(), M, atol=1e-9)

    def test_defective_matrix_rejected(self):
        with pytest.raises(NonDiagonalizable, match="exceeds the construction bound 1.000e-10;"):
            eig(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            eig(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        # a non-finite entry is invalid input, not a shape error
        with pytest.raises(InvalidInput, match="^matrix contains non-finite entries$") as info:
            eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        assert not isinstance(info.value, DimensionMismatch)


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_pauli_identity(self):
        np.testing.assert_allclose(
            matrix_exponential(1j * np.pi * SIGMA_1 / 2), 1j * SIGMA_1, atol=1e-14
        )

    def test_self_inverse(self, rng):
        for _ in range(10):
            H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            t = rng.uniform(-3.0, 3.0)
            prod = matrix_exponential(1j * t * H) @ matrix_exponential(-1j * t * H)
            np.testing.assert_allclose(prod, np.eye(4), atol=1e-8)

    def test_commuting_factorization(self, rng):
        for _ in range(10):
            a = rng.normal(size=5) + 1j * rng.normal(size=5)
            b = rng.normal(size=5) + 1j * rng.normal(size=5)
            lhs = matrix_exponential(np.diag(a + b))
            rhs = matrix_exponential(np.diag(a)) @ matrix_exponential(np.diag(b))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * np.linalg.norm(lhs))

    def test_stack_slices_equal_scalar_calls(self, rng):
        for n in (2, 5):
            dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            times = np.concatenate([[0.0], rng.uniform(-4.0, 4.0, size=30)])
            for M in (dense, np.diag(np.diagonal(dense))):
                for ts in (times, 1j * times, -1j * times):
                    stack = matrix_exponential(M, ts)
                    assert stack.shape == (len(ts), n, n)
                    for t, E in zip(ts, stack):
                        assert np.array_equal(E, matrix_exponential(t * M))

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_diagonal_gives_the_bytes_of_scipy(self, n, rng):
        M = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
        if n > 1:
            M[1, 1] = 0.0
        assert matrix_exponential(M).tobytes() == scipy.linalg.expm(M).tobytes()
        times = np.concatenate([[0.0], rng.uniform(-4.0, 4.0, size=30)])
        for ts in (times, 1j * times, -1j * times):
            ours = matrix_exponential(M, ts)
            theirs = scipy.linalg.expm(ts[:, None, None] * M)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()

    def test_only_off_diagonal_entries_reach_scipy(self, monkeypatch):
        def refuse(A):
            raise AssertionError("scipy.linalg.expm called")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        D = np.diag([1.0, -2.0, 0.5j])
        np.testing.assert_allclose(matrix_exponential(D), np.diag(np.exp(np.diagonal(D))))
        assert matrix_exponential(D, 1j * np.arange(4.0)).shape == (4, 3, 3)
        D[0, 2] = 1e-300
        for call in (lambda: matrix_exponential(D), lambda: matrix_exponential(D, [0.5])):
            with pytest.raises(AssertionError, match="scipy.linalg.expm called"):
                call()

    def test_times_must_be_one_dimensional(self):
        with pytest.raises(DimensionMismatch):
            matrix_exponential(np.eye(2), np.zeros((2, 2)))


class TestRelativeGap:
    def pairs(self, rng, n, T=12):
        X = rng.normal(size=(T, n, n)) + 1j * rng.normal(size=(T, n, n))
        Y = X + 1e-9 * rng.normal(size=(T, n, n))
        X[1], Y[1] = 2.0**600 * X[1], 2.0**600 * Y[1]  # norms overflow
        X[2], Y[2] = 2.0**-600 * X[2], 2.0**-600 * Y[2]  # norms underflow to 0
        X[3], Y[3] = 0.0, 0.0
        X[4, 0, 0] = np.nan
        return X, Y

    def test_stack_slices_equal_single_calls_bit_for_bit(self, rng):
        for n in (2, 5, 16):
            X, Y = self.pairs(rng, n)
            gaps = relative_gap(X, Y)
            assert gaps.shape == (len(X),)
            single = np.array([relative_gap(x, y) for x, y in zip(X, Y)])
            assert gaps.tobytes() == single.tobytes()

    def test_power_of_two_scaling_is_exact(self, rng):
        X, Y = self.pairs(rng, 3)
        for x, y in zip(X[5:], Y[5:]):
            gap = relative_gap(x, y)
            assert gap == np.linalg.norm(x - y) / np.linalg.norm(x)
            assert 0 < gap < 1e-8
            for c in (2.0**-600, 2.0**600):
                assert relative_gap(c * x, c * y) == gap

    def test_nan_fails_the_test(self, rng):
        X, Y = self.pairs(rng, 2)
        assert not relative_gap(X[4], Y[4]) <= 1e-6
        assert not relative_gap(Y[4], X[4]) <= 1e-6
        assert (relative_gap(X, Y) <= 1e-6).tolist() == [i != 4 for i in range(len(X))]

    def test_zero_reference(self):
        zero, one = np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)
        assert relative_gap(zero, zero) == 0.0
        assert relative_gap(zero, one) == np.inf
        assert relative_gap(one, zero) == 1.0
        assert relative_gap(np.stack([zero, zero]), np.stack([zero, one])).tolist() == [
            0.0, np.inf]


class TestTimeChunks:
    def test_chunks_cover_times_in_order_within_budget(self):
        times = np.linspace(0.0, 1.0, 2000)
        for n, size in ((2, 2000), (64, 16), (256, 1), (300, 1)):
            chunks = list(time_chunks(times, n))
            assert np.array_equal(np.concatenate(chunks), times)
            assert max(len(c) for c in chunks) == size
            assert size == 1 or size * n * n <= STACK_ENTRIES

    def test_partial_last_chunk(self):
        chunks = list(time_chunks(np.arange(37.0), 64))
        assert [len(c) for c in chunks] == [16, 16, 5]


class TestSelfAdjointWrt:
    def test_euclidean_metric(self):
        assert is_self_adjoint_wrt(SIGMA_3, np.eye(2))

    def test_two_level_not_euclidean_hermitian(self):
        H = build_H(TwoLevelParams(1.0, 1.0, np.pi / 6))
        assert not is_self_adjoint_wrt(H, np.eye(2))

    def test_two_level_cpt_metric(self):
        p = TwoLevelParams(1.0, 1.0, np.pi / 6)
        assert is_self_adjoint_wrt(build_H(p), two_level_exact(p)[1])

    def test_agrees_with_entrywise_hermiticity(self, rng):
        for _ in range(20):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            entrywise = np.allclose(A, A.conj().T, atol=1e-12)
            assert is_self_adjoint_wrt(A, np.eye(3)) == entrywise

    def test_invalid_metric_rejected(self):
        with pytest.raises(InvalidMetric):
            is_self_adjoint_wrt(SIGMA_3, np.diag([1.0, -1.0]))


def test_closed_form_matches_solver_across_params(rng):
    from ptqm.two_level import eigenvalues_closed_form

    for _ in range(100):
        p = random_valid_params(rng)
        es = eig(build_H(p))
        ep, em = eigenvalues_closed_form(p)
        np.testing.assert_allclose(es.eigenvalues, [ep, em], atol=1e-12)
