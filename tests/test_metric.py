import numpy as np
import pytest

from ptqm.errors import (
    ComplexSpectrum,
    InvalidMetric,
    MetricNotPositive,
    NotPTSymmetric,
    SelfOrthogonalEigenvector,
)
from ptqm.linalg import EigenSystem, eig, is_self_adjoint_wrt
from ptqm.metric import (
    Metric,
    build_C,
    cpt_inner_product,
    cpt_system,
    metric_from_CPT,
    metric_from_biorthonormal,
    pt_normalize,
)
from ptqm.pt import pt_inner_product
from ptqm.two_level import (
    PARITY,
    SIGMA_1,
    SIGMA_3,
    C_closed_form,
    TwoLevelParams,
    build_H,
    eta_closed_form,
)

from conftest import pt_symmetric_system, random_valid_params

REFERENCE = TwoLevelParams(1.0, 1.0, np.pi / 6)
FLIP4 = np.eye(4)[::-1]


def columns_system(*columns):
    """EigenSystem with the given right eigenvectors; pt_normalize reads
    nothing else, so the eigenvalues and left vectors are placeholders."""
    V = np.column_stack(columns).astype(complex)
    return EigenSystem(
        eigenvalues=np.arange(V.shape[1], 0, -1.0),
        right_vectors=V,
        left_vectors=np.zeros_like(V),
    )


def model_C(p):
    es = eig(build_H(p))
    vectors, _ = pt_normalize(es, PARITY)
    return build_C(vectors)


class TestPTNormalize:
    def test_matches_closed_form_vectors(self):
        # alpha = pi/6 here: phi_+- = (e^{+-i alpha/2}, +-e^{-+i alpha/2}) / sqrt(2 cos a)
        p = REFERENCE
        a = p.alpha
        pref = 1.0 / np.sqrt(2.0 * np.cos(a))
        es = eig(build_H(p))
        vectors, signs = pt_normalize(es, PARITY)
        np.testing.assert_allclose(
            vectors[0],
            pref * np.array([np.exp(1j * a / 2), np.exp(-1j * a / 2)]),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            vectors[1],
            pref * np.array([1j * np.exp(-1j * a / 2), -1j * np.exp(1j * a / 2)]),
            atol=1e-14,
        )
        assert signs == [1, -1]

    def test_output_is_pt_invariant(self, rng):
        for _ in range(30):
            p = random_valid_params(rng)
            es = eig(build_H(p))
            vectors, _ = pt_normalize(es, PARITY)
            for phi in vectors:
                np.testing.assert_allclose(PARITY @ phi.conj(), phi, atol=1e-10)

    def test_self_orthogonal_vector_rejected(self):
        # (1, i) is exactly PT-self-orthogonal for P = sigma_1; a matrix
        # with that eigenvector is diagonalizable yet cannot be normalized
        V = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
        H = V @ np.diag([2.0, 1.0]) @ V.conj().T
        with pytest.raises(SelfOrthogonalEigenvector):
            pt_normalize(eig(H), PARITY)

    def test_broken_pt_vector_rejected(self):
        # P conj(v) is not a multiple of v; in the second case it vanishes
        # where v is largest, and in the third a zero column follows v
        v = np.array([1.0, 2.0]) / np.sqrt(5.0)
        for columns, P in (
            ((v,), SIGMA_1),
            ((np.array([1.0, 2.0, 0.0, 0.5]),), FLIP4),
            ((v, np.zeros(2)), SIGMA_1),
        ):
            with pytest.raises(NotPTSymmetric, match="^eigenvector 0 "):
                pt_normalize(columns_system(*columns), P)

    def test_first_broken_column_is_named(self):
        # columns 0, 1 and 3 are PT-invariant under the flip parity
        system = columns_system(
            [1.0, 0.0, 0.0, 1.0],
            [1j, 0.0, 0.0, -1j],
            [1.0, 2.0, 0.3, 0.1],
            [0.0, 1.0, 1.0, 0.0],
        )
        with pytest.raises(NotPTSymmetric, match="^eigenvector 2 "):
            pt_normalize(system, FLIP4)

    def test_sign_tie_break(self):
        # v is PT-invariant with self-product 0.5; its first largest
        # component 1 - i has Re c + Im c = 0, so the sign follows Re c > 0
        v = np.array([1 - 1j, 0.5, 0.5, 1 + 1j])
        vectors, signs = pt_normalize(columns_system(-v), FLIP4)
        np.testing.assert_allclose(vectors[0], v / np.sqrt(0.5), rtol=0, atol=1e-15)
        assert signs == [1]

    def test_matches_pt_inner_product_at_n64(self, rng):
        H, P, *_ = pt_symmetric_system(64, rng)
        vectors, signs = pt_normalize(eig(H), P)
        assert sorted(set(signs)) == [-1, 1]
        for phi, sign in zip(vectors, signs):
            np.testing.assert_allclose(P @ phi.conj(), phi, rtol=0, atol=1e-10)
            assert abs(pt_inner_product(P, phi, phi) - sign) < 1e-10

    def test_zero_or_nan_column_rejected(self):
        good = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for columns, name in (
            ((np.zeros(2),), "eigenvector 0"),
            ((good, np.zeros(2)), "eigenvector 1"),
            ((np.array([np.nan, 1.0]),), "eigenvector 0"),
        ):
            with pytest.raises(SelfOrthogonalEigenvector, match=f"^{name} "):
                pt_normalize(columns_system(*columns), SIGMA_1)


class TestBuildC:
    def test_closed_form(self, rng):
        for _ in range(30):
            p = random_valid_params(rng)
            np.testing.assert_allclose(
                model_C(p), C_closed_form(p), atol=1e-10
            )

    def test_reference_value(self):
        # sec(pi/6) = 2/sqrt(3), tan(pi/6) = 1/sqrt(3)
        sec, tan = 2.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)
        np.testing.assert_allclose(
            model_C(REFERENCE),
            np.array([[1j * tan, sec], [sec, -1j * tan]]),
            atol=1e-13,
        )

    def test_squares_to_identity(self, rng):
        for _ in range(20):
            C = model_C(random_valid_params(rng))
            np.testing.assert_allclose(C @ C, np.eye(2), atol=1e-10)

    def test_commutes_with_H(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            H, C = build_H(p), model_C(p)
            np.testing.assert_allclose(C @ H, H @ C, atol=1e-10)


class TestMetricFromCPT:
    def test_closed_form(self, rng):
        for _ in range(30):
            p = random_valid_params(rng)
            metric = metric_from_CPT(model_C(p), PARITY)
            np.testing.assert_allclose(metric.eta, eta_closed_form(p), atol=1e-10)

    def test_reference_eigenvalues(self):
        metric = metric_from_CPT(model_C(REFERENCE), PARITY)
        w = np.sort(np.linalg.eigvalsh(metric.eta))
        np.testing.assert_allclose(
            w, [1.0 / np.sqrt(3.0), np.sqrt(3.0)], atol=1e-12
        )

    def test_H_self_adjoint_wrt_eta(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            metric = metric_from_CPT(model_C(p), PARITY)
            assert is_self_adjoint_wrt(build_H(p), metric.eta)

    def test_operator_order_matters(self):
        # C P is Hermitian too but is the metric of the wrong sign of alpha
        C = model_C(REFERENCE)
        eta_swapped = C @ PARITY
        assert not np.allclose(eta_swapped, eta_closed_form(REFERENCE), atol=1e-6)
        np.testing.assert_allclose(
            PARITY.T @ C.T, eta_closed_form(REFERENCE), atol=1e-12
        )

    def test_non_positive_rejected(self):
        with pytest.raises(MetricNotPositive):
            metric_from_CPT(SIGMA_3, np.eye(2))


class TestCPTInnerProduct:
    def test_positive_norms(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            metric = metric_from_CPT(model_C(p), PARITY)
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert cpt_inner_product(metric, psi, psi).real > 0

    def test_eigenvectors_orthonormal(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            es = eig(build_H(p))
            vectors, _ = pt_normalize(es, PARITY)
            metric = metric_from_CPT(build_C(vectors), PARITY)
            gram = np.array(
                [
                    [cpt_inner_product(metric, u, v) for v in vectors]
                    for u in vectors
                ]
            )
            np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)


class TestMetricFromBiorthonormal:
    def test_intertwines_H_with_adjoint(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            H = build_H(p)
            metric = metric_from_biorthonormal(eig(H))
            np.testing.assert_allclose(
                metric.eta @ H, H.conj().T @ metric.eta, atol=1e-9
            )

    def test_hermitian_input_gives_identity(self):
        H = np.array([[2.0, 0.5], [0.5, -1.0]])
        metric = metric_from_biorthonormal(eig(H))
        np.testing.assert_allclose(metric.eta, np.eye(2), atol=1e-12)

    def test_complex_spectrum_rejected(self):
        H = np.array([[2j, 1.0], [1.0, -2j]])  # broken region
        with pytest.raises(ComplexSpectrum):
            metric_from_biorthonormal(eig(H))


class TestMetricValidation:
    def test_rejects_indefinite(self):
        with pytest.raises(InvalidMetric):
            Metric(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidMetric):
            Metric(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_accepts_valid(self):
        m = Metric(eta_closed_form(REFERENCE))
        assert m.dim == 2


class TestCallerTolerance:
    """Positivity is decided once, at the tolerance of the building call."""

    # eigenvalue ratio 1e-11: positive at tol = 1e-12, not at tol = 1e-10
    THIN = np.diag([1.0, 1e-11])

    def test_metric_from_CPT(self):
        metric = metric_from_CPT(self.THIN, np.eye(2), tol=1e-12)
        np.testing.assert_array_equal(metric.eta, self.THIN)
        assert metric.tol == 1e-12
        with pytest.raises(
            MetricNotPositive, match="^CPT metric has non-positive eigenvalue 1.000e-11$"
        ):
            metric_from_CPT(self.THIN, np.eye(2), tol=1e-10)

    def test_metric_from_biorthonormal(self):
        # left vectors diag(1, sqrt(1e-11)) give eta_b = diag(1, 1e-11)
        es = EigenSystem(
            eigenvalues=np.array([2.0, 1.0]),
            right_vectors=np.diag([1.0, 1.0 / np.sqrt(1e-11)]),
            left_vectors=np.diag([1.0, np.sqrt(1e-11)]),
        )
        np.testing.assert_allclose(
            metric_from_biorthonormal(es, tol=1e-12).eta, self.THIN, rtol=1e-15
        )
        with pytest.raises(InvalidMetric):
            metric_from_biorthonormal(es, tol=1e-10)

    def test_metric_defaults_to_default_tol(self):
        assert Metric(self.THIN, 1e-12).dim == 2
        with pytest.raises(InvalidMetric):
            Metric(self.THIN)


class TestCptSystem:
    def test_one_hermitian_eigendecomposition(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        cpt_system(build_H(REFERENCE), PARITY)
        assert calls == ["eigh"]
