import warnings

import numpy as np
import pytest

from ptqm.equivalence import build_equivalence_pt
from ptqm.errors import (
    ComplexSpectrum,
    DimensionMismatch,
    IllConditioned,
    InvalidMetric,
    MetricNotPositive,
    NotPTSymmetric,
    SelfOrthogonalEigenvector,
)
from ptqm.linalg import EigenSystem, eig
from ptqm.metric import (
    Metric,
    build_C,
    cpt_system,
    metric_from_CPT,
    metric_from_biorthonormal,
    pt_normalize,
)
from ptqm.two_level import (
    PARITY,
    SIGMA_1,
    SIGMA_3,
    TwoLevelParams,
    build_H,
)

from conftest import (
    cpt_inner_product,
    is_self_adjoint_wrt,
    oracles,
    pt_inner_product,
    random_valid_params,
    two_level_exact,
)

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


def near_ep_params(rng):
    """s = 1, theta = pi/6 and r = 2(1 - d), with d = 1 - |r sin(theta)/s|
    log-uniform in 1e-12 ... 1e-1."""
    d = 10.0 ** rng.uniform(-12.0, -1.0)
    return TwoLevelParams(2.0 * (1.0 - d), 1.0, np.pi / 6)


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
        Phi, signs = pt_normalize(es, PARITY)
        np.testing.assert_allclose(
            Phi[:, 0],
            pref * np.array([np.exp(1j * a / 2), np.exp(-1j * a / 2)]),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            Phi[:, 1],
            pref * np.array([1j * np.exp(-1j * a / 2), -1j * np.exp(1j * a / 2)]),
            atol=1e-14,
        )
        assert signs == [1, -1]

    def test_output_is_pt_invariant(self, rng):
        for _ in range(30):
            p = random_valid_params(rng)
            es = eig(build_H(p))
            Phi, _ = pt_normalize(es, PARITY)
            for phi in Phi.T:
                np.testing.assert_allclose(PARITY @ phi.conj(), phi, atol=1e-10)

    def test_returns_matrix_of_pt_invariant_columns(self, rng):
        v = np.array([1 - 1j, 0.5, 0.5, 1 + 1j])
        large = oracles.LargeN(64, rng)
        for es, P, shape in (
            (eig(build_H(REFERENCE)), PARITY, (2, 2)),
            (columns_system(v), FLIP4, (4, 1)),
            (eig(large.H), large.P, (64, 64)),
        ):
            Phi, _ = pt_normalize(es, P)
            assert isinstance(Phi, np.ndarray) and Phi.shape == shape
            np.testing.assert_allclose(P @ Phi.conj(), Phi, rtol=0, atol=1e-10)

    def test_parity_of_wrong_size_rejected(self):
        H = build_H(REFERENCE)
        for build in (lambda P: pt_normalize(eig(H), P), lambda P: cpt_system(H, P),
                      lambda P: build_equivalence_pt(H, P)):
            with pytest.raises(
                DimensionMismatch, match=r"^parity must be 2 x 2, got shape \(3, 3\)$"
            ):
                build(np.eye(3))

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
        Phi, signs = pt_normalize(columns_system(-v), FLIP4)
        np.testing.assert_allclose(Phi[:, 0], v / np.sqrt(0.5), rtol=0, atol=1e-15)
        assert signs == [1]

    def test_matches_pt_inner_product_at_n64(self, rng):
        large = oracles.LargeN(64, rng)
        H, P = large.H, large.P
        Phi, signs = pt_normalize(eig(H), P)
        assert sorted(set(signs)) == [-1, 1]
        for phi, sign in zip(Phi.T, signs):
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

    def test_non_finite_column_rejected_without_warning(self):
        good = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for columns, name in (
            ((np.array([np.inf, 1.0]),), "eigenvector 0"),
            ((good, np.array([1.0, -np.inf])), "eigenvector 1"),
            ((np.array([np.inf, np.nan]), good), "eigenvector 0"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SelfOrthogonalEigenvector, match=f"^{name} "):
                    pt_normalize(columns_system(*columns), SIGMA_1)


class TestBuildC:
    def test_closed_form(self, rng):
        for _ in range(30):
            p = random_valid_params(rng)
            np.testing.assert_allclose(
                model_C(p), two_level_exact(p)[0], atol=1e-10
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

    def test_equals_per_column_sum_bit_for_bit(self, rng):
        # the two-level goldens print the last bits of this sum order
        draws = [random_valid_params(rng) for _ in range(200)]
        draws += [near_ep_params(rng) for _ in range(50)]
        for p in draws:
            Phi, _ = pt_normalize(eig(build_H(p)), PARITY)
            reference = np.zeros((2, 2), dtype=complex)
            for j in range(Phi.shape[1]):
                reference += np.outer(Phi[:, j], Phi[:, j])
            # byte equality also tells -0.0 from 0.0
            assert build_C(Phi).tobytes() == reference.tobytes()

    def test_columns_of_a_subspace(self, rng):
        # phi_m^T phi_n = sign_n delta_mn, so C_k = sum_{n < k} phi_n phi_n^T
        # acts as the sign on the k columns it is built from and as 0 on the rest
        large = oracles.LargeN(64, rng)
        Phi, signs = pt_normalize(eig(large.H), large.P)
        k = 6
        C_k = build_C(Phi[:, :k])
        assert C_k.shape == (64, 64)
        expected = np.zeros_like(Phi)
        expected[:, :k] = Phi[:, :k] * signs[:k]
        np.testing.assert_allclose(C_k @ Phi, expected, rtol=0, atol=1e-9)

    def test_rejects_empty_or_one_dimensional(self):
        for Phi in (np.zeros((2, 0)), np.ones(2)):
            with pytest.raises(DimensionMismatch):
                build_C(Phi)


class TestMetricFromCPT:
    def test_closed_form(self, rng):
        for _ in range(30):
            p = random_valid_params(rng)
            metric = metric_from_CPT(model_C(p), PARITY)
            np.testing.assert_allclose(metric.eta, two_level_exact(p)[1], atol=1e-10)

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
        eta = two_level_exact(REFERENCE)[1]
        assert not np.allclose(eta_swapped, eta, atol=1e-6)
        np.testing.assert_allclose(PARITY.T @ C.T, eta, atol=1e-12)

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
            Phi, _ = pt_normalize(es, PARITY)
            metric = metric_from_CPT(build_C(Phi), PARITY)
            gram = np.array(
                [
                    [cpt_inner_product(metric, u, v) for v in Phi.T]
                    for u in Phi.T
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

    def test_equals_cpt_metric(self, rng):
        # a C-free cross-check of P^T C^T: eta_b from the left vectors of
        # the PT-normalized Phi (eig's own vectors are scaled differently)
        systems = [(build_H(REFERENCE), PARITY)]
        systems += [(large.H, large.P) for large in (oracles.LargeN(n, rng) for n in (8, 64))]
        for H, P in systems:
            es = eig(H)
            Phi, _ = pt_normalize(es, P)
            eta_b = metric_from_biorthonormal(
                EigenSystem(es.eigenvalues, Phi, np.linalg.inv(Phi).conj().T)
            ).eta
            eta = metric_from_CPT(build_C(Phi), P).eta
            assert np.linalg.norm(eta_b - eta) <= 1e-12 * np.linalg.norm(eta), len(H)

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
        m = Metric(two_level_exact(REFERENCE)[1])
        assert m.dim == 2


class TestMetricScale:
    """Metric validation answers the same for eta and c eta at any scale."""

    ETA = np.array([[2.0, -0.5j], [0.5j, 1.0]])

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_valid_metric_accepted(self, c):
        m = Metric(c * self.ETA)
        np.testing.assert_allclose(m.eigenvalues, c * np.linalg.eigvalsh(self.ETA), rtol=1e-14)

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_non_hermitian_rejected(self, c):
        with pytest.raises(InvalidMetric, match="not Hermitian"):
            Metric(c * (self.ETA + np.array([[0.0, 1e-6], [0.0, 0.0]])))

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_nearly_singular_rejected(self, c):
        # positive, but kappa = 1e11 exceeds the inverse of the construction bound
        match = r"kappa = 1\.000e\+11 exceeds the bound 1\.000e\+10$"
        with pytest.raises(IllConditioned, match=match):
            Metric(c * np.diag([1.0, 1e-11]))

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_singular_rejected_as_non_positive(self, c):
        with pytest.raises(InvalidMetric, match="non-positive eigenvalue 0.000e"):
            Metric(c * np.diag([1.0, 0.0]))


def _biorthonormal(kappa):
    # left vectors diag(1, kappa^-1/2) give eta_b = diag(1, 1/kappa)
    return metric_from_biorthonormal(EigenSystem(
        eigenvalues=np.array([2.0, 1.0]),
        right_vectors=np.diag([1.0, np.sqrt(kappa)]),
        left_vectors=np.diag([1.0, 1.0 / np.sqrt(kappa)]),
    ))


class TestConstructionBound:
    """Every metric is validated against the one construction bound, which
    no caller sets: kappa = 1e9 passes, and kappa = 1e11 is refused naming
    kappa and the bound, 1e10."""

    BUILDERS = {
        "Metric": ("", lambda kappa: Metric(np.diag([1.0, 1.0 / kappa]))),
        "metric_from_CPT": (
            "CPT ", lambda kappa: metric_from_CPT(np.diag([1.0, 1.0 / kappa]), np.eye(2))
        ),
        "metric_from_biorthonormal": ("biorthonormal ", _biorthonormal),
    }

    @pytest.mark.parametrize("name", BUILDERS)
    def test_kappa_1e9_accepted(self, name):
        _, build = self.BUILDERS[name]
        np.testing.assert_allclose(build(1e9).eta, np.diag([1.0, 1e-9]), rtol=1e-15)

    @pytest.mark.parametrize("name", BUILDERS)
    def test_kappa_1e11_refused(self, name):
        prefix, build = self.BUILDERS[name]
        match = (rf"^{prefix}metric is positive but ill-conditioned: "
                 r"kappa = 1\.000e\+11 exceeds the bound 1\.000e\+10$")
        with pytest.raises(IllConditioned, match=match):
            build(1e11)


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
