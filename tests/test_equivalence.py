import numpy as np
import pytest
import scipy.linalg

from ptqm import equivalence
from ptqm.equivalence import (
    BenderCheck,
    build_equivalence,
    build_equivalence_pt,
    check_observable_bender,
    check_observable_hermitian,
    consistency_demo,
    heisenberg_evolve,
    pull_back_observable,
)
from ptqm.errors import (
    DimensionMismatch,
    IllConditioned,
    InvalidInput,
    NotHermitianInput,
    NumericalFailure,
    PseudoHermiticityViolated,
)
from ptqm.linalg import DEFAULT_TOL, eig, matrix_exponential, relative_gap, time_chunks
from ptqm.metric import (
    Metric,
    build_C,
    cpt_system,
    metric_from_biorthonormal,
    metric_from_CPT,
    pt_normalize,
)
from ptqm.two_level import (
    PARITY,
    SIGMA_0,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    S_mu,
    TwoLevelParams,
    bender_return_period,
    build_H,
)

from conftest import (
    bender_family,
    heisenberg_S2,
    is_self_adjoint_wrt,
    oracles,
    random_valid_params,
    two_level_exact,
)

REFERENCE = TwoLevelParams(1.0, 1.0, np.pi / 6)
PAULI = [SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3]


def reference_setup(p):
    C, eta, _ = two_level_exact(p)
    return build_H(p), C, Metric(eta)


def large_n_case(n, rng, eps=0.2):
    """(H, P, C, metric, O) of the oracle's ``LargeN``, O its exact
    symmetric, CPT-invariant observable; C and the metric, which
    consistency_demo takes as inputs, are built from H by ptqm."""
    system = oracles.LargeN(n, rng, eps)
    _, C, metric = cpt_system(system.H, system.P)
    return system.H, system.P, C, metric, system.observable(rng)


class TestBuildEquivalence:
    def test_U_squares_to_metric(self, rng):
        for _ in range(25):
            p = random_valid_params(rng)
            H, _, metric = reference_setup(p)
            pair = build_equivalence(H, metric)
            np.testing.assert_allclose(
                pair.U.conj().T @ pair.U, metric.eta, atol=1e-10
            )

    def test_h_is_hermitian_diagonal_descending(self, rng):
        for _ in range(25):
            p = random_valid_params(rng)
            H, _, metric = reference_setup(p)
            pair = build_equivalence(H, metric)
            np.testing.assert_allclose(pair.h, two_level_exact(p)[2], atol=1e-9)

    def test_spectrum_preserved(self, rng):
        for _ in range(10):
            p = random_valid_params(rng)
            H, _, metric = reference_setup(p)
            pair = build_equivalence(H, metric)
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(pair.h)),
                np.sort(eig(H).eigenvalues.real),
                atol=1e-9,
            )

    def test_incompatible_pair_rejected(self):
        # identity metric does not make the PT model self-adjoint; the
        # refusal prints the relative residual it was judged by
        message = r"^\|\|eta H - H\^dagger eta\|\| / \|\|eta H\|\| = \d\.\d{3}e-01 exceeds the construction bound 1\.000e-10$"
        with pytest.raises(PseudoHermiticityViolated, match=message):
            build_equivalence(build_H(REFERENCE), Metric(np.eye(2)))


class TestBuildEquivalencePT:
    def test_U_squares_to_metric(self, rng):
        for _ in range(25):
            p = random_valid_params(rng)
            pair = build_equivalence_pt(build_H(p), PARITY)
            np.testing.assert_allclose(
                pair.U.conj().T @ pair.U, two_level_exact(p)[1], atol=1e-9
            )

    def test_h_diagonal(self, rng):
        for _ in range(10):
            p = random_valid_params(rng)
            pair = build_equivalence_pt(build_H(p), PARITY)
            np.testing.assert_allclose(pair.h, two_level_exact(p)[2], atol=1e-9)

    def test_pull_backs_match_closed_forms(self, rng):
        for _ in range(25):
            p = random_valid_params(rng)
            pair = build_equivalence_pt(build_H(p), PARITY)
            for mu in range(4):
                np.testing.assert_allclose(
                    pull_back_observable(pair, 0.5 * PAULI[mu]),
                    S_mu(p, mu),
                    atol=1e-9,
                )


@pytest.mark.parametrize("eps", [0.2, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [4, 8, 32, 64])
def test_chain_matches_exact_large_n(n, eps, rng):
    # LargeN knows eta = expm(-2 i eps K) with kappa(eta) = e^{4 eps}, so
    # C = eta^T P, and the spectrum 1..n, which h holds descending.  Over
    # five seeds the worst error / (n eps kappa) was 2.7 for eta, C and
    # U^dagger U, and the worst diag(h) error / (n^2 eps kappa) 0.23.  At
    # eps = 4 a seed may be refused, so far as MetricNotPositive, a wrong
    # cause for a positive eta; h's off-diagonal is not gated, as it grows
    # like kappa^1.5
    system = oracles.LargeN(n, rng, eps)
    scale = n * np.finfo(float).eps * np.exp(4 * eps)
    try:
        _, C, metric = cpt_system(system.H, system.P)
        pair = build_equivalence(system.H, metric)
    except NumericalFailure:
        assert eps >= 4
        return

    def error(A, exact):
        return np.linalg.norm(A - exact) / np.linalg.norm(exact)

    assert error(metric.eta, system.eta) <= 8 * scale
    assert error(C, system.eta.T @ system.P) <= 8 * scale
    assert error(pair.U.conj().T @ pair.U, system.eta) <= 8 * scale
    assert np.abs(np.diag(pair.h) - system.spectrum[::-1]).max() <= n * scale


class TestPullBack:
    def test_pull_back_is_eta_self_adjoint(self, rng):
        for _ in range(10):
            p = random_valid_params(rng)
            H, _, metric = reference_setup(p)
            pair = build_equivalence(H, metric)
            A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            o = A + A.conj().T
            O = pull_back_observable(pair, o)
            assert check_observable_hermitian(O, metric)

    def test_spectrum_real_and_preserved(self, rng):
        p = REFERENCE
        H, _, metric = reference_setup(p)
        pair = build_equivalence(H, metric)
        O = pull_back_observable(pair, SIGMA_3)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvals(O).real), [-1.0, 1.0], atol=1e-12
        )
        assert np.abs(np.linalg.eigvals(O).imag).max() < 1e-12

    def test_non_hermitian_rejected(self):
        H, _, metric = reference_setup(REFERENCE)
        pair = build_equivalence(H, metric)
        with pytest.raises(NotHermitianInput):
            pull_back_observable(pair, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_scale_free(self, c):
        H, _, metric = reference_setup(REFERENCE)
        pair = build_equivalence(H, metric)
        with pytest.raises(NotHermitianInput):
            pull_back_observable(pair, c * np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(
            pull_back_observable(pair, c * SIGMA_3),
            c * pull_back_observable(pair, SIGMA_3), rtol=1e-14,
        )


class TestHeisenberg:
    def test_t_zero_identity(self):
        H = build_H(REFERENCE)
        np.testing.assert_allclose(heisenberg_evolve(H, SIGMA_1, 0.0), SIGMA_1)

    def test_closed_form_S2(self, rng):
        for _ in range(15):
            p = random_valid_params(rng)
            H = build_H(p)
            t = rng.uniform(0.0, 10.0)
            np.testing.assert_allclose(
                heisenberg_evolve(H, S_mu(p, 2), t),
                heisenberg_S2(p, t),
                atol=1e-9,
            )

    def test_conserved_when_commuting(self):
        # S_3 = C/2 commutes with H: constant in the Heisenberg picture
        p = REFERENCE
        H = build_H(p)
        np.testing.assert_allclose(
            heisenberg_evolve(H, S_mu(p, 3), 2.7), S_mu(p, 3), atol=1e-12
        )

    def test_return_period(self):
        p = REFERENCE
        H = build_H(p)
        T = bender_return_period(p)
        np.testing.assert_allclose(
            heisenberg_evolve(H, S_mu(p, 2), 2.0 * T), S_mu(p, 2), atol=1e-10
        )
        np.testing.assert_allclose(
            heisenberg_evolve(H, S_mu(p, 2), T), -S_mu(p, 2), atol=1e-10
        )

    def test_stack_slices_equal_scalar_calls(self, rng):
        for n in (2, 5):
            H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            O = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            times = np.concatenate([[0.0], rng.uniform(-4.0, 4.0, size=30)])
            stack = heisenberg_evolve(H, O, times)
            assert stack.shape == (len(times), n, n)
            for t, Ot in zip(times, stack):
                assert np.array_equal(Ot, heisenberg_evolve(H, O, t))
                definition = (
                    matrix_exponential(1j * t * H) @ O @ matrix_exponential(-1j * t * H)
                )
                assert np.array_equal(Ot, definition)


class TestBenderCheck:
    def test_family_passes(self, rng):
        for _ in range(15):
            p = random_valid_params(rng)
            H, C, metric = reference_setup(p)
            a, b, c = rng.normal(size=3)
            O = bender_family(p, a, b, c)
            assert check_observable_bender(O, C, PARITY).passed
            assert check_observable_hermitian(O, metric)

    def test_S1_fails_symmetry(self):
        p = REFERENCE
        _, C, _ = reference_setup(p)
        res = check_observable_bender(S_mu(p, 1), C, PARITY)
        assert not res.symmetric
        assert not res.passed

    def test_sigma2_fails(self):
        _, C, _ = reference_setup(REFERENCE)
        assert not check_observable_bender(SIGMA_2, C, PARITY).passed

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_scale_free(self, c):
        # with C = P = I: X is real but not symmetric, i I symmetric but not real
        I = np.eye(2)
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert check_observable_bender(c * X, I, I) == BenderCheck(False, True)
        assert check_observable_bender(c * 1j * I, I, I) == BenderCheck(True, False)
        assert check_observable_bender(c * SIGMA_1, I, I) == BenderCheck(True, True)


class TestConsistencyDemo:
    def test_generic_times_break_bender_not_eta(self):
        p = REFERENCE
        H, C, metric = reference_setup(p)
        T = bender_return_period(p)
        times = [0.0, 0.3 * T, T, 1.5 * T, 2.0 * T]
        rows = consistency_demo(H, C, PARITY, metric, S_mu(p, 2), times)
        assert [r.eta_hermitian for r in rows] == [True] * 5
        assert [r.symmetric and r.cpt_invariant for r in rows] == [
            True,
            False,
            True,
            False,
            True,
        ]

    def test_chunked_large_n_matches_per_time_reference(self, rng):
        # n = 64 evolves 16 times per stack: 37 times leave a partial chunk
        H, P, C, metric, O = large_n_case(64, rng)
        times = np.linspace(0.0, 3.0, 37)
        rows = consistency_demo(H, C, P, metric, O, times)
        reference = []
        for t in times:
            Ot = heisenberg_evolve(H, O, float(t))
            bc = check_observable_bender(Ot, C, P)
            reference.append(
                (float(t), bc.symmetric, bc.cpt_invariant, is_self_adjoint_wrt(Ot, metric.eta))
            )
        assert [(r.t, r.symmetric, r.cpt_invariant, r.eta_hermitian) for r in rows] == reference
        assert rows[0].symmetric and rows[0].cpt_invariant
        assert all(r.eta_hermitian for r in rows)
        assert not any(r.symmetric or r.cpt_invariant for r in rows[1:])

    def test_rejects_bad_seed_observable(self):
        H, C, metric = reference_setup(REFERENCE)
        with pytest.raises(InvalidInput):
            consistency_demo(H, C, PARITY, metric, SIGMA_2, [0.0, 1.0])

    def test_rounding_refused_not_printed_near_ep(self):
        # kappa(eta) = 2 / d near the EP: S_2 is eta-self-adjoint at every t,
        # but rounding fails that test at t = 1, which is a numerical
        # failure; sigma_2 is not symmetric, which no conditioning excuses
        p = TwoLevelParams(2.0 * (1.0 - 1e-8), 1.0, np.pi / 6)
        H, C, metric = reference_setup(p)
        with pytest.raises(IllConditioned, match=r"kappa\(eta\) = 2\.000e\+08"):
            consistency_demo(H, C, PARITY, metric, S_mu(p, 2), [0.0, 1.0])
        with pytest.raises(InvalidInput):
            consistency_demo(H, C, PARITY, metric, SIGMA_2, [0.0, 1.0])

    def test_undecidable_t0_test_refused_as_ill_conditioned(self, rng):
        # at kappa(eta) = e^16 the built C and O = Phi o Phi^T, with Phi the
        # built PT-normalized vectors, disagree by 5.2e-10 > tol through
        # rounding alone: not an invalid observable.  LargeN's exact O
        # fails the eta test at t = 1 on this seed instead
        system = oracles.LargeN(4, rng, 4)
        H, P = system.H, system.P
        Phi, signs = pt_normalize(eig(H), P)
        C = build_C(Phi)
        metric = metric_from_CPT(C, P)
        signs = np.array(signs)
        B = rng.normal(size=(4, 4))
        o = (B + B.T) * (signs[:, None] == signs[None, :])
        O = Phi @ (o / np.linalg.norm(o, 2)) @ Phi.T
        assert not check_observable_bender(O, C, P).passed
        with pytest.raises(IllConditioned, match="cannot decide"):
            consistency_demo(H, C, P, metric, O, [0.0, 1.0])

    def test_non_cpt_metric_rows_match_literal_evolution(self):
        # the rows under a valid metric other than (C P)^T are those of
        # e^{iHt} O e^{-iHt}: eta = diag(1, 5) with H = diag(1, 2) and
        # C = P = 1, where sigma_1 passes the t = 0 test but is not
        # eta-self-adjoint, and the biorthonormal metric of eig's vectors,
        # 12% from the CPT one at the reference point
        H2, C2, _ = reference_setup(REFERENCE)
        I = np.eye(2)
        cases = [
            (np.diag([1.0, 2.0]), I, I, Metric(np.diag([1.0, 5.0])), SIGMA_1),
            (H2, C2, PARITY, metric_from_biorthonormal(eig(H2)), S_mu(REFERENCE, 2)),
        ]
        times = np.linspace(0.0, 3.0, 13)
        eta_rows = []
        for H, C, P, metric, O in cases:
            rows = consistency_demo(H, C, P, metric, O, times)
            reference = []
            for t in times:
                Ot = heisenberg_evolve(H, O, float(t))
                bc = check_observable_bender(Ot, C, P)
                reference.append(
                    (bc.symmetric, bc.cpt_invariant, check_observable_hermitian(Ot, metric))
                )
            assert [(r.symmetric, r.cpt_invariant, r.eta_hermitian) for r in rows] == reference
            eta_rows.append({r.eta_hermitian for r in rows})
        assert eta_rows == [{False}, {True}]

    @pytest.mark.parametrize("n", [2, 64, 256])
    def test_stacked_eta_test_matches_per_time(self, n, rng, monkeypatch):
        # each evolved stack is tested for eta-self-adjointness at once: its
        # residuals equal the per-time relative_gap(eta O_t, O_t^dagger eta)
        # bit for bit, under the CPT metric (every row true) and under a
        # non-CPT metric (every row false); n = 64 holds 16 times per stack.
        # At n = 2 the O of LargeN commutes with H, so the 2x2 cases are
        # the paper's model and sigma_1 under diag(1, 5)
        if n == 2:
            H, C, metric = reference_setup(REFERENCE)
            I = np.eye(2)
            cases = [
                (H, C, PARITY, metric, S_mu(REFERENCE, 2)),
                (np.diag([1.0, 2.0]), I, I, Metric(np.diag([1.0, 5.0])), SIGMA_1),
            ]
        else:
            H, P, C, metric, O = large_n_case(n, rng)
            L = eig(H).left_vectors
            weighted = Metric((L * np.linspace(1.0, 2.0, n)) @ L.conj().T)
            cases = [(H, C, P, metric, O), (H, C, P, weighted, O)]
        times = np.linspace(0.0, 3.0, 3 if n == 256 else 40)
        stacks = []
        original = equivalence._eta_gap

        def recording(Os, eta):
            gaps = original(Os, eta)
            stacks.append((Os.copy(), eta, gaps))
            return gaps

        monkeypatch.setattr(equivalence, "_eta_gap", recording)
        answers = []
        for H, C, P, metric, O in cases:
            stacks.clear()
            rows = consistency_demo(H, C, P, metric, O, times)
            for Os, eta, gaps in stacks:
                per_time = [relative_gap(eta @ Ot, Ot.conj().T @ eta) for Ot in Os]
                assert np.array_equal(gaps, per_time)
            # the first stack is H alone, tested by the canonical map
            evolved = stacks[1:]
            assert [len(Os) for Os, _, _ in evolved] == [len(c) for c in time_chunks(times, n)]
            flags = [gap <= DEFAULT_TOL for _, _, gaps in evolved for gap in gaps]
            assert [r.eta_hermitian for r in rows] == flags
            answers.append(set(flags))
        assert answers == [{True}, {False}]

    @pytest.mark.parametrize("error, entry, message", [
        (IllConditioned, 1e-3j, "fails the eta-Hermiticity test at t = 1.46154,"),
        (InvalidInput, np.nan, r"O_H\(t\) is not finite at t = 1.46154$"),
    ])
    def test_refusal_names_first_failing_time_across_stacks(
        self, rng, monkeypatch, error, entry, message
    ):
        # rows 3 and 5 of the second 16-time stack at n = 64 are spoilt
        # after evolution: the refusal names the t of row 16 + 3
        H, P, C, metric, O = large_n_case(64, rng)
        times = np.linspace(0.0, 3.0, 40)
        evolve = equivalence.heisenberg_evolve
        calls = []

        def spoiling(h, o, chunk):
            out = evolve(h, o, chunk)
            calls.append(None)
            if len(calls) == 2:
                out[[3, 5]] += entry * np.eye(64)
            return out

        monkeypatch.setattr(equivalence, "heisenberg_evolve", spoiling)
        with pytest.raises(error, match=message):
            consistency_demo(H, C, P, metric, O, times)
        assert f"{times[19]:.6g}" == "1.46154"

    @pytest.mark.parametrize("eps", [0.2, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_conditioning_ladder(self, n, eps, rng):
        # kappa(eta) = e^{4 eps} exactly, on the unit-gap real spectrum
        # 1..n far from any EP, with the oracle's exact C, eta and O, so
        # that only the evolution rounds: right answers up to eps = 3
        # (kappa = 1.6e5), where dense e^{+-iHt} answered (8, 3) wrongly;
        # beyond, right answers or a numerical failure.  The chain that
        # builds C and eta is judged by test_chain_matches_exact_large_n
        system = oracles.LargeN(n, rng, eps)
        H, P, O = system.H, system.P, system.observable(rng)
        try:
            C, metric = system.eta.T @ P, Metric(system.eta)
            rows = consistency_demo(H, C, P, metric, O, np.linspace(0.0, 3.0, 16))
        except NumericalFailure:
            assert eps > 3
            return
        assert all(r.eta_hermitian for r in rows)
        assert rows[0].symmetric and rows[0].cpt_invariant
        assert not any(r.symmetric or r.cpt_invariant for r in rows[1:])

    @pytest.mark.parametrize("n", [2, 64])
    def test_exponentials_are_diagonal(self, n, rng, monkeypatch):
        # the frame makes every exponential a diagonal of phases; a dense
        # one would bring back rounding that grows like kappa(eta)^2 eps
        if n == 2:
            (H, C, metric), P, O = reference_setup(REFERENCE), PARITY, S_mu(REFERENCE, 2)
        else:
            H, P, C, metric, O = large_n_case(n, rng)
        arguments = []

        def recording(M, times=None):
            arguments.append(np.array(M))
            return matrix_exponential(M, times)

        def refuse(A):
            raise AssertionError("scipy.linalg.expm called")

        monkeypatch.setattr(equivalence, "matrix_exponential", recording)
        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        consistency_demo(H, C, P, metric, O, np.linspace(0.0, 3.0, 37))
        assert arguments
        for A in arguments:
            assert not np.any(A * (1 - np.eye(n)))


def test_two_gauges_differ_by_diagonal_phase(rng):
    for _ in range(10):
        p = random_valid_params(rng)
        H, _, metric = reference_setup(p)
        U1 = build_equivalence(H, metric).U
        U2 = build_equivalence_pt(H, PARITY).U
        D = U1 @ np.linalg.inv(U2)
        np.testing.assert_allclose(D @ D.conj().T, np.eye(2), atol=1e-9)
        off = D - np.diag(np.diag(D))
        assert np.abs(off).max() < 1e-9


#: Each public entry that pairs two operands, with a 3 x 3 operand W
#: against the 2x2 reference system, and the operand it must name.
WRONG_SIZE = {
    "pt_normalize": ("parity", lambda H, C, m, O, W: pt_normalize(eig(H), W)),
    "metric_from_CPT": ("parity", lambda H, C, m, O, W: metric_from_CPT(C, W)),
    "build_equivalence": ("Hamiltonian", lambda H, C, m, O, W: build_equivalence(W, m)),
    "pull_back_observable": (
        "observable", lambda H, C, m, O, W: pull_back_observable(build_equivalence(H, m), W)
    ),
    "heisenberg_evolve": ("observable", lambda H, C, m, O, W: heisenberg_evolve(H, W, 0.5)),
    "check_observable_bender C": (
        "charge conjugation", lambda H, C, m, O, W: check_observable_bender(O, W, PARITY)
    ),
    "check_observable_bender P": (
        "parity", lambda H, C, m, O, W: check_observable_bender(O, C, W)
    ),
    "check_observable_hermitian": (
        "observable", lambda H, C, m, O, W: check_observable_hermitian(W, m)
    ),
    "consistency_demo P": (
        "parity", lambda H, C, m, O, W: consistency_demo(H, C, W, m, O, [0.0, 1.0])
    ),
    "consistency_demo H": (
        "Hamiltonian", lambda H, C, m, O, W: consistency_demo(W, C, PARITY, m, O, [0.0, 1.0])
    ),
    "consistency_demo metric": (
        "metric", lambda H, C, m, O, W: consistency_demo(H, C, PARITY, Metric(W), O, [0.0, 1.0])
    ),
}


@pytest.mark.parametrize("entry", sorted(WRONG_SIZE))
def test_operand_of_wrong_size_rejected(entry):
    name, call = WRONG_SIZE[entry]
    H, C, metric = reference_setup(REFERENCE)
    with pytest.raises(DimensionMismatch, match=rf"^{name} must be 2 x 2, got shape \(3, 3\)$"):
        call(H, C, metric, S_mu(REFERENCE, 2), np.eye(3))
