"""Acceptance suite: one test per top-level criterion, each printing a
single PASS/FAIL line with its measured figure of merit."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from ptqm.cli import main as cli_main
from ptqm.equivalence import (
    build_equivalence,
    build_equivalence_pt,
    check_observable_bender,
    check_observable_hermitian,
    heisenberg_evolve,
    pull_back_observable,
)
from ptqm.errors import (
    ComplexSpectrum,
    InvalidParams,
    MetricNotPositive,
    NonDiagonalizable,
    NotPTSymmetric,
    SelfOrthogonalEigenvector,
)
from ptqm.linalg import eig
from ptqm.metric import (
    build_C,
    metric_from_CPT,
    metric_from_biorthonormal,
    pt_normalize,
)
from ptqm.spectral import SpectralProblem, spectrum
from ptqm.two_level import (
    PARITY,
    SIGMA_0,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    S_mu,
    TwoLevelParams,
    U_printed,
    build_H,
)

from conftest import cpt_inner_product, heisenberg_S2, random_valid_params, two_level_exact
from test_spectral import GALERKIN_E0_NU1, galerkin_levels

REFERENCE = TwoLevelParams(1.0, 1.0, np.pi / 6)
PAULI = [SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3]


def report(capsys, num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"criterion {num} failed: {label} {tail}"


def frobenius(M) -> float:
    return float(np.linalg.norm(M))


def rel_err(A, B):
    return frobenius(np.asarray(A) - np.asarray(B)) / max(frobenius(B), 1e-30)


def pipeline(p):
    H = build_H(p)
    es = eig(H)
    vectors, _ = pt_normalize(es, PARITY)
    C = build_C(vectors)
    eta = metric_from_CPT(C, PARITY)
    return H, es, C, eta


def test_criterion_01_closed_form_agreement(capsys, rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        p = random_valid_params(rng)
        H, es, C, eta = pipeline(p)
        C_exact, eta_exact, h_exact = two_level_exact(p)
        ep, em = np.diag(h_exact)
        worst = max(worst, np.abs(es.eigenvalues - [ep, em]).max() / max(abs(ep), 1.0))
        worst = max(worst, rel_err(C, C_exact))
        worst = max(worst, rel_err(eta.eta, eta_exact))
        pair = build_equivalence(H, eta)
        worst = max(worst, rel_err(pair.h, h_exact))
        pt_pair = build_equivalence_pt(H, PARITY)
        for mu in range(4):
            worst = max(
                worst,
                rel_err(pull_back_observable(pt_pair, 0.5 * PAULI[mu]), S_mu(p, mu)),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(
        capsys, 1, "two-level closed-form agreement, 200 draws", ok,
        f"max rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_metric_validity(capsys, rng):
    worst = 0.0
    min_eig = np.inf
    for _ in range(200):
        p = random_valid_params(rng)
        H, _, _, eta = pipeline(p)
        e = eta.eta
        worst = max(worst, frobenius(e - e.conj().T) / max(frobenius(e), 1.0))
        worst = max(worst, rel_err(e @ H, H.conj().T @ e))
        min_eig = min(min_eig, np.linalg.eigvalsh(e).min())
    _, _, _, eta_ref = pipeline(REFERENCE)
    w = np.sort(np.linalg.eigvalsh(eta_ref.eta))
    ref_err = np.abs(w - [3.0 ** -0.5, 3.0 ** 0.5]).max()
    ok = worst < 1e-10 and min_eig > 0 and ref_err < 1e-12
    report(
        capsys, 2, "metric Hermitian, positive, intertwining", ok,
        f"max resid {worst:.2e}, min eig {min_eig:.3f}, ref eig err {ref_err:.2e}",
    )


def test_criterion_03_C_algebra(capsys, rng):
    worst = 0.0
    for _ in range(200):
        p = random_valid_params(rng)
        H, _, C, _ = pipeline(p)
        worst = max(worst, frobenius(C @ C - np.eye(2)))
        worst = max(worst, rel_err(C @ H, H @ C))
        worst = max(worst, frobenius(C @ PARITY - PARITY @ C.conj()))
    ok = worst < 1e-10
    report(
        capsys, 3, "C squares to I, commutes with H, PT-commutes", ok,
        f"max resid {worst:.2e}",
    )


def test_criterion_04_equivalence_reduction(capsys, rng):
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[2, 1, 0] = eps[0, 2, 1] = eps[1, 0, 2] = -1.0
    worst = 0.0
    for _ in range(50):
        p = random_valid_params(rng)
        H, _, _, eta = pipeline(p)
        pair = build_equivalence(H, eta)
        worst = max(worst, rel_err(pair.U.conj().T @ pair.U, eta.eta))
        worst = max(worst, frobenius(pair.h - pair.h.conj().T) / max(frobenius(pair.h), 1.0))
        ep, em = np.diag(two_level_exact(p)[2])
        worst = max(
            worst,
            np.abs(np.sort(np.linalg.eigvalsh(pair.h)) - sorted([ep, em])).max()
            / max(abs(ep), 1.0),
        )
        S = [S_mu(p, mu) for mu in range(4)]
        for i in range(1, 4):
            for j in range(1, 4):
                comm = S[i] @ S[j] - S[j] @ S[i]
                target = sum(1j * eps[i - 1, j - 1, k - 1] * S[k] for k in range(1, 4))
                worst = max(worst, frobenius(comm - target))
    ok = worst < 1e-10
    report(
        capsys, 4, "U^dagger U = eta, h Hermitian w/ model spectrum, su(2) algebra",
        ok, f"max resid {worst:.2e}",
    )


def test_criterion_05_heisenberg_inconsistency(capsys):
    # CPU time of this process, so a stall of the machine does not count
    t0 = time.process_time()
    p = REFERENCE
    H, _, C, eta = pipeline(p)
    O = S_mu(p, 2)
    period = np.pi / (2.0 * p.s * np.cos(p.alpha))  # pi / sqrt(3) here
    grid = np.linspace(0.0, 4.0 * period, 64)
    worst = 0.0
    hermitian_everywhere = True
    for t in grid:
        Ot = heisenberg_evolve(H, O, t)
        worst = max(worst, frobenius(Ot - heisenberg_S2(p, t)))
        hermitian_everywhere &= check_observable_hermitian(Ot, eta)
    O_mid = heisenberg_evolve(H, O, np.pi / (2.0 * np.sqrt(3.0)))
    mid = check_observable_bender(O_mid, C, PARITY)
    fails_mid = (not mid.symmetric) and (not mid.cpt_invariant)
    returns_ok = True
    for m in (1, 2, 3):
        Om = heisenberg_evolve(H, O, m * period)
        returns_ok &= frobenius(Om - (-1.0) ** m * O) < 1e-10
        returns_ok &= check_observable_bender(Om, C, PARITY).passed
    elapsed = time.process_time() - t0
    ok = worst < 1e-10 and fails_mid and returns_ok and hermitian_everywhere and elapsed < 1.0
    report(
        capsys, 5, "Heisenberg flow breaks the symmetric/CPT criterion, not eta",
        ok, f"closed-form resid {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_06_cpt_unitarity(capsys):
    p = REFERENCE
    H, _, _, eta = pipeline(p)
    from ptqm.linalg import matrix_exponential

    psi0 = np.array([1.0 + 0j, 0.0 + 0j])
    times = np.linspace(0.0, 4.0 * np.pi, 400)
    cpt = []
    dirac = []
    for t in times:
        psi = matrix_exponential(-1j * t * H) @ psi0
        cpt.append(np.sqrt(cpt_inner_product(eta, psi, psi).real))
        dirac.append(np.linalg.norm(psi))
    cpt, dirac = np.array(cpt), np.array(dirac)
    cpt_var = np.abs(cpt - cpt[0]).max()
    dirac_var = np.abs(dirac - dirac[0]).max() / dirac[0]
    ok = cpt_var < 1e-10 and dirac_var > 1e-3
    report(
        capsys, 6, "metric norm conserved, Euclidean norm not", ok,
        f"cpt drift {cpt_var:.2e}, dirac variation {dirac_var:.2e}",
    )


def test_criterion_07_printed_map_audit(capsys):
    p = REFERENCE
    _, _, _, eta = pipeline(p)
    U = U_printed(p)
    residual = frobenius(U.conj().T @ U - eta.eta)
    pair = build_equivalence(build_H(p), eta)
    canonical_resid = frobenius(pair.U.conj().T @ pair.U - eta.eta)
    ok = canonical_resid < 1e-10 and np.isfinite(residual)
    report(
        capsys, 7, "verbatim reference map audited, canonical map asserted", ok,
        f"printed residual {residual:.6f}, canonical residual {canonical_resid:.2e}",
    )


def test_criterion_08_spectral_reality(capsys):
    t0 = time.perf_counter()
    res0 = spectrum(SpectralProblem(0.0, L=12.0, N=4000), 5)
    err0 = np.abs(res0.eigenvalues.real - [1.0, 3.0, 5.0, 7.0, 9.0]).max()
    elapsed0 = time.perf_counter() - t0
    reality_ok = True
    for nu in (1.0, 0.5):
        res = spectrum(SpectralProblem(nu, L=12.0, N=1500), 5)
        re = res.eigenvalues.real
        reality_ok &= res.max_imag < 1e-6 and re.min() > 0 and np.all(np.diff(re) > 0)
    e0 = spectrum(SpectralProblem(1.0, L=12.0, N=2000), 1).eigenvalues[0].real
    oracle = galerkin_levels(1.0, 1)[0].real
    oracle_err = abs(e0 - oracle)
    frozen_err = abs(e0 - GALERKIN_E0_NU1)
    ok = err0 < 1e-6 and elapsed0 < 30.0 and reality_ok and oracle_err < 1e-4 and frozen_err < 1e-4
    report(
        capsys, 8, "spectral reality and oracle agreement", ok,
        f"harmonic err {err0:.2e} in {elapsed0:.1f} s, ground-state vs oracle {oracle_err:.2e}",
    )


def test_criterion_09_exceptional_points(capsys):
    checks = []
    # parameter layer
    try:
        TwoLevelParams(2.0, 1.0, np.pi / 2)
        checks.append(False)
    except InvalidParams:
        checks.append(True)
    # eigendecomposition layer: defective matrix exactly at the coalescence
    try:
        eig(np.array([[1j, 1.0], [1.0, -1j]]))
        checks.append(False)
    except NonDiagonalizable:
        checks.append(True)
    # normalization layer: diagonalizable but PT-self-orthogonal eigenvector
    V = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    try:
        pt_normalize(eig(V @ np.diag([2.0, 1.0]) @ V.conj().T), PARITY)
        checks.append(False)
    except SelfOrthogonalEigenvector:
        checks.append(True)
    # broken-phase Hamiltonian: normalization and metric layers both refuse
    H_broken = np.array([[2.0j, 1.0], [1.0, -2.0j]])
    try:
        pt_normalize(eig(H_broken), PARITY)
        checks.append(False)
    except (NotPTSymmetric, SelfOrthogonalEigenvector):
        # broken-phase eigenvectors are PT-self-orthogonal in conjugate
        # pairs, so either typed refusal is correct
        checks.append(True)
    try:
        metric_from_biorthonormal(eig(H_broken))
        checks.append(False)
    except ComplexSpectrum:
        checks.append(True)
    # metric layer: a non-positive C candidate is rejected
    try:
        metric_from_CPT(SIGMA_3, np.eye(2))
        checks.append(False)
    except MetricNotPositive:
        checks.append(True)
    ok = all(checks)
    report(
        capsys, 9, "exceptional/broken inputs raise typed errors at every layer",
        ok, f"{sum(checks)}/{len(checks)} layers",
    )


def test_criterion_10_cli_determinism(capsys):
    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "schemas" / "output.schema.json").read_text()
    )
    jsonschema = pytest.importorskip("jsonschema")
    model = ["--r", "1.0", "--s", "1.0", "--theta", str(np.pi / 6)]
    invocations = [
        ["two-level"] + model,
        ["check"] + model + ["--steps", "16"],
        ["check"] + model + ["--steps", "16", "--format", "csv"],
        ["evolve"] + model + ["--t-max", "6.0", "--steps", "50"],
        ["spectrum", "--nu", "1.0", "--k", "2", "--L", "8.0", "--N", "600"],
    ]
    ok = True
    for argv in invocations:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        ok &= code1 == 0 and code2 == 0 and out1 == out2
        if "--format" not in argv and argv[0] != "evolve":
            jsonschema.validate(json.loads(out1), schema)
    report(capsys, 10, "byte-identical CLI output, schema-valid JSON", ok)
