"""Fast self-tests of the benchmark's generators and reference computations.

    python3 -m pytest -q benchmarks

These check the benchmark, not ptqm: nothing here imports the package.
"""

import json
import math
import os

import numpy as np
import pytest
import scipy.linalg

import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def rel(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


@pytest.fixture(scope="module", params=[16, 64])
def gen(request):
    return oracles.LargeN(request.param, np.random.default_rng(request.param))


def test_large_n_hamiltonian_is_complex_symmetric_and_pt_symmetric(gen):
    H, J = gen.H, gen.P
    assert rel(H, H.T) < 1e-14
    assert rel(J @ H.conj() @ J, H) < 1e-13
    assert rel(gen.H, gen.H.conj().T) > 1e-3  # and not Hermitian


def test_large_n_spectrum_and_eigenvectors(gen):
    w = np.linalg.eigvals(gen.H)
    assert np.abs(np.sort(w.real) - gen.spectrum).max() < 1e-10
    assert np.abs(w.imag).max() < 1e-10
    Phi, J = gen.Phi, gen.P
    assert rel(gen.H @ Phi, Phi * gen.spectrum) < 1e-12
    assert rel(J @ Phi.conj(), Phi) < 1e-12  # PT-invariant columns
    pt_norms = np.einsum("ij,ij->j", J @ Phi.conj(), Phi)
    assert np.allclose(pt_norms, gen.signs, atol=1e-12)


def test_large_n_metric_intertwines_and_is_the_cpt_metric(gen):
    eta, H, J = gen.eta, gen.H, gen.P
    assert rel(eta, scipy.linalg.expm(-2j * gen.eps * gen.K)) == 0.0
    assert rel(eta @ H, H.conj().T @ eta) < 1e-12
    assert rel(eta, eta.conj().T) < 1e-14
    assert np.linalg.eigvalsh(eta).min() > 0
    C = gen.Phi @ gen.Phi.T
    assert rel(C @ C, np.eye(gen.n)) < 1e-12
    assert rel(J.T @ C.T, eta) < 1e-12  # eta = P^T C^T


def test_large_n_observable_passes_both_criteria_at_t0(gen):
    O = gen.observable(np.random.default_rng(1))
    C = gen.Phi @ gen.Phi.T
    CP = C @ gen.P
    assert rel(O, O.T) < 1e-13
    assert rel(O @ CP, CP @ O.conj()) < 1e-12
    assert rel(gen.eta @ O, O.conj().T @ gen.eta) < 1e-12
    # and Heisenberg evolution breaks the symmetric/CPT test, not eta
    Ot = scipy.linalg.expm(1.1j * gen.H) @ O @ scipy.linalg.expm(-1.1j * gen.H)
    assert rel(Ot, Ot.T) > 1e-3
    assert rel(gen.eta @ Ot, Ot.conj().T @ gen.eta) < 1e-11


def test_galerkin_reference_gives_harmonic_levels_at_nu_0():
    levels = oracles.galerkin_levels(0.0, 5)
    assert np.abs(levels - (2 * np.arange(5) + 1)).max() < 1e-9


def test_galerkin_reference_is_converged_in_its_own_parameters():
    coarse = oracles.galerkin_levels(1.0, 5)
    fine = oracles.galerkin_levels(1.0, 5, L=9.0, modes=220, nodes=600)
    assert np.abs(coarse - fine).max() < 1e-8
    assert np.abs(coarse.imag).max() < 1e-8


def test_two_level_closed_forms():
    r, s, theta = oracles.two_level_draw(np.random.default_rng(3))
    H = oracles.two_level_H(r, s, theta)
    assert np.allclose(sorted(np.linalg.eigvals(H).real),
                       sorted(oracles.two_level_eigenvalues(r, s, theta)), atol=1e-13)
    eta = oracles.two_level_eta(r, s, theta)
    assert rel(eta @ H, H.conj().T @ eta) < 1e-14
    w = np.linalg.eigvalsh(eta)
    assert math.isclose(w[1] / w[0], oracles.two_level_eta_cond(r, s, theta), rel_tol=1e-12)
    psi0 = np.array([0.3, 1.0 - 0.5j])
    times = [0.0, 0.7, 5.3]
    exact = np.stack([scipy.linalg.expm(-1j * t * H) @ psi0 for t in times], axis=1)
    assert rel(oracles.two_level_propagate(r, s, theta, times, psi0), exact) < 1e-13


@pytest.mark.parametrize("d", oracles.NEAR_EP_D)
def test_near_ep_distance(d):
    r, s, theta = oracles.near_ep_params(d)
    assert math.isclose(1.0 - abs(r * math.sin(theta) / s), d, rel_tol=1e-9)


def canon(x):
    """Comparable form of a round of inputs."""
    if isinstance(x, oracles.LargeN):
        return canon(x.H)
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    return x


def test_rounds_are_seeded_and_whole():
    for wl in workloads.WORKLOADS.values():
        a, b = next(wl.rounds(5)), next(wl.rounds(5))
        assert canon(a) == canon(b)
        assert canon(a) != canon(next(wl.rounds(6)))
    dyn = next(workloads.WORKLOADS["dynamics"].rounds(5))
    assert sum(op["near_ep"] for op in dyn) == len(oracles.NEAR_EP_D)
    nus = sorted(next(workloads.WORKLOADS["spectral"].rounds(5)))
    width = workloads.SPECTRAL_NU_MAX / workloads.SPECTRAL_STRATA
    assert [int(nu // width) for nu in nus] == list(range(workloads.SPECTRAL_STRATA))
    assert workloads.SPECTRAL_STRATA % 2 == 1  # the median falls inside one stratum


def test_benchmark_json_matches_the_code():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "p50_s", "ops_per_s",
                                                         "peak_rss_mb"}
