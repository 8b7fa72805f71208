import hashlib
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from ptqm import equivalence, two_level
from ptqm.cli import main
from ptqm.equivalence import check_observable_bender, heisenberg_evolve
from ptqm.errors import InvalidInput, NumericalFailure
from ptqm.linalg import matrix_exponential
from ptqm.metric import cpt_system

from conftest import cpt_inner_product, is_self_adjoint_wrt, oracles

jsonschema = pytest.importorskip("jsonschema")

from pathlib import Path

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "output.schema.json").read_text()
)

MODEL = ["--r", "1.0", "--s", "1.0", "--theta", str(np.pi / 6)]
OTHER = (-0.7, 1.3, 2.1)
NON_FINITE_MODEL = (["--theta", "inf"], ["--r", "nan"], ["--s", "inf"])


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestTwoLevel:
    def test_exit_and_schema(self, capsys):
        code, out = run_cli(capsys, ["two-level"] + MODEL)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["command"] == "two-level"

    def test_reference_values(self, capsys):
        _, out = run_cli(capsys, ["two-level"] + MODEL)
        doc = json.loads(out)
        assert doc["alpha"] == pytest.approx(np.pi / 6)
        assert doc["eigenvalues"][0] == pytest.approx(np.sqrt(3.0))
        assert doc["eigenvalues"][1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            doc["eta"]["eigenvalues"], [np.sqrt(3.0), 1.0 / np.sqrt(3.0)], atol=1e-10
        )
        assert doc["U_printed_residual"] == pytest.approx(0.4226, abs=5e-4)
        # eta matrix entry (0,1) = -i tan(alpha)
        assert doc["eta"]["matrix"][0][1]["im"] == pytest.approx(
            -np.tan(np.pi / 6), abs=1e-10
        )

    def test_two_hermitian_eigendecompositions(self, capsys, monkeypatch):
        # eta validated once when built and the diagonalization of
        # rho H rho^-1; the square root in the canonical map and the
        # printed eta eigenvalues reuse the validator's eigensystem
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        code, _ = run_cli(capsys, ["two-level"] + MODEL)
        assert code == 0
        assert calls == ["eigh"] * 2

    def test_overflowing_norms_judged_without_warning(self, capsys):
        # the Frobenius norms of H overflow at r = s = 1e200; the residual
        # tests rescale them, so nothing reaches stderr and stdout is the
        # one the unscaled tests printed (with a RuntimeWarning) before
        code = main(["two-level", "--r", "1e200", "--s", "1e200", "--theta", "0.5"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        jsonschema.validate(json.loads(captured.out), SCHEMA)
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "0aa934cea684880fd92b41353aaada73b5c65abfce56b617d50319683cd03fab"
        )

    def test_byte_determinism(self, capsys):
        _, out1 = run_cli(capsys, ["two-level"] + MODEL)
        _, out2 = run_cli(capsys, ["two-level"] + MODEL)
        assert out1 == out2
        assert out1.endswith("\n")
        assert "\r" not in out1

    def test_broken_region_exit_2(self, capsys):
        code, _ = run_cli(
            capsys, ["two-level", "--r", "2.0", "--s", "1.0", "--theta", "1.5707963"]
        )
        assert code == 2
        # non-finite model arguments; the last of a repeated option wins
        for tail in NON_FINITE_MODEL:
            assert run_cli(capsys, ["two-level"] + MODEL + tail) == (2, ""), tail


def test_bad_tolerance_exit_2(capsys):
    # a NaN tolerance makes every tolerance comparison false, so no check fails
    for tolerance in ("nan", "inf", "0", "-0.5"):
        code = main(["check"] + MODEL + ["--tolerance", tolerance])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: tolerance must be positive and finite\n"


class TestCheck:
    def test_json_schema_and_summary(self, capsys):
        code, out = run_cli(capsys, ["check"] + MODEL + ["--steps", "8"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["summary"]["eta_criterion_dynamically_stable"] is True
        assert doc["summary"]["bender_criterion_dynamically_stable"] is False
        assert len(doc["rows"]) == 8
        assert doc["period"] == pytest.approx(2.0 * np.pi / np.sqrt(3.0))

    def test_endpoints_pass_bender(self, capsys):
        # t = 0 and t = period = 2 * return period give O back
        _, out = run_cli(capsys, ["check"] + MODEL + ["--steps", "5"])
        doc = json.loads(out)
        first, last = doc["rows"][0], doc["rows"][-1]
        assert first["symmetric"] and first["cpt_invariant"]
        assert last["symmetric"] and last["cpt_invariant"]

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, ["check"] + MODEL + ["--steps", "4", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,symmetric,cpt_invariant,eta_hermitian"
        assert len(lines) == 5
        assert lines[1].split(",")[1:] == ["true", "true", "true"]

    def test_too_few_steps_exit_2(self, capsys):
        code, _ = run_cli(capsys, ["check"] + MODEL + ["--steps", "1"])
        assert code == 2
        for tail in NON_FINITE_MODEL:
            assert run_cli(capsys, ["check"] + MODEL + ["--steps", "8"] + tail) == (2, ""), tail

    def test_long_run_matches_per_step_reference(self, capsys):
        # 2000 steps: the whole grid is evolved in one stack at n = 2
        r, s, theta = OTHER
        steps = 2000
        p = two_level.TwoLevelParams(r, s, theta)
        H = two_level.build_H(p)
        _, C, eta = cpt_system(H, two_level.PARITY)
        O = two_level.S_mu(p, 2)
        period = math.pi / (p.s * math.cos(p.alpha))
        rows = []
        for t in np.linspace(0.0, period, steps):
            t = float(t)
            Ot = matrix_exponential(1j * t * H) @ O @ matrix_exponential(-1j * t * H)
            bc = check_observable_bender(Ot, C, two_level.PARITY)
            rows.append({"t": t, "symmetric": bc.symmetric,
                         "cpt_invariant": bc.cpt_invariant,
                         "eta_hermitian": is_self_adjoint_wrt(Ot, eta.eta)})
        doc = {
            "command": "check", "r": r, "s": s, "theta": theta, "alpha": p.alpha,
            "period": period, "rows": rows,
            "summary": {
                "bender_criterion_dynamically_stable": all(
                    row["symmetric"] and row["cpt_invariant"] for row in rows),
                "eta_criterion_dynamically_stable": all(row["eta_hermitian"] for row in rows),
            },
        }
        argv = ["check", "--r", str(r), "--s", str(s), "--theta", str(theta),
                "--steps", str(steps)]
        assert run_cli(capsys, argv) == (0, json.dumps(doc, indent=2) + "\n")


def check_reference(r, s, theta, steps, tol):
    """(exit code, stdout) of JSON ``check`` from per-time scalar calls."""
    p = two_level.TwoLevelParams(r, s, theta)
    H = two_level.build_H(p)
    O = two_level.S_mu(p, 2)
    period = math.pi / (p.s * math.cos(p.alpha))
    try:
        _, C, eta = cpt_system(H, two_level.PARITY)
        if not check_observable_bender(O, C, two_level.PARITY, tol).passed:
            raise InvalidInput("input observable fails the criterion at t = 0")
        rows = []
        for t in np.linspace(0.0, period, steps):
            t = float(t)
            Ot = heisenberg_evolve(H, O, t)
            bc = check_observable_bender(Ot, C, two_level.PARITY, tol)
            rows.append({"t": t, "symmetric": bc.symmetric,
                         "cpt_invariant": bc.cpt_invariant,
                         "eta_hermitian": is_self_adjoint_wrt(Ot, eta.eta, tol)})
    except InvalidInput:
        return 2, ""
    except NumericalFailure:
        return 3, ""
    doc = {
        "command": "check", "r": r, "s": s, "theta": theta, "alpha": p.alpha,
        "period": period, "rows": rows,
        "summary": {
            "bender_criterion_dynamically_stable": all(
                row["symmetric"] and row["cpt_invariant"] for row in rows),
            "eta_criterion_dynamically_stable": all(row["eta_hermitian"] for row in rows),
        },
    }
    return 0, json.dumps(doc, indent=2) + "\n"


#: The paper's verdict: the symmetric/CPT-invariant criterion is lost along
#: the flow, eta-self-adjointness is kept.
PAPER_SUMMARY = {
    "bender_criterion_dynamically_stable": False,
    "eta_criterion_dynamically_stable": True,
}


def near_ep_argv(d, steps, tol):
    r, s, theta = 2.0 * (1.0 - d), 1.0, np.pi / 6
    return ["check", "--r", str(r), "--s", str(s), "--theta", str(theta),
            "--steps", str(steps), "--tolerance", str(tol)]


def right_or_refused(code, out) -> bool:
    """A numerical-failure exit, or exit 0 with the paper's summary and a
    t = 0 row that passes the test the observable passed."""
    if code == 3:
        return True
    doc = json.loads(out) if code == 0 else {}
    return doc.get("summary") == PAPER_SUMMARY and (
        doc["rows"][0]["symmetric"] and doc["rows"][0]["cpt_invariant"]
    )


class TestCheckNearExceptionalPoint:
    """Near the EP, at d = 1 - |r sin(theta)/s| -> 0, kappa(eta) grows like
    2/d and the criterion residuals approach the tolerance.  ``check`` must
    then print the paper's summary or refuse with exit 3, never a wrong
    answer and never an invalid-input exit."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-8])
    @pytest.mark.parametrize("d", [1e-1, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-9, 1e-11])
    def test_matches_per_step_reference(self, capsys, d, tol):
        code, out = run_cli(capsys, near_ep_argv(d, 64, tol))
        assert right_or_refused(code, out)
        if d >= 1e-3:
            # the reference evolves with dense e^{+-iHt}, whose rounding
            # grows like kappa^2 eps: an oracle row for row only this far out
            assert (code, out) == check_reference(2.0 * (1.0 - d), 1.0, np.pi / 6, 64, tol)

    #: Runs of the grid below that answer (exit 0), per (tol, steps).
    ANSWERED = {(1e-8, 32): 13, (1e-8, 2000): 13, (1e-10, 32): 9, (1e-10, 2000): 8,
                (1e-12, 32): 5, (1e-12, 2000): 4}

    @pytest.mark.parametrize("steps", [32, 2000])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_right_or_refused_down_to_1e_12(self, capsys, tol, steps):
        wrong, unnamed, answered = [], [], 0
        for k in range(2, 25):  # d = 1e-1 ... 1e-12 in half-decades
            d = 10.0 ** (-k / 2)
            code = main(near_ep_argv(d, steps, tol))
            out, err = capsys.readouterr()
            if not right_or_refused(code, out):
                wrong.append((d, code))
            # the cause near the EP is the metric's conditioning, whatever
            # the tolerance of the criteria; the matrix is not defective
            if code == 3 and "kappa" not in err:
                unnamed.append((d, err))
            answered += code == 0
        assert not wrong
        assert not unnamed
        assert answered == self.ANSWERED[tol, steps]

    def test_bender_checked_once_per_run(self, capsys, monkeypatch):
        # only the t = 0 validation goes through the public check; the
        # evolved stacks are tested at once
        calls = []
        original = equivalence.check_observable_bender

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(equivalence, "check_observable_bender", counting)
        code, _ = run_cli(capsys, ["check"] + MODEL + ["--steps", "2000"])
        assert code == 0
        assert len(calls) == 1

    def test_eta_checked_once_per_run(self, capsys, monkeypatch):
        # the public eta test runs only on H, inside the canonical map; the
        # evolved stacks are tested at once
        calls = []
        original = equivalence.check_observable_hermitian

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(equivalence, "check_observable_hermitian", counting)
        code, _ = run_cli(capsys, ["check"] + MODEL + ["--steps", "2000"])
        H = two_level.build_H(two_level.TwoLevelParams(1.0, 1.0, np.pi / 6))
        assert code == 0
        assert len(calls) == 1 and np.array_equal(calls[0], H)


def exact_norms(r, s, theta, times):
    """(norm_dirac, norm_cpt) of e^{-iHt} (1, 0) at each of ``times``, at 40
    digits from the closed-form propagator at the float parameters:
    e^{-iHt} = e^{-i t r cos(theta)} (cos(w t) 1 - i sin(w t) / w K) with
    K = H - r cos(theta) 1, w = s cos(alpha), whose phase both norms drop,
    and eta = sec(alpha) 1 + tan(alpha) sigma_2."""
    with mpmath.workdps(40):
        r, s, theta = map(mpmath.mpf, (r, s, theta))
        x = r * mpmath.sin(theta) / s
        cos_alpha = mpmath.sqrt(1 - x * x)
        sec, tan, w = 1 / cos_alpha, x / cos_alpha, s * cos_alpha
        K0, K1 = 1j * r * mpmath.sin(theta), s  # K (1, 0)
        norms = []
        for t in times:
            c, sinc = mpmath.cos(w * t), mpmath.sin(w * t) / w
            a, b = c - 1j * sinc * K0, -1j * sinc * K1
            eta_psi = (sec * a - 1j * tan * b, 1j * tan * a + sec * b)
            cpt = mpmath.conj(a) * eta_psi[0] + mpmath.conj(b) * eta_psi[1]
            norms.append((mpmath.sqrt(abs(a) ** 2 + abs(b) ** 2), mpmath.sqrt(cpt.real)))
        return np.array(norms, dtype=float)


class TestEvolve:
    def test_cpt_norm_conserved_dirac_not(self, capsys):
        code, out = run_cli(
            capsys, ["evolve"] + MODEL + ["--t-max", "12.0", "--steps", "200"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,norm_dirac,norm_cpt"
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        cpt = rows[:, 2]
        dirac = rows[:, 1]
        assert np.abs(cpt - cpt[0]).max() < 1e-9
        assert np.abs(dirac - dirac[0]).max() > 1e-3

    def test_psi0_flag(self, capsys):
        code, out = run_cli(
            capsys,
            ["evolve"] + MODEL + ["--t-max", "1.0", "--steps", "2", "--psi0", "0,0,1,0"],
        )
        assert code == 0
        first = out.strip().split("\n")[1].split(",")
        assert float(first[1]) == pytest.approx(1.0)

    def test_bad_psi0_exit_2(self, capsys):
        for tail in (
            ["--t-max", "1.0", "--psi0", "1,0"],
            ["--t-max", "1.0", "--psi0", "a,b,c,d"],
            ["--t-max", "1.0", "--psi0", "nan,0,0,0"],
            ["--t-max", "1.0", "--psi0", "0,inf,1,0"],
            ["--t-max", "nan"],
            ["--t-max", "inf"],
            ["--t-max", "0"],
            ["--t-max", "1.0", "--steps", "1"],
            *(["--t-max", "1.0"] + model for model in NON_FINITE_MODEL),
        ):
            argv = ["evolve"] + MODEL + ["--steps", "2"] + tail
            assert run_cli(capsys, argv) == (2, ""), tail

    def test_long_run_matches_per_step_reference(self, capsys):
        r, s, theta = OTHER
        steps, t_max = 2000, 40.0
        H = two_level.build_H(two_level.TwoLevelParams(r, s, theta))
        _, _, eta = cpt_system(H, two_level.PARITY)
        psi0 = np.array([0.6 + 0.1j, -0.3 + 0.7j])
        lines = ["t,norm_dirac,norm_cpt"]
        for t in np.linspace(0.0, t_max, steps):
            psi = matrix_exponential(-1j * float(t) * H) @ psi0
            norms = (float(t), np.sqrt((psi.conj() @ psi).real),
                     np.sqrt(cpt_inner_product(eta, psi, psi).real))
            lines.append(",".join("%.15g" % x for x in norms))
        argv = ["evolve", "--r", str(r), "--s", str(s), "--theta", str(theta),
                "--t-max", str(t_max), "--steps", str(steps), "--psi0", "0.6,0.1,-0.3,0.7"]
        assert run_cli(capsys, argv) == (0, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("r, s, theta", [
        (1.0, 1.0, np.pi / 6), OTHER,
        *(oracles.near_ep_params(d) for d in (1e-3, 1e-6, 1e-9)),
    ], ids=["reference", "other", "ep-1e-3", "ep-1e-6", "ep-1e-9"])
    def test_norms_match_exact_propagator(self, capsys, r, s, theta):
        # measured: Dirac norms within 2.4e-14 and CPT norms within
        # 9.7 eps kappa(eta), up to kappa = 2e9 at d = 1e-9
        argv = ["evolve", "--r", repr(r), "--s", repr(s), "--theta", repr(theta),
                "--t-max", "12", "--steps", "200"]
        code, out = run_cli(capsys, argv)
        assert code == 0
        rows = np.array([[float(x) for x in ln.split(",")] for ln in out.split("\n")[1:-1]])
        times = np.linspace(0.0, 12.0, 200)
        np.testing.assert_allclose(rows[:, 0], times, rtol=1e-14, atol=0)
        exact = exact_norms(r, s, theta, times)
        error = np.abs(rows[:, 1:] / exact - 1).max(axis=0)
        kappa = oracles.two_level_eta_cond(r, s, theta)
        assert error[0] <= 1e-13
        assert error[1] <= 16 * np.finfo(float).eps * kappa


class TestSpectrum:
    def test_harmonic_schema_and_values(self, capsys):
        code, out = run_cli(
            capsys,
            ["spectrum", "--nu", "0.0", "--k", "3", "--L", "10.0", "--N", "1200"],
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        levels = [z["re"] for z in doc["levels"]]
        np.testing.assert_allclose(levels, [1.0, 3.0, 5.0], atol=1e-6)
        assert doc["converged"] is True

    def test_out_of_regime_exit_2(self, capsys):
        for tail in (["--nu", "2.5"], ["--nu", "1", "--L", "nan"], ["--nu", "1", "--L", "inf"]):
            assert run_cli(capsys, ["spectrum"] + tail) == (2, ""), tail

    def test_unconverged_levels_exit_3(self, capsys):
        # too coarse a grid: the levels look real but do not converge
        code = main(["spectrum", "--nu", "1.0", "--k", "3", "--N", "100"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "levels 1 (4.10924" in captured.err
        assert ", 2 (7.56231" in captured.err
        assert "did not converge under grid refinement (L = 8.0, N = 100)" in captured.err

    @pytest.mark.parametrize("nu", ["0", "1"])
    def test_box_too_small_exit_3(self, capsys, nu):
        # every level converges under refinement here, but the wall shifts
        # it: at nu = 1, E4 by 17%
        code = main(["spectrum", "--nu", nu, "--k", "5", "--L", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("error: levels 0 (")
        assert captured.err.count("wall shift") == 5
        assert captured.err.endswith(
            f"at nu = {float(nu)} are shifted by the walls (L = 2.0, N = 1000):"
            " the box is too small\n"
        )

    def test_refusals_byte_identical_under_one_and_two_blas_threads(self):
        # the refusal names no digit of rounding noise: not an imaginary
        # part of 1e-13, nor a refinement gap under 1e-8
        child = (
            "import contextlib, io\n"
            "from ptqm.cli import main\n"
            "for nu in ('0', '0.5', '1', '1.5', '1.9'):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        code = main(['spectrum', '--nu', nu, '--k', '5', '--L', '2'])\n"
            "    print(code, err.getvalue(), end='')\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-B", "-c", child], env={**env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("3 error: levels 0 (") == 5

    @pytest.mark.parametrize("L", ["1e-200", "1e160", "1e200"])
    def test_overflowing_box_exit_3(self, capsys, L):
        # 1/h^2 (tiny box) or V(x(+-L)) (huge box) is not finite
        code = main(["spectrum", "--nu", "0", "--L", L])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: the operator on 2000 grid points overflows")
        assert f"at L = {float(L)}:" in captured.err

    def test_converges_near_nu_2(self, capsys):
        # the complex contour keeps the levels bound as nu -> 2
        code, out = run_cli(capsys, ["spectrum", "--nu", "1.99", "--k", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True and doc["max_imag"] < 1e-9
        assert doc["levels"][0]["re"] == pytest.approx(1.4733641, abs=1e-7)

    def test_byte_determinism(self, capsys):
        args = ["spectrum", "--nu", "1.0", "--k", "2", "--L", "8.0", "--N", "600"]
        _, out1 = run_cli(capsys, args)
        _, out2 = run_cli(capsys, args)
        assert out1 == out2


class TestOutputFile:
    def test_atomic_write(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = run_cli(
            capsys, ["two-level"] + MODEL + ["--output", str(target)]
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        jsonschema.validate(doc, SCHEMA)
        assert not list(tmp_path.glob(".ptqm-*"))

    @pytest.mark.parametrize("missing", [False, True])
    def test_unwritable_path_exit_2(self, capsys, tmp_path, missing):
        # a missing directory fails in mkstemp; an existing directory as the
        # target fails in os.replace, after the temporary file is written
        # next to it, in tmp_path, and must be removed
        target = tmp_path / "missing" / "out.json" if missing else tmp_path / "dir"
        if not missing:
            target.mkdir()
        reason = "No such file or directory" if missing else "Is a directory"
        code = main(["two-level"] + MODEL + ["--output", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: cannot write {target}: {reason}\n"
        assert not list(tmp_path.glob("**/.ptqm-*"))
