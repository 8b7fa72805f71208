import json
import math

import numpy as np
import pytest

from ptqm import equivalence, two_level
from ptqm.cli import main
from ptqm.equivalence import check_observable_bender, heisenberg_evolve
from ptqm.errors import InvalidInput, NumericalFailure
from ptqm.linalg import is_self_adjoint_wrt, matrix_exponential
from ptqm.metric import cpt_inner_product, cpt_system

jsonschema = pytest.importorskip("jsonschema")

from pathlib import Path

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "output.schema.json").read_text()
)

MODEL = ["--r", "1.0", "--s", "1.0", "--theta", str(np.pi / 6)]
OTHER = (-0.7, 1.3, 2.1)


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


def test_bad_tolerance_exit_2(capsys):
    # a NaN tolerance makes every tolerance comparison false, so no check fails
    for command in (["two-level"] + MODEL, ["spectrum", "--nu", "1"]):
        for tolerance in ("nan", "inf", "0", "-0.5"):
            code = main(command + ["--tolerance", tolerance])
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
        _, C, eta = cpt_system(H, two_level.PARITY, tol)
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


class TestCheckNearExceptionalPoint:
    """Near the EP, at d = 1 - |r sin(theta)/s| -> 0, the criterion residuals
    sit next to the tolerance, so a stacked test that rounded differently
    from the per-time one would flip a row here first."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-8])
    @pytest.mark.parametrize("d", [1e-1, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-9, 1e-11])
    def test_matches_per_step_reference(self, capsys, d, tol):
        r, s, theta, steps = 2.0 * (1.0 - d), 1.0, np.pi / 6, 64
        expected = check_reference(r, s, theta, steps, tol)
        argv = ["check", "--r", str(r), "--s", str(s), "--theta", str(theta),
                "--steps", str(steps), "--tolerance", str(tol)]
        assert run_cli(capsys, argv) == expected
        if d in (1e-4, 1e-5) and tol == 1e-10:
            # the eta criterion flips mid-run here: residuals straddle tol
            flags = {row["eta_hermitian"] for row in json.loads(expected[1])["rows"]}
            assert flags == {True, False}

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
