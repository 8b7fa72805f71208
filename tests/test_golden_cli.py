"""Byte-for-byte golden outputs of the 2x2 CLI commands.

Each file in ``tests/golden/`` holds the argv of one command with its
exit code, standard output and standard error.  ``spectrum`` levels are
left out: their last digits depend on the BLAS thread count.  Its two
refusals are pinned: nu out of regime, and a box too small for k levels
at nu = 0, whose message gives each level's real part to six digits, its
wall shift and refinement gap to two where above 1e-8 ("<1e-08" below),
L and N, which read the same under one and two BLAS threads.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden_cli.py

The goldens pin eleven argv.  ``tests/cli_sweep.py`` covers 900 seeded ones,
near-EP draws included, and prints one sha256 over all their outputs; a
change that must keep CLI output byte-identical prints the same digest
before and after it:

    PYTHONPATH=src python tests/cli_sweep.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ptqm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MODEL = ["--r", "1.0", "--s", "1.0", "--theta", "0.5235987755982988"]
OTHER = ["--r", "-0.7", "--s", "1.3", "--theta", "2.1"]

CASES = {
    "two_level": ["two-level", *MODEL],
    "two_level_other": ["two-level", *OTHER],
    "check_json": ["check", *MODEL],
    "check_json_other": ["check", *OTHER, "--steps", "9"],
    "check_csv": ["check", *MODEL, "--steps", "16", "--format", "csv"],
    "evolve": ["evolve", *MODEL, "--t-max", "3.0", "--steps", "11"],
    "evolve_psi0": ["evolve", *OTHER, "--t-max", "2.5", "--steps", "7",
                    "--psi0", "0.6,0.1,-0.3,0.7"],
    "two_level_broken": ["two-level", "--r", "2", "--s", "1", "--theta", "1.5707963"],
    "check_near_ep": ["check", "--r", "1.9999999", "--s", "1",
                      "--theta", "0.5235987755982988"],
    "spectrum_out_of_regime": ["spectrum", "--nu", "2"],
    "spectrum_box_too_small": ["spectrum", "--nu", "0", "--k", "5", "--L", "2"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        text = json.dumps(run(argv), indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
