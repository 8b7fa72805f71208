"""The 900-argv byte-identity sweep of ``cli_sweep.py`` in tier-1: its
exit-code counts and digest are pinned here, so a change to any output of
the 2x2 commands fails this test.  An intended output change updates these
constants and is recorded in CHANGES.md."""

import os
import subprocess
import sys
from pathlib import Path

import cli_sweep

CODES = {0: 654, 2: 173, 3: 73}
DIGEST = "3c04079bbd61e73230d8911bed4534500981787c1fbdc61821be6a911f9df3a8"


def test_sweep_is_byte_identical():
    codes, hexdigest = cli_sweep.sweep()
    assert (dict(codes), hexdigest) == (CODES, DIGEST)


def test_sweep_is_byte_identical_under_two_blas_threads():
    # conftest pins one BLAS thread before numpy loads, so the documented
    # OPENBLAS_NUM_THREADS=2 run of cli_sweep.py needs its own interpreter
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "2"
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-B", cli_sweep.__file__],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    codes = " ".join(f"exit {code}: {n}" for code, n in sorted(CODES.items()))
    assert done.stdout == f"{codes}\nsha256 {DIGEST}\n"
