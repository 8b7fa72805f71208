"""What a fresh interpreter loads for ``import ptqm`` and each 2x2 command.

``import ptqm``, ``two-level`` and ``check`` need numpy only: ``check``
evolves in the Hermitian frame, whose exponentials are diagonal and never
reach scipy.  ``evolve`` calls ``scipy.linalg.expm`` on a dense
Hamiltonian but never loads ``scipy.sparse``.  Each case runs
``python -m ptqm.cli`` (through :mod:`runpy`) in a new interpreter and
reads ``sys.modules`` after it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODEL = ["--r", "1.0", "--s", "1.0", "--theta", "0.5235987755982988"]

_CHILD = """
import json, runpy, sys
argv = sys.argv[1:]
if argv:
    sys.argv = ["ptqm.cli", *argv]
    try:
        runpy.run_module("ptqm.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
else:
    import ptqm
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")),
      file=sys.stderr)
"""


def scipy_modules(argv):
    """Names of the scipy modules loaded after ``argv`` ran in a fresh
    interpreter (``import ptqm`` when ``argv`` is empty)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["two-level", *MODEL],
    ["check", *MODEL, "--steps", "32"],
    ["check", *MODEL, "--steps", "32", "--format", "csv"],
], ids=["import", "two-level", "check", "check-csv"])
def test_no_scipy(argv):
    assert scipy_modules(argv) == []


@pytest.mark.parametrize("argv", [
    ["evolve", *MODEL, "--t-max", "3.0", "--steps", "11"],
], ids=["evolve"])
def test_no_scipy_sparse(argv):
    loaded = scipy_modules(argv)
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]
