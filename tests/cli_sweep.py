"""Seeded byte-identity sweep of the 2x2 CLI commands.

Runs 900 seeded argv of ``two-level``, ``check`` (JSON and CSV) and
``evolve`` (with and without ``--psi0=``) in process, and prints the count
of each exit code and one sha256 over (argv, exit code, stdout, stderr).
Every fifth draw lies near the exceptional point: s = 1, theta = pi/6,
r = 2(1 - d) with d = 1 - |r sin(theta)/s| log-uniform in 1e-12 ... 1e-1.
Every argv draws a tolerance (none, 1e-8 or 1e-12), so that each draw
takes the same numbers from the generator whatever its command, but only
``check``, whose two observable criteria it decides, passes it on.
A change meant to keep CLI output byte-identical prints the same digest
before and after it, under one and under two BLAS threads:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_sweep.py
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/cli_sweep.py

The file name does not start with ``test_``, so pytest does not collect it;
``test_cli_sweep.py`` runs :func:`sweep` in tier-1 and pins its result.
"""

import hashlib
import json
import math
from collections import Counter

import numpy as np

from test_golden_cli import run

SEED = 7
DRAWS = 900
STEPS = (2, 3, 32, 200, 2000)
TOLERANCES = (None, 1e-8, 1e-12)
COMMANDS = ("two-level", "check json", "check csv", "evolve", "evolve psi0")


def model_args(rng, near_ep: bool) -> list:
    if near_ep:
        d = 10.0 ** rng.uniform(-12.0, -1.0)
        r, s, theta = 2.0 * (1.0 - d), 1.0, math.pi / 6
    else:
        r, s, theta = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0), rng.uniform(-math.pi, math.pi)
    return ["--r", repr(float(r)), "--s", repr(float(s)), "--theta", repr(float(theta))]


def draw_argv(rng, index: int) -> list:
    command, _, variant = COMMANDS[rng.integers(len(COMMANDS))].partition(" ")
    argv = [command, *model_args(rng, index % 5 == 4)]
    steps = str(STEPS[rng.integers(len(STEPS))])
    if command == "check":
        argv += ["--steps", steps, "--format", variant]
    elif command == "evolve":
        argv += ["--t-max", repr(float(rng.uniform(0.5, 12.0))), "--steps", steps]
        if variant:
            argv.append("--psi0=" + ",".join(repr(float(x)) for x in rng.normal(size=4)))
    tol = TOLERANCES[rng.integers(len(TOLERANCES))]
    if tol is not None and command == "check":
        argv += ["--tolerance", repr(tol)]
    return argv


def sweep():
    rng = np.random.default_rng(SEED)
    digest = hashlib.sha256()
    codes = Counter()
    for index in range(DRAWS):
        argv = draw_argv(rng, index)
        record = run(argv)
        codes[record["exit_code"]] += 1
        digest.update((json.dumps(record) + "\n").encode("utf-8"))
    return codes, digest.hexdigest()


if __name__ == "__main__":
    codes, hexdigest = sweep()
    print(" ".join(f"exit {code}: {n}" for code, n in sorted(codes.items())))
    print(f"sha256 {hexdigest}")
