"""Benchmark of ptqm, end to end and per layer.

    python3 benchmarks/run.py --workload cli|dynamics|large_n|spectral \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ``src/`` as
it is, without installing it.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics (``setup_s``,
``p50_s``, ``ops_per_s``, ``peak_rss_mb``); with ``--trace 1`` it holds
the per-layer metrics of a traced run, and the spans are written to
``benchmarks/out/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from workloads import ROOT, WORKLOADS, child_env  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
#: set-up samples from fresh worker processes, besides the measuring one
EXTRA_SETUPS = 2
#: every run ends well inside three minutes
BUDGET_S = 170.0


class BenchmarkError(Exception):
    pass


def worker(args, mode, deadline):
    """Run worker.py in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if mode == "trace":
        cmd += ["--trace-file",
                os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.csv.gz")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker exceeded the time budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline):
    setups = []
    wrong = []
    if WORKLOADS[args.workload].in_process:
        for _ in range(EXTRA_SETUPS):
            res = worker(args, "setup", deadline)
            setups.append(res["setup_s"])
            wrong += res["wrong"]
    res = worker(args, "measure", deadline)
    setups += res["setup_samples"]
    wrong += res["wrong"]
    times = res["times"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "p50_s": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return {
        "correct": not wrong,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(args, deadline):
    res = worker(args, "trace", deadline)
    return {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S
    missing = [p for p in ("src/ptqm/__init__.py", "schemas/output.schema.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a ptqm checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result = per_layer(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
