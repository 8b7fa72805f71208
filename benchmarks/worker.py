"""One measuring process of the benchmark, started by ``run.py``.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace

``setup`` imports ptqm and runs one warm-up operation; ``measure`` does
the same and then runs whole rounds of operations until they have taken
``--seconds`` in total (the untimed output checks come on top); ``trace`` runs the operations with the tracer installed and
reports the per-layer metrics.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread: OpenBLAS's second thread spins on this 2x2-dominated
# work and adds noise without saving time.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def timed_import():
    t0 = time.perf_counter()
    import ptqm  # noqa: F401

    return time.perf_counter() - t0


class Tally:
    """Attempted, failed and wrongly answered operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def run_op(self, wl, inp, tracer=None, op_id=None, counted=True):
        """Run one operation (timed) and check it (untimed); returns seconds."""
        from workloads import WrongOutput

        self.attempted += 1
        scope = tracer.operation(op_id, counted) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                out = wl.run(inp, tracer)
        except Exception:  # a program fault: count it, keep measuring
            elapsed = time.perf_counter() - t0
            self.failed += 1
            print(f"{wl.name}: operation raised\n{traceback.format_exc()}", file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            if wl.check(inp, out):
                self.failed += 1
        except (WrongOutput, ValueError, KeyError, IndexError, TypeError) as exc:
            self.wrong.append(f"{wl.name}: {type(exc).__name__}: {exc}")
            print(self.wrong[-1], file=sys.stderr)
        return elapsed


def setup(name, seed):
    """Seconds for ``import ptqm`` plus one warm-up operation.

    ``workloads`` imports numpy, so it is imported only after ptqm is timed.
    """
    import_s = timed_import()
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    tally = Tally()
    op_s = tally.run_op(wl, wl.warmup_input(seed))
    return wl, import_s + op_s, tally.wrong


def measure(name, seed, seconds):
    if name == "cli":  # its set-up is a fresh interpreter importing ptqm
        from workloads import WORKLOADS, import_wall_time

        wl = WORKLOADS[name]
        tally = Tally()
        tally.run_op(wl, wl.warmup_input(seed))  # fills the page cache and __pycache__
        setup_samples = [import_wall_time() for _ in range(5)]
        wrong = tally.wrong
    else:
        wl, setup_s, wrong = setup(name, seed)
        setup_samples = [setup_s]
    tally = Tally()
    times = []
    for rnd in wl.rounds(seed):
        times += [tally.run_op(wl, inp) for inp in rnd]
        if sum(times) >= seconds:
            break
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_samples": setup_samples,
        "times": times,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": wrong + tally.wrong,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def trace(name, seed, seconds, trace_file):
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    tally = Tally()
    tally.run_op(wl, wl.warmup_input(seed), tracer)  # op id None: nothing recorded
    tally.attempted = tally.failed = 0
    op_times = []
    for rnd in wl.rounds(seed):
        for inp in rnd:
            op_times.append(tally.run_op(wl, inp, tracer, len(op_times), True))
        if sum(op_times) >= seconds:
            break
    own_ops = set(range(len(op_times)))
    attempted, failed = tally.attempted, tally.failed
    # one operation of every other workload, so each layer is measured
    for other in workloads.WORKLOADS.values():
        if other is not wl:
            for inp in other.probe_inputs(seed):
                tally.run_op(other, inp, tracer, f"probe-{other.name}", False)
    imports = [workloads.import_breakdown() for _ in range(3)]
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, own_ops, imports)
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    tracer.dump(trace_file)
    print(f"{wl.name}: {len(op_times)} traced ops, median {statistics.median(op_times):.6f} s",
          file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "wrong": tally.wrong, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    if args.mode == "setup":
        _, setup_s, wrong = setup(args.workload, args.seed)
        result = {"setup_s": setup_s, "wrong": wrong}
    elif args.mode == "measure":
        result = measure(args.workload, args.seed, args.seconds)
    else:
        result = trace(args.workload, args.seed, args.seconds, args.trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
