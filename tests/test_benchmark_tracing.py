"""The benchmark tracer still resolves a span for every per-layer metric.

``benchmarks/tracing.py`` names the span of a layer call after the first
dimension of its first argument, so a layer function that stops being
called, or that gets a stack as its first argument, leaves a per-layer
metric without spans and makes ``run.py --trace 1`` fail.  This runs the
2x2 commands under the tracer and checks the n = 2 spans.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

from ptqm import equivalence
from ptqm.cli import main

from conftest import pt_symmetric_system

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
MODEL = ["--r", "1.0", "--s", "1.0", "--theta", "0.5235987755982988"]


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_has_a_span_at_n2(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, True), contextlib.redirect_stdout(io.StringIO()):
            assert main(["two-level", *MODEL]) == 0
            assert main(["check", *MODEL, "--steps", "40"]) == 0
            assert main(["evolve", *MODEL, "--t-max", "3.0", "--steps", "40"]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    missing = [f"{prefix}.n2" for prefix, sizes in tracing.SIZES.items()
               if 2 in sizes and f"{prefix}.n2" not in names]
    assert not missing
    # check evolves its grid with one stack each way, evolve with one
    assert tracer.counts["expm"] == 3


def test_consistency_demo_has_spans_at_n64(monkeypatch, rng):
    # the large_n workload runs a short demo at n = 64 and 256
    H, P, C, metric, O = pt_symmetric_system(64, rng)
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, True):
            equivalence.consistency_demo(H, C, P, metric, O, np.linspace(0.0, 1.0, 4))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for prefix in ("linalg.expm_s", "equivalence.heisenberg_step_s",
                   "equivalence.check_bender_s", "equivalence.check_hermitian_s"):
        assert f"{prefix}.n64" in names
