"""The benchmark tracer still resolves a span for every per-layer metric.

``benchmarks/tracing.py`` names the span of a layer call after the first
dimension of its first argument, so a layer function that stops being
called, or that gets a stack as its first argument, leaves a per-layer
metric without spans and makes ``run.py --trace 1`` fail.  This runs the
2x2 commands under the tracer and checks the n = 2 spans.
"""

import contextlib
import io

import numpy as np

from ptqm import equivalence
from ptqm.cli import main
from ptqm.metric import cpt_system

from conftest import load_benchmark_module, oracles

MODEL = ["--r", "1.0", "--s", "1.0", "--theta", "0.5235987755982988"]


def test_every_layer_has_a_span_at_n2():
    tracing = load_benchmark_module("tracing")
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
    # only evolve reaches scipy, with one stack: check evolves in the
    # Hermitian frame, whose exponentials are diagonal and taken by numpy
    assert tracer.counts["expm"] == 1


def test_consistency_demo_has_spans_at_n64(rng):
    # the large_n workload runs a short demo at n = 64 and 256
    system = oracles.LargeN(64, rng)
    _, C, metric = cpt_system(system.H, system.P)
    O = system.observable(rng)
    tracing = load_benchmark_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, True):
            equivalence.consistency_demo(system.H, C, system.P, metric, O,
                                         np.linspace(0.0, 1.0, 4))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for prefix in ("linalg.expm_s", "equivalence.heisenberg_step_s",
                   "equivalence.check_bender_s", "equivalence.check_hermitian_s"):
        assert f"{prefix}.n64" in names


def test_spectrum_grid_solves_are_seen():
    # the tracer patches scipy.sparse.linalg.eigs on its module, so ptqm
    # must look the solver up there at call time
    tracing = load_benchmark_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, True), contextlib.redirect_stdout(io.StringIO()):
            assert main(["spectrum", "--nu", "0.5", "--k", "3"]) == 0
    finally:
        tracer.uninstall()
    spectra = [i for i, span in enumerate(tracer.spans) if span[0] == "spectral.spectrum"]
    assert len(spectra) == 1
    solves = [span for span in tracer.spans
              if span[0] in tracing.GRID_SOLVES and span[3] == spectra[0]]
    assert len(solves) == 3
