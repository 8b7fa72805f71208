"""Spans and call counts recorded from outside ptqm.

:func:`install` replaces ptqm's public layer functions, in every ptqm
module that binds them, with wrappers that record a span per call, and
wraps the numpy/scipy entry points ptqm reaches (``scipy.linalg.expm``,
``numpy.linalg.eigh``, ``numpy.linalg.inv``, ``numpy.linalg.eig`` and
``scipy.sparse.linalg.eigs``).  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the id of the benchmark
operation it belongs to.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import statistics
import sys
import time
from collections import Counter

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

# (module, function, span name prefix, size of the problem from the arguments)
LAYER_FUNCTIONS = [
    ("linalg", "eig", "linalg.eig_s", lambda a: np.shape(a[0])[0]),
    ("linalg", "matrix_exponential", "linalg.expm_s", lambda a: np.shape(a[0])[0]),
    ("metric", "pt_normalize", "metric.pt_normalize_s", lambda a: a[0].dim),
    ("metric", "build_C", "metric.build_C_s", lambda a: len(a[0][0])),
    ("metric", "metric_from_CPT", "metric.metric_from_CPT_s", lambda a: np.shape(a[0])[0]),
    ("equivalence", "build_equivalence", "equivalence.build_equivalence_s",
     lambda a: np.shape(a[0])[0]),
    ("equivalence", "build_equivalence_pt", "equivalence.build_equivalence_pt_s",
     lambda a: np.shape(a[0])[0]),
    ("equivalence", "heisenberg_evolve", "equivalence.heisenberg_step_s",
     lambda a: np.shape(a[0])[0]),
    ("equivalence", "check_observable_bender", "equivalence.check_bender_s",
     lambda a: np.shape(a[0])[0]),
    ("equivalence", "check_observable_hermitian", "equivalence.check_hermitian_s",
     lambda a: np.shape(a[0])[0]),
    ("equivalence", "consistency_demo", "equivalence.consistency_demo", None),
    ("spectral", "spectrum", "spectral.spectrum", None),
]

# (module, attribute, counter name or None, span name or None)
ENTRY_POINTS = [
    (scipy.linalg, "expm", "expm", None),
    (np.linalg, "eigh", "eigh", None),
    (np.linalg, "inv", "inv", None),
    (np.linalg, "eig", None, "numpy.eig"),
    (scipy.sparse.linalg, "eigs", None, "scipy.eigs"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self.counting = False
        self.counts = Counter()
        self._restore = []

    def _open(self, name):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        if self.op is None:  # outside benchmark operations (warm-up, checks)
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def operation(self, op_id, counted):
        """Spans inside belong to ``op_id``; entry-point calls are counted
        only when ``counted`` (the workload's own ops, not probes)."""
        self.op, self.counting = op_id, counted
        try:
            with self.span("op"):
                yield
        finally:
            self.op, self.counting = None, False

    def _wrap(self, fn, name_of, key=None):
        """``fn`` recording a span named ``name_of(args)`` (none when that is
        None) and counting calls under ``key`` inside counted operations."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if key and self.counting:
                self.counts[key] += 1
            name = name_of(args)
            if name is None:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def install(self):
        """Wrap every binding of the layer functions and the entry points."""
        import ptqm

        modules = [m for name, m in sys.modules.items()
                   if name == "ptqm" or name.startswith("ptqm.")]
        for mod_name, fn_name, prefix, size in LAYER_FUNCTIONS:
            original = getattr(getattr(ptqm, mod_name), fn_name)
            if size is None:
                wrapper = self._wrap(original, lambda args, p=prefix: p)
            else:
                wrapper = self._wrap(original, lambda args, p=prefix, f=size: f"{p}.n{f(args)}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for mod, attr, key, span_name in ENTRY_POINTS:
            original = getattr(mod, attr)
            self._restore.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, lambda args, n=span_name: n, key))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def dump(self, path):
        """Write the spans as gzip'd CSV: name,start,end,parent,op."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


SIZES = {
    "linalg.eig_s": (2, 64, 256),
    "linalg.expm_s": (2, 64, 256),
    "metric.pt_normalize_s": (2, 64, 256),
    "metric.build_C_s": (2, 64, 256),
    "metric.metric_from_CPT_s": (2, 64, 256),
    "equivalence.build_equivalence_s": (2, 64, 256),
    "equivalence.build_equivalence_pt_s": (64, 256),
    "equivalence.heisenberg_step_s": (2, 64, 256),
    "equivalence.check_bender_s": (2, 64, 256),
    "equivalence.check_hermitian_s": (2, 64, 256),
}
CLI_COMMANDS = ("two_level", "check", "evolve", "spectrum")
COUNTS = {"linalg.expm_calls": "expm", "linalg.eigh_calls": "eigh", "linalg.inv_calls": "inv"}
GRID_SOLVES = ("scipy.eigs", "numpy.eig")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [("cli.import_s", "s"), ("cli.import_scipy_s", "s")]
    names += [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    names += [(n, "count") for n in COUNTS]
    names += [(f"{prefix}.n{n}", "s") for prefix, sizes in SIZES.items() for n in sizes]
    names += [("equivalence.consistency_demo_s", "s"), ("spectral.grid_solves", "count"),
              ("spectral.grid_solve_s", "s"), ("spectral.other_s", "s")]
    return names


def owner(span_name):
    """The workload whose operations define a layer metric in the traced
    runs of workloads that do not call that layer."""
    if span_name.startswith("spectral."):
        return "spectral"
    if span_name.startswith("cli.") or span_name == "equivalence.build_equivalence_s.n2":
        return "cli"
    if span_name.endswith((".n64", ".n256")):
        return "large_n"
    return "dynamics"


def layer_metrics(tracer, own_ops, imports):
    """Per-layer metrics from the spans of ``tracer``.

    Times are medians of inclusive span durations, taken from the
    workload's own operations when it calls the layer and otherwise from
    the probe operation of the workload that owns the layer (see
    :func:`owner`).  ``equivalence.consistency_demo_s`` is the time per
    operation; the ``spectral.*`` figures are per ``spectrum()`` call.
    Counts are calls per own operation.  ``imports`` holds
    (``import ptqm``, ``import scipy.linalg``) seconds from fresh
    interpreters.
    """
    by_name = {}
    for idx, (name, start, end, _, op) in enumerate(tracer.spans):
        by_name.setdefault(name, []).append((idx, end - start, op))

    def pick(name):
        entries = by_name[name]
        own = [e for e in entries if e[2] in own_ops]
        return own or [e for e in entries if e[2] == f"probe-{owner(name)}"]

    def median_duration(name):
        return statistics.median(d for _, d, _ in pick(name))

    out = {
        "cli.import_s": statistics.median(total for total, _ in imports),
        "cli.import_scipy_s": statistics.median(sp for _, sp in imports),
    }
    for c in CLI_COMMANDS:
        out[f"cli.{c}_s"] = median_duration(f"cli.{c}_s")
    n_own = len(own_ops)
    for metric, key in COUNTS.items():
        out[metric] = tracer.counts[key] / n_own
    for prefix, sizes in SIZES.items():
        for n in sizes:
            out[f"{prefix}.n{n}"] = median_duration(f"{prefix}.n{n}")
    per_op = {}
    for _, d, op in pick("equivalence.consistency_demo"):
        per_op[op] = per_op.get(op, 0.0) + d
    out["equivalence.consistency_demo_s"] = statistics.median(per_op.values())
    spectra = pick("spectral.spectrum")
    solves = {idx: [] for idx, _, _ in spectra}
    for name in GRID_SOLVES:
        for idx, d, _ in by_name.get(name, []):
            parent = tracer.spans[idx][3]
            if parent in solves:
                solves[parent].append(d)
    out["spectral.grid_solves"] = sum(len(v) for v in solves.values()) / len(solves)
    out["spectral.grid_solve_s"] = statistics.median(sum(v) for v in solves.values())
    out["spectral.other_s"] = statistics.median(d - sum(solves[idx]) for idx, d, _ in spectra)
    units = dict(per_layer_names())
    return {name: {"value": out[name], "unit": units[name]} for name, _ in per_layer_names()}
