"""Every function or class defined at module level in ``src/ptqm/*.py``,
public or private, has a caller: code in ``src/ptqm/`` outside its own
definition, or the benchmark's ``workloads.py`` or ``tracing.py``, refers
to it.  A name without one is kept only with a reason in ``UNCALLED``.

A reference is a name, an attribute, or a string equal to the name (the
benchmark tracer looks its functions up with ``getattr``); docstrings and
imports do not count.

The oracles the tests judge ptqm by, ``benchmarks/oracles.py``, import no
ptqm, so that no test grades ptqm with ptqm's own code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ptqm").glob("*.py"))
CALLERS = MODULES + [
    ROOT / "benchmarks" / "workloads.py",
    ROOT / "benchmarks" / "tracing.py",
]

#: Names with no caller in the package or the benchmark, and why they stay.
UNCALLED = {
    "pull_back_observable": "the paper's definition of an observable, O = U^-1 o U",
    "metric_from_biorthonormal": "C-free cross-check of the CPT metric; ACCEPTANCE 09 runs it",
}


class References(ast.NodeVisitor):
    """Names referred to in one module, outside the definitions of the
    same name."""

    def __init__(self):
        self.names = set()
        self.inside = []

    def visit_definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_ClassDef = visit_definition

    def add(self, name):
        if name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node):
        self.add(node.id)

    def visit_Attribute(self, node):
        self.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.add(node.value)


def referenced():
    names = set()
    for path in CALLERS:
        visitor = References()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        names |= visitor.names
    return names


def defined():
    """Names of the functions and classes at module level in ``src/ptqm``."""
    names = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def test_every_public_function_or_class_has_a_caller_or_a_reason():
    uncalled = defined() - referenced()
    missing, stale = sorted(uncalled - UNCALLED.keys()), sorted(UNCALLED.keys() - uncalled)
    assert not missing, f"functions or classes without a caller: {missing}"
    assert not stale, f"reasons kept for names that are called or gone: {stale}"


def test_oracles_import_no_ptqm():
    path = ROOT / "benchmarks" / "oracles.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not {name for name in imported
                             if name.split(".")[0] in ("ptqm", "")}, sorted(imported)
