"""The ``check`` and ``evolve`` rows come from fixed per-row templates.

These tests hold the templates to the encoders they replaced, kept here
as oracles: ``json.dumps(doc, indent=2)`` of a document whose rows are
``vars(row)`` records, and the per-cell ``%.15g`` / ``true`` / ``false``
CSV join.  The JSON template writes t with ``float.__repr__``, as ``json``
does for a finite float, so the premise that every t is a finite built-in
float is tested too.
"""

import dataclasses
import json
import math
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptqm import equivalence, two_level
from ptqm.cli import _check_text, main
from ptqm.equivalence import ConsistencyRow
from ptqm.linalg import matrix_exponential, time_chunks
from ptqm.metric import cpt_system

#: (r, s, theta) of the golden ``check`` and ``evolve`` models.
GOLDEN_MODELS = [(1.0, 1.0, 0.5235987755982988), (-0.7, 1.3, 2.1)]
STEPS = [2, 3, 32, 2000]


def old_csv_row(values) -> str:
    cells = [("true" if x else "false") if isinstance(x, bool) else "%.15g" % x for x in values]
    return ",".join(cells)


def old_check_text(p, period, rows, fmt) -> str:
    records = [vars(row) for row in rows]
    if fmt == "csv":
        lines = [",".join(f.name for f in dataclasses.fields(ConsistencyRow))]
        lines += [old_csv_row(record.values()) for record in records]
        return "\n".join(lines) + "\n"
    doc = {
        "command": "check",
        "r": p.r,
        "s": p.s,
        "theta": p.theta,
        "alpha": p.alpha,
        "period": period,
        "rows": records,
        "summary": {
            "bender_criterion_dynamically_stable": all(
                row.symmetric and row.cpt_invariant for row in rows
            ),
            "eta_criterion_dynamically_stable": all(row.eta_hermitian for row in rows),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def demo(model, steps):
    """(params, period, rows) of ``check`` on ``model`` at ``steps``."""
    p = two_level.TwoLevelParams(*model)
    H = two_level.build_H(p)
    _, C, eta = cpt_system(H, two_level.PARITY)
    period = 2.0 * two_level.bender_return_period(p)
    rows = equivalence.consistency_demo(
        H, C, two_level.PARITY, eta, two_level.S_mu(p, 2), np.linspace(0.0, period, steps)
    )
    return p, period, rows


def model_argv(model):
    r, s, theta = model
    return ["--r", repr(r), "--s", repr(s), "--theta", repr(theta)]


@pytest.mark.parametrize("model", GOLDEN_MODELS)
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_equals_old_encoding(capsys, model, steps, fmt):
    argv = ["check"] + model_argv(model) + ["--steps", str(steps), "--format", fmt]
    assert main(argv) == 0
    assert capsys.readouterr().out == old_check_text(*demo(model, steps), fmt)


@pytest.mark.parametrize("model", GOLDEN_MODELS)
@pytest.mark.parametrize("steps", STEPS)
def test_demo_rows_have_finite_builtin_floats(model, steps):
    # under numpy 2, %r of an np.float64 prints "np.float64(...)"
    _, _, rows = demo(model, steps)
    for row in rows:
        assert type(row.t) is float and math.isfinite(row.t)
        assert {type(row.symmetric), type(row.cpt_invariant), type(row.eta_hermitian)} == {bool}


ROWS = st.lists(
    st.builds(
        ConsistencyRow,
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)
EXTREME_T = [0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308]


@settings(derandomize=True, deadline=timedelta(milliseconds=500), max_examples=300)
@given(rows=ROWS, period=st.floats(allow_nan=False, allow_infinity=False))
@example(rows=[ConsistencyRow(t, t > 1, t < 1, True) for t in EXTREME_T], period=1.0)
@example(rows=[ConsistencyRow(-t, False, True, False) for t in EXTREME_T], period=-0.0)
def test_check_templates_equal_old_encoding_for_any_finite_t(rows, period):
    p = two_level.TwoLevelParams(1.0, 1.0, math.pi / 6)
    for fmt in ("json", "csv"):
        assert _check_text(p, period, rows, fmt) == old_check_text(p, period, rows, fmt)


@pytest.mark.parametrize("model", GOLDEN_MODELS)
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("psi0", [None, "0.6,0.1,-0.3,0.7"])
def test_evolve_equals_old_encoding(capsys, model, steps, psi0):
    argv = ["evolve"] + model_argv(model) + ["--t-max", "12", "--steps", str(steps)]
    if psi0 is not None:
        argv.append("--psi0=" + psi0)
    assert main(argv) == 0
    out = capsys.readouterr().out
    # the norms as the handler computes them, then the per-cell join
    H = two_level.build_H(two_level.TwoLevelParams(*model))
    _, _, eta = cpt_system(H, two_level.PARITY)
    ket0 = np.array([1.0 + 0j, 0.0 + 0j]) if psi0 is None else np.array([0.6 + 0.1j, -0.3 + 0.7j])
    lines = ["t,norm_dirac,norm_cpt"]
    for chunk in time_chunks(np.linspace(0.0, 12.0, steps), 2):
        ket = (matrix_exponential(H, -1j * chunk) @ ket0)[:, :, None]
        bra = ket.conj().transpose(0, 2, 1)
        dirac = np.sqrt((bra @ ket).real)[:, 0, 0]
        cpt = np.sqrt((bra @ eta.eta @ ket).real)[:, 0, 0]
        lines += [old_csv_row(row) for row in zip(chunk.tolist(), dirac.tolist(), cpt.tolist())]
    assert out == "\n".join(lines) + "\n"


def run_quietly(capsys, argv):
    """(exit code, stdout, stderr) of ``argv``, with no warning raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert caught == []
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_refuses_non_finite_period(capsys):
    # 2 * bender_return_period overflows; the time grid would be [nan, inf, inf]
    argv = ["check", "--r", "0", "--s", "1e-308", "--theta", "0.5", "--steps", "3"]
    assert run_quietly(capsys, argv) == (
        2, "", "error: the period pi / (s cos(alpha)) = inf is not finite\n"
    )


def test_evolve_refuses_non_finite_norms(capsys):
    # e^{-iHt} overflows at t = 5e19; the norms were printed as nan with exit 0
    argv = ["evolve", "--r", "1", "--s", "1", "--theta", "0.5", "--t-max", "1e20", "--steps", "3"]
    assert run_quietly(capsys, argv) == (
        3, "", "error: the norms of e^(-iHt) psi0 are not finite at t = 5e+19\n"
    )
