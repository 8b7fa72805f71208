"""Command-line front end.

Four subcommands: ``two-level`` (closed-form model report), ``check``
(observable-criterion consistency demo over one Heisenberg period),
``evolve`` (Dirac vs metric norm along the Schroedinger flow, CSV), and
``spectrum`` (boxed eigensolver report).  Output is deterministic: JSON
uses Python's shortest round-trip float repr with two-space indentation,
CSV uses 15-significant-digit ``%.15g`` fields, LF line endings, UTF-8.
Complex numbers serialize as {"re": ..., "im": ...} objects.

Exit codes: 0 success, 2 invalid input (malformed or non-finite arguments
included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import equivalence, metric, spectral, two_level
from .errors import InvalidInput, NumericalFailure
from .linalg import DEFAULT_TOL, frobenius, matrix_exponential, time_chunks


def _cnum(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _cmatrix(M: np.ndarray) -> list:
    return [[_cnum(z) for z in row] for row in np.asarray(M, dtype=complex)]


def _fmt(x: float) -> str:
    return "%.15g" % x


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ptqm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _model(args):
    """(params, H, C, eta) of the two-level model named by the arguments."""
    p = two_level.TwoLevelParams(args.r, args.s, args.theta)
    H = two_level.build_H(p)
    _, C, eta = metric.cpt_system(H, two_level.PARITY, args.tolerance)
    return p, H, C, eta


def _two_level_doc(args) -> str:
    p, H, C, eta = _model(args)
    pair = equivalence.build_equivalence(H, eta, args.tolerance)
    Up = two_level.U_printed(p)
    residual = frobenius(Up.conj().T @ Up - eta.eta)
    ep, em = two_level.eigenvalues_closed_form(p)
    doc = {
        "command": "two-level",
        "r": p.r,
        "s": p.s,
        "theta": p.theta,
        "alpha": p.alpha,
        "eigenvalues": [ep, em],
        "H": _cmatrix(H),
        "C": _cmatrix(C),
        "eta": {
            "matrix": _cmatrix(eta.eta),
            "eigenvalues": [float(w) for w in eta.eigenvalues[::-1]],
        },
        "U_canonical": _cmatrix(pair.U),
        "U_printed": _cmatrix(Up),
        "U_printed_residual": float(residual),
        "h": _cmatrix(pair.h),
        "S": [_cmatrix(two_level.S_mu(p, mu)) for mu in range(4)],
    }
    return json.dumps(doc, indent=2) + "\n"


def _check_rows(args):
    p, H, C, eta = _model(args)
    period = math.pi / (p.s * math.cos(p.alpha))
    times = np.linspace(0.0, period, args.steps)
    rows = equivalence.consistency_demo(
        H, C, two_level.PARITY, eta, two_level.S_mu(p, 2), times, args.tolerance
    )
    return p, period, rows


def _check_doc(args) -> str:
    if args.steps < 2:
        raise InvalidInput("steps must be at least 2")
    p, period, rows = _check_rows(args)
    if args.format == "csv":
        lines = ["t,symmetric,cpt_invariant,eta_hermitian"]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        _fmt(row.t),
                        _bool(row.symmetric),
                        _bool(row.cpt_invariant),
                        _bool(row.eta_hermitian),
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    doc = {
        "command": "check",
        "r": p.r,
        "s": p.s,
        "theta": p.theta,
        "alpha": p.alpha,
        "period": period,
        "rows": [
            {
                "t": row.t,
                "symmetric": row.symmetric,
                "cpt_invariant": row.cpt_invariant,
                "eta_hermitian": row.eta_hermitian,
            }
            for row in rows
        ],
        "summary": {
            "bender_criterion_dynamically_stable": all(
                row.symmetric and row.cpt_invariant for row in rows
            ),
            "eta_criterion_dynamically_stable": all(row.eta_hermitian for row in rows),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_psi0(text: str) -> np.ndarray:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4 or not np.isfinite(parts).all():
        raise InvalidInput("--psi0 expects four comma-separated reals: re0,im0,re1,im1")
    return np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])


def _evolve_doc(args) -> str:
    if args.steps < 2:
        raise InvalidInput("steps must be at least 2")
    if not 0 < args.t_max < math.inf:
        raise InvalidInput("t-max must be positive and finite")
    _, H, _, eta = _model(args)
    psi0 = _parse_psi0(args.psi0) if args.psi0 else np.array([1.0 + 0j, 0.0 + 0j])
    lines = ["t,norm_dirac,norm_cpt"]
    for chunk in time_chunks(np.linspace(0.0, args.t_max, args.steps), H.shape[0]):
        for t, propagator in zip(chunk, matrix_exponential(H, -1j * chunk)):
            psi = propagator @ psi0
            norm_dirac = float(np.sqrt((psi.conj() @ psi).real))
            norm_cpt = float(np.sqrt(metric.cpt_inner_product(eta, psi, psi).real))
            lines.append(",".join([_fmt(float(t)), _fmt(norm_dirac), _fmt(norm_cpt)]))
    return "\n".join(lines) + "\n"


def _spectrum_doc(args) -> str:
    problem = spectral.SpectralProblem(nu=args.nu, L=args.L, N=args.N)
    result = spectral.converged_spectrum(problem, args.k)
    doc = {
        "command": "spectrum",
        "nu": args.nu,
        "levels": [_cnum(z) for z in result.eigenvalues],
        "max_imag": result.max_imag,
        "converged": result.converged,
        "grid": {"L": args.L, "N": args.N},
    }
    return json.dumps(doc, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    common.add_argument("--output", default=None, help="write to file (atomic)")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--r", type=float, required=True)
    model.add_argument("--s", type=float, required=True)
    model.add_argument("--theta", type=float, required=True, help="radians")

    parser = argparse.ArgumentParser(
        prog="ptqm",
        description="PT-symmetric quantum mechanics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_two = sub.add_parser("two-level", parents=[common, model])
    p_two.add_argument("--format", choices=["json"], default="json")
    p_two.set_defaults(handler=_two_level_doc)

    p_check = sub.add_parser("check", parents=[common, model])
    p_check.add_argument("--steps", type=int, default=32)
    p_check.add_argument("--format", choices=["json", "csv"], default="json")
    p_check.set_defaults(handler=_check_doc)

    p_evolve = sub.add_parser("evolve", parents=[common, model])
    p_evolve.add_argument("--t-max", type=float, required=True)
    p_evolve.add_argument("--steps", type=int, required=True)
    p_evolve.add_argument("--psi0", default=None, help="re0,im0,re1,im1")
    p_evolve.add_argument("--format", choices=["csv"], default="csv")
    p_evolve.set_defaults(handler=_evolve_doc)

    p_spec = sub.add_parser("spectrum", parents=[common])
    p_spec.add_argument("--nu", type=float, required=True)
    p_spec.add_argument("--k", type=int, default=5)
    p_spec.add_argument("--L", type=float, default=spectral.DEFAULT_L)
    p_spec.add_argument("--N", type=int, default=spectral.DEFAULT_N)
    p_spec.add_argument("--format", choices=["json"], default="json")
    p_spec.set_defaults(handler=_spectrum_doc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 < args.tolerance < math.inf:
            raise InvalidInput("tolerance must be positive and finite")
        text = args.handler(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_output(text, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
