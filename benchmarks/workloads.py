"""The four workloads: their inputs, one operation each, and the checks of
its outputs.

Each workload draws *rounds* of inputs from a seeded generator.  A run
always attempts whole rounds, so the share of failed operations is the
same in every run.  ``run`` is the timed operation; ``check`` is untimed
and either returns whether the operation failed or raises
:class:`WrongOutput` when the program answered wrongly with exit 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(ROOT, "schemas", "output.schema.json")

#: Times of the large_n consistency demo; none is a multiple of pi, where
#: the integer spectrum 1..n would make O_H(t) pass the Bender test again.
LARGE_N_TIMES = (0.0, 0.37, 1.1, 2.9)
LARGE_N_SIZES = (64, 256)
SPECTRAL_NU_MAX = 1.7
SPECTRAL_STRATA = 9
LEVELS = 5


class WrongOutput(Exception):
    """The program exited normally with an output the checks reject."""


def require(cond, what):
    if not cond:
        raise WrongOutput(what)


def rel(A, B):
    return float(np.linalg.norm(np.asarray(A) - np.asarray(B)) / max(np.linalg.norm(B), 1e-300))


def child_env():
    """Environment of every interpreter the benchmark starts."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Running the CLI


def cli_main(argv):
    """``ptqm.cli.main`` in this interpreter; returns (exit code, stdout)."""
    from ptqm import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_process(argv):
    """``python -m ptqm.cli`` in a fresh interpreter; returns (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "ptqm.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def model_args(r, s, theta):
    return ["--r", repr(float(r)), "--s", repr(float(s)), "--theta", repr(float(theta))]


def evolve_t_max(r, s, theta):
    return 2.0 * oracles.check_period(r, s, theta)


def check_argv(inp, steps):
    return ["check", *model_args(inp["r"], inp["s"], inp["theta"]), "--steps", str(steps)]


def evolve_argv(inp, steps):
    t_max = evolve_t_max(inp["r"], inp["s"], inp["theta"])
    return ["evolve", *model_args(inp["r"], inp["s"], inp["theta"]),
            "--t-max", repr(t_max), "--steps", str(steps)]


#: the paper's result, which ``check`` must print
EXPECTED_SUMMARY = {"bender_criterion_dynamically_stable": False,
                    "eta_criterion_dynamically_stable": True}


_validator = None


def validate_schema(doc):
    global _validator
    if _validator is None:
        import jsonschema

        with open(SCHEMA_PATH, encoding="utf-8") as fh:
            _validator = jsonschema.Draft202012Validator(json.load(fh))
    errors = sorted(_validator.iter_errors(doc), key=str)
    require(not errors, f"schema: {errors[0].message if errors else ''}")


def as_matrix(rows):
    return np.array([[z["re"] + 1j * z["im"] for z in row] for row in rows])


# ---------------------------------------------------------------------------
# Checks of CLI outputs against closed forms and properties


def check_two_level(text, r, s, theta):
    doc = json.loads(text)
    validate_schema(doc)
    H = oracles.two_level_H(r, s, theta)
    require(rel(as_matrix(doc["H"]), H) < 1e-15, "two-level: H")
    ep, em = oracles.two_level_eigenvalues(r, s, theta)
    scale = max(abs(ep), abs(em), 1.0)
    require(abs(doc["eigenvalues"][0] - ep) < 1e-12 * scale
            and abs(doc["eigenvalues"][1] - em) < 1e-12 * scale, "two-level: eigenvalues")
    eta_ref = oracles.two_level_eta(r, s, theta)
    eta = as_matrix(doc["eta"]["matrix"])
    require(rel(eta, eta_ref) < 1e-10, "two-level: eta vs closed form")
    require(np.allclose(doc["eta"]["eigenvalues"], np.linalg.eigvalsh(eta_ref)[::-1],
                        rtol=1e-10, atol=0), "two-level: eta eigenvalues")
    C = as_matrix(doc["C"])
    require(rel(C @ C, np.eye(2)) < 1e-10, "two-level: C^2 = 1")
    require(np.linalg.norm(C @ H - H @ C) < 1e-10 * np.linalg.norm(H), "two-level: [C, H] = 0")
    U = as_matrix(doc["U_canonical"])
    require(rel(U.conj().T @ U, eta_ref) < 1e-10, "two-level: U^dagger U = eta")
    h = as_matrix(doc["h"])
    require(np.linalg.norm(h - np.diag([ep, em])) < 1e-10 * scale, "two-level: h = diag(eps)")


def check_check(text, r, s, theta, steps):
    """Rows, period and summary of ``ptqm check`` on a regular draw."""
    doc = json.loads(text)
    validate_schema(doc)
    period = oracles.check_period(r, s, theta)
    require(abs(doc["period"] - period) < 1e-12 * period, "check: period")
    rows = doc["rows"]
    require(len(rows) == steps, "check: row count")
    omega = 2.0 * s * math.cos(oracles.alpha_of(r, s, theta))
    for i, row in enumerate(rows):
        t = period * i / (steps - 1)
        require(abs(row["t"] - t) < 1e-12 * period, "check: time grid")
        require(row["eta_hermitian"], f"check: eta-self-adjointness lost at t = {t}")
        # O_H(t) = sin(omega t) S_1 + cos(omega t) S_2; the S_1 part is
        # antisymmetric and not CPT-invariant
        if abs(math.sin(omega * t)) > 1e-6:
            require(not row["symmetric"] and not row["cpt_invariant"],
                    f"check: Bender test passed at generic t = {t}")
    for row in (rows[0], rows[-1]):  # O_H = S_2 at t = 0 and t = period
        require(row["symmetric"] and row["cpt_invariant"], "check: Bender test at t = 0, period")
    require(doc["summary"] == EXPECTED_SUMMARY, "check: summary")


def check_evolve(text, r, s, theta, steps, t_max):
    """Dirac norm against the closed-form propagator, conservation of the
    eta-norm; tolerances grow with cond(eta)."""
    lines = text.splitlines()
    require(lines[0] == "t,norm_dirac,norm_cpt" and len(lines) == steps + 1, "evolve: shape")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    tol = 1e-9 * oracles.two_level_eta_cond(r, s, theta)
    require(np.allclose(data[:, 0], np.linspace(0.0, t_max, steps), rtol=1e-13, atol=0),
            "evolve: time grid")
    psi = oracles.two_level_propagate(r, s, theta, data[:, 0], np.array([1.0, 0.0]))
    dirac = np.linalg.norm(psi, axis=0)
    require(np.allclose(data[:, 1], dirac, rtol=tol, atol=0), "evolve: Dirac norm vs closed form")
    norm0 = math.sqrt(oracles.two_level_eta(r, s, theta)[0, 0].real)
    require(np.allclose(data[:, 2], norm0, rtol=tol, atol=0), "evolve: eta-norm not conserved")


def check_levels(levels, converged, max_imag, nu):
    """Levels against the Galerkin reference built in ``oracles``."""
    ref = oracles.galerkin_levels(nu, LEVELS)
    require(converged, f"spectrum: not converged at nu = {nu}")
    require(len(levels) == LEVELS, "spectrum: level count")
    require(max_imag < 1e-6, f"spectrum: max_imag {max_imag:.2e} at nu = {nu}")
    err = np.abs(np.asarray(levels) - ref) / np.maximum(np.abs(ref), 1.0)
    require(err.max() < 1e-6, f"spectrum: levels off the Galerkin reference by {err.max():.2e}")
    require(np.all(np.diff(np.real(levels)) > 0.1) and np.real(levels)[0] > 0,
            "spectrum: levels not positive and separated")


def check_spectrum(text, nu):
    doc = json.loads(text)
    validate_schema(doc)
    levels = [z["re"] + 1j * z["im"] for z in doc["levels"]]
    check_levels(levels, doc["converged"], doc["max_imag"], nu)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    salt = 0
    #: False when each operation starts its own interpreter
    in_process = True

    def rng(self, seed, stream):
        return np.random.default_rng([seed, self.salt, stream])

    def rounds(self, seed):
        """Endless sequence of rounds (lists of inputs)."""
        rng = self.rng(seed, 0)
        while True:
            yield self.round(rng)

    def warmup_input(self, seed):
        return self.round(self.rng(seed, 1))[0]

    def probe_inputs(self, seed):
        """Inputs of the probe a traced run of another workload makes."""
        return [self.warmup_input(seed)]


class Cli(Workload):
    """Each op: one of the README's four commands in a fresh interpreter.

    A round is the four commands on one draw: ``two-level``, ``check``
    (32 steps), ``evolve`` (200 steps) and ``spectrum`` (k = 5).
    """

    name = "cli"
    salt = 1
    in_process = False

    def probe_inputs(self, seed):
        return self.round(self.rng(seed, 1))

    def round(self, rng):
        r, s, theta = oracles.two_level_draw(rng)
        draw = dict(r=r, s=s, theta=theta, nu=float(rng.uniform(0.2, 1.0)))
        return [dict(draw, command=c) for c in ("two_level", "check", "evolve", "spectrum")]

    @staticmethod
    def argv(inp):
        command = inp["command"]
        if command == "two_level":
            return ["two-level", *model_args(inp["r"], inp["s"], inp["theta"])]
        if command == "check":
            return check_argv(inp, 32)
        if command == "evolve":
            return evolve_argv(inp, 200)
        return ["spectrum", "--nu", repr(inp["nu"]), "--k", str(LEVELS)]

    def run(self, inp, tracer=None):
        if tracer is None:
            return cli_process(self.argv(inp))
        with tracer.span(f"cli.{inp['command']}_s"):
            return cli_main(self.argv(inp))

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return True
        r, s, theta = inp["r"], inp["s"], inp["theta"]
        command = inp["command"]
        if command == "two_level":
            check_two_level(text, r, s, theta)
        elif command == "check":
            check_check(text, r, s, theta, 32)
        elif command == "evolve":
            check_evolve(text, r, s, theta, 200, evolve_t_max(r, s, theta))
        else:
            check_spectrum(text, inp["nu"])
        return False


class Dynamics(Workload):
    """Each op: ``check --steps 2000`` and ``evolve --steps 2000`` in-process.

    A round is five seeded draws and the three near-exceptional-point
    draws of ``oracles.NEAR_EP_D``, which fail today.
    """

    name = "dynamics"
    salt = 2
    steps = 2000
    seeded_per_round = 5

    def round(self, rng):
        ops = [self.draw(oracles.two_level_draw(rng), False)
               for _ in range(self.seeded_per_round)]
        ops += [self.draw(oracles.near_ep_params(d), True) for d in oracles.NEAR_EP_D]
        return [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def draw(params, near_ep):
        r, s, theta = params
        return dict(r=r, s=s, theta=theta, near_ep=near_ep)

    def warmup_input(self, seed):
        return self.draw(oracles.two_level_draw(self.rng(seed, 1)), False)

    def run(self, inp, tracer=None):
        out = {}
        for key, argv in (("check", check_argv(inp, self.steps)),
                          ("evolve", evolve_argv(inp, self.steps))):
            with tracer.span(f"cli.{key}_s") if tracer else contextlib.nullcontext():
                out[key] = cli_main(argv)
        return out

    def check(self, inp, out):
        r, s, theta = inp["r"], inp["s"], inp["theta"]
        (c_code, c_text), (e_code, e_text) = out["check"], out["evolve"]
        if not inp["near_ep"]:
            if c_code != 0 or e_code != 0:
                return True
            check_check(c_text, r, s, theta, self.steps)
            check_evolve(e_text, r, s, theta, self.steps, evolve_t_max(r, s, theta))
            return False
        # near the EP: a correct summary or a numerical-failure exit (3)
        # is right; anything else counts as a failed operation
        if c_code == 0:
            if json.loads(c_text)["summary"] != EXPECTED_SUMMARY:
                return True
        elif c_code != 3:
            return True
        if e_code == 0:
            try:
                check_evolve(e_text, r, s, theta, self.steps, evolve_t_max(r, s, theta))
            except WrongOutput:
                return True
        elif e_code != 3:
            return True
        return False


class LargeN(Workload):
    """Each op: the (H, P) -> (C, eta, U, h) chain and a short consistency
    demo for one generated H at each n in ``LARGE_N_SIZES``."""

    name = "large_n"
    salt = 3

    def round(self, rng):
        systems = []
        for n in LARGE_N_SIZES:
            gen = oracles.LargeN(n, rng)
            systems.append((gen, gen.observable(rng)))
        return [systems]

    def run(self, systems, tracer=None):
        import ptqm

        out = []
        for gen, O in systems:
            es = ptqm.eig(gen.H)
            vectors, signs = ptqm.pt_normalize(es, gen.P)
            C = ptqm.build_C(vectors)
            eta = ptqm.metric_from_CPT(C, gen.P)
            pair = ptqm.build_equivalence(gen.H, eta)
            pair_pt = ptqm.build_equivalence_pt(gen.H, gen.P)
            rows = ptqm.consistency_demo(gen.H, C, gen.P, eta, O, LARGE_N_TIMES)
            out.append((es.eigenvalues, signs, C, eta.eta, pair, pair_pt, rows))
        return out

    def check(self, systems, out):
        for (gen, _), (w, signs, C, eta, pair, pair_pt, rows) in zip(systems, out):
            n, H = gen.n, gen.H
            tag = f"large_n n={n}:"
            require(np.abs(w.imag).max() < 1e-9, f"{tag} complex eigenvalue")
            require(np.abs(np.sort(w.real) - gen.spectrum).max() < 1e-9 * n, f"{tag} spectrum")
            require(sorted(signs) == sorted(gen.signs.tolist()), f"{tag} PT-norm signs")
            require(rel(eta, gen.eta) < 1e-9, f"{tag} eta vs expm(-2i eps K)")
            require(rel(C @ C, np.eye(n)) < 1e-9, f"{tag} C^2 = 1")
            require(np.linalg.norm(C @ H - H @ C) < 1e-9 * np.linalg.norm(H), f"{tag} [C, H] = 0")
            for label, p in (("canonical", pair), ("PT gauge", pair_pt)):
                require(rel(p.U.conj().T @ p.U, gen.eta) < 1e-9, f"{tag} {label} U^dagger U = eta")
                require(rel(p.h, p.h.conj().T) < 1e-9, f"{tag} {label} h Hermitian")
                require(np.abs(np.sort(np.diag(p.h).real) - gen.spectrum).max() < 1e-9 * n,
                        f"{tag} {label} h spectrum")
            require(len(rows) == len(LARGE_N_TIMES), f"{tag} row count")
            require(all(row.eta_hermitian for row in rows), f"{tag} eta-self-adjointness lost")
            require(rows[0].symmetric and rows[0].cpt_invariant, f"{tag} Bender test at t = 0")
            require(not any(row.symmetric or row.cpt_invariant for row in rows[1:]),
                    f"{tag} Bender test passed at generic t")
        return False


class Spectral(Workload):
    """Each op: ``spectrum(SpectralProblem(nu), k=5)`` on the default grid.

    The cost grows about threefold over nu in [0, 1.7], so a round takes
    one nu from each of nine equal strata of that range: every run then
    has the same mix of costs, and its median falls in the middle stratum.
    """

    name = "spectral"
    salt = 4

    def round(self, rng):
        width = SPECTRAL_NU_MAX / SPECTRAL_STRATA
        nus = [(i + rng.uniform()) * width for i in range(SPECTRAL_STRATA)]
        return [float(nus[i]) for i in rng.permutation(SPECTRAL_STRATA)]

    def warmup_input(self, seed):
        """A nu from the middle stratum, so set-up cost does not hinge on the seed."""
        width = SPECTRAL_NU_MAX / SPECTRAL_STRATA
        return float((SPECTRAL_STRATA // 2 + self.rng(seed, 1).uniform()) * width)

    def run(self, nu, tracer=None):
        from ptqm import spectral

        return spectral.spectrum(spectral.SpectralProblem(nu), LEVELS)

    def check(self, nu, res):
        check_levels(res.eigenvalues, res.converged, res.max_imag, nu)
        return False


WORKLOADS = {w.name: w for w in (Cli(), Dynamics(), LargeN(), Spectral())}


# ---------------------------------------------------------------------------
# Import cost in a fresh interpreter


def import_wall_time():
    """Wall seconds of a fresh interpreter that runs ``import ptqm``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ptqm"], cwd=ROOT, env=child_env(),
                   check=True, timeout=120)
    return time.perf_counter() - t0


_BREAKDOWN = """
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.linalg
t2 = time.perf_counter()
import ptqm
t3 = time.perf_counter()
print(t3 - t0, t2 - t1)
"""


def import_breakdown():
    """(seconds of the whole ``import ptqm``, of its ``import scipy.linalg``
    after numpy), timed inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _BREAKDOWN], cwd=ROOT, env=child_env(),
                          check=True, capture_output=True, text=True, timeout=120)
    total, scipy_linalg = (float(x) for x in proc.stdout.split())
    return total, scipy_linalg
