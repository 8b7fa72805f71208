"""Probe of ``spectrum``'s error budget against a wider box.

Runs ``spectrum(SpectralProblem(nu, L), k)`` at N = 1000 over 41 nu in
[0, 1.99], L in {2, 2.5, 3, 3.5, 4, 5, 6, 8} and k in {1, 5, 10, 15}, and
compares each answer with a reference: the same operator on a box of
half-width max(12, 1.5 L) with the same grid spacing, Richardson of its N
and 2N grids, and no gate.  Prints the count of each outcome class and
every exit-0 answer off the reference by 1e-6 or more.  It takes about a
minute on two cores, so it stays out of tier-1 (pytest does not collect it):

    PYTHONPATH=src python tests/spectral_probe.py
"""

from collections import Counter
from multiprocessing import Pool

import numpy as np
import scipy.sparse.linalg as spla

from ptqm.errors import NumericalFailure
from ptqm.spectral import SpectralProblem, _operator, spectrum

N, KS = 1000, (1, 5, 10, 15)
BOXES = (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0)
GRID = [(nu, L) for nu in np.linspace(0.0, 1.99, 41) for L in BOXES]


def reference(nu, L):
    n_wide = round(max(12.0, 1.5 * L) / L * (N - 1)) + 1
    grids = []
    for n in (n_wide, 2 * n_wide):  # the half-width keeps the spacing 2 L / (N - 1)
        A, h = _operator(nu, L * (n_wide - 1) / (N - 1), n)[:2]
        w = spla.eigs(A, k=max(KS) + 4, sigma=0.0, v0=np.ones(n - 2) / np.sqrt(n - 2))[0]
        grids.append((w[np.argsort(w.real)][: max(KS)], h))
    (w1, h1), (w2, h2) = grids
    rho = (h1 / h2) ** 2
    return (rho * w2 - w1) / (rho - 1.0)


def outcomes(point):
    nu, L = point
    ref, rows = reference(nu, L), []
    for k in KS:
        try:
            levels = spectrum(SpectralProblem(nu, L=L, N=N), k).eigenvalues
        except NumericalFailure as exc:
            cause = "box too small" if "box is too small" in str(exc) else (
                "unconverged" if "did not converge" in str(exc) else "other refusal")
            rows.append((nu, L, k, cause, None))
            continue
        off = float(np.abs(levels - ref[:k]).max())
        rows.append((nu, L, k, "answer" if off < 1e-6 else "wrong answer", off))
    return rows


def probe():
    with Pool(2) as pool:
        return [row for rows in pool.map(outcomes, GRID) for row in rows]


if __name__ == "__main__":
    rows = probe()
    print(" ".join(f"{cause}: {n}" for cause, n in sorted(Counter(r[3] for r in rows).items())))
    for nu, L, k, cause, off in rows:
        if cause == "wrong answer":
            print(f"wrong answer: nu = {nu:.6g}, L = {L}, k = {k}, off by {off:.2e}")
