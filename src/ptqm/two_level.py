"""The 2x2 model H = [[r e^{i theta}, s], [s, r e^{-i theta}]] of the CLI.

Its parameters and matrix, and the closed forms the CLI prints next to
what the generic eigenvector/metric/equivalence machinery builds from H:
the eigenvalues, the pulled-back spin observables S_mu, the return period
of S_2 and the equivalence map as printed in the source reference.  Each
is an explicit trigonometric formula in alpha = arcsin(r sin(theta) / s).
The closed forms the tests judge that machinery by (C, eta, h and the
Heisenberg flow of S_2) live outside the package, in
``benchmarks/oracles.py`` and ``tests/conftest.py``.

Conventions.  s > 0 is canonical (a negative s is equivalent to flipping
the sign of the off-diagonal basis and is absorbed at construction), which
makes epsilon_+ > epsilon_- strict in the valid region.  The observable
closed forms carry factors i tan(alpha) on their sigma_1/sigma_3 parts:

    S_0 = sigma_0 / 2
    S_1 = -sigma_2 / 2
    S_2 = (i tan(alpha) sigma_1 - sec(alpha) sigma_3) / 2
    S_3 = (sec(alpha) sigma_1 + i tan(alpha) sigma_3) / 2 = C / 2

These are the unique forms that are simultaneously (a) pull-backs of the
spin operators through a map satisfying U^dagger U = eta, (b) symmetric
and CPT-invariant for S_2, S_3, and (c) consistent with the Heisenberg
closed form O_H(t) = sin(2 s cos(alpha) t) S_1 + cos(2 s cos(alpha) t) S_2.
The symmetric/CPT-invariant observable family is correspondingly

    a sigma_0 + (b - i c sin(alpha)) sigma_1 + (c + i b sin(alpha)) sigma_3

with a, b, c real: the real span of {S_0, S_2, S_3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PARITY = SIGMA_1


@dataclass(frozen=True)
class TwoLevelParams:
    """Model parameters (r, s, theta) in the unbroken region.

    Requires finite r, s, theta, s != 0 and |r sin(theta) / s| < 1; the
    boundary is the exceptional point where the eigenvectors coalesce.
    alpha is derived, alpha = arcsin(r sin(theta) / s) in (-pi/2, pi/2).
    """

    r: float
    s: float
    theta: float
    alpha: float = field(init=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r, self.s, self.theta))):
            raise InvalidParams("r, s and theta must be finite")
        if self.s == 0:
            raise InvalidParams("s must be nonzero")
        if self.s < 0:
            # flip the sign of s; equivalent up to a basis sign flip
            object.__setattr__(self, "s", -self.s)
        x = self.r * math.sin(self.theta) / self.s
        if abs(x) >= 1.0:
            raise InvalidParams(
                f"|r sin(theta)/s| = {abs(x):.6g} >= 1: exceptional/broken region"
            )
        object.__setattr__(self, "alpha", math.asin(x))


def build_H(p: TwoLevelParams) -> np.ndarray:
    return np.array(
        [
            [p.r * np.exp(1j * p.theta), p.s],
            [p.s, p.r * np.exp(-1j * p.theta)],
        ]
    )


def eigenvalues_closed_form(p: TwoLevelParams):
    """(epsilon_+, epsilon_-) = r cos(theta) +- s cos(alpha), both real."""
    base = p.r * math.cos(p.theta)
    gap = p.s * math.cos(p.alpha)
    return base + gap, base - gap


def U_printed(p: TwoLevelParams) -> np.ndarray:
    """The equivalence map exactly as printed in the source reference,
    prefactor 1 / sqrt(2 cos(alpha)), bottom row (-i e^{i a/2}, i e^{i a/2}).

    No claim is made that this matrix satisfies U^dagger U = eta; the test
    suite records the residual instead of correcting the entries.
    """
    a = p.alpha
    pref = 1.0 / math.sqrt(2.0 * math.cos(a))
    return pref * np.array(
        [
            [np.exp(1j * a / 2), np.exp(-1j * a / 2)],
            [-1j * np.exp(1j * a / 2), 1j * np.exp(1j * a / 2)],
        ]
    )


def S_mu(p: TwoLevelParams, mu: int) -> np.ndarray:
    """Pulled-back spin observables S_mu, mu in 0..3 (see module docstring)."""
    if mu not in (0, 1, 2, 3):
        raise IndexError(f"mu must be in 0..3, got {mu}")
    sec = 1.0 / math.cos(p.alpha)
    tan = math.tan(p.alpha)
    if mu == 0:
        return 0.5 * SIGMA_0
    if mu == 1:
        return -0.5 * SIGMA_2
    if mu == 2:
        return 0.5 * (1j * tan * SIGMA_1 - sec * SIGMA_3)
    return 0.5 * (sec * SIGMA_1 + 1j * tan * SIGMA_3)


def bender_return_period(p: TwoLevelParams) -> float:
    """Shortest t > 0 with O_H(t) = -S_2; integer multiples give +-S_2."""
    return math.pi / (2.0 * p.s * math.cos(p.alpha))
