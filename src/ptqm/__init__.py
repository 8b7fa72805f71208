"""Numerical toolkit for PT-symmetric quantum mechanics.

Subpackages cover dense complex linear algebra with biorthonormal
eigensystems, PT normalization, charge-conjugation and metric operators,
the unitary equivalence to ordinary Hermitian quantum mechanics, closed
forms of the 2x2 model, and a finite-difference solver for the
Richardson-extrapolated spectrum of p^2 + x^2 (i x)^nu for 0 <= nu < 2.
"""

from . import equivalence, errors, linalg, metric, spectral, two_level
from .equivalence import (
    BenderCheck,
    EquivalencePair,
    build_equivalence,
    build_equivalence_pt,
    check_observable_bender,
    check_observable_hermitian,
    consistency_demo,
    heisenberg_evolve,
    pull_back_observable,
)
from .linalg import (
    DEFAULT_TOL,
    EigenSystem,
    eig,
    matrix_exponential,
)
from .metric import (
    Metric,
    build_C,
    cpt_system,
    metric_from_CPT,
    metric_from_biorthonormal,
    pt_normalize,
)
from .spectral import SpectralProblem, SpectrumResult, spectrum
from .two_level import (
    PARITY,
    S_mu,
    TwoLevelParams,
    bender_return_period,
    build_H,
    eigenvalues_closed_form,
)

__version__ = "0.1.0"
