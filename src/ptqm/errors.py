"""Exception hierarchy for the toolkit.

Input-validation failures raise subclasses of :class:`InvalidInput`;
breakdowns of the numerical constructions (degenerate spectra, exceptional
points, indefinite metrics) raise subclasses of :class:`NumericalFailure`.
The CLI maps these to exit codes 2 and 3 respectively.
"""


class PTQMError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(PTQMError):
    """The caller passed data that violates a documented precondition."""


class NumericalFailure(PTQMError):
    """A construction broke down for numerical/spectral reasons."""


class DimensionMismatch(InvalidInput):
    """Operands have incompatible shapes."""


class InvalidParams(InvalidInput):
    """Model parameters outside their domain (non-finite, s = 0 or |r sin(theta)/s| >= 1)."""


class InvalidMetric(InvalidInput):
    """A metric candidate is not Hermitian positive-definite."""


class NotHermitianInput(InvalidInput):
    """An operator that must be Hermitian (in the Euclidean sense) is not."""


class OutOfRegime(InvalidInput):
    """Anharmonicity exponent outside [0, 2), where the contour solver is validated."""


class NonDiagonalizable(NumericalFailure):
    """Eigendecomposition failed to reconstruct the input (exceptional point)."""


class NotPTSymmetric(NumericalFailure):
    """The Hamiltonian does not commute with the supplied antilinear symmetry."""


class SelfOrthogonalEigenvector(NumericalFailure):
    """An eigenvector has (numerically) vanishing PT self-product (exceptional point)."""


class IllConditioned(NumericalFailure):
    """Rounding, amplified by the metric's condition number, fails a test
    that holds exactly, or is as large as the residual a test must judge;
    or a positive metric's condition number exceeds the inverse of
    ``linalg.CONSTRUCTION_BOUND``."""


class MetricNotPositive(NumericalFailure):
    """A metric built from H came out non-positive (broken phase, sign error, singular V)."""


class ComplexSpectrum(NumericalFailure):
    """A real spectrum was required but complex eigenvalues were found."""


class PseudoHermiticityViolated(NumericalFailure):
    """eta H != H^dagger eta for the supplied Hamiltonian/metric pair."""
