"""Semantic exceptions shared across the package."""


class DppLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(DppLabError):
    """Points, windows, or kernels with incompatible dimensions."""


class DuplicatePoint(DppLabError):
    """Coincident (or numerically coincident) points in one configuration."""


class ParameterOutOfRange(DppLabError):
    """Kernel parameters outside the admissible region."""


class SpectrumAtOne(DppLabError):
    """Discretized correlation operator has an eigenvalue at or above 1."""


class NotPSD(DppLabError):
    """Matrix fails the positive-semidefiniteness precondition."""


class SingularBlock(DppLabError):
    """Pivot block too ill-conditioned for a determinant-ratio identity."""


class NoFiniteRange(DppLabError):
    """Finite-range formula requested for a kernel without finite range."""


class NumericalBreakdown(DppLabError):
    """A determinant or ratio left the numerically trustworthy regime."""


class ConfigError(DppLabError):
    """Malformed or inconsistent experiment configuration."""


class DomainError(DppLabError):
    """Function argument outside its mathematical domain."""
