"""Exception and warning types shared across the package."""


class CatRulerError(Exception):
    """Base class for all catruler-specific failures."""


class NormalizationError(CatRulerError):
    """A Gram-matrix norm came out corrupted (complex residue or too negative)."""


class IntegrationError(CatRulerError):
    """A probability failed its checks: adaptive quadrature missed its
    tolerance, or a value came out non-finite or out of range."""


class TruncationError(CatRulerError):
    """A Fock-space truncation is too small for the requested state or unitary."""


class GridResolutionError(CatRulerError):
    """The quadrature-eigenbasis grid did not converge under refinement."""


class WidthUndefinedError(CatRulerError):
    """A fringe width or spacing cannot be extracted from the given scan."""


class ApproximationRegimeWarning(UserWarning):
    """The weak-mixing condition (mix_angle^2 * alpha^2 small) is violated."""
