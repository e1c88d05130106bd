"""Exception types shared across the package."""


class NotSmoothAtInfinity(ValueError):
    """A chart-rational function does not extend smoothly through w = 1/z."""


class ShapeMismatch(ValueError):
    """Operator operands have different levels."""


class UnknownCoefficientOrder(ValueError):
    """A star-product coefficient beyond the available orders was requested."""


class DegenerateTable(ValueError):
    """A convergence table has too few usable records for a fit."""


class BasisNormUnderflow(ValueError):
    """A level's float matrix cannot be formed: a basis norm 1/((m+1) C(m, j)) underflows to 0.0, from m = 1071."""


class ValidationError(ValueError):
    """A config file could not be read, parsed or validated, or names no such symbol: the CLI's exit 2."""


class CacheCorruption(RuntimeError):
    """A cached matrix file failed its integrity checks."""
