"""Exception types raised by the numerical pipelines, and the integer check
every module applies to counts, sizes and seeds (it imports no module of
the package, so all of them can import it)."""

import numbers


class GammaClutterError(Exception):
    """Base class for all library errors."""


class InvalidCorrelation(GammaClutterError):
    """Correlation entries outside [-1, 1] or matrix not positive semi-definite."""


class DimensionMismatch(GammaClutterError):
    """Matrix/vector shapes are inconsistent."""


class NoConvergence(GammaClutterError):
    """An iterative solver exhausted its budget."""


class NegativeEigenvalue(GammaClutterError):
    """Eigenvalue below the PSD clamping tolerance."""


class InvalidLooks(GammaClutterError):
    """Effective number of looks outside [1, M]."""


class InvalidScenario(GammaClutterError):
    """Scenario parameters violate their constraints."""


class DegenerateMix(GammaClutterError):
    """Target/clutter aggregation weight q*u + S/kappa vanished."""


class PoleHit(GammaClutterError):
    """MGF evaluated on (or numerically at) one of its poles."""


class DegenerateV(GammaClutterError):
    """Power level that is not finite, or v <= 0 where a saddle-point
    routine needs it positive."""


class InvalidShape(GammaClutterError):
    """Texture shape parameter must be positive."""


class OrderTooLarge(GammaClutterError):
    """Quadrature order above the recurrence overflow guard."""


class BracketFail(GammaClutterError):
    """Threshold search hit the numerical survival floor before bracketing."""


class NonMonotoneSF(GammaClutterError):
    """Survival function passed to the KS statistic is not monotone."""


def check_integer(name: str, value, lo: int, bits: int | None = None
                  ) -> None:
    """Raise InvalidScenario unless value is an integer (not a bool) >= lo,
    and below 2^bits if bits is given: a float seed or count would
    otherwise be truncated without a word."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < lo or (bits is not None and value >= 2 ** bits):
        bound = f">= {lo}" if bits is None else f"in [{lo}, 2^{bits})"
        raise InvalidScenario(f"{name} must be an integer {bound}; "
                              f"got {value!r}")
