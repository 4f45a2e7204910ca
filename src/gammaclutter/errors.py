"""Exception types raised by the numerical pipelines."""


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
