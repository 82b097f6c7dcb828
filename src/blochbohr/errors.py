"""Exception types shared across the library."""


class BlochBohrError(Exception):
    """Base class for all library-specific errors."""


class ParameterDomainError(BlochBohrError, ValueError):
    """A parameter lies outside its admissible domain."""


class DivergenceRegionError(BlochBohrError, ValueError):
    """Evaluation was requested outside the certified convergence region."""


class PoleError(BlochBohrError, ZeroDivisionError):
    """Closed-form evaluation hit a pole of a rational function."""


class ZeroDenominatorError(BlochBohrError, ZeroDivisionError):
    """A normalizing value is zero (e.g. the weight vanishes at the anchor radius)."""


class NoSignChangeError(BlochBohrError, ValueError):
    """A bisection bracket does not straddle a sign change."""


class ConvergenceError(BlochBohrError, RuntimeError):
    """An iteration cap was reached before the tolerance was met."""


class PreconditionError(BlochBohrError, ValueError):
    """A documented operation precondition does not hold."""
