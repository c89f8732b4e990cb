"""Exception types shared across the package."""


class FlagdynError(Exception):
    """Base class for all library errors."""


class SingularInput(FlagdynError):
    """Matrix determinant underflowed; the element is not invertible."""


class BadDegree(FlagdynError):
    """Exterior power degree out of range."""


class DegenerateImage(FlagdynError):
    """Projective image norm underflowed."""


class NotInChart(FlagdynError):
    """Point is (numerically) incident to the chart hyperplane."""


class InfiniteCrossRatio(FlagdynError):
    """A cross-ratio denominator vanished: a point lies on a reference hyperplane."""


class NotInDomain(FlagdynError):
    """A point fell outside the domain it was claimed to lie in."""


class NotStrictlyNested(FlagdynError):
    """Closure containment margin is below tolerance."""


class BadOrder(FlagdynError):
    """Four boundary points are not in the required cyclic order."""


class MissingDomain(FlagdynError):
    """A graph vertex has no assigned domain."""


class EvaluationError(FlagdynError):
    """A word could not be evaluated in the presentation."""


class BaseFails(FlagdynError):
    """The t = 0 member of a deformation family does not certify."""


class SynthesisFailed(FlagdynError):
    """Automaton synthesis could not satisfy a construction clause."""

    def __init__(self, clause, point=None):
        self.clause = clause
        self.point = point
        msg = clause if point is None else f"{clause} (at boundary point {point})"
        super().__init__(msg)


class NotCertified(FlagdynError):
    """Operation requires a passing certificate for the path's edges."""


class InsufficientData(FlagdynError):
    """Not enough data points for a rate fit."""


class GapTooSmall(FlagdynError):
    """Singular value gap below the attracting-data threshold."""


class PathNotFound(FlagdynError):
    """Prefix surgery failed to produce a matching path within budget."""


class OutOfBall(FlagdynError):
    """A word evaluates outside the truncated graph ball."""


class ConfigError(FlagdynError):
    """Run configuration failed validation."""
