"""Exception types shared across the package."""


class RelosplitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RelosplitError, ValueError):
    """Shapes or block counts of the involved objects do not match."""


class ParameterError(RelosplitError, ValueError):
    """A scalar parameter is outside its admissible range."""


class SingularMatrixError(RelosplitError, ValueError):
    """A linear solve or pseudo-inverse hit a (near-)singular matrix."""


class ConstructionError(RelosplitError, ValueError):
    """An operator or graph description violates its invariants."""


class ConsistencyError(RelosplitError):
    """An internal algebraic identity failed beyond numerical tolerance."""


class ScheduleError(RelosplitError, ValueError):
    """A stepsize schedule was queried incorrectly."""


class CertificateError(RelosplitError, ValueError):
    """A claimed solution certificate failed validation."""


class InfeasibleError(RelosplitError):
    """The stacked linear system admits no solution (no common zero)."""


class FixedPointError(RelosplitError, ValueError):
    """A point supplied as a fixed point fails the residual test."""


class NoOracleError(RelosplitError):
    """The problem instance carries no solution oracle."""


class ConfigError(RelosplitError, ValueError):
    """An experiment configuration failed validation.

    Carries the full list of path-qualified messages in ``errors``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
