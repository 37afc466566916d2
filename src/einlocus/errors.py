"""Exception types shared across the package."""


class EinlocusError(Exception):
    """Base class for all package-specific errors."""


class ChartDomainError(EinlocusError):
    """A point fell outside a chart's admitted domain."""


class DegenerateMetricError(EinlocusError):
    """The Hermitian metric is numerically degenerate at a point."""


class NonAnalyticFieldError(EinlocusError):
    """A scalar field could not be lifted with the analytic primitive set."""


class JetOrderError(EinlocusError):
    """A derivative of higher order than the jet carries was requested."""


class RankDeficiencyError(EinlocusError):
    """A locus parametrization is rank-deficient at the requested parameter."""


class SpecFormatError(EinlocusError):
    """A manifold spec file is malformed or uses an unsupported schema."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownPrimitiveError(SpecFormatError):
    """An expression used a primitive outside the supported analytic set."""
