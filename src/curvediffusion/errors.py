"""Exception hierarchy shared by every module in the package.

All errors derive from :class:`CurveDiffusionError` so callers can catch
the whole family with one clause. The CLI maps these onto exit codes.
"""

from __future__ import annotations


class CurveDiffusionError(Exception):
    """Base class for all errors raised by this package."""


class TooFewNodes(CurveDiffusionError):
    """A curve has fewer nodes than the requested operation supports."""


class NonRegular(CurveDiffusionError):
    """A segment length fell below the regularity threshold."""


class OpenCurve(CurveDiffusionError):
    """The curve's topology (open vs closed) does not match the operation."""


class AmbiguousTurning(CurveDiffusionError):
    """The turning-angle sum is too far from an integer multiple of 2*pi."""


class HypothesisViolated(CurveDiffusionError):
    """A geometric hypothesis (e.g. strictly monotone curvature) fails."""


class QuadratureFailure(CurveDiffusionError):
    """A quadrature would need more panels than its fixed cap allows."""


class DomainError(CurveDiffusionError):
    """A scalar argument lies outside the mathematical domain."""


class SolveFailure(CurveDiffusionError):
    """A linear system arising in a time step could not be solved."""


class NonFinite(CurveDiffusionError):
    """NaN or Inf appeared in a computed state."""


class TooFewSnapshots(CurveDiffusionError):
    """A trajectory has too few snapshots for the requested fit."""


class DegenerateGeometry(CurveDiffusionError):
    """A fit's normal equations are singular for this input geometry."""


class Undefined(CurveDiffusionError):
    """A monitored quantity is undefined on the given data."""
