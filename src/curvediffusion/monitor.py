"""Monitored quantities along trajectories and three lifespan times.

The flow preserves signed enclosed area, decreases length with
dissipation rate integral(kappa_s^2) dl, and decreases the absolute
signed isoperimetric ratio I = L^2 / (4 pi A) like
I(t) = I(0) * exp(-integral_0^t (2/L) integral(kappa_s^2) dl dtau).
flow.evolve records one row of those series per snapshot with _row, from
the field record it already holds, and _series assembles them. This
module also evaluates three times that depend only on the initial length:

    T_star = L0^4 / (64 pi^4)
    T_tilde = L0^4 / (768 pi^2)
    T_fig8 = L0^4 / (3 * 2^11 * K(-1)^4)

T_fig8 is the exact extinction time of the figure eight of length L0,
which shrinks by L(t)^4 = L0^4 (1 - t/T_fig8). T_fig8 < T_tilde < T_star
for every L0, so the figure eight, a closed curve, dies before T_star and
T_tilde: they are not lower bounds on the lifespan of every closed curve.
The hypotheses under which the source paper states them are not in this
repository; the ratios T_star/T_fig8 and T_tilde/T_fig8 are what is
computed.

Zero-area curves (the figure eight) and open curves have an undefined
isoperimetric ratio; that is a first-class state recorded as NaN in the
series, not an error, since the zero-area shrinker is a primary test
subject.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import elliptic_K
from .errors import DomainError, Undefined
from .geometry import CurveFields, DiscreteCurve, signed_area

# T_star, T_tilde and T_fig8 are L0^4 divided by these, so the ratios
# T_star/T_fig8 and T_tilde/T_fig8 are the same for every L0.
_DENOMINATORS = (64.0 * np.pi**4, 768.0 * np.pi**2, 3.0 * 2.0**11 * elliptic_K(-1.0) ** 4)
_RATIOS = (_DENOMINATORS[2] / _DENOMINATORS[0], _DENOMINATORS[2] / _DENOMINATORS[1])

# |A| below this times L^2 counts as zero area (undefined ratio).
_ZERO_AREA_FACTOR = 1e-12


@dataclass(frozen=True)
class MonitorSeries:
    """Per-snapshot series: time, length, area, isoperimetric ratio,
    accumulated dissipation Q, and instantaneous dissipation.

    I is NaN where the ratio is undefined (zero enclosed area or an open
    curve). Q is the running trapezoidal time integral of diss.
    """

    t: np.ndarray
    L: np.ndarray
    A: np.ndarray
    I: np.ndarray
    Q: np.ndarray
    diss: np.ndarray


@dataclass(frozen=True)
class LifespanBounds:
    T_star: float
    T_tilde: float
    T_fig8: float
    ratio_star: float
    ratio_tilde: float

    def to_dict(self) -> dict:
        return asdict(self)


def _dissipation(fields: CurveFields) -> float:
    return float(np.sum(fields.kappa_s**2 * fields.dl))


def _ratio(total: float, area: float) -> float:
    if abs(area) <= _ZERO_AREA_FACTOR * total**2:
        return float("nan")
    return float(total**2 / (4.0 * np.pi * area))


def _running_integral(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Trapezoidal integral of values from t[0] up to each t[i]."""
    out = np.zeros(t.size)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(t))
    return out


def _row(curve: DiscreteCurve, fields: CurveFields) -> tuple[float, float, float, float]:
    """(L, A, I, diss) of one curve from its field record; A and I are NaN
    for an open curve. L = fields.length is the sum length() takes."""
    total = fields.length
    if not curve.closed:
        return total, float("nan"), float("nan"), _dissipation(fields)
    area = signed_area(curve)
    return total, area, _ratio(total, area), _dissipation(fields)


def _series(times, rows) -> MonitorSeries:
    """MonitorSeries from parallel sequences of times and _row tuples."""
    t = np.asarray(list(times), dtype=float)
    if len(rows) != t.size or t.size == 0:
        raise ValueError("need equal, nonzero numbers of times and curves")
    lengths, areas, ratios, diss = np.array(rows, dtype=float).T
    return MonitorSeries(t=t, L=lengths, A=areas, I=ratios, Q=_running_integral(t, diss),
                         diss=diss)


def isoperimetric_decay_check(series: MonitorSeries) -> float:
    """Max relative deviation of I(t) from the predicted exponential decay.

    The prediction integrates 2 * diss / L by the trapezoidal rule from
    the same series, so this is a mutual-consistency check between the
    recorded ratio and the recorded dissipation.
    """
    if np.any(np.isnan(series.I)):
        raise Undefined("isoperimetric ratio is undefined at some samples")
    exponent = _running_integral(series.t, 2.0 * series.diss / series.L)
    predicted = series.I[0] * np.exp(-exponent)
    return float(np.max(np.abs(predicted / series.I - 1.0)))


def time_bounds(L0: float) -> LifespanBounds:
    """T_star, T_tilde, T_fig8 and their ratios for initial length L0.

    All three bounds are quartic in L0. The ordering
    T_fig8 < T_tilde < T_star holds for every positive length, and the
    ratios are the same for every L0. Raises DomainError unless L0 is
    finite and positive and every bound is a finite normal double.
    """
    if not (np.isfinite(L0) and L0 > 0.0):
        raise DomainError(f"time_bounds requires a finite L0 > 0, got {L0}")
    # Float products overflow to inf where L0**4 would raise OverflowError;
    # dividing before the last product keeps every bound that fits finite.
    square = L0 * L0
    bounds = [square * (square / d) for d in _DENOMINATORS]
    if not all(sys.float_info.min <= t < np.inf for t in bounds):
        raise DomainError(
            f"time_bounds: L0 = {L0} puts a lifespan bound outside the double range"
        )
    return LifespanBounds(*bounds, *_RATIOS)
