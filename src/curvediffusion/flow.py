"""Time integration of the curve diffusion flow.

The flow moves each point with normal speed -kappa_ss (the elastic
comparison mode uses -kappa_ss - kappa^3 / 2). Only the normal component
is geometrically meaningful, so steps displace nodes along the discrete
normal and periodic arc-length redistribution absorbs the parameter drift
that would otherwise cluster nodes and destroy the h^4 stability budget.

Two schemes:

  * Explicit forward Euler. Stable only under dt <~ h^4; evolve() enforces
    the envelope dt * (N/L)^4 <= 0.125 on user-supplied steps and the
    automatic step uses h^4 / 10.
  * Semi-implicit (IMEX). The stiff fourth-order part is frozen at the
    current mean arc spacing h and treated implicitly, in increment form:

        gamma_new = gamma + (I + c S^T S)^-1 (dt v nu),   c = dt / h^4

    with S the unit three-point second difference (cyclic for closed curves,
    interior-only for open ones, which leaves the ends free). It equals
    (I + dt D4) gamma_new = gamma + dt (v nu + D4 gamma), D4 = S^T S / h^4,
    without the h^-4-sized D4 gamma. The SPD operator is circulant (one FFT
    pair) when closed and pentadiagonal (banded Cholesky) when open; a step
    never amplifies, so dt ~ h^2 works given near-uniform spacing.

Stopping is by first trigger among: time horizon reached, length below a
floor, minimum node spacing below a floor, or a numerical failure
(non-finite state, singular solve, degenerate segment). Every stop,
non_regular included, is a recorded termination reason, never a crash:
a state is kept only once its geometry record exists, so the last
snapshot is always a regular curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFinite, NonRegular, SolveFailure, TooFewSnapshots
from .geometry import (CurveFields, DiscreteCurve, _solve_banded, curve_fields, length,
                       resample_uniform, segment_lengths)
from .monitor import MonitorSeries, _row, _series

CURVE_DIFFUSION = "curve_diffusion"
ELASTIC = "elastic"
FLOW_KINDS = (CURVE_DIFFUSION, ELASTIC)

EXPLICIT = "explicit"
SEMI_IMPLICIT = "semi_implicit"
SCHEMES = (EXPLICIT, SEMI_IMPLICIT)

TERM_TIME_REACHED = "time_reached"
TERM_LENGTH_BELOW = "length_below"
TERM_MIN_SPACING_BELOW = "min_spacing_below"
TERM_NON_FINITE = "non_finite"
TERM_SOLVE_FAILURE = "solve_failure"
TERM_NON_REGULAR = "non_regular"
_FAILURE_TERMS = {NonFinite: TERM_NON_FINITE, SolveFailure: TERM_SOLVE_FAILURE,
                  NonRegular: TERM_NON_REGULAR}

# Automatic step sizes: safety factor below the forward-Euler bound for the
# fourth-difference symbol (explicit), and an h^2 step for the IMEX scheme.
EXPLICIT_DT_FACTOR = 0.1
SEMI_IMPLICIT_DT_FACTOR = 0.25
# User-supplied explicit steps must satisfy dt * (N/L)^4 <= this.
EXPLICIT_ENVELOPE = 0.125


@dataclass(frozen=True)
class FlowSpec:
    """Flow kind plus stepper policy.

    dt = None selects the automatic step (h^4/10 explicit, h^2/4
    semi-implicit, recomputed after each redistribution).
    redistribute_every = 0 disables redistribution entirely (including the
    initial pass). length_min / min_spacing = None disable those stops.
    """

    kind: str = CURVE_DIFFUSION
    scheme: str = SEMI_IMPLICIT
    dt: float | None = None
    t_end: float = 1.0
    redistribute_every: int = 10
    snapshot_every: int = 10
    length_min: float | None = None
    min_spacing: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.redistribute_every < 0:
            raise ValueError("redistribute_every must be >= 0")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.length_min is not None and self.length_min < 0.0:
            raise ValueError("length_min must be >= 0")
        if self.min_spacing is not None and self.min_spacing < 0.0:
            raise ValueError("min_spacing must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped sequence of curves with monitors and a stop reason."""

    times: np.ndarray
    snapshots: list
    monitors: MonitorSeries
    termination: str
    n_steps: int


@dataclass(frozen=True)
class ScaleFit:
    rho: float
    K: float
    rms_residual: float


def normal_velocity(fields: CurveFields, kind: str) -> np.ndarray:
    """Scalar normal speed per node: -kappa_ss, or -kappa_ss - kappa^3/2."""
    if kind == CURVE_DIFFUSION:
        return -fields.kappa_ss
    if kind == ELASTIC:
        return -fields.kappa_ss - 0.5 * fields.kappa**3
    raise ValueError(f"unknown flow kind {kind!r}")


@lru_cache(maxsize=8)
def _closed_symbol(n: int) -> np.ndarray:
    """Read-only rfft symbol (4 sin^2(pi k/N))^2, k = 0..N/2, of S^T S."""
    sym = (4.0 * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2) ** 2
    sym.flags.writeable = False
    return sym


def _imex_solve(rhs: np.ndarray, c: float, closed: bool) -> np.ndarray:
    """Solve (I + c S^T S) x = rhs for (N, 2) rhs, S the unit second difference.

    Closed: circulant with symbol 1 + c (2 - 2 cos(2 pi k/N))^2, evaluated as
    1 + c (4 sin^2(pi k/N))^2 to avoid cancellation at low k, its c-free part
    cached per N by _closed_symbol. Open (N >= 4): in upper-band storage, row
    2 of ab is the diagonal [1, 5, 6, ..., 6, 5, 1] of S^T S and rows 1, 0
    its superdiagonals [-2, -4, ..., -4, -2] and ones.
    """
    n = rhs.shape[0]
    if closed:
        scale = 1.0 + c * _closed_symbol(n)
        return np.fft.irfft(np.fft.rfft(rhs, axis=0) / scale[:, None], n=n, axis=0)
    ab = np.repeat([[c], [-4.0 * c], [1.0 + 6.0 * c]], n, axis=1)
    ab[1, [1, -1]] = -2.0 * c
    ab[2, [0, 1, -2, -1]] = 1.0 + c * np.array([1.0, 5.0, 5.0, 1.0])
    # Non-finite input flows through to the NonFinite check in _advance().
    return _solve_banded(ab, rhs)


def _auto_step(h: float, scheme: str) -> float:
    if scheme == EXPLICIT:
        return EXPLICIT_DT_FACTOR * h**4
    if scheme == SEMI_IMPLICIT:
        return SEMI_IMPLICIT_DT_FACTOR * h**2
    raise ValueError(f"unknown scheme {scheme!r}")


def auto_dt(curve: DiscreteCurve, scheme: str) -> float:
    """Automatic step for the current mean arc spacing."""
    return _auto_step(length(curve) / segment_lengths(curve).size, scheme)


def step(curve: DiscreteCurve, dt: float, spec: FlowSpec) -> DiscreteCurve:
    """Advance one time step of size dt.

    The explicit stability envelope is the caller's contract (evolve
    enforces it); this function will take whatever step it is given.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return _advance(curve, curve_fields(curve), dt, spec)


def _advance(curve: DiscreteCurve, fields: CurveFields, dt: float,
             spec: FlowSpec) -> DiscreteCurve:
    """One step of size dt > 0 from the curve and its field record."""
    v = normal_velocity(fields, spec.kind)

    if spec.scheme == EXPLICIT:
        # Overflow from an oversized step is reported via NonFinite below.
        with np.errstate(over="ignore", invalid="ignore"):
            new_nodes = curve.nodes + dt * v[:, None] * fields.normal
    else:
        h = fields.length / fields.seg.size
        try:
            incr = _imex_solve(dt * v[:, None] * fields.normal, dt / h**4, curve.closed)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SolveFailure(f"implicit solve failed: {exc}") from exc
        new_nodes = curve.nodes + incr

    if not np.all(np.isfinite(new_nodes)):
        raise NonFinite("non-finite coordinates after a time step")
    return DiscreteCurve(new_nodes, curve.closed)


def evolve(curve: DiscreteCurve, spec: FlowSpec) -> Trajectory:
    """Run the flow to the first stop trigger and record the trajectory.

    When redistribution is enabled the initial curve is first resampled to
    uniform arc length (snapshot 0 is that resampled state): the frozen
    mean-spacing operator of the semi-implicit scheme under-stabilizes
    regions sampled finer than the mean, so near-uniform spacing is a
    correctness requirement, not a cosmetic one. Each state held (initial,
    post-step, redistributed) gets one curve_fields record, which feeds
    the next step, the automatic dt, the stop rules and the monitor row
    of a snapshot.
    """
    state = curve
    if spec.redistribute_every > 0:
        state = resample_uniform(state, curve.n)
    fields = curve_fields(state)

    if spec.scheme == EXPLICIT and spec.dt is not None:
        envelope = spec.dt * (state.n / fields.length) ** 4
        if envelope > EXPLICIT_ENVELOPE * (1.0 + 1e-12):
            raise ValueError(
                f"explicit step dt={spec.dt:.6g} gives dt*(N/L)^4 = "
                f"{envelope:.6g} > {EXPLICIT_ENVELOPE}, outside the "
                "stability envelope; reduce dt or use the semi-implicit scheme"
            )

    times = [0.0]
    snaps = [state]
    rows = [_row(state, fields)]
    h = fields.length / fields.seg.size
    dt = spec.dt if spec.dt is not None else _auto_step(h, spec.scheme)
    t = 0.0
    steps = 0
    termination = TERM_TIME_REACHED
    horizon = spec.t_end * (1.0 - 1e-12)

    def record() -> None:
        if times[-1] != t:
            times.append(t)
            snaps.append(state)
            rows.append(_row(state, fields))

    while t < horizon:
        dt_step = min(dt, spec.t_end - t)
        try:
            # A state is kept only once its record exists; a degenerate one never is.
            new = _advance(state, fields, dt_step, spec)
            state, fields = new, curve_fields(new)
            t += dt_step
            steps += 1
            if spec.min_spacing is not None and float(fields.seg.min()) < spec.min_spacing:
                termination = TERM_MIN_SPACING_BELOW
                break
            if spec.length_min is not None and fields.length < spec.length_min:
                termination = TERM_LENGTH_BELOW
                break
            if (
                spec.redistribute_every > 0
                and steps % spec.redistribute_every == 0
                and t < horizon
            ):
                new = resample_uniform(state, state.n)
                state, fields = new, curve_fields(new)
                if spec.dt is None:
                    dt = _auto_step(fields.length / fields.seg.size, spec.scheme)
        except tuple(_FAILURE_TERMS) as exc:
            termination = _FAILURE_TERMS[type(exc)]
            break
        if steps % spec.snapshot_every == 0:
            record()

    record()
    return Trajectory(
        times=np.asarray(times),
        snapshots=snaps,
        monitors=_series(times, rows),
        termination=termination,
        n_steps=steps,
    )


def fit_scale_profile(traj: Trajectory) -> ScaleFit:
    """Fit the self-similar scale law L(t)^4 = L(0)^4 (1 + 4 K t).

    Linear regression of (L/L0)^4 - 1 against t through the origin
    (the intercept is pinned by normalizing rho = 1). rms_residual is the
    root-mean-square misfit in the dimensionless (L/L0)^4 variable.
    """
    if len(traj.snapshots) < 3:
        raise TooFewSnapshots(
            f"scale fit needs at least 3 snapshots, got {len(traj.snapshots)}"
        )
    t = np.asarray(traj.times, dtype=float)
    lengths = traj.monitors.L
    y = (lengths / lengths[0]) ** 4 - 1.0
    k = float(np.sum(t * y) / (4.0 * np.sum(t * t)))
    rms = float(np.sqrt(np.mean((1.0 + 4.0 * k * t - (1.0 + y)) ** 2)))
    return ScaleFit(rho=1.0, K=k, rms_residual=rms)
