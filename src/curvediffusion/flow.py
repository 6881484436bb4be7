"""Time integration of the curve diffusion flow.

The flow moves each point with normal speed -kappa_ss (the elastic
comparison mode uses -kappa_ss - kappa^3 / 2). Only the normal component
is geometrically meaningful, so steps displace nodes along the discrete
normal and periodic arc-length redistribution absorbs the parameter drift
that would otherwise cluster nodes and destroy the h^4 stability budget.

The scheme is semi-implicit (IMEX). The stiff fourth-order part is frozen
at the current mean arc spacing h and treated implicitly, in increment form:

    gamma_new = gamma + (I + c S^T S)^-1 (dt v nu),   c = dt / h^4

with S the unit three-point second difference (cyclic for closed curves,
interior-only for open ones, which leaves the ends free). It equals
(I + dt D4) gamma_new = gamma + dt (v nu + D4 gamma), D4 = S^T S / h^4,
without the h^-4-sized D4 gamma. The SPD operator is circulant (one FFT
pair) when closed and pentadiagonal (banded Cholesky) when open; a step
never amplifies, so dt ~ h^2 works given near-uniform spacing.

The automatic step (dt = None) on a closed curve is error-controlled: each
step extrapolates 1, 2, 3 and 4 IMEX Euler substeps in an Aitken-Neville
table (linearly implicit Euler extrapolation, Deuflhard 1985) and keeps T43,
the third-order entry of rows 2-4; its gap to the embedded third-order entry
T33 estimates the local error that sets the next dt. The rows advance
together by stage, so an attempt records its 6 intermediate states in 3
field-kernel calls and solves in 4 FFT pairs, one stacked circulant solve
per stage.
On an open curve the automatic step follows the mesh: h^2/4.

Stopping is by first trigger among: time horizon reached, length below a
floor, minimum node spacing below a floor, a controlled dt shrunk below its
floor without meeting the tolerance, or a numerical failure (non-finite
state, singular solve, degenerate segment). Every stop,
non_regular included, is a recorded termination reason, never a crash:
a state is kept only once its geometry record exists, so the last
snapshot is always a regular curve.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (CurveDiffusionError, DomainError, NonFinite, NonRegular, SolveFailure,
                     TooFewNodes, TooFewSnapshots)
from .geometry import (MIN_NODES_FIELDS, CurveFields, DiscreteCurve, _fields, _require_regular,
                       _solve_banded, curve_fields, resample_uniform, segment_lengths)
from .monitor import MonitorSeries, _row, _series

CURVE_DIFFUSION = "curve_diffusion"
ELASTIC = "elastic"
FLOW_KINDS = (CURVE_DIFFUSION, ELASTIC)

SEMI_IMPLICIT = "semi_implicit"
SCHEMES = (SEMI_IMPLICIT,)

TERM_TIME_REACHED = "time_reached"
TERM_LENGTH_BELOW = "length_below"
TERM_MIN_SPACING_BELOW = "min_spacing_below"
TERM_NON_FINITE = "non_finite"
TERM_SOLVE_FAILURE = "solve_failure"
TERM_NON_REGULAR = "non_regular"
TERM_ACCURACY_NOT_MET = "accuracy_not_met"


class _AccuracyNotMet(CurveDiffusionError):
    """A controlled dt fell below its floor with the error above AUTO_RTOL."""


_FAILURE_TERMS = {NonFinite: TERM_NON_FINITE, SolveFailure: TERM_SOLVE_FAILURE,
                  NonRegular: TERM_NON_REGULAR, _AccuracyNotMet: TERM_ACCURACY_NOT_MET}

# The automatic step on an open curve, and the first one on a closed curve: h^2/4.
SEMI_IMPLICIT_DT_FACTOR = 0.25
# Controlled steps: accepted when the local error estimate, relative to the
# length, is at most AUTO_RTOL; the run stops once dt falls below
# AUTO_DT_FLOOR times the first step.
AUTO_RTOL = 1e-5
AUTO_DT_FLOOR = 1e-6


@dataclass(frozen=True)
class FlowSpec:
    """Flow kind plus stepper policy. scheme accepts only semi_implicit.

    dt = None selects the automatic step: error-controlled from a first
    h^2/4 on a closed curve (see AUTO_RTOL); h^2/4 on an open one,
    recomputed after each redistribution.
    redistribute_every = 0 disables redistribution entirely (including the
    initial pass). length_min / min_spacing = None disable those stops; each
    is tested after every step, and the first state below its floor ends the run.
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
        if self.scheme == "explicit":
            raise ValueError("scheme 'explicit' was removed: forward Euler is stable only for "
                             f"dt <= 0.125 h^4; use {SEMI_IMPLICIT!r}")
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
    """Time-stamped sequence of curves with monitors and a stop reason.

    termination_detail is set on a failure stop (non_finite, solve_failure,
    non_regular, accuracy_not_met) only: what went wrong with the step count
    and t of the last kept state, which are n_steps and times[-1].
    """

    times: np.ndarray
    snapshots: list
    monitors: MonitorSeries
    termination: str
    n_steps: int
    termination_detail: str | None = None


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
        return -fields.kappa_ss - 0.5 * (fields.kappa * fields.kappa * fields.kappa)
    raise ValueError(f"unknown flow kind {kind!r}")


@lru_cache(maxsize=8)
def _closed_symbol(n: int) -> np.ndarray:
    """Read-only rfft symbol (4 sin^2(pi k/N))^2, k = 0..N/2, of S^T S."""
    sym = (4.0 * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2) ** 2
    sym.flags.writeable = False
    return sym


def _imex_solve(rhs: np.ndarray, c: float | np.ndarray, closed: bool) -> np.ndarray:
    """Solve (I + c S^T S) x = rhs, S the unit second difference.

    rhs is (N, 2) with a scalar c. Closed curves also take a row-first stack:
    c of shape (B,), one per row, against rhs (B, N, 2), or against one (N, 2)
    rhs shared by the B rows; x is then (B, N, 2), from one FFT pair.
    Closed: circulant with symbol 1 + c (2 - 2 cos(2 pi k/N))^2, evaluated as
    1 + c (4 sin^2(pi k/N))^2 to avoid cancellation at low k, its c-free part
    cached per N by _closed_symbol. Open (N >= 4): in upper-band storage, row
    2 of ab is the diagonal [1, 5, 6, ..., 6, 5, 1] of S^T S and rows 1, 0
    its superdiagonals [-2, -4, ..., -4, -2] and ones.
    """
    n = rhs.shape[-2]
    if closed:
        scale = 1.0 + np.multiply.outer(c, _closed_symbol(n))
        return np.fft.irfft(np.fft.rfft(rhs, axis=-2) / scale[..., None], n=n, axis=-2)
    ab = np.repeat([[c], [-4.0 * c], [1.0 + 6.0 * c]], n, axis=1)
    ab[1, [1, -1]] = -2.0 * c
    ab[2, [0, 1, -2, -1]] = 1.0 + c * np.array([1.0, 5.0, 5.0, 1.0])
    # Non-finite input flows through to the NonFinite check in _advance().
    return _solve_banded(ab, rhs)


def _auto_step(h: float) -> float:
    return SEMI_IMPLICIT_DT_FACTOR * h**2


def _advance(curve: DiscreteCurve, fields: CurveFields, dt: float,
             spec: FlowSpec) -> DiscreteCurve:
    """One IMEX Euler step of size dt > 0 from the curve and its field record.
    Overflow from an oversized step is reported by _require_finite."""
    h = fields.length / fields.seg.size
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = dt * normal_velocity(fields, spec.kind)[:, None] * fields.normal
        try:
            new_nodes = curve.nodes + _imex_solve(rhs, dt / h**4, curve.closed)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SolveFailure(f"implicit solve failed: {exc}") from exc
    return DiscreteCurve(_require_finite(new_nodes), curve.closed)


def _require_finite(nodes: np.ndarray) -> np.ndarray:
    """nodes, (N, 2) or a stack (B, N, 2) of table rows, if all are finite.

    NonFinite names the first bad node of the first bad row by its node index.
    """
    if not np.all(np.isfinite(nodes)):
        flat = nodes.reshape(-1, 2)
        i = int(np.argmin(np.isfinite(flat).all(axis=1)))
        x, y = flat[i]
        raise NonFinite(f"non-finite coordinates after a time step: node "
                        f"{i % nodes.shape[-2]} at ({float(x)!r}, {float(y)!r})")
    return nodes


def _extrapolated_step(curve: DiscreteCurve, fields: CurveFields, dt: float,
                       spec: FlowSpec) -> tuple[DiscreteCurve, float]:
    """One extrapolated semi-implicit step of size dt on a closed curve, and
    its local error estimate.

    Row k of the Aitken-Neville table is k IMEX Euler substeps of dt/k
    (k = 1..4), each intermediate state with its own field record. The rows
    advance together, one substep per stage: stage 0 moves rows 1-4 from the
    shared state, and stage j = 1, 2, 3 records rows j+1..4 with one field
    kernel call and solves them with one stacked circulant solve. The step
    keeps T43, third order from rows 2-4; the estimate is its gap to the
    embedded third-order entry, max_i |T43_i - T33_i| / L. The top entry T44
    is fourth order, but its snapshots are rough enough mid-run to fail the
    shrinker test.
    """
    k = np.arange(1.0, 5.0)
    tau = dt / k
    n = curve.n
    h = fields.length / n
    # One transform of dt v nu serves the four first substeps: row k's
    # solution, divided by k, is its step of dt/k.
    rhs = dt * normal_velocity(fields, spec.kind)[:, None] * fields.normal
    live = curve.nodes + _imex_solve(rhs, tau / h**4, True) / k[:, None, None]
    rows = []
    for stage in (1, 2, 3):
        rows.append(_require_finite(live)[0])
        live = live[1:]
        records = _fields(live, True)
        v = normal_velocity(records, spec.kind)
        rhs = tau[stage:, None, None] * v[..., None] * records.normal
        h = records.seg.sum(axis=-1) / n
        live = live + _imex_solve(rhs, tau[stage:] / ((h * h) * (h * h)), True)
    t11, t21, t31 = rows
    t41 = _require_finite(live)[0]
    t22 = t21 + (t21 - t11)
    t32 = t31 + 2.0 * (t31 - t21)
    t42 = t41 + 3.0 * (t41 - t31)
    t33 = t32 + 0.5 * (t32 - t22)
    t43 = t42 + (t42 - t32)
    diff = t43 - t33
    err = float(np.hypot(diff[:, 0], diff[:, 1]).max()) / fields.length
    return DiscreteCurve(t43, True), err


def evolve(curve: DiscreteCurve, spec: FlowSpec) -> Trajectory:
    """Run the flow to the first stop trigger and record the trajectory.

    When redistribution is enabled the initial curve is first resampled to
    uniform arc length (snapshot 0 is that resampled state): the frozen
    mean-spacing operator of the semi-implicit scheme under-stabilizes
    regions sampled finer than the mean, so near-uniform spacing is a
    correctness requirement, not a cosmetic one. Each state held (initial,
    post-step, redistributed) gets one curve_fields record, which feeds
    the next step, the automatic dt, the stop rules and the monitor row
    of a snapshot. A rejected controlled attempt keeps no state and is not
    a step: the redistribution and snapshot cadences count accepted steps.

    Raises TooFewNodes, before any other work, for fewer than 8 nodes, and
    DomainError when h^4 is not a normal double, h the input's mean chord:
    the semi-implicit solve divides by h^4, and curve_fields cubes a
    parameter speed proportional to h.
    """
    if curve.n < MIN_NODES_FIELDS:
        raise TooFewNodes(f"evolve needs at least {MIN_NODES_FIELDS} nodes, got {curve.n}")
    seg = _require_regular(segment_lengths(curve))
    h = float(seg.sum()) / seg.size
    if not sys.float_info.min <= (h * h) * (h * h) < np.inf:
        raise DomainError(f"mean node spacing h = {h:.3e} puts h^4 outside the normal "
                          "double range; rescale the curve")
    state = curve
    if spec.redistribute_every > 0:
        state = resample_uniform(state, curve.n)
    fields = curve_fields(state)
    times = [0.0]
    snaps = [state]
    rows = [_row(state, fields)]
    h = fields.length / fields.seg.size
    dt = spec.dt if spec.dt is not None else _auto_step(h)
    controlled = spec.dt is None and state.closed
    dt_floor = AUTO_DT_FLOOR * dt
    t = 0.0
    steps = 0
    termination = TERM_TIME_REACHED
    detail = None
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
            if controlled:
                new, err = _extrapolated_step(state, fields, dt_step, spec)
                factor = 0.9 * (AUTO_RTOL / err) ** 0.25 if err > 0.0 else 4.0
                dt = dt_step * min(max(factor, 0.2), 4.0)
                if err > AUTO_RTOL:
                    if dt < dt_floor:
                        raise _AccuracyNotMet(f"step size {dt!r} fell below the floor "
                                              f"{dt_floor!r} with error estimate {err!r} "
                                              f"> {AUTO_RTOL!r}")
                    continue
            else:
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
                if spec.dt is None and not controlled:
                    dt = _auto_step(fields.length / fields.seg.size)
        except tuple(_FAILURE_TERMS) as exc:
            termination = _FAILURE_TERMS[type(exc)]
            detail = f"{exc} (last kept state: step {steps}, t = {float(t)!r})"
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
        termination_detail=detail,
    )


def fit_scale_profile(traj: Trajectory) -> ScaleFit:
    """Fit the self-similar scale law L(t)^4 = L(0)^4 (1 + 4 K t).

    Linear regression of (L/L0)^4 - 1 against tau = t / t[-1] through the
    origin (the intercept is pinned by normalizing rho = 1), so that no
    square of a time overflows; K is the slope over t[-1]. rms_residual is
    the root-mean-square misfit in the dimensionless (L/L0)^4 variable.
    """
    if len(traj.snapshots) < 3:
        raise TooFewSnapshots(
            f"scale fit needs at least 3 snapshots, got {len(traj.snapshots)}"
        )
    t = np.asarray(traj.times, dtype=float)
    tau = t / t[-1]
    lengths = traj.monitors.L
    y = (lengths / lengths[0]) ** 4 - 1.0
    k = float(np.sum(tau * y) / (4.0 * np.sum(tau * tau)))
    rms = float(np.sqrt(np.mean((1.0 + 4.0 * k * tau - (1.0 + y)) ** 2)))
    return ScaleFit(rho=1.0, K=k / float(t[-1]), rms_residual=rms)
