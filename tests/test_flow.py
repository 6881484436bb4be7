"""Time stepping: the IMEX step and its error control, stops, and scale fits."""
from __future__ import annotations

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvediffusion as cd
from curvediffusion import flow
from conftest import (FIXTURE_DIR, ellipse_curve, forward_euler, monitor_series, moved,
                      random_smooth_curve, repeat_node_on_record, repeat_node_on_step)

RNG = np.random.default_rng(20260814)


# ---------------------------------------------------------------------------
# Normal velocity


def test_velocity_circle_vanishes(circle_512):
    f = cd.curve_fields(circle_512)
    v = cd.normal_velocity(f, cd.CURVE_DIFFUSION)
    assert np.max(np.abs(v)) < 1e-6


def test_velocity_circle_elastic(circle_512):
    f = cd.curve_fields(circle_512)
    v = cd.normal_velocity(f, cd.ELASTIC)
    # -kappa_ss - kappa^3/2 = -1/2 on the unit circle
    assert v == pytest.approx(-0.5 * np.ones(512), abs=1e-3)


def test_velocity_lemniscate_tip(lemniscate_512):
    f = cd.curve_fields(lemniscate_512)
    v = cd.normal_velocity(f, cd.CURVE_DIFFUSION)
    assert v[0] == pytest.approx(6.0, abs=1e-2)


def test_velocity_unknown_kind(circle_512):
    f = cd.curve_fields(circle_512)
    with pytest.raises(ValueError):
        cd.normal_velocity(f, "mean_curvature")


# ---------------------------------------------------------------------------
# Single steps


# The single-step properties also run on conftest's forward-Euler oracle,
# "explicit", at h^4/10: they are properties of the field record and the
# normal velocity as much as of the IMEX solve.
STEPPERS = ("explicit", cd.SEMI_IMPLICIT)


def _one_step(curve: cd.DiscreteCurve, dt: float,
              stepper: str = cd.SEMI_IMPLICIT) -> cd.DiscreteCurve:
    """The state after one evolve step of size dt, without redistribution, or
    after one forward-Euler step for stepper "explicit"."""
    if stepper == "explicit":
        return forward_euler(curve, dt)
    traj = cd.evolve(curve, cd.FlowSpec(dt=dt, t_end=dt, redistribute_every=0))
    assert traj.n_steps == 1 and traj.termination == flow.TERM_TIME_REACHED
    return traj.snapshots[-1]


def _auto_dt(curve: cd.DiscreteCurve, stepper: str = cd.SEMI_IMPLICIT) -> float:
    seg = cd.segment_lengths(curve)
    h = float(seg.sum()) / seg.size
    return 0.1 * h**4 if stepper == "explicit" else flow._auto_step(h)


def test_auto_dt_scaling(circle_512):
    h = cd.length(circle_512) / 512
    assert flow._auto_step(h) == pytest.approx(h**2 / 4)


@pytest.mark.parametrize("stepper", STEPPERS)
def test_step_circle_barely_moves(circle_512, stepper):
    nxt = _one_step(circle_512, _auto_dt(circle_512, stepper), stepper)
    assert np.max(np.abs(nxt.nodes - circle_512.nodes)) < 1e-8


def test_step_explicit_preserves_lemniscate_area():
    crv = cd.sample_analytic(cd.Lemniscate(), 256)
    dt = (cd.length(crv) / 256) ** 4 / 10
    nxt = forward_euler(crv, dt)
    assert abs(cd.signed_area(nxt)) < 1e-9


def test_step_semi_implicit_shrinks_ellipse():
    crv = cd.resample_uniform(ellipse_curve(256), 256)
    nxt = _one_step(crv, 1e-5)
    assert cd.length(nxt) < cd.length(crv)


def test_step_overflow_raises(lemniscate_512):
    # dt v overflows; the step raises NonFinite, not a numpy overflow warning.
    spec = cd.FlowSpec(dt=1e308, t_end=1.0)
    with pytest.raises(cd.NonFinite):
        flow._advance(lemniscate_512, cd.curve_fields(lemniscate_512), 1e308, spec)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "heat"},
        {"scheme": "crank_nicolson"},
        {"t_end": 0.0},
        {"dt": -1e-6},
        {"redistribute_every": -1},
        {"dt": 0.0},
    ],
)
def test_flow_spec_validation(kwargs):
    with pytest.raises(ValueError):
        cd.FlowSpec(**kwargs)


# ---------------------------------------------------------------------------
# Structured IMEX solve


def _unit_second_difference(n: int, closed: bool) -> np.ndarray:
    """Dense S: cyclic [1, -2, 1] rows when closed, the N-2 interior rows when open."""
    if closed:
        eye = np.eye(n)
        return np.roll(eye, -1, axis=1) - 2.0 * eye + np.roll(eye, 1, axis=1)
    s = np.zeros((n - 2, n))
    for i in range(n - 2):
        s[i, i:i + 3] = [1.0, -2.0, 1.0]
    return s


@pytest.mark.parametrize("c", [0.5, 40.0])
@pytest.mark.parametrize(
    "n, closed",
    [(8, True), (9, True), (64, True), (257, True), (8, False), (64, False), (257, False)],
)
def test_imex_solve_matches_dense(n, closed, c):
    # Odd and even closed N exercise the rfft Nyquist handling. c stays where
    # the dense reference's own round-off (~cond * eps) is below 1e-13.
    s = _unit_second_difference(n, closed)
    rhs = RNG.standard_normal((n, 2))
    want = np.linalg.solve(np.eye(n) + c * s.T @ s, rhs)
    got = flow._imex_solve(rhs, c, closed)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_imex_solve_cached_symbol_is_exact_and_read_only():
    # Alternating sizes must each find their own symbol, bit for bit the
    # formula the cache replaced.
    for n in (64, 65, 64):
        rhs = RNG.standard_normal((n, 2))
        sym = 4.0 * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
        for c in (0.5, 40.0, 1e6):
            scale = (1.0 + c * sym**2)[:, None]
            want = np.fft.irfft(np.fft.rfft(rhs, axis=0) / scale, n=n, axis=0)
            assert np.array_equal(flow._imex_solve(rhs, c, True), want)
    # A caller that wrote into the cached array would corrupt later solves.
    cached = flow._closed_symbol(64)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0] = 1.0


def _dense_imex_step(curve: cd.DiscreteCurve, dt: float) -> np.ndarray:
    """(I + dt D4) x_new = x + dt (v nu + D4 x), D4 = D2^T D2 at the mean spacing."""
    f = cd.curve_fields(curve)
    v = cd.normal_velocity(f, cd.CURVE_DIFFUSION)
    h = cd.length(curve) / (curve.n if curve.closed else curve.n - 1)
    d2 = _unit_second_difference(curve.n, curve.closed) / h**2
    d4 = d2.T @ d2
    rhs = curve.nodes + dt * (v[:, None] * f.normal + d4 @ curve.nodes)
    return np.linalg.solve(np.eye(curve.n) + dt * d4, rhs)


@pytest.mark.parametrize("name", ["lemniscate_512", "clothoid_512"])
def test_semi_implicit_step_matches_dense_formula(name, request):
    crv = request.getfixturevalue(name)
    dt = _auto_dt(crv)
    got = _one_step(crv, dt).nodes
    assert np.max(np.abs(got - _dense_imex_step(crv, dt))) <= 1e-9


# ---------------------------------------------------------------------------
# Invariance of a single step


def _small_curve(closed: bool) -> cd.DiscreteCurve:
    if closed:
        return cd.sample_analytic(cd.Lemniscate(), 64)
    return cd.sample_analytic(
        cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0), 64
    )


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("closed", [True, False])
@settings(max_examples=25, deadline=None)
@given(
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
def test_step_equivariant_under_rigid_motion(closed, stepper, angle, shift):
    crv = _small_curve(closed)
    dt = _auto_dt(crv, stepper)
    got = _one_step(moved(crv, angle, shift), dt, stepper).nodes
    want = moved(_one_step(crv, dt, stepper), angle, shift).nodes
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("closed", [True, False])
@settings(max_examples=25, deadline=None)
@given(rho=st.floats(0.25, 4.0))
@example(rho=0.25)
@example(rho=2.0)
def test_step_equivariant_under_scaling(closed, stepper, rho):
    # kappa_ss scales as rho^-3 and c = dt / h^4 is scale-free under dt -> rho^4 dt.
    crv = _small_curve(closed)
    dt = _auto_dt(crv, stepper)
    got = _one_step(moved(crv, scale=rho), rho**4 * dt, stepper).nodes
    want = rho * _one_step(crv, dt, stepper).nodes
    assert np.max(np.abs(got - want)) <= 1e-12 * rho


@pytest.mark.parametrize("stepper", STEPPERS)
@settings(max_examples=25, deadline=None)
@given(
    closed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    c1=st.floats(-2.0, 2.0),
    c2=st.floats(-2.0, 2.0),
)
def test_step_commutes_with_reversal(stepper, closed, seed, c1, c2):
    if closed:
        crv = random_smooth_curve(np.random.default_rng(seed), 64)
    else:
        crv = cd.sample_analytic(cd.FresnelFamily(c1=c1, c2=c2, s_min=-1.0, s_max=1.0), 64)
    dt = _auto_dt(crv, stepper)
    got = _one_step(crv.reversed(), dt, stepper).nodes
    want = _one_step(crv, dt, stepper).reversed().nodes
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# Numerical failures become terminations


def _failing_solver(*args, **kwargs):
    raise np.linalg.LinAlgError("not positive definite")


def test_banded_solve_failure_raises(clothoid_512, monkeypatch):
    monkeypatch.setattr(flow, "_solve_banded", _failing_solver)
    with pytest.raises(cd.SolveFailure):
        flow._advance(clothoid_512, cd.curve_fields(clothoid_512), 1e-6, cd.FlowSpec(dt=1e-6))


def test_evolve_reports_solve_failure(clothoid_512, monkeypatch):
    monkeypatch.setattr(flow, "_solve_banded", _failing_solver)
    traj = cd.evolve(clothoid_512, cd.FlowSpec(t_end=1e-4))
    assert traj.termination == flow.TERM_SOLVE_FAILURE
    assert traj.n_steps == 0
    assert traj.termination_detail == (
        "implicit solve failed: not positive definite (last kept state: step 0, t = 0.0)")


def test_evolve_reports_non_finite(lemniscate_512):
    # dt v overflows in the first step; the run stops without a numpy warning.
    traj = cd.evolve(lemniscate_512, cd.FlowSpec(dt=1e308, t_end=1e308))
    assert traj.termination == flow.TERM_NON_FINITE
    assert traj.n_steps == 0
    assert traj.termination_detail == (
        "non-finite coordinates after a time step: node 0 at (nan, nan) "
        "(last kept state: step 0, t = 0.0)")


def test_evolve_oversized_step_is_a_failure_stop(lemniscate_512):
    # At dt = 1e300, c (4 sin^2(pi k/N))^2 overflows at high k, and the mean
    # mode, which the solve leaves as it is, carries dt times the round-off
    # mean of v nu: every node moves by about 2.5e286, which rounds the curve
    # to a point. That is a recorded stop, not a numpy overflow warning.
    traj = cd.evolve(lemniscate_512, cd.FlowSpec(dt=1e300, t_end=1e300))
    assert traj.termination in flow._FAILURE_TERMS.values()
    assert traj.n_steps == 0
    assert len(traj.snapshots) == 1


def test_evolve_reports_non_regular(lemniscate_512, monkeypatch):
    # The degenerate state from step 3 is never kept: the run ends with the
    # state after step 2, and every snapshot has a field record. A fixed dt
    # makes one _advance call per step.
    repeat_node_on_step(monkeypatch, flow, 3)
    traj = cd.evolve(lemniscate_512, cd.FlowSpec(dt=5e-5, t_end=1e-3, snapshot_every=1))
    assert traj.termination == flow.TERM_NON_REGULAR
    assert traj.n_steps == 2
    assert len(traj.snapshots) == len(traj.times) == 3
    # The detail names the last kept state: n_steps and the last snapshot time.
    assert traj.termination_detail.startswith(
        "minimum segment length 0.000e+00 is below the regularity threshold ")
    assert traj.termination_detail.endswith(
        f" (last kept state: step 2, t = {float(traj.times[-1])!r})")
    for snap in traj.snapshots:
        cd.curve_fields(snap)


def test_evolve_reports_fold_back_in_a_controlled_step(lemniscate_512, monkeypatch):
    # Record 11 is of the first quarter step of step 2 (record 1 is the
    # initial state's, 2-7 are step 1's table states, 8 the state after step
    # 1, and 9-11 the rows of step 2's first stacked record): the quarter
    # state, row 3 of that stack, folds back at its node 0, its field record
    # fails, and the state after step 1 is the last.
    repeat_node_on_record(monkeypatch, flow, 11, onto=-1)
    traj = cd.evolve(lemniscate_512, cd.FlowSpec(t_end=1e-3, snapshot_every=1))
    assert traj.termination == flow.TERM_NON_REGULAR
    assert traj.n_steps == 1
    assert traj.termination_detail == (
        "parameter speed 0.000e+00 at node 0 is not positive: the curve folds back "
        f"on itself there (last kept state: step 1, t = {float(traj.times[-1])!r})")


def test_evolve_reports_non_finite_row_of_a_controlled_step(lemniscate_512, monkeypatch):
    # Solve 2 is stage 1 of step 1, which moves rows 2-4; row 4's node 5
    # overflows. The detail names the node and its coordinates, not the row.
    real = flow._imex_solve
    calls = []

    def overflowing(*args):
        x = real(*args)
        calls.append(None)
        if len(calls) == 2:
            x[-1, 5, 0] = np.inf
        return x

    monkeypatch.setattr(flow, "_imex_solve", overflowing)
    traj = cd.evolve(lemniscate_512, cd.FlowSpec(t_end=1e-3, snapshot_every=1))
    assert traj.termination == flow.TERM_NON_FINITE
    assert traj.n_steps == 0
    match = re.fullmatch(r"non-finite coordinates after a time step: node 5 at \(inf, (\S+)\) "
                         r"\(last kept state: step 0, t = 0\.0\)", traj.termination_detail)
    assert match is not None, traj.termination_detail
    assert np.isfinite(float(match.group(1)))


# ---------------------------------------------------------------------------
# Trajectories


def test_evolve_circle_stays_put():
    crv = cd.sample_analytic(cd.Circle(1.0), 128)
    traj = cd.evolve(crv, cd.FlowSpec(t_end=1.0, snapshot_every=50))
    assert traj.termination == flow.TERM_TIME_REACHED
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert cd.hausdorff_distance(traj.snapshots[-1], crv) < 1e-6
    L = traj.monitors.L
    assert np.max(np.abs(L - L[0])) < 1e-6
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.snapshots) == len(traj.times)


def test_evolve_orientation_invariant(lemniscate_512):
    spec = cd.FlowSpec(t_end=5e-4, snapshot_every=1000)
    a = cd.evolve(lemniscate_512, spec)
    b = cd.evolve(lemniscate_512.reversed(), spec)
    assert cd.hausdorff_distance(a.snapshots[-1], b.snapshots[-1]) < 1e-8


def test_evolve_initial_redistribution():
    # Snapshot 0 is the redistributed state: clustered input comes out
    # nearly uniform.
    theta = 2 * np.pi * np.arange(256) / 256
    phi = theta - 0.5 * np.sin(theta)
    crv = cd.DiscreteCurve(np.column_stack([np.cos(phi), np.sin(phi)]), closed=True)
    traj = cd.evolve(crv, cd.FlowSpec(t_end=1e-5))
    seg = cd.segment_lengths(traj.snapshots[0])
    assert (seg.max() - seg.min()) / seg.mean() < 1e-3


def test_evolve_length_min_stop(lemniscate_512):
    spec = cd.FlowSpec(t_end=10.0, length_min=0.99 * cd.length(lemniscate_512))
    traj = cd.evolve(lemniscate_512, spec)
    assert traj.termination == flow.TERM_LENGTH_BELOW
    assert traj.times[-1] < 10.0


def test_evolve_min_spacing_stop(lemniscate_512):
    h = cd.length(lemniscate_512) / 512
    traj = cd.evolve(lemniscate_512, cd.FlowSpec(t_end=10.0, min_spacing=2 * h))
    assert traj.termination == flow.TERM_MIN_SPACING_BELOW
    assert traj.termination_detail is None


@pytest.mark.parametrize("stop", ["length_min", "min_spacing"])
def test_evolve_stops_on_first_state_past_floor(stop):
    # Every post-step state is tested: with a snapshot per step, the last
    # state is the first one below the floor, and every earlier one is not.
    curve = ellipse_curve(128)
    if stop == "length_min":
        floor, termination = 4.5, flow.TERM_LENGTH_BELOW
    else:
        floor, termination = 0.9 * cd.length(curve) / curve.n, flow.TERM_MIN_SPACING_BELOW
    traj = cd.evolve(curve, cd.FlowSpec(t_end=1.0, snapshot_every=1, **{stop: floor}))
    assert traj.termination == termination
    assert len(traj.snapshots) == traj.n_steps + 1 > 2
    if stop == "length_min":
        values = traj.monitors.L
    else:
        values = np.array([cd.segment_lengths(s).min() for s in traj.snapshots])
    assert values[-1] < floor <= values[-2]
    assert floor <= values[:-1].min()


def test_elastic_ellipse_dissipates_bending_energy():
    def bending(crv):
        f = cd.curve_fields(crv)
        return float(np.sum(f.kappa**2 * f.dl))

    traj = cd.evolve(ellipse_curve(256), cd.FlowSpec(kind=cd.ELASTIC, t_end=2e-3,
                                                     snapshot_every=10))
    energies = [bending(s) for s in traj.snapshots]
    assert np.all(np.diff(energies) < 0)


def test_elastic_circle_expands(circle_512):
    traj = cd.evolve(circle_512, cd.FlowSpec(kind=cd.ELASTIC, t_end=2e-3,
                                             snapshot_every=100))
    assert traj.monitors.L[-1] > traj.monitors.L[0]


# ---------------------------------------------------------------------------
# Error-controlled automatic steps


def test_extrapolated_step_is_third_order():
    # Self-convergence at fixed dt against a 1600-step reference, without
    # redistribution: orders 2.52 and 2.58 here (the stiff problem is still
    # short of its asymptotic order 3; T33 of the three-row table read 2.39
    # and 2.57), 0.93 and 0.96 for Euler. The n=200 errors are 1.3e-8 and
    # 5.7e-5; T33 gave 4.2e-8 and step doubling 1.15e-6.
    start = cd.resample_uniform(cd.sample_analytic(cd.Lemniscate(), 256), 256)
    spec = cd.FlowSpec(redistribute_every=0)
    t_end = 2e-3

    def run(n_steps, extrapolate):
        state = start
        for _ in range(n_steps):
            fields = cd.curve_fields(state)
            if extrapolate:
                state = flow._extrapolated_step(state, fields, t_end / n_steps, spec)[0]
            else:
                state = flow._advance(state, fields, t_end / n_steps, spec)
        return state.nodes

    reference = run(1600, True)
    for extrapolate, lo, hi, worst in ((True, 2.4, 3.2, 1e-7), (False, 0.8, 1.2, 1e-4)):
        errors = [np.abs(run(n, extrapolate) - reference).max() for n in (50, 100, 200)]
        assert errors[0] > errors[1] > errors[2]
        assert lo <= np.log2(errors[1] / errors[2]) <= hi
        assert errors[2] < worst


def _row_by_row_extrapolated_step(curve, fields, dt, spec):
    """The four-row table one row at a time: k IMEX Euler substeps of dt/k
    through flow._advance, ten solves where flow._extrapolated_step makes
    four. It keeps T43 and estimates with |T43 - T33| / L."""
    rows = []
    for k in (1, 2, 3, 4):
        state = curve
        for i in range(k):
            state = flow._advance(state, cd.curve_fields(state) if i else fields, dt / k, spec)
        rows.append(state.nodes)
    t11, t21, t31, t41 = rows
    t22 = t21 + (t21 - t11)
    t32 = t31 + 2.0 * (t31 - t21)
    t42 = t41 + 3.0 * (t41 - t31)
    t33 = t32 + (t32 - t22) / 2.0
    t43 = t42 + (t42 - t32)
    diff = t43 - t33
    err = float(np.hypot(diff[:, 0], diff[:, 1]).max()) / fields.length
    return cd.DiscreteCurve(t43, curve.closed), err


@pytest.mark.parametrize("curve", [
    cd.sample_analytic(cd.Lemniscate(), 64),
    cd.sample_analytic(cd.Lemniscate(), 256),
    cd.sample_analytic(cd.Lemniscate(), 1024),
    cd.read_curve_csv(FIXTURE_DIR / "perturbed_ellipse_256.csv"),
], ids=["lemniscate64", "lemniscate256", "lemniscate1024", "perturbed_ellipse"])
@pytest.mark.parametrize("kind", [cd.CURVE_DIFFUSION, cd.ELASTIC])
def test_stacked_extrapolated_step_matches_row_by_row(curve, kind):
    # The stages change only the order of round-off: at most 4.0e-16 L apart
    # here, and the estimates 3.6e-14 relative.
    start = cd.resample_uniform(curve, curve.n)
    fields = cd.curve_fields(start)
    spec = cd.FlowSpec(kind=kind)
    for dt in (1e-6, 1e-5, 1e-4, 3e-4):
        stacked, err = flow._extrapolated_step(start, fields, dt, spec)
        reference, ref_err = _row_by_row_extrapolated_step(start, fields, dt, spec)
        assert np.abs(stacked.nodes - reference.nodes).max() <= 1e-13 * fields.length
        assert err == pytest.approx(ref_err, rel=1e-9)


def test_extrapolated_step_makes_one_fft_pair_per_stage(monkeypatch):
    # Four stages, each one rfft and one irfft; row by row it is ten each.
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    start = cd.sample_analytic(cd.Lemniscate(), 256)
    fields = cd.curve_fields(start)
    flow._extrapolated_step(start, fields, 1e-4, cd.FlowSpec())
    assert counts == {"rfft": 4, "irfft": 4}
    _row_by_row_extrapolated_step(start, fields, 1e-4, cd.FlowSpec())
    assert counts == {"rfft": 14, "irfft": 14}


def test_imex_solve_rows_equal_single_solves():
    # A stack of rows, one c per row, is each row's own solve, and a shared
    # right-hand side is broadcast to every row.
    rhs = RNG.standard_normal((3, 128, 2))
    c = np.array([1e3, 2e4, 5e5])
    stacked = flow._imex_solve(rhs, c, True)
    shared = flow._imex_solve(rhs[0], c, True)
    for i in range(3):
        np.testing.assert_array_equal(stacked[i], flow._imex_solve(rhs[i], c[i], True))
        np.testing.assert_array_equal(shared[i], flow._imex_solve(rhs[0], c[i], True))


def _controlled_step(curve: cd.DiscreteCurve, dt: float):
    """The extrapolated step every default closed run takes: (nodes, estimate)."""
    new, err = flow._extrapolated_step(curve, cd.curve_fields(curve), dt, cd.FlowSpec())
    return new.nodes, err


# The N=64 lemniscate at dt = h^2/4. Largest gaps seen over 200 random
# draws: nodes 1.8e-14 (rigid motion), 5.2e-15 rho (scaling) and 4.2e-15
# (reversal); estimates 3.8e-11, 1.5e-11 and 9.1e-13 relative.
_LEMNISCATE_64 = cd.sample_analytic(cd.Lemniscate(), 64)
_LEMNISCATE_64_DT = _auto_dt(_LEMNISCATE_64)


@settings(max_examples=25, deadline=None)
@given(
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
def test_controlled_step_equivariant_under_rigid_motion(angle, shift):
    crv, dt = _LEMNISCATE_64, _LEMNISCATE_64_DT
    got, got_err = _controlled_step(moved(crv, angle, shift), dt)
    want, want_err = _controlled_step(crv, dt)
    assert np.max(np.abs(got - moved(cd.DiscreteCurve(want, True), angle, shift).nodes)) <= 1e-12
    assert got_err == pytest.approx(want_err, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(0.25, 4.0))
@example(rho=0.25)
@example(rho=2.0)
def test_controlled_step_equivariant_under_scaling(rho):
    # The estimate is relative to the length, so it is scale-free too.
    crv, dt = _LEMNISCATE_64, _LEMNISCATE_64_DT
    got, got_err = _controlled_step(moved(crv, scale=rho), rho**4 * dt)
    want, want_err = _controlled_step(crv, dt)
    assert np.max(np.abs(got - rho * want)) <= 1e-13 * rho
    assert got_err == pytest.approx(want_err, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-40, 40))
@example(seed=1, k=33)
@example(seed=6, k=1)
def test_controlled_step_scales_exactly_by_powers_of_two(seed, k):
    # nodes * 2^k at dt * 2^4k: every field, substep and table entry is then
    # the unscaled one times a power of two, and so is exact. The two examples
    # failed while the table rows divided by the array power h**4.
    crv = random_smooth_curve(np.random.default_rng(seed), 64)
    dt = _auto_dt(crv)
    scaled = cd.DiscreteCurve(math.ldexp(1.0, k) * crv.nodes, True)
    got, got_err = _controlled_step(scaled, math.ldexp(dt, 4 * k))
    want, want_err = _controlled_step(crv, dt)
    assert np.array_equal(got, math.ldexp(1.0, k) * want)
    assert got_err == want_err


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_controlled_step_commutes_with_reversal(seed):
    crv = random_smooth_curve(np.random.default_rng(seed), 64)
    dt = _auto_dt(crv)
    got, got_err = _controlled_step(crv.reversed(), dt)
    want, want_err = _controlled_step(crv, dt)
    assert np.max(np.abs(got - cd.DiscreteCurve(want, True).reversed().nodes)) <= 1e-13
    assert got_err == pytest.approx(want_err, rel=1e-9)


# Whole dt: auto runs of the N=64 lemniscate to t = 1/48: 38 controlled
# steps, 3 redistributions and 9 snapshots. Largest gaps seen over 60 random
# draws: nodes 1.2e4 L eps (rigid motion, shifts up to 5 on a curve of
# length 5.2) and 5.9e2 L eps (reversal, over 30 curves); times 9.8e-11 and
# 2.7e-11 relative.
_RUN_SPEC = cd.FlowSpec(t_end=1.0 / 48.0, snapshot_every=5)


@functools.cache
def _lemniscate_64_run() -> cd.Trajectory:
    return cd.evolve(_LEMNISCATE_64, _RUN_SPEC)


def _assert_runs_match(got, want, want_nodes, length, bound):
    """Same step count, times within 1e-9 relative, and every snapshot's
    nodes within bound * length * eps of want_nodes."""
    assert got.termination == want.termination == flow.TERM_TIME_REACHED
    assert got.n_steps == want.n_steps
    np.testing.assert_allclose(got.times, want.times, rtol=1e-9, atol=0.0)
    assert len(got.snapshots) == len(want_nodes)
    for snap, nodes in zip(got.snapshots, want_nodes):
        assert np.abs(snap.nodes - nodes).max() <= bound * length * np.finfo(float).eps


@settings(max_examples=15, deadline=None)
@given(
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
def test_controlled_run_equivariant_under_rigid_motion(angle, shift):
    got = cd.evolve(moved(_LEMNISCATE_64, angle, shift), _RUN_SPEC)
    want = _lemniscate_64_run()
    _assert_runs_match(got, want, [moved(s, angle, shift).nodes for s in want.snapshots],
                       cd.length(_LEMNISCATE_64), 1e5)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_controlled_run_commutes_with_reversal(seed):
    crv = random_smooth_curve(np.random.default_rng(seed), 64)
    want = cd.evolve(crv, _RUN_SPEC)
    got = cd.evolve(crv.reversed(), _RUN_SPEC)
    _assert_runs_match(got, want, [s.reversed().nodes for s in want.snapshots],
                       cd.length(crv), 1e4)


@functools.cache
def _fixed_dt_run(closed, scheme, kind, redistribute_every, k=0):
    crv = _small_curve(closed)
    dt = _auto_dt(crv)
    spec = cd.FlowSpec(kind=kind, scheme=scheme, dt=math.ldexp(dt, 4 * k),
                       t_end=math.ldexp(25 * dt, 4 * k), redistribute_every=redistribute_every,
                       snapshot_every=5)
    return cd.evolve(cd.DiscreteCurve(math.ldexp(1.0, k) * crv.nodes, closed), spec)


@pytest.mark.parametrize("redistribute_every", [10, 0])
@pytest.mark.parametrize("kind", flow.FLOW_KINDS)
@pytest.mark.parametrize("scheme", flow.SCHEMES)
@pytest.mark.parametrize("closed", [True, False])
@settings(max_examples=10, deadline=None)
@given(k=st.integers(-40, 40))
@example(k=-1)
def test_fixed_dt_run_scales_exactly_by_powers_of_two(closed, scheme, kind,
                                                       redistribute_every, k):
    """The flow is scale-covariant: nodes * 2^k with dt and t_end * 2^4k give
    the unscaled run with times * 2^4k, nodes * 2^k, L * 2^k and A * 2^2k,
    the same I, stop and step count, bit for bit. dt: auto is left out: its
    first step, h^2/4, scales like rho^2, not like rho^4.
    k = -1 failed on the open curve while kappa divided by numpy's speed**3."""
    got = _fixed_dt_run(closed, scheme, kind, redistribute_every, k)
    want = _fixed_dt_run(closed, scheme, kind, redistribute_every)
    assert got.termination == want.termination == flow.TERM_TIME_REACHED
    assert got.n_steps == want.n_steps == 25
    assert np.array_equal(got.times, math.ldexp(1.0, 4 * k) * want.times)
    assert len(got.snapshots) == len(want.snapshots)
    for snap, ref in zip(got.snapshots, want.snapshots):
        assert np.array_equal(snap.nodes, math.ldexp(1.0, k) * ref.nodes)
    assert np.array_equal(got.monitors.L, math.ldexp(1.0, k) * want.monitors.L)
    assert np.array_equal(got.monitors.A, math.ldexp(1.0, 2 * k) * want.monitors.A,
                          equal_nan=True)
    assert np.array_equal(got.monitors.I, want.monitors.I, equal_nan=True)


def test_controlled_lemniscate_time_error_does_not_grow(monkeypatch):
    # The default run's end length against a run at AUTO_RTOL = 1e-9 (1282
    # steps) on the same mesh isolates the time part of the length error:
    # 1.45e-4 at N=256, where T33 of the three-row table read 1.54e-4 (and
    # 1.31e-4 against 1.46e-4 at N=512, 1.30e-4 against 1.45e-4 at N=1024).
    crv = cd.sample_analytic(cd.Lemniscate(), 256)
    spec = cd.FlowSpec(t_end=1.0 / 48.0)
    default = cd.evolve(crv, spec)
    monkeypatch.setattr(flow, "AUTO_RTOL", 1e-9)
    tight = cd.evolve(crv, spec)
    assert default.termination == tight.termination == flow.TERM_TIME_REACHED
    assert abs(default.monitors.L[-1] / tight.monitors.L[-1] - 1.0) <= 1.54e-4


def test_controlled_lemniscate_length_near_extinction():
    # t = 0.04 is 96 % of the lifespan 1/24: the h^2/4 step was 11.1 % off
    # the exact length here, step doubling +0.30 %, the three-row table
    # -0.30 %, and the four-row table -0.32 % (177 steps).
    traj = cd.evolve(cd.sample_analytic(cd.Lemniscate(), 256), cd.FlowSpec(t_end=0.04))
    assert traj.termination == flow.TERM_TIME_REACHED
    assert traj.times[-1] == pytest.approx(0.04, rel=1e-12)
    # The lemniscate shrinks with L(t)^4 = L(0)^4 (1 - 24 t).
    lengths = traj.monitors.L
    assert abs(lengths[-1] / (lengths[0] * (1.0 - 24.0 * 0.04) ** 0.25) - 1.0) < 0.01


@pytest.mark.parametrize("n", [256, 512])
def test_controlled_lemniscate_snapshots_classify_as_shrinkers(n):
    # The default run to t = 1/48 keeps the shrinker's shape at every
    # snapshot: largest residuals 0.0075 (N=256) and 0.0082 (N=512) against
    # the default tol 0.01 (0.0077 and 0.0075 keeping T33 of three rows).
    # Step doubling reached 0.0113 and 0.0111, and keeping the four-row
    # table's top entry T44 leaves rough mid-run snapshots (0.26 at N=512).
    traj = cd.evolve(cd.sample_analytic(cd.Lemniscate(), n), cd.FlowSpec(t_end=1.0 / 48.0))
    assert traj.termination == flow.TERM_TIME_REACHED
    assert len(traj.snapshots) >= 3
    for snap in traj.snapshots:
        assert cd.classify(snap).verdict == "shrinker"


def test_controlled_step_below_floor_stops(lemniscate_512, monkeypatch):
    # No error estimate meets a zero tolerance: dt shrinks 5-fold per rejected
    # attempt until it is below the floor, and no state is kept.
    monkeypatch.setattr(flow, "AUTO_RTOL", 0.0)
    traj = cd.evolve(lemniscate_512, cd.FlowSpec(t_end=1e-3))
    assert traj.termination == flow.TERM_ACCURACY_NOT_MET
    assert traj.n_steps == 0
    assert len(traj.snapshots) == 1
    match = re.fullmatch(
        r"step size (\S+) fell below the floor (\S+) with error estimate (\S+) > 0\.0 "
        r"\(last kept state: step 0, t = 0\.0\)", traj.termination_detail)
    assert match is not None, traj.termination_detail
    dt, floor, err = map(float, match.groups())
    first_dt = _auto_dt(traj.snapshots[0])
    assert floor == pytest.approx(flow.AUTO_DT_FLOOR * first_dt, rel=1e-12)
    assert dt == pytest.approx(0.2**9 * first_dt, rel=1e-12)
    assert err > 0.0


@pytest.mark.parametrize("curve, spec", [
    (cd.sample_analytic(cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0), 128),
     cd.FlowSpec(t_end=1e-4)),
    (ellipse_curve(64), cd.FlowSpec(dt=1e-4, t_end=1e-3)),
], ids=["open", "fixed_dt"])
def test_uncontrolled_runs_take_plain_steps(monkeypatch, curve, spec):
    def unexpected(*args):
        raise AssertionError("only automatic closed semi-implicit steps are controlled")

    monkeypatch.setattr(flow, "_extrapolated_step", unexpected)
    assert cd.evolve(curve, spec).termination == flow.TERM_TIME_REACHED


def test_automatic_clothoid_ends_stay_put():
    # The clothoid is stationary: under dt: auto (h^2/4 steps, 1314 of them)
    # its end nodes move 0.0293 here. Error control on open curves, which
    # stops at the interior error, let them move 0.054 at N=256.
    spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0)
    traj = cd.evolve(cd.sample_analytic(spec, 256),
                     cd.FlowSpec(t_end=0.02, redistribute_every=10, snapshot_every=10))
    assert traj.termination == flow.TERM_TIME_REACHED
    ends = traj.snapshots[-1].nodes[[0, -1]] - traj.snapshots[0].nodes[[0, -1]]
    assert np.hypot(ends[:, 0], ends[:, 1]).max() < 0.035


# ---------------------------------------------------------------------------
# Scale profile fits


def test_fit_scale_circle_is_static():
    # The controlled step grows 4-fold a step on the static circle and
    # reaches t_end in 4 steps (the last one clipped), so every state is a
    # snapshot there.
    crv = cd.sample_analytic(cd.Circle(1.0), 256)
    for dt, snapshot_every in ((None, 1), (1.5e-4, 5)):
        traj = cd.evolve(crv, cd.FlowSpec(dt=dt, t_end=0.005, snapshot_every=snapshot_every))
        assert len(traj.snapshots) >= 5
        fit = cd.fit_scale_profile(traj)
        assert abs(fit.K) < 1e-6
        assert fit.rho == pytest.approx(1.0, abs=1e-9)


def test_fit_scale_scaled_lemniscate():
    # Scale rho=2 quarters the rate: K = -6/16 = -0.375. Evolve over the
    # first third of the predicted extinction time T = rho^4/24.
    crv = cd.sample_analytic(cd.Lemniscate(scale=2.0), 256)
    traj = cd.evolve(crv, cd.FlowSpec(t_end=(16.0 / 24.0) / 3.0, snapshot_every=10))
    fit = cd.fit_scale_profile(traj)
    assert fit.K == pytest.approx(-0.375, abs=0.01)
    assert fit.rms_residual < 1e-3


def test_fit_scale_needs_three_snapshots():
    crv = cd.sample_analytic(cd.Circle(1.0), 256)
    traj = cd.evolve(crv, cd.FlowSpec(t_end=1e-4, snapshot_every=10**9))
    assert len(traj.snapshots) == 2
    with pytest.raises(cd.TooFewSnapshots):
        cd.fit_scale_profile(traj)


def test_fit_scale_equals_regression_on_snapshot_lengths():
    traj = cd.evolve(ellipse_curve(128), cd.FlowSpec(t_end=1e-3, dt=2e-5, snapshot_every=5))
    tau = traj.times / traj.times[-1]
    lengths = np.array([cd.length(c) for c in traj.snapshots])
    y = (lengths / lengths[0]) ** 4 - 1.0
    k = float(np.sum(tau * y) / (4.0 * np.sum(tau * tau)))
    rms = float(np.sqrt(np.mean((1.0 + 4.0 * k * tau - (1.0 + y)) ** 2)))
    fit = cd.fit_scale_profile(traj)
    assert fit == cd.ScaleFit(rho=1.0, K=k / float(traj.times[-1]), rms_residual=rms)
    assert type(fit.K) is float and type(fit.rms_residual) is float


# ---------------------------------------------------------------------------
# Round-off at open ends


def test_open_end_round_off_growth_stays_small():
    # A 1-ulp move of one input coordinate grows at the free ends of an open
    # curve: 5.8e-11 here (most at node 511). At N=1024 (419 steps) moving
    # node 0's x gives 5.6e-10 and node 1023's 4.8e-10, both largest at an
    # end node; the x of node 512 gives 6.1e-10 and its y is absorbed (0).
    # ROADMAP item 3's ghost rows grew the N=1024 change to 4e-7; this bound
    # guards the end rows against such amplification.
    spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0)
    curve = cd.sample_analytic(spec, 512)
    nodes = curve.nodes.copy()
    nodes[0, 0] = np.nextafter(nodes[0, 0], np.inf)
    flow_spec = cd.FlowSpec(t_end=4e-4, snapshot_every=2)
    base = cd.evolve(curve, flow_spec)
    moved_end = cd.evolve(cd.DiscreteCurve(nodes, closed=False), flow_spec)
    assert base.n_steps == moved_end.n_steps == 105
    assert moved_end.termination == flow.TERM_TIME_REACHED
    gap = np.abs(base.snapshots[-1].nodes - moved_end.snapshots[-1].nodes).max()
    assert gap <= 1e-9


# ---------------------------------------------------------------------------
# One field record per state


def _series_bytes(series):
    return [getattr(series, name).tobytes() for name in ("t", "L", "A", "I", "Q", "diss")]


@pytest.mark.parametrize("curve, spec, termination", [
    (cd.sample_analytic(cd.Lemniscate(), 128), cd.FlowSpec(t_end=2e-2, snapshot_every=5),
     flow.TERM_TIME_REACHED),
    (cd.sample_analytic(cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0), 256),
     cd.FlowSpec(t_end=4e-4, snapshot_every=5), flow.TERM_TIME_REACHED),
    (ellipse_curve(128), cd.FlowSpec(t_end=1.0, snapshot_every=7, length_min=4.5),
     flow.TERM_LENGTH_BELOW),
], ids=["lemniscate", "clothoid", "length_min"])
def test_evolve_monitors_equal_monitor_curves(curve, spec, termination):
    # Bit equality, NaN positions included: evolve's rows come from the same
    # field records that are rebuilt here from the snapshots.
    traj = cd.evolve(curve, spec)
    assert traj.termination == termination
    assert traj.n_steps > 2 * spec.redistribute_every
    assert traj.termination_detail is None  # set on failure stops only
    assert _series_bytes(traj.monitors) == _series_bytes(
        monitor_series(traj.times, traj.snapshots))


@pytest.mark.parametrize("redistribute_every", [10, 0])
def test_evolve_computes_fields_once_per_state(monkeypatch, redistribute_every):
    calls = []
    real = flow.curve_fields

    def counted(curve):
        calls.append(curve)
        return real(curve)

    chord_passes = []
    real_chords = flow.segment_lengths

    def counted_chords(curve):
        chord_passes.append(curve)
        return real_chords(curve)

    attempts = []
    real_attempt = flow._extrapolated_step

    def counted_attempt(*args):
        attempts.append(None)
        return real_attempt(*args)

    stacks = []
    real_stack = flow._fields

    def counted_stack(nodes, closed):
        stacks.append(len(nodes))
        return real_stack(nodes, closed)

    monkeypatch.setattr(flow, "curve_fields", counted)
    monkeypatch.setattr(flow, "_extrapolated_step", counted_attempt)
    monkeypatch.setattr(flow, "_fields", counted_stack)
    monkeypatch.setattr(flow, "segment_lengths", counted_chords)
    # The controlled step also holds the intermediate states of its table,
    # one half-step, two third-step and three quarter-step states, six more
    # records per attempt, taken as three stacked kernel calls of 3, 2 and 1
    # rows; a fixed dt makes no attempts.
    # The h^4 range check on the input is evolve's one chord pass.
    for dt in (None, 2e-4):
        calls.clear()
        attempts.clear()
        stacks.clear()
        chord_passes.clear()
        spec = cd.FlowSpec(dt=dt, t_end=2e-2, redistribute_every=redistribute_every)
        start = cd.sample_analytic(cd.Lemniscate(), 128)
        traj = cd.evolve(start, spec)
        assert chord_passes == [start]
        assert traj.termination == flow.TERM_TIME_REACHED
        assert traj.n_steps > 2 * spec.redistribute_every
        assert len(attempts) >= traj.n_steps if dt is None else not attempts
        # Redistribution follows every redistribute_every-th step except the last.
        redistributions = (traj.n_steps - 1) // redistribute_every if redistribute_every else 0
        assert stacks == [3, 2, 1] * len(attempts)
        assert len(calls) == 1 + traj.n_steps + redistributions
