"""Time stepping: schemes, stability envelope, stops, and scale fits."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvediffusion as cd
from curvediffusion import flow
from conftest import ellipse_curve, moved, random_smooth_curve, repeat_node_on_step

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


def test_auto_dt_scaling(circle_512):
    h = cd.length(circle_512) / 512
    assert cd.auto_dt(circle_512, cd.EXPLICIT) == pytest.approx(h**4 / 10)
    assert cd.auto_dt(circle_512, cd.SEMI_IMPLICIT) == pytest.approx(h**2 / 4)


@pytest.mark.parametrize("scheme", [cd.EXPLICIT, cd.SEMI_IMPLICIT])
def test_step_circle_barely_moves(circle_512, scheme):
    spec = cd.FlowSpec(scheme=scheme, dt=1e-6, t_end=1.0)
    nxt = cd.step(circle_512, 1e-6, spec)
    assert np.max(np.abs(nxt.nodes - circle_512.nodes)) < 1e-8


def test_step_explicit_preserves_lemniscate_area():
    crv = cd.sample_analytic(cd.Lemniscate(), 256)
    dt = (cd.length(crv) / 256) ** 4 / 10
    nxt = cd.step(crv, dt, cd.FlowSpec(scheme=cd.EXPLICIT, dt=dt, t_end=1.0))
    assert abs(cd.signed_area(nxt)) < 1e-9


def test_step_semi_implicit_shrinks_ellipse():
    crv = cd.resample_uniform(ellipse_curve(256), 256)
    nxt = cd.step(crv, 1e-5, cd.FlowSpec(dt=1e-5, t_end=1.0))
    assert cd.length(nxt) < cd.length(crv)


def test_step_rejects_bad_dt(circle_512):
    with pytest.raises(ValueError):
        cd.step(circle_512, 0.0, cd.FlowSpec(t_end=1.0))


def test_step_overflow_raises(lemniscate_512):
    spec = cd.FlowSpec(scheme=cd.EXPLICIT, dt=1e308, t_end=1.0)
    with pytest.raises(cd.NonFinite):
        cd.step(lemniscate_512, 1e308, spec)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "heat"},
        {"scheme": "crank_nicolson"},
        {"t_end": 0.0},
        {"dt": -1e-6},
        {"redistribute_every": -1},
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
    dt = cd.auto_dt(crv, cd.SEMI_IMPLICIT)
    got = cd.step(crv, dt, cd.FlowSpec(dt=dt, t_end=1.0)).nodes
    assert np.max(np.abs(got - _dense_imex_step(crv, dt))) <= 1e-9


# ---------------------------------------------------------------------------
# Invariance of a single step


def _small_curve(closed: bool) -> cd.DiscreteCurve:
    if closed:
        return cd.sample_analytic(cd.Lemniscate(), 64)
    return cd.sample_analytic(
        cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0), 64
    )


@pytest.mark.parametrize("scheme", flow.SCHEMES)
@pytest.mark.parametrize("closed", [True, False])
@settings(max_examples=25, deadline=None)
@given(
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
def test_step_equivariant_under_rigid_motion(closed, scheme, angle, shift):
    crv = _small_curve(closed)
    dt = cd.auto_dt(crv, scheme)
    spec = cd.FlowSpec(scheme=scheme, dt=dt, t_end=1.0)
    got = cd.step(moved(crv, angle, shift), dt, spec).nodes
    want = moved(cd.step(crv, dt, spec), angle, shift).nodes
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("scheme", flow.SCHEMES)
@pytest.mark.parametrize("closed", [True, False])
@settings(max_examples=25, deadline=None)
@given(rho=st.floats(0.25, 4.0))
def test_step_equivariant_under_scaling(closed, scheme, rho):
    # kappa_ss scales as rho^-3 and c = dt / h^4 is scale-free under dt -> rho^4 dt.
    crv = _small_curve(closed)
    dt = cd.auto_dt(crv, scheme)
    got = cd.step(moved(crv, scale=rho), rho**4 * dt,
                  cd.FlowSpec(scheme=scheme, dt=rho**4 * dt, t_end=1.0)).nodes
    want = rho * cd.step(crv, dt, cd.FlowSpec(scheme=scheme, dt=dt, t_end=1.0)).nodes
    assert np.max(np.abs(got - want)) <= 1e-12 * rho


@pytest.mark.parametrize("scheme", flow.SCHEMES)
@settings(max_examples=25, deadline=None)
@given(
    closed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    c1=st.floats(-2.0, 2.0),
    c2=st.floats(-2.0, 2.0),
)
def test_step_commutes_with_reversal(scheme, closed, seed, c1, c2):
    if closed:
        crv = random_smooth_curve(np.random.default_rng(seed), 64)
    else:
        crv = cd.sample_analytic(cd.FresnelFamily(c1=c1, c2=c2, s_min=-1.0, s_max=1.0), 64)
    dt = cd.auto_dt(crv, scheme)
    spec = cd.FlowSpec(scheme=scheme, dt=dt, t_end=1.0)
    got = cd.step(crv.reversed(), dt, spec).nodes
    want = cd.step(crv, dt, spec).reversed().nodes
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# Numerical failures become terminations


def _failing_solver(*args, **kwargs):
    raise np.linalg.LinAlgError("not positive definite")


def test_banded_solve_failure_raises(clothoid_512, monkeypatch):
    monkeypatch.setattr(flow, "_solve_banded", _failing_solver)
    with pytest.raises(cd.SolveFailure):
        cd.step(clothoid_512, 1e-6, cd.FlowSpec(dt=1e-6, t_end=1.0))


def test_evolve_reports_solve_failure(clothoid_512, monkeypatch):
    monkeypatch.setattr(flow, "_solve_banded", _failing_solver)
    traj = cd.evolve(clothoid_512, cd.FlowSpec(t_end=1e-4))
    assert traj.termination == flow.TERM_SOLVE_FAILURE
    assert traj.n_steps == 0


def test_evolve_reports_non_finite(lemniscate_512, monkeypatch):
    # Lift the envelope evolve enforces so that the first explicit step overflows.
    monkeypatch.setattr(flow, "EXPLICIT_ENVELOPE", np.inf)
    spec = cd.FlowSpec(scheme=cd.EXPLICIT, dt=1e308, t_end=1e308)
    traj = cd.evolve(lemniscate_512, spec)
    assert traj.termination == flow.TERM_NON_FINITE
    assert traj.n_steps == 0


def test_evolve_reports_non_regular(lemniscate_512, monkeypatch):
    # The degenerate state from step 3 is never kept: the run ends with the
    # state after step 2, and every snapshot has a field record.
    repeat_node_on_step(monkeypatch, flow, 3)
    traj = cd.evolve(lemniscate_512, cd.FlowSpec(t_end=1e-3, snapshot_every=1))
    assert traj.termination == flow.TERM_NON_REGULAR
    assert traj.n_steps == 2
    assert len(traj.snapshots) == len(traj.times) == 3
    for snap in traj.snapshots:
        cd.curve_fields(snap)


# ---------------------------------------------------------------------------
# Stability envelope


def test_explicit_envelope_enforced(circle_512):
    spec = cd.FlowSpec(scheme=cd.EXPLICIT, dt=1.0, t_end=1.0)
    with pytest.raises(ValueError):
        cd.evolve(circle_512, spec)


def test_explicit_envelope_boundary_accepted():
    crv = cd.sample_analytic(cd.Circle(1.0), 64)
    dt = flow.EXPLICIT_ENVELOPE * (cd.length(crv) / 64) ** 4
    spec = cd.FlowSpec(scheme=cd.EXPLICIT, dt=dt, t_end=3 * dt)
    traj = cd.evolve(crv, spec)
    assert traj.termination == flow.TERM_TIME_REACHED


def _perturbed_circle(n: int = 256) -> cd.DiscreteCurve:
    rng = np.random.default_rng(42)
    u = 2 * np.pi * np.arange(n) / n
    nodes = np.column_stack([np.cos(u), np.sin(u)])
    return cd.DiscreteCurve(nodes + 1e-6 * rng.standard_normal((n, 2)), closed=True)


def test_envelope_is_sharp_in_practice():
    # Drive raw steps: at the envelope a noisy circle stays uniformly
    # spaced for 100 steps, at 8x the grid collapses (observed min
    # spacing 1.7e-3 against h = 2.5e-2) even before anything overflows.
    outcomes = {}
    for mult in (1.0, 8.0):
        crv = _perturbed_circle()
        h = cd.length(crv) / 256
        dt = mult * flow.EXPLICIT_ENVELOPE * h**4
        spec = cd.FlowSpec(scheme=cd.EXPLICIT, dt=dt, t_end=1.0)
        blew_up = False
        for _ in range(100):
            try:
                crv = cd.step(crv, dt, spec)
            except (cd.NonFinite, cd.NonRegular):
                blew_up = True
                break
        outcomes[mult] = (blew_up, cd.segment_lengths(crv).min() / h)
    assert not outcomes[1.0][0] and outcomes[1.0][1] > 0.9
    assert outcomes[8.0][0] or outcomes[8.0][1] < 0.1


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
# Scale profile fits


def test_fit_scale_circle_is_static():
    crv = cd.sample_analytic(cd.Circle(1.0), 256)
    traj = cd.evolve(crv, cd.FlowSpec(t_end=0.005, snapshot_every=5))
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
    t = traj.times
    lengths = np.array([cd.length(c) for c in traj.snapshots])
    y = (lengths / lengths[0]) ** 4 - 1.0
    k = float(np.sum(t * y) / (4.0 * np.sum(t * t)))
    rms = float(np.sqrt(np.mean((1.0 + 4.0 * k * t - (1.0 + y)) ** 2)))
    assert cd.fit_scale_profile(traj) == cd.ScaleFit(rho=1.0, K=k, rms_residual=rms)


# ---------------------------------------------------------------------------
# One field record per state


def _series_bytes(series):
    return [getattr(series, name).tobytes() for name in ("t", "L", "A", "I", "Q", "diss")]


@pytest.mark.parametrize("curve, spec, termination", [
    (cd.sample_analytic(cd.Lemniscate(), 128), cd.FlowSpec(t_end=1e-2, snapshot_every=5),
     flow.TERM_TIME_REACHED),
    (cd.sample_analytic(cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0), 256),
     cd.FlowSpec(t_end=4e-4, snapshot_every=5), flow.TERM_TIME_REACHED),
    (ellipse_curve(128), cd.FlowSpec(t_end=1.0, snapshot_every=7, length_min=4.5),
     flow.TERM_LENGTH_BELOW),
], ids=["lemniscate", "clothoid", "length_min"])
def test_evolve_monitors_equal_monitor_curves(curve, spec, termination):
    # Bit equality, NaN positions included: evolve's rows come from the same
    # field records that monitor_curves rebuilds from the snapshots.
    traj = cd.evolve(curve, spec)
    assert traj.termination == termination
    assert traj.n_steps > 2 * spec.redistribute_every
    assert _series_bytes(traj.monitors) == _series_bytes(
        cd.monitor_curves(traj.times, traj.snapshots))


@pytest.mark.parametrize("redistribute_every", [10, 0])
def test_evolve_computes_fields_once_per_state(monkeypatch, redistribute_every):
    calls = []
    real = flow.curve_fields

    def counted(curve):
        calls.append(curve)
        return real(curve)

    def unexpected(*args):
        raise AssertionError("evolve re-derives geometry it already has")

    monkeypatch.setattr(flow, "curve_fields", counted)
    monkeypatch.setattr(flow, "length", unexpected)
    monkeypatch.setattr(flow, "auto_dt", unexpected)
    spec = cd.FlowSpec(t_end=1e-2, redistribute_every=redistribute_every)
    traj = cd.evolve(cd.sample_analytic(cd.Lemniscate(), 128), spec)
    assert traj.termination == flow.TERM_TIME_REACHED
    assert traj.n_steps > 2 * spec.redistribute_every
    # Redistribution follows every redistribute_every-th step except the last.
    redistributions = (traj.n_steps - 1) // redistribute_every if redistribute_every else 0
    assert len(calls) == 1 + traj.n_steps + redistributions
