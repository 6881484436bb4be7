"""Discrete curve representation, per-node fields, and resampling."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.spatial.distance import directed_hausdorff

import curvediffusion as cd
from curvediffusion import geometry
from conftest import ellipse_curve, moved, random_smooth_curve

RNG = np.random.default_rng(20260814)


# ---------------------------------------------------------------------------
# DiscreteCurve basics


def test_nodes_coerced_to_float64():
    crv = cd.DiscreteCurve([[0, 0], [1, 0], [1, 1]], closed=True)
    assert crv.nodes.dtype == np.float64
    assert crv.n == 3


def test_reversed_closed_keeps_first_node(lemniscate_512):
    rev = lemniscate_512.reversed()
    assert np.array_equal(rev.nodes[0], lemniscate_512.nodes[0])
    assert np.array_equal(rev.nodes[1], lemniscate_512.nodes[-1])
    assert rev.reversed().nodes == pytest.approx(lemniscate_512.nodes)


def test_reversed_open_flips_order():
    line = cd.sample_analytic(cd.Line(s_min=0.0, s_max=1.0), 9)
    rev = line.reversed()
    assert np.array_equal(rev.nodes, line.nodes[::-1])


def test_repeated_node_rejected():
    u = 2 * np.pi * np.arange(12) / 12
    nodes = np.column_stack([np.cos(u), np.sin(u)])
    nodes[7] = nodes[6]
    with pytest.raises(cd.NonRegular):
        cd.curve_fields(cd.DiscreteCurve(nodes, closed=True))


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_node_is_non_regular(bad, closed):
    # A NaN segment compares False against the regularity floor, so it must
    # be caught as non-finite rather than slip through as NaN fields.
    u = 2 * np.pi * np.arange(16) / 16
    nodes = np.column_stack([np.cos(u), np.sin(u)])
    nodes[5, 0] = bad
    crv = cd.DiscreteCurve(nodes, closed=closed)
    calls = [cd.length, cd.curve_fields]
    for redistribute in (0, 10):
        spec = cd.FlowSpec(t_end=1e-6, redistribute_every=redistribute)
        calls.append(lambda c, spec=spec: cd.evolve(c, spec))
    for call in calls:
        with pytest.raises(cd.NonRegular, match="non-finite"):
            call(crv)


def test_fields_need_eight_nodes():
    u = 2 * np.pi * np.arange(7) / 7
    crv = cd.DiscreteCurve(np.column_stack([np.cos(u), np.sin(u)]), closed=True)
    with pytest.raises(cd.TooFewNodes):
        cd.curve_fields(crv)


# ---------------------------------------------------------------------------
# Lengths and areas


def test_length_circle_radius_two():
    crv = cd.sample_analytic(cd.Circle(2.0), 512)
    assert cd.length(crv) == pytest.approx(4 * np.pi, abs=1e-3)


def test_length_lemniscate():
    crv = cd.sample_analytic(cd.Lemniscate(), 1024)
    assert cd.length(crv) == pytest.approx(4 * cd.elliptic_K(-1.0), abs=1e-3)


def test_length_segment_exact():
    crv = cd.sample_analytic(
        cd.Line(point=(0.0, 0.0), direction=(3.0, 4.0), s_min=0.0, s_max=5.0), 64
    )
    assert cd.length(crv) == pytest.approx(5.0, abs=1e-12)


def test_length_is_polygonal():
    crv = random_smooth_curve(RNG)
    assert cd.length(crv) == pytest.approx(cd.segment_lengths(crv).sum(), abs=1e-14)


def test_signed_area_circle():
    # The inscribed-polygon defect is pi*(2*pi/N)^2/6: about 3.2e-4 at
    # N=256 and 7.9e-5 at N=512, so only the finer sampling is inside 1e-4.
    a256 = cd.signed_area(cd.sample_analytic(cd.Circle(1.0), 256))
    assert a256 == pytest.approx(np.pi, abs=3.3e-4)
    a512 = cd.signed_area(cd.sample_analytic(cd.Circle(1.0), 512))
    assert a512 == pytest.approx(np.pi, abs=1e-4)


def test_signed_area_lemniscate_cancels(lemniscate_512):
    assert abs(cd.signed_area(lemniscate_512)) < 1e-10


def test_signed_area_clockwise_square():
    square = cd.DiscreteCurve(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]], closed=True
    )
    assert cd.signed_area(square) == pytest.approx(-1.0, abs=1e-15)


def test_signed_area_open_raises():
    line = cd.sample_analytic(cd.Line(s_min=0.0, s_max=1.0), 16)
    with pytest.raises(cd.OpenCurve):
        cd.signed_area(line)


# ---------------------------------------------------------------------------
# Winding number


def test_winding_examples(circle_512, lemniscate_512):
    assert cd.winding_number(circle_512) == 1
    assert cd.winding_number(circle_512.reversed()) == -1
    assert cd.winding_number(lemniscate_512) == 0


def test_winding_doubled_circle():
    u = 4 * np.pi * np.arange(256) / 256
    crv = cd.DiscreteCurve(
        np.column_stack([np.cos(u), np.sin(u)]) + 1e-3 * RNG.standard_normal((256, 2)),
        closed=True,
    )
    assert cd.winding_number(crv) == 2


def test_winding_open_raises():
    line = cd.sample_analytic(cd.Line(s_min=0.0, s_max=1.0), 16)
    with pytest.raises(cd.OpenCurve):
        cd.winding_number(line)


def test_winding_non_finite_raises():
    u = 2 * np.pi * np.arange(16) / 16
    nodes = np.column_stack([np.cos(u), np.sin(u)])
    nodes[5, 0] = np.nan
    with pytest.raises(cd.AmbiguousTurning):
        cd.winding_number(cd.DiscreteCurve(nodes, closed=True))


# ---------------------------------------------------------------------------
# Field values against closed forms


def test_circle_fields_conventions():
    # Counterclockwise unit circle: tangent at (1, 0) points up, the normal
    # is the +90 degree rotation of the tangent (inward here), kappa = +1.
    crv = cd.sample_analytic(cd.Circle(1.0), 256)
    f = cd.curve_fields(crv)
    assert f.tangent[0] == pytest.approx([0.0, 1.0], abs=1e-4)
    assert f.normal[0] == pytest.approx([-1.0, 0.0], abs=1e-4)
    assert f.kappa == pytest.approx(np.ones(256), abs=1e-3)
    assert np.max(np.abs(f.kappa_s)) < 1e-8
    assert np.max(np.abs(f.kappa_ss)) < 1e-8


@pytest.mark.parametrize("n", [256, 512])
def test_frame_orthonormal(n):
    crv = random_smooth_curve(np.random.default_rng(n), n)
    f = cd.curve_fields(crv)
    assert np.abs(np.linalg.norm(f.tangent, axis=1) - 1).max() < 1e-12
    assert np.abs(np.linalg.norm(f.normal, axis=1) - 1).max() < 1e-12
    assert np.abs(np.einsum("ij,ij->i", f.tangent, f.normal)).max() < 1e-12
    # normal = tangent rotated by +90 degrees, exactly
    rot = np.column_stack([-f.tangent[:, 1], f.tangent[:, 0]])
    assert np.array_equal(f.normal, rot)
    assert f.dl.sum() == pytest.approx(cd.length(crv), abs=1e-12)


def test_lemniscate_node_values(lemniscate_512):
    # Node 0 sits at u=0 = (1, 0); node 128 at u=pi/2 = the self-crossing.
    f = cd.curve_fields(lemniscate_512)
    assert lemniscate_512.nodes[0] == pytest.approx([1.0, 0.0], abs=1e-15)
    assert f.kappa[0] == pytest.approx(3.0, abs=1e-3)
    assert f.kappa_s[0] == pytest.approx(0.0, abs=1e-3)
    # kappa_ss carries the largest stencil constant of the three fields:
    # the N=512 error at u=0 is 7.6e-3 (still second order, see the
    # convergence test below).
    assert f.kappa_ss[0] == pytest.approx(-6.0, abs=8e-3)
    assert lemniscate_512.nodes[128] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert f.kappa[128] == pytest.approx(0.0, abs=1e-3)
    assert f.kappa_ss[128] == pytest.approx(0.0, abs=1e-3)


def _order(errs: list[float]) -> np.ndarray:
    e = np.array(errs)
    return np.log2(e[:-1] / e[1:])


def test_lemniscate_field_convergence():
    errs = {"kappa": [], "kappa_s": [], "kappa_ss": []}
    for n in (128, 256, 512):
        crv = cd.sample_analytic(cd.Lemniscate(), n)
        f = cd.curve_fields(crv)
        jets = cd.lemniscate_point(2 * np.pi * np.arange(n) / n)
        errs["kappa"].append(np.max(np.abs(f.kappa - jets.kappa)))
        errs["kappa_s"].append(np.max(np.abs(f.kappa_s - jets.kappa_s)))
        errs["kappa_ss"].append(np.max(np.abs(f.kappa_ss - jets.kappa_ss)))
    for name, e in errs.items():
        orders = _order(e)
        assert np.all((orders > 1.7) & (orders < 2.3)), f"{name}: {e} -> {orders}"


def test_circle_kappa_convergence():
    errs = []
    for n in (128, 256, 512):
        f = cd.curve_fields(cd.sample_analytic(cd.Circle(1.0), n))
        errs.append(np.max(np.abs(f.kappa - 1.0)))
    orders = _order(errs)
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_fields_rigid_motion_invariance(lemniscate_512):
    f0 = cd.curve_fields(lemniscate_512)
    f1 = cd.curve_fields(moved(lemniscate_512, angle=0.9, shift=(3.0, -2.0)))
    assert f1.kappa == pytest.approx(f0.kappa, abs=1e-10)
    # kappa_ss divides coordinate roundoff by h^3; observed drift ~1e-8
    assert f1.kappa_ss == pytest.approx(f0.kappa_ss, abs=1e-7)
    assert f1.dl == pytest.approx(f0.dl, abs=1e-12)


def test_arc_derivative_of_position_is_unit_tangent(lemniscate_512):
    f = cd.curve_fields(lemniscate_512)
    d = cd.arc_derivative(lemniscate_512, lemniscate_512.nodes)
    assert d == pytest.approx(f.tangent, abs=1e-14)


# ---------------------------------------------------------------------------
# Exactness: the fields are bit-equal to the plain np.roll formulas. Every
# evolve output depends on them, so a rewrite that reorders one floating-point
# operation must fail here rather than move a run directory.


def _roll_d_du(f, du, closed):
    if closed:
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * du)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * du)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * du)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * du)
    return out


def _roll_d2_du2(f, du, closed):
    if closed:
        return (np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)) / du**2
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / du**2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / du**2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / du**2
    return out


def _roll_d_ds(values, speed, closed):
    n = values.shape[0]
    d = _roll_d_du(values, 2.0 * np.pi / n if closed else 1.0 / (n - 1), closed)
    return d / speed if d.ndim == 1 else d / speed[:, None]


def _roll_fields(curve: cd.DiscreteCurve) -> dict:
    nodes, closed, n = curve.nodes, curve.closed, curve.n
    diff = np.roll(nodes, -1, axis=0) - nodes if closed else np.diff(nodes, axis=0)
    seg = np.hypot(diff[:, 0], diff[:, 1])
    du = 2.0 * np.pi / n if closed else 1.0 / (n - 1)
    g_u = _roll_d_du(nodes, du, closed)
    g_uu = _roll_d2_du2(nodes, du, closed)
    speed = np.hypot(g_u[:, 0], g_u[:, 1])
    tangent = g_u / speed[:, None]
    cross = g_u[:, 0] * g_uu[:, 1] - g_u[:, 1] * g_uu[:, 0]
    kappa = cross / speed**3
    kappa_s = _roll_d_ds(kappa, speed, closed)
    padded = seg if closed else np.append(seg, 0.0)
    return dict(
        tangent=tangent,
        normal=np.column_stack([-tangent[:, 1], tangent[:, 0]]),
        kappa=kappa,
        kappa_s=kappa_s,
        kappa_ss=_roll_d_ds(kappa_s, speed, closed),
        dl=0.5 * (padded + np.roll(padded, 1)),
        s=np.concatenate([[0.0], np.cumsum(seg[: n - 1])]),
        seg=seg,
        speed=speed,
    )


def _exactness_curves():
    rng = np.random.default_rng(8)
    for n in (8, 9, 64, 257, 4096):
        yield f"smooth-closed-{n}", random_smooth_curve(rng, n)
        yield f"rough-closed-{n}", cd.DiscreteCurve(rng.normal(size=(n, 2)), closed=True)
        walk = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        yield f"rough-open-{n}", cd.DiscreteCurve(walk, closed=False)
    yield "lemniscate-512", cd.sample_analytic(cd.Lemniscate(), 512)
    clothoid = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0)
    yield "clothoid-1024", cd.sample_analytic(clothoid, 1024)


@pytest.mark.parametrize("name, crv", list(_exactness_curves()))
def test_fields_bit_equal_to_roll_formulas(name, crv):
    got = cd.curve_fields(crv)
    want = _roll_fields(crv)
    for key, ref in want.items():
        assert np.array_equal(getattr(got, key), ref), f"{name}: {key}"
    assert cd.length(crv) == float(want["seg"].sum())

    rng = np.random.default_rng(crv.n)
    for values in (rng.normal(size=crv.n), rng.normal(size=(crv.n, 2))):
        ref = _roll_d_ds(values, want["speed"], crv.closed)
        assert np.array_equal(cd.arc_derivative(crv, values), ref), name

    if crv.closed:
        nu_s = _roll_d_ds(want["normal"], want["speed"], True)
        a = float(np.sum(np.sum(nu_s * crv.nodes, axis=1) * want["dl"]))
        assert cd.frame_position_identity(crv)[0] == a, name


@pytest.mark.parametrize("closed", [True, False])
def test_fields_dl_and_s_are_computed_once_on_first_read(closed):
    crv = cd.DiscreteCurve(ellipse_curve(64).nodes, closed=closed)
    f = cd.curve_fields(crv)
    assert "dl" not in vars(f) and "s" not in vars(f)
    dl = f.dl
    assert "dl" in vars(f) and "s" not in vars(f)
    assert f.dl is dl and f.dl is f.dl
    s = f.s
    assert f.s is s and f.s is f.s
    assert dl.shape == s.shape == (64,)


# ---------------------------------------------------------------------------
# Resampling


def test_resample_equalizes_spacing():
    n = 1024
    theta = 2 * np.pi * np.arange(n) / n
    phi = theta - 0.1 * np.sin(theta)  # mild clustering near phi = 0
    clustered = cd.DiscreteCurve(np.column_stack([np.cos(phi), np.sin(phi)]), closed=True)
    seg = cd.segment_lengths(cd.resample_uniform(clustered, n))
    assert (seg.max() - seg.min()) / seg.mean() < 1e-6


def test_resample_preserves_length():
    crv = cd.sample_analytic(cd.Lemniscate(), 1024)
    out = cd.resample_uniform(crv, 1024)
    # measured 1.09e-6 relative at this resolution
    assert abs(cd.length(out) - cd.length(crv)) / cd.length(crv) < 2e-6


def test_resample_line_stays_collinear():
    line = cd.sample_analytic(
        cd.Line(point=(0.0, 0.0), direction=(3.0, 4.0), s_min=0.0, s_max=5.0), 9
    )
    out = cd.resample_uniform(line, 17)
    v = np.diff(out.nodes, axis=0)
    cross = np.abs(v[:-1, 0] * v[1:, 1] - v[:-1, 1] * v[1:, 0])
    assert cross.max() < 1e-12


def test_resample_uniform_is_idempotent():
    crv = cd.sample_analytic(cd.Circle(1.0), 256)
    out = cd.resample_uniform(crv, 256)
    assert np.max(np.abs(out.nodes - crv.nodes)) < 1e-10


def test_resample_length_second_order():
    crv = cd.sample_analytic(cd.Lemniscate(), 1024)
    ref = cd.length(crv)
    errs = [abs(cd.length(cd.resample_uniform(crv, m)) - ref) for m in (32, 64, 128)]
    orders = _order(errs)
    assert np.all((orders > 1.7) & (orders < 2.3))


def _scipy_resample(curve: cd.DiscreteCurve, m: int) -> np.ndarray:
    """resample_uniform written with scipy's CubicSpline, as the reference."""
    knots = np.concatenate([[0.0], np.cumsum(cd.segment_lengths(curve))])
    if curve.closed:
        spline = CubicSpline(knots, np.vstack([curve.nodes, curve.nodes[:1]]),
                             bc_type="periodic")
        return spline(knots[-1] * np.arange(m) / m)
    spline = CubicSpline(knots, curve.nodes, bc_type="not-a-knot")
    return spline(knots[-1] * np.arange(m) / (m - 1))


def _assert_matches_scipy(curve: cd.DiscreteCurve, m: int) -> None:
    want = _scipy_resample(curve, m)
    got = cd.resample_uniform(curve, m).nodes
    # Relative to the coordinate scale: measured at most ~3e-15.
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def evolved_lemniscate() -> cd.DiscreteCurve:
    # Without redistribution the flow leaves the nodes unevenly spaced.
    crv = cd.sample_analytic(cd.Lemniscate(), 512)
    traj = cd.evolve(crv, cd.FlowSpec(t_end=2e-3, redistribute_every=0))
    return traj.snapshots[-1]


@pytest.mark.parametrize("m", [8, 512, 1536])
def test_resample_matches_scipy_periodic_spline(evolved_lemniscate, m):
    seg = cd.segment_lengths(evolved_lemniscate)
    assert seg.max() / seg.min() > 1.01
    _assert_matches_scipy(evolved_lemniscate, m)


@pytest.mark.parametrize("m", [8, 1024, 3072])
def test_resample_matches_scipy_not_a_knot_spline(m):
    spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0)
    _assert_matches_scipy(cd.sample_analytic(spec, 1024), m)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 1024),
    m=st.integers(8, 2048),
    closed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_resample_matches_scipy_on_nonuniform_chords(n, m, closed, seed):
    rng = np.random.default_rng(seed)
    # Parameter steps up to 5x apart give chords up to about 5x apart.
    steps = rng.uniform(0.2, 1.0, n)
    theta = np.cumsum(steps) * (2.0 * np.pi if closed else 4.0) / steps.sum()
    r = 1.0 + 0.3 * np.sin(3.0 * theta + rng.uniform(0.0, 2.0 * np.pi))
    nodes = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    _assert_matches_scipy(cd.DiscreteCurve(nodes + rng.uniform(-3.0, 3.0, 2), closed), m)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("closed", [True, False])
def test_resample_matches_scipy_on_few_nodes(n, closed):
    nodes = np.column_stack([np.cos(np.arange(n) ** 1.3), np.sin(np.arange(n) ** 1.3)])
    _assert_matches_scipy(cd.DiscreteCurve(nodes, closed), 9)


def test_resample_too_few_targets():
    crv = cd.sample_analytic(cd.Circle(1.0), 64)
    with pytest.raises(cd.TooFewNodes):
        cd.resample_uniform(crv, 7)


# ---------------------------------------------------------------------------
# Osculating discs


def test_osculating_disc_radius(circle_512):
    disc = cd.osculating_disc(circle_512, 17)
    assert disc.radius == pytest.approx(1.0, abs=1e-3)
    assert np.hypot(*disc.center) < 1e-3


def test_nested_discs_clothoid(clothoid_512):
    s = np.linspace(-2.0, 2.0, 512)
    idx = np.where((s >= 0.5) & (s <= 2.0))[0]
    # Strided: adjacent-disc gaps scale like the cube of the arc step and
    # would otherwise drown in the O(h^2) curvature error.
    assert cd.osculating_discs_nested(clothoid_512, idx[::4]) is True


def test_nested_discs_ellipse_quarter():
    crv = ellipse_curve(256)
    assert cd.osculating_discs_nested(crv, np.arange(0, 65, 2)) is True


def test_nested_discs_circle_raises(circle_512):
    with pytest.raises(cd.HypothesisViolated):
        cd.osculating_discs_nested(circle_512, np.arange(0, 64))


# ---------------------------------------------------------------------------
# Shape utilities


def test_normalize_shape(lemniscate_512):
    out = cd.normalize_shape(moved(lemniscate_512, shift=(5.0, 7.0), scale=3.0))
    assert cd.length(out) == pytest.approx(1.0, abs=1e-12)
    f = cd.curve_fields(out)
    centroid = (out.nodes * f.dl[:, None]).sum(axis=0) / f.dl.sum()
    assert np.hypot(*centroid) < 1e-12


def test_hausdorff_distance_concentric():
    a = cd.sample_analytic(cd.Circle(1.0), 512)
    b = cd.sample_analytic(cd.Circle(1.1), 512)
    assert cd.hausdorff_distance(a, b) == pytest.approx(0.1, abs=1e-3)
    assert cd.hausdorff_distance(a, a) == 0.0


@pytest.mark.parametrize("block", [geometry.HAUSDORFF_BLOCK, 1000])
@pytest.mark.parametrize("na, nb", [(2, 9), (300, 41), (4096, 3001), (1000, 4096)])
def test_hausdorff_distance_is_scipy_exactly(monkeypatch, block, na, nb):
    # block=1000 puts fewer rows than b has nodes in a block, down to one row.
    monkeypatch.setattr(geometry, "HAUSDORFF_BLOCK", block)
    a = cd.DiscreteCurve(RNG.normal(size=(na, 2)), closed=False)
    b = cd.DiscreteCurve(RNG.normal(0.3, 1.7, size=(nb, 2)), closed=True)
    want = max(directed_hausdorff(a.nodes, b.nodes)[0], directed_hausdorff(b.nodes, a.nodes)[0])
    assert cd.hausdorff_distance(a, b) == want
    assert cd.hausdorff_distance(b, a) == want
