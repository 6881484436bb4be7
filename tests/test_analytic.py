"""Closed-form curves, elliptic integrals, and Fresnel sampling."""
from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.special as sps

import curvediffusion as cd
from curvediffusion.analytic import _elliptic_k_agm, _elliptic_k_quadrature

K_MINUS_ONE = 1.31102877714605987


# ---------------------------------------------------------------------------
# Complete elliptic integral


def test_elliptic_k_at_zero():
    assert cd.elliptic_K(0.0) == pytest.approx(np.pi / 2, abs=1e-14)


def test_elliptic_k_minus_one():
    assert cd.elliptic_K(-1.0) == pytest.approx(K_MINUS_ONE, abs=1e-10)


def test_elliptic_k_dual_route():
    for m in (-1.0, 0.5):
        agm = cd.elliptic_K(m)
        quad = _elliptic_k_quadrature(m)
        assert abs(agm - quad) < 1e-10


def test_elliptic_k_matches_scipy():
    for m in [-1e8, -1e6, -100.0, *np.linspace(-5.0, 0.95, 25)]:
        for route in (_elliptic_k_agm, _elliptic_k_quadrature):
            assert route(m) == pytest.approx(sps.ellipk(m), abs=1e-12)


def test_elliptic_k_auto_is_agm():
    # The quadrature route stays an independent check: elliptic_K never uses it.
    for m in [-1e6, -5.0, -1.0, -0.3, 0.0, 0.5, 0.99]:
        assert cd.elliptic_K(m) == _elliptic_k_agm(m)


@pytest.mark.parametrize("m", [0.9999, 0.999999])
def test_elliptic_k_quadrature_near_one(m):
    # Close to the log singularity at m = 1 the quadrature route may refuse,
    # but it must never return a value that is silently off.
    try:
        value = _elliptic_k_quadrature(m)
    except cd.QuadratureFailure:
        return
    assert value == pytest.approx(sps.ellipk(m), rel=1e-12)


def test_elliptic_k_strictly_increasing():
    grid = np.linspace(-4.0, 0.99, 60)
    vals = [cd.elliptic_K(m) for m in grid]
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("m", [1.0, 2.0])
def test_elliptic_k_domain(m):
    with pytest.raises(cd.DomainError):
        cd.elliptic_K(m)


# ---------------------------------------------------------------------------
# Quadrature failure paths


def test_fresnel_unresolvable_frequency():
    spec = cd.FresnelFamily(c1=0.0, c2=1e30, s_min=0.0, s_max=1.0)
    with pytest.raises(cd.QuadratureFailure):
        cd.sample_analytic(spec, 64)


# ---------------------------------------------------------------------------
# Lemniscate jets


def test_lemniscate_point_at_zero():
    jet = cd.lemniscate_point(0.0)
    assert jet.point == pytest.approx([1.0, 0.0], abs=1e-15)
    assert jet.kappa == pytest.approx(3.0, abs=1e-14)
    assert jet.kappa_s == pytest.approx(0.0, abs=1e-14)
    assert jet.kappa_ss == pytest.approx(-6.0, abs=1e-13)
    assert jet.gamma_dot_nu == pytest.approx(-1.0, abs=1e-14)


def test_lemniscate_point_at_crossing():
    jet = cd.lemniscate_point(np.pi / 2)
    assert jet.point == pytest.approx([0.0, 0.0], abs=1e-15)
    assert jet.kappa == pytest.approx(0.0, abs=1e-14)
    assert jet.gamma_dot_nu == pytest.approx(0.0, abs=1e-14)


def test_lemniscate_point_scaled():
    jet = cd.lemniscate_point(0.0, scale=2.0)
    assert jet.point == pytest.approx([2.0, 0.0], abs=1e-15)
    assert jet.kappa == pytest.approx(1.5, abs=1e-14)
    assert jet.kappa_ss == pytest.approx(-0.75, abs=1e-14)
    assert jet.gamma_dot_nu == pytest.approx(-2.0, abs=1e-14)
    # shrinker relation at scale rho: kappa_ss + (-6/rho^4) <gamma,nu> = 0
    assert jet.kappa_ss + (-6.0 / 16.0) * jet.gamma_dot_nu == pytest.approx(0.0, abs=1e-14)


def test_lemniscate_soliton_identity_random_u():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 2.0 * np.pi, 10_000)
    jet = cd.lemniscate_point(u)
    assert np.max(np.abs(jet.kappa_ss - 6.0 * jet.gamma_dot_nu)) < 1e-12


def test_lemniscate_jet_frame():
    u = np.linspace(0.0, 2.0 * np.pi, 257)
    jet = cd.lemniscate_point(u)
    assert np.abs(np.linalg.norm(jet.tangent, axis=1) - 1).max() < 1e-12
    assert np.abs(np.einsum("ij,ij->i", jet.tangent, jet.normal)).max() < 1e-12


# ---------------------------------------------------------------------------
# Fresnel family


def test_fresnel_point_at_zero():
    spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, v=(2.0, -1.0), s_min=0.0, s_max=1.0)
    assert cd.sample_analytic(spec, 8).nodes[0] == pytest.approx([2.0, -1.0], abs=1e-15)


def test_fresnel_constant_curvature_is_circle():
    # c1=1, c2=0 integrates the unit tangent of a unit circle through 0:
    # gamma(s) = (sin s, 1 - cos s). Node 4 of 9 sits at s = pi.
    spec = cd.FresnelFamily(c1=1.0, c2=0.0, s_min=0.0, s_max=2 * np.pi)
    nodes = cd.sample_analytic(spec, 9).nodes
    assert nodes[4] == pytest.approx([0.0, 2.0], abs=1e-12)
    s = np.linspace(0.0, 2 * np.pi, 9)
    assert nodes == pytest.approx(np.column_stack([np.sin(s), 1 - np.cos(s)]), abs=1e-12)


def test_fresnel_rotation_translation():
    base = cd.FresnelFamily(c1=1.0, c2=0.0, s_min=0.0, s_max=4.0)
    spec = cd.FresnelFamily(c1=1.0, c2=0.0, theta=np.pi / 2, v=(1.0, 1.0),
                            s_min=0.0, s_max=4.0)
    x, y = cd.sample_analytic(base, 16).nodes.T
    want = np.column_stack([1.0 - y, 1.0 + x])
    assert cd.sample_analytic(spec, 16).nodes == pytest.approx(want, abs=1e-12)


def test_fresnel_matches_scipy_clothoid():
    spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-2.0, s_max=2.0)
    s = np.linspace(-2.0, 2.0, 97)
    pts = cd.sample_analytic(spec, 97).nodes
    S, C = sps.fresnel(s)
    assert np.max(np.abs(pts - np.column_stack([C, S]))) < 1e-12


def _fresnel_reference(spec, s):
    """Closed form of the spiral family for c2 != 0, by completing the square.

    integral_0^s exp(i (c1 t + c2 t^2)) dt
        = exp(-i c1^2 / (4 c2)) sqrt(pi / (2 |c2|)) [E(u(s)) - E(u(0))]
    with u(t) = (t + c1 / (2 c2)) sqrt(2 |c2| / pi) and E = C + i S the
    scipy Fresnel integrals; for c2 < 0 the integrand is the conjugate of
    the one for (-c1, -c2).
    """
    c1, c2 = (spec.c1, spec.c2) if spec.c2 > 0 else (-spec.c1, -spec.c2)
    scale = np.sqrt(2.0 * c2 / np.pi)

    def e(t):
        S, C = sps.fresnel((t + c1 / (2.0 * c2)) * scale)
        return C + 1j * S

    z = np.exp(-1j * c1**2 / (4.0 * c2)) / scale * (e(s) - e(0.0))
    if spec.c2 < 0:
        z = np.conj(z)
    z = z * np.exp(1j * spec.theta) + complex(*spec.v)
    return np.column_stack([z.real, z.imag])


@pytest.mark.parametrize(
    "spec",
    [
        cd.FresnelFamily(c1=3.0, c2=-2.0, s_min=-1.0, s_max=1.0),
        cd.FresnelFamily(c1=13.0, c2=2.0, s_min=-1.0, s_max=1.0),
        cd.FresnelFamily(c1=0.0, c2=40.0, s_min=0.5, s_max=2.0),
        cd.FresnelFamily(c1=1.0, c2=-0.5, theta=0.3, v=(1.0, 2.0), s_min=-1.0, s_max=2.0),
    ],
    ids=["c1=3,c2=-2", "c1=13,c2=2", "c2=40", "c1=1,c2=-0.5,moved"],
)
def test_fresnel_sample_matches_closed_form(spec):
    s = np.linspace(spec.s_min, spec.s_max, 257)
    got = cd.sample_analytic(spec, 257).nodes
    assert np.max(np.abs(got - _fresnel_reference(spec, s))) < 1e-12


# ---------------------------------------------------------------------------
# Sampling


def test_sample_circle_cardinal_points():
    crv = cd.sample_analytic(cd.Circle(1.0), 4)
    assert crv.closed
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert crv.nodes == pytest.approx(expected, abs=1e-15)


def test_sample_line_nodes():
    crv = cd.sample_analytic(cd.Line(s_min=0.0, s_max=1.0), 9)
    assert not crv.closed
    assert crv.nodes[:, 0] == pytest.approx(np.arange(9) / 8, abs=1e-15)
    assert crv.nodes[:, 1] == pytest.approx(np.zeros(9), abs=1e-15)


def test_sample_too_few_nodes():
    with pytest.raises(cd.TooFewNodes):
        cd.sample_analytic(cd.Circle(1.0), 3)


def test_sample_orientation_reverses():
    fwd = cd.sample_analytic(cd.Lemniscate(), 64)
    bwd = cd.sample_analytic(cd.Lemniscate(orientation=-1), 64)
    assert np.array_equal(bwd.nodes, fwd.reversed().nodes)


def test_clothoid_discrete_curvature_is_arc_length():
    # N=513 over [-2, 2] puts a node exactly at s=1 where kappa = pi.
    spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-2.0, s_max=2.0)
    crv = cd.sample_analytic(spec, 513)
    f = cd.curve_fields(crv)
    idx = np.argmin(np.abs(np.linspace(-2, 2, 513) - 1.0))
    assert f.kappa[idx] == pytest.approx(np.pi, abs=1e-2)


def test_fresnel_sampling_is_unit_speed(clothoid_512):
    ds = 4.0 / 511
    seg = cd.segment_lengths(clothoid_512)
    # chord shortening of a unit-speed arc is O(ds^3); measured 1.64*ds^3
    assert np.max(np.abs(seg - ds)) < 2.0 * ds**3


@pytest.mark.parametrize(
    "c1, c2, smin, smax, tol",
    [
        (3.0, -1.0, -1.0, 1.0, 1e-3),
        (0.0, 0.5, -2.0, 2.0, 1e-3),
        (13.0, 2.0, -1.0, 1.0, 2e-2),
    ],
)
def test_fresnel_curvature_regression(c1, c2, smin, smax, tol):
    # kappa(s) = 2*c2*s + c1; recover both coefficients from the sample
    # alone. The window midpoint is 0 so the fitted intercept equals c1.
    spec = cd.FresnelFamily(c1=c1, c2=c2, s_min=smin, s_max=smax)
    fit = cd.fit_stationary(cd.sample_analytic(spec, 512))
    assert fit.k1 == pytest.approx(c1, abs=tol)
    assert fit.k2 == pytest.approx(2 * c2, abs=tol)
    assert fit.residual < 1e-3


# ---------------------------------------------------------------------------
# Spec validation and serialization


@pytest.mark.parametrize(
    "bad",
    [
        lambda: cd.Circle(-1.0),
        lambda: cd.Circle(0.0),
        lambda: cd.Lemniscate(scale=0.0),
        lambda: cd.FresnelFamily(c1=0.0, c2=1.0, s_min=1.0, s_max=1.0),
        lambda: cd.Line(direction=(0.0, 0.0)),
        lambda: cd.Circle(1.0, orientation=0),
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(cd.DomainError):
        bad()


@pytest.mark.parametrize(
    "spec",
    [
        cd.Circle(2.5, center=(1.0, -2.0), orientation=-1),
        cd.Lemniscate(scale=0.7),
        cd.FresnelFamily(c1=1.0, c2=-0.5, theta=0.3, v=(1.0, 2.0), s_min=-1.0, s_max=2.0),
        cd.Line(point=(0.0, 1.0), direction=(1.0, 1.0), s_min=-1.0, s_max=3.0),
    ],
)
def test_spec_dict_round_trip(spec):
    assert cd.spec_from_dict(cd.spec_to_dict(spec)) == spec


@pytest.mark.parametrize(
    "spec, text",
    [
        (cd.Circle(2.5, center=(1.0, -2.0), orientation=-1),
         '{"kind": "circle", "radius": 2.5, "center": [1.0, -2.0], "orientation": -1}'),
        (cd.Lemniscate(scale=0.75),
         '{"kind": "lemniscate", "scale": 0.75, "orientation": 1}'),
        (cd.FresnelFamily(c1=1.0, c2=-0.5, theta=0.25, v=(1.0, 2.0), s_min=-1.0, s_max=2.0),
         '{"kind": "fresnel", "c1": 1.0, "c2": -0.5, "theta": 0.25, "v": [1.0, 2.0], '
         '"s_min": -1.0, "s_max": 2.0, "orientation": 1}'),
        (cd.Line(point=(0.0, 1.0), direction=(1.0, 1.0), s_min=-1.0, s_max=3.0),
         '{"kind": "line", "point": [0.0, 1.0], "direction": [1.0, 1.0], '
         '"s_min": -1.0, "s_max": 3.0, "orientation": 1}'),
    ],
)
def test_spec_to_dict_exact_json(spec, text):
    assert json.dumps(cd.spec_to_dict(spec)) == text


@pytest.mark.parametrize(
    "kind, spec",
    [
        ("circle", cd.Circle(radius=1.0, center=(0.0, 0.0), orientation=1)),
        ("lemniscate", cd.Lemniscate(scale=1.0, orientation=1)),
        ("fresnel", cd.FresnelFamily(c1=0.0, c2=0.0, theta=0.0, v=(0.0, 0.0), s_min=0.0,
                                     s_max=1.0, orientation=1)),
        ("line", cd.Line(point=(0.0, 0.0), direction=(1.0, 0.0), s_min=0.0, s_max=1.0,
                         orientation=1)),
    ],
)
def test_spec_from_dict_defaults(kind, spec):
    # A spec given by its kind alone is the class with every field defaulted,
    # and those defaults are the values written out here.
    assert cd.spec_from_dict({"kind": kind}) == type(spec)() == spec


def test_spec_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cd.spec_from_dict({"kind": "parabola"})


def test_spec_from_dict_rejects_bad_field():
    with pytest.raises(ValueError):
        cd.spec_from_dict({"kind": "circle", "radius": 1.0, "extra": True})
