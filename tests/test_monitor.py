"""Conserved quantities, dissipation bookkeeping, and lifespan bounds."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.special as sps

import curvediffusion as cd
from curvediffusion import monitor
from conftest import ellipse_curve, monitor_series

# Exact perimeter of the (1, 0.5) ellipse via the complete elliptic
# integral of the second kind; I = L^2 / (4 pi A) with A = pi/2.
ELLIPSE_L = 4.0 * sps.ellipe(0.75)
ELLIPSE_I = ELLIPSE_L**2 / (4.0 * np.pi * (np.pi / 2.0))


# ---------------------------------------------------------------------------
# Pointwise monitors: one row (L, A, I, diss) of a monitor series


def _row(curve):
    return monitor._row(curve, cd.curve_fields(curve))


def test_isoperimetric_circle(circle_512):
    crv = cd.sample_analytic(cd.Circle(1.0), 256)
    assert _row(crv)[2] == pytest.approx(1.0, abs=1e-4)
    assert _row(circle_512)[2] >= 1.0 - 1e-12


def test_isoperimetric_ellipse_value():
    crv = ellipse_curve(1024)
    assert _row(crv)[2] == pytest.approx(ELLIPSE_I, abs=1e-4)


def test_isoperimetric_lemniscate_undefined(lemniscate_512):
    # Signed area cancels between the two loops; the ratio is marked NaN.
    assert np.isnan(_row(lemniscate_512)[2])


def test_dissipation_values(circle_512, lemniscate_512):
    assert _row(circle_512)[3] < 1e-12
    f = cd.curve_fields(lemniscate_512)
    assert _row(lemniscate_512)[3] == pytest.approx(float(np.sum(f.kappa_s**2 * f.dl)))


# ---------------------------------------------------------------------------
# Monitor series along trajectories


@pytest.fixture(scope="module")
def ellipse_run():
    crv = ellipse_curve(256)
    h = cd.length(crv) / 256
    return cd.evolve(crv, cd.FlowSpec(dt=h * h / 8, t_end=0.005, snapshot_every=5))


def test_ellipse_monitors(ellipse_run):
    m = ellipse_run.monitors
    assert np.max(np.abs(m.A - m.A[0])) / abs(m.A[0]) < 1e-3
    assert np.all(np.diff(m.L) <= 1e-10)
    assert np.all(np.diff(np.abs(m.I)) < 0)
    assert np.all(np.diff(m.Q) >= 0)
    assert np.all(m.diss > 0)


def test_circle_monitors_are_static():
    crv = cd.sample_analytic(cd.Circle(1.0), 256)
    m = cd.evolve(crv, cd.FlowSpec(t_end=0.01, snapshot_every=10)).monitors
    assert np.max(m.diss) < 1e-8
    assert np.max(np.abs(m.Q)) < 1e-8
    assert m.I == pytest.approx(np.ones_like(m.I), abs=1e-4)


def test_lemniscate_monitors(lemniscate_512):
    m = cd.evolve(lemniscate_512, cd.FlowSpec(t_end=1e-3, snapshot_every=10)).monitors
    assert np.max(np.abs(m.A)) < 1e-6
    assert np.all(np.isnan(m.I))


def test_monitor_curves_open_curve(clothoid_512):
    m = monitor_series([0.0], [clothoid_512])
    assert np.isnan(m.A[0]) and np.isnan(m.I[0])
    assert m.L[0] == pytest.approx(cd.length(clothoid_512))


def test_monitor_curves_equal_single_curve_functions(ellipse_run, lemniscate_512,
                                                     clothoid_512):
    # Bit equality, not approx: L must be the segment sum length() takes,
    # not the quadrature-weight sum dl.sum(), which differs in the last bits.
    curves = list(ellipse_run.snapshots) + [lemniscate_512, clothoid_512]
    m = monitor_series(range(len(curves)), curves)
    closed = [c.closed for c in curves]
    lengths = [cd.length(c) for c in curves]
    areas = [cd.signed_area(c) if c.closed else np.nan for c in curves]
    ratios = [L**2 / (4.0 * np.pi * A) if abs(A) > 1e-12 * L**2 else np.nan
              for L, A in zip(lengths, areas)]
    assert m.L.tolist() == lengths
    assert m.diss.tolist() == [float(np.sum(f.kappa_s**2 * f.dl))
                               for f in map(cd.curve_fields, curves)]
    assert m.A[closed].tolist() == [a for a, c in zip(areas, closed) if c]
    assert np.array_equal(m.I, ratios, equal_nan=True)
    assert np.all(np.isnan(m.A[~np.array(closed)]))


# ---------------------------------------------------------------------------
# Isoperimetric decay prediction


def test_decay_check_ellipse(ellipse_run):
    assert cd.isoperimetric_decay_check(ellipse_run.monitors) < 2e-2


def test_decay_check_circle():
    crv = cd.sample_analytic(cd.Circle(1.0), 256)
    m = cd.evolve(crv, cd.FlowSpec(t_end=0.005, snapshot_every=5)).monitors
    assert cd.isoperimetric_decay_check(m) < 1e-6


def test_decay_check_improves_with_dt(ellipse_run):
    crv = ellipse_curve(256)
    h = cd.length(crv) / 256
    fine = cd.evolve(crv, cd.FlowSpec(dt=h * h / 16, t_end=0.005, snapshot_every=10))
    assert (
        cd.isoperimetric_decay_check(fine.monitors)
        < cd.isoperimetric_decay_check(ellipse_run.monitors)
    )


def test_decay_check_undefined(lemniscate_512):
    m = cd.evolve(lemniscate_512, cd.FlowSpec(t_end=1e-4, snapshot_every=10)).monitors
    with pytest.raises(cd.Undefined):
        cd.isoperimetric_decay_check(m)


# ---------------------------------------------------------------------------
# Lifespan bounds


def test_time_bounds_unit_length():
    b = cd.time_bounds(1.0)
    assert b.T_star == pytest.approx(1.6040597272944278e-4, rel=1e-12)
    assert b.T_tilde == pytest.approx(1.3192862453429398e-4, rel=1e-12)
    assert b.T_fig8 == pytest.approx(5.509344055317327e-5, rel=1e-12)
    assert b.ratio_star == pytest.approx(2.9115257845374067, rel=1e-12)
    assert b.ratio_tilde == pytest.approx(2.3946339747462941, rel=1e-12)


def test_time_bounds_quartic_homogeneity():
    b1 = cd.time_bounds(1.0)
    b2 = cd.time_bounds(2.0)
    assert b2.T_star == pytest.approx(16 * b1.T_star, rel=1e-12)
    assert b2.T_tilde == pytest.approx(16 * b1.T_tilde, rel=1e-12)
    assert b2.T_fig8 == pytest.approx(16 * b1.T_fig8, rel=1e-12)
    assert b2.ratio_star == b1.ratio_star
    assert b2.ratio_tilde == b1.ratio_tilde


def test_time_bounds_ordering():
    # 5e77 has a fourth power beyond the double range but bounds within it.
    for L0 in [*np.logspace(-3, 3, 13), 1e-70, 5e77]:
        b = cd.time_bounds(L0)
        assert b.T_fig8 < b.T_tilde < b.T_star


@pytest.mark.parametrize("L0", [0.0, -1.0, float("nan"), float("inf"), 1e100, 1e-100, 1e-80])
def test_time_bounds_domain(L0):
    with pytest.raises(cd.DomainError):
        cd.time_bounds(L0)


def test_time_bounds_ratios_do_not_depend_on_length():
    ratios = {(b.ratio_star, b.ratio_tilde) for b in map(cd.time_bounds, (1e-60, 1.0, 1e60))}
    assert len(ratios) == 1


def test_time_bounds_dict():
    d = cd.time_bounds(1.0).to_dict()
    assert set(d) == {"T_star", "T_tilde", "T_fig8", "ratio_star", "ratio_tilde"}
