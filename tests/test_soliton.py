"""Soliton fits, classification, and the rigidity integral identities."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvediffusion as cd
from curvediffusion import soliton
from conftest import FIXTURE_DIR, ellipse_curve, moved, rotation


# ---------------------------------------------------------------------------
# Stationary fit


def test_stationary_circle(circle_512):
    fit = cd.fit_stationary(circle_512)
    assert abs(fit.k1) == pytest.approx(1.0, abs=1e-4)
    assert abs(fit.k2) < 1e-10
    assert fit.residual < 1e-4


def test_stationary_clothoid(clothoid_512):
    fit = cd.fit_stationary(clothoid_512)
    assert fit.k1 == pytest.approx(0.0, abs=1e-2)
    assert fit.k2 == pytest.approx(np.pi, abs=1e-2)
    assert fit.residual < 1e-3


def test_stationary_lemniscate_rejected(lemniscate_512):
    assert cd.fit_stationary(lemniscate_512).residual > 0.1


# ---------------------------------------------------------------------------
# Shrinker fit


def test_shrinker_lemniscate(lemniscate_512):
    fit = cd.fit_shrinker(lemniscate_512)
    assert fit.K == pytest.approx(-6.0, abs=1e-2)
    assert fit.residual < 1e-3


def test_shrinker_circle(circle_512):
    fit = cd.fit_shrinker(circle_512)
    assert abs(fit.K) < 1e-6
    assert fit.residual < 1e-6


def test_shrinker_scaled_lemniscate():
    crv = cd.sample_analytic(cd.Lemniscate(scale=2.0), 512)
    fit = cd.fit_shrinker(crv)
    assert fit.K == pytest.approx(-0.375, abs=1e-3)


def test_shrinker_translation_invariant(lemniscate_512):
    base = cd.fit_shrinker(lemniscate_512)
    shifted = cd.fit_shrinker(moved(lemniscate_512, shift=(4.0, -7.0)))
    assert shifted.K == pytest.approx(base.K, abs=1e-10)
    assert shifted.residual == pytest.approx(base.residual, abs=1e-10)


def test_shrinker_degenerate_line():
    line = cd.sample_analytic(
        cd.Line(point=(0.0, 0.0), direction=(1.0, 1.0), s_min=-1.0, s_max=1.0), 64
    )
    with pytest.raises(cd.DegenerateGeometry):
        cd.fit_shrinker(line)


# ---------------------------------------------------------------------------
# Translator fit


def test_translator_circle_anywhere():
    crv = cd.sample_analytic(cd.Circle(1.0, center=(3.0, -2.0)), 512)
    fit = cd.fit_translator(crv)
    assert np.hypot(*fit.V) < 1e-6
    assert fit.residual < 1e-6
    assert not fit.constrained


def test_translator_clothoid():
    # V is recovered as ~0 immediately; the residual is dominated by the
    # one-sided kappa_ss stencils at the two open ends and only decays
    # under refinement (0.39 / 0.13 / 0.043 at N = 128 / 256 / 512).
    residuals = []
    for n in (128, 256, 512):
        spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-2.0, s_max=2.0)
        fit = cd.fit_translator(cd.sample_analytic(spec, n))
        assert np.hypot(*fit.V) < 1e-3
        residuals.append(fit.residual)
    assert residuals[-1] < 0.05
    assert residuals[0] > residuals[1] > residuals[2]


def test_translator_lemniscate_rejected(lemniscate_512):
    fit = cd.fit_translator(lemniscate_512)
    assert np.hypot(*fit.V) < 1e-6
    assert fit.residual > 0.1


def test_translator_line_is_constrained():
    line = cd.sample_analytic(
        cd.Line(point=(0.0, 1.0), direction=(1.0, 0.0), s_min=-1.0, s_max=1.0), 64
    )
    fit = cd.fit_translator(line)
    assert fit.constrained
    assert np.hypot(*fit.V) < 1e-9
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Rotator fit


def test_rotator_origin_circle_indeterminate(circle_512):
    fit = cd.fit_rotator(circle_512)
    assert fit.S is None
    assert fit.residual < 1e-6


def test_rotator_offset_circle():
    crv = cd.sample_analytic(cd.Circle(1.0, center=(1.0, 0.0)), 512)
    fit = cd.fit_rotator(crv)
    assert fit.S == pytest.approx(0.0, abs=1e-6)
    assert fit.residual < 1e-6


def test_rotator_lemniscate_rejected(lemniscate_512):
    assert cd.fit_rotator(lemniscate_512).residual > 0.1


# ---------------------------------------------------------------------------
# Classification


def test_classify_lemniscate(lemniscate_512):
    report = cd.classify(lemniscate_512)
    assert report.verdict == "shrinker"
    assert report.shrinker.K == pytest.approx(-6.0, abs=1e-2)


def test_classify_circle(circle_512):
    assert cd.classify(circle_512).verdict == "stationary"


def test_classify_clothoid(clothoid_512):
    assert cd.classify(clothoid_512).verdict == "stationary"


def test_classify_perturbed_ellipse_is_none(perturbed_ellipse):
    report = cd.classify(perturbed_ellipse)
    assert report.verdict is None
    for fit in (report.stationary, report.shrinker, report.translator, report.rotator):
        assert fit.residual >= soliton.DEFAULT_TOL


def test_classify_line_priority_tie():
    # A straight segment fits both the stationary and the translator
    # equation with residual exactly 0.0; the tie goes to stationary.
    # The shrinker fit is singular here and shows up as unavailable.
    line = cd.sample_analytic(
        cd.Line(point=(0.0, 1.0), direction=(1.0, 0.0), s_min=-1.0, s_max=1.0), 64
    )
    report = cd.classify(line)
    assert report.verdict == "stationary"
    assert report.translator.residual == 0.0
    assert "shrinker" in report.unavailable
    assert report.shrinker is None


def test_classify_tol_threshold(lemniscate_512):
    assert cd.classify(lemniscate_512, tol=1e-5).verdict is None


def test_classify_expander_relabel(monkeypatch, lemniscate_512):
    # No closed-form expander exists to sample, so fake a positive-K
    # shrinker fit to exercise the relabelling rule.
    def fake_shrinker(curve, fields=None):
        return soliton.ShrinkerFit(K=6.0, residual=1e-5)

    monkeypatch.setattr(soliton, "fit_shrinker", fake_shrinker)
    report = cd.classify(lemniscate_512)
    assert report.verdict == "expander"


# ---------------------------------------------------------------------------
# Report serialization


def test_report_dict_lemniscate(lemniscate_512):
    d = cd.report_to_dict(cd.classify(lemniscate_512))
    assert set(d) == {"stationary", "shrinker", "translator", "rotator", "verdict"}
    assert d["verdict"] == "shrinker"
    # residuals carry six significant digits
    assert d["shrinker"]["residual"] == float(f"{cd.fit_shrinker(lemniscate_512).residual:.6g}")


def test_report_dict_rotator_indeterminate(circle_512):
    d = cd.report_to_dict(cd.classify(circle_512))
    assert d["rotator"]["S"] is None
    assert d["verdict"] == "stationary"


def test_report_dict_none_verdict(perturbed_ellipse):
    d = cd.report_to_dict(cd.classify(perturbed_ellipse))
    assert d["verdict"] == "none"


def test_report_dict_unavailable_marker():
    line = cd.sample_analytic(
        cd.Line(point=(0.0, 0.0), direction=(1.0, 1.0), s_min=-1.0, s_max=1.0), 64
    )
    d = cd.report_to_dict(cd.classify(line))
    assert "unavailable" in d["shrinker"]
    assert d["translator"]["constrained"] is True


def test_report_dict_key_order(lemniscate_512):
    line = cd.sample_analytic(
        cd.Line(point=(0.0, 0.0), direction=(1.0, 1.0), s_min=-1.0, s_max=1.0), 64
    )
    d = cd.report_to_dict(cd.classify(line))
    assert list(d) == ["stationary", "shrinker", "translator", "rotator", "verdict"]
    assert list(d["stationary"]) == ["k1", "k2", "residual"]
    assert list(d["shrinker"]) == ["unavailable"]
    assert list(d["translator"]) == ["V", "residual", "constrained"]
    assert list(d["rotator"]) == ["S", "residual"]
    d = cd.report_to_dict(cd.classify(lemniscate_512))
    assert list(d["shrinker"]) == ["K", "residual"]
    assert list(d["translator"]) == ["V", "residual"]
    assert isinstance(d["translator"]["V"], list)


# ---------------------------------------------------------------------------
# Equivariance


def test_fits_reversal_invariant(lemniscate_512):
    fwd = cd.classify(lemniscate_512)
    bwd = cd.classify(lemniscate_512.reversed())
    assert bwd.verdict == fwd.verdict
    assert bwd.shrinker.K == pytest.approx(fwd.shrinker.K, abs=1e-10)
    for name in ("stationary", "shrinker", "translator", "rotator"):
        assert getattr(bwd, name).residual == pytest.approx(
            getattr(fwd, name).residual, abs=1e-10
        )


def test_fits_rigid_motion_invariant(lemniscate_512):
    base = cd.classify(lemniscate_512)
    movedrep = cd.classify(moved(lemniscate_512, angle=1.1, shift=(-2.0, 5.0)))
    assert movedrep.verdict == base.verdict
    assert movedrep.shrinker.K == pytest.approx(base.shrinker.K, abs=1e-10)
    assert movedrep.shrinker.residual == pytest.approx(base.shrinker.residual, abs=1e-10)


def test_translator_v_rotates(perturbed_ellipse):
    angle = 0.7
    base = cd.fit_translator(perturbed_ellipse)
    rot = cd.fit_translator(moved(perturbed_ellipse, angle=angle))
    expected = rotation(angle) @ np.asarray(base.V)
    assert np.asarray(rot.V) == pytest.approx(expected, abs=1e-10)


def test_shrinker_k_scales(lemniscate_512):
    base = cd.fit_shrinker(lemniscate_512)
    for rho in (0.5, 3.0):
        scaled = cd.fit_shrinker(moved(lemniscate_512, scale=rho))
        assert scaled.K * rho**4 == pytest.approx(base.K, rel=1e-8)


_FIXTURE_CURVES = {
    name: cd.read_curve_csv(FIXTURE_DIR / f"{name}.csv")
    for name in ("circle_256", "clothoid_256", "lemniscate_256", "perturbed_ellipse_256")
}


def _close(got: float, want: float, offset: float = 0.0) -> bool:
    # Round-off in kappa_ss grows with the distance of the curve from the
    # origin relative to its size.
    return got == pytest.approx(want, rel=1e-8, abs=1e-9 * (1.0 + offset))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_FIXTURE_CURVES)),
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    rho=st.floats(0.25, 4.0),
    reverse=st.booleans(),
)
def test_classify_invariant_under_similarity(name, angle, shift, rho, reverse):
    # The rotator equation singles out the origin, so its fit is checked
    # separately under rotations about the origin only.
    crv = _FIXTURE_CURVES[name]
    base = cd.classify(crv)
    got = cd.classify(moved(crv.reversed() if reverse else crv, angle, shift, rho))
    offset = float(np.hypot(*shift)) / rho
    assert got.verdict == base.verdict
    for fit in ("stationary", "shrinker", "translator"):
        assert _close(getattr(got, fit).residual, getattr(base, fit).residual, offset)
    assert _close(got.shrinker.K * rho**4, base.shrinker.K, offset)
    want_v = rotation(angle) @ np.asarray(base.translator.V)
    for got_c, want_c in zip(np.asarray(got.translator.V) * rho**3, want_v):
        assert _close(got_c, want_c, offset)


def test_stationary_fit_closed_reversal_seam(perturbed_ellipse):
    # Periodicity forces k2 = 0, so neither the direction nor node 0 matters.
    fwd = cd.fit_stationary(perturbed_ellipse)
    bwd = cd.fit_stationary(perturbed_ellipse.reversed())
    shifted = cd.fit_stationary(cd.DiscreteCurve(np.roll(perturbed_ellipse.nodes, 37, axis=0),
                                                 closed=True))
    assert fwd.k2 == bwd.k2 == shifted.k2 == 0.0
    assert _close(bwd.residual, fwd.residual)
    assert _close(shifted.residual, fwd.residual)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_FIXTURE_CURVES)),
    angle=st.floats(0.0, 2 * np.pi),
    rho=st.floats(0.25, 4.0),
    reverse=st.booleans(),
)
def test_rotator_fit_invariant_about_origin(name, angle, rho, reverse):
    crv = _FIXTURE_CURVES[name]
    base = cd.fit_rotator(crv)
    got = cd.fit_rotator(moved(crv.reversed() if reverse else crv, angle, scale=rho))
    assert _close(got.residual, base.residual)
    assert (got.S is None) == (base.S is None)
    if base.S is not None:
        assert _close(got.S * rho**4, base.S)


# ---------------------------------------------------------------------------
# Integral identities


def test_energy_identity_circle(circle_512):
    a, b = cd.curvature_energy_identity(circle_512)
    assert abs(a + b) < 1e-12


@pytest.mark.parametrize("make", [ellipse_curve,
                                  lambda n: cd.sample_analytic(cd.Lemniscate(), n)])
def test_energy_identity_second_order(make):
    rels = []
    for n in (256, 512):
        crv = make(n)
        a, b = cd.curvature_energy_identity(crv)
        h = cd.length(crv) / n
        rel = abs(a + b) / a
        rels.append(rel)
        assert rel < 2.0 * h * h  # measured constants 0.66 and 0.9
    assert rels[0] / rels[1] > 3.0


def test_normal_flux_identity(circle_512, lemniscate_512):
    rng = np.random.default_rng(3)
    for crv in (circle_512, ellipse_curve(512), lemniscate_512):
        assert abs(cd.normal_flux_identity(crv, (1.0, 0.0))) < 1e-12
        assert abs(cd.normal_flux_identity(crv, rng.standard_normal(2))) < 1e-12


def test_frame_position_identity(circle_512, lemniscate_512):
    # Discrete summation by parts makes this one exact, not just O(h^2).
    for crv in (circle_512, ellipse_curve(512), lemniscate_512):
        p, q = cd.frame_position_identity(crv)
        assert abs(p + q) < 1e-12


def test_closed_identities_reject_open(clothoid_512):
    with pytest.raises(cd.OpenCurve):
        cd.curvature_energy_identity(clothoid_512)
    with pytest.raises(cd.OpenCurve):
        cd.normal_flux_identity(clothoid_512, (1.0, 0.0))
    with pytest.raises(cd.OpenCurve):
        cd.frame_position_identity(clothoid_512)


def test_open_translator_identity_window():
    defects = []
    for n in (256, 512):
        w = cd.sample_analytic(
            cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=0.5, s_max=2.0), n
        )
        fit = cd.fit_translator(w)
        integral, boundary = cd.open_translator_identity(w, fit.V)
        defects.append(abs(integral - boundary) / abs(integral))
    assert defects[1] < 5e-3
    assert defects[0] / defects[1] > 3.0  # second-order decay


def test_open_translator_identity_rejects_closed(circle_512):
    with pytest.raises(cd.OpenCurve):
        cd.open_translator_identity(circle_512, (0.0, 0.0))
