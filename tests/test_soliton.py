"""Soliton fits, classification, and the rigidity integral identities."""
from __future__ import annotations

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvediffusion as cd
from curvediffusion import soliton
from curvediffusion.errors import CurveDiffusionError, DegenerateGeometry
from curvediffusion.geometry import curve_fields
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
    def fake_shrinker(fits):
        return soliton.ShrinkerFit(K=6.0, residual=1e-5)

    monkeypatch.setattr(soliton._Fits, "shrinker", fake_shrinker)
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


# Scale factors log-uniform over 120 decades.
_RHO = st.floats(-60.0, 60.0).map(lambda p: 10.0**p)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_FIXTURE_CURVES)),
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    rho=_RHO,
    reverse=st.booleans(),
)
def test_classify_invariant_under_similarity(name, angle, shift, rho, reverse):
    # The rotator equation singles out the origin, so its fit is checked
    # separately under rotations about the origin only. The shift is in
    # units of the fixture, so it is scaled with it.
    crv = _FIXTURE_CURVES[name]
    base = cd.classify(crv)
    got = cd.classify(moved(crv.reversed() if reverse else crv, angle,
                            rho * np.asarray(shift), rho))
    offset = float(np.hypot(*shift))
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
    rho=_RHO,
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


@pytest.mark.parametrize("rho", [1e-60, 1e-6, 1e8, 1e60])
def test_classify_lemniscate_at_extreme_scales(rho):
    crv = _FIXTURE_CURVES["lemniscate_256"]
    base = cd.report_to_dict(cd.classify(crv))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cd.report_to_dict(cd.classify(moved(crv, scale=rho)))
    assert got["verdict"] == "shrinker"
    assert got["shrinker"]["residual"] == base["shrinker"]["residual"]
    assert got["shrinker"]["K"] * rho**4 == pytest.approx(base["shrinker"]["K"], rel=1e-10)


def test_classify_constant_out_of_range_is_unavailable():
    # K and S of a curve of length 1e-100 or less exceed the double range.
    for rho in (1e-100, 1e-110, 1e-150, 1e-200):
        crv = moved(_FIXTURE_CURVES["lemniscate_256"], scale=rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cd.classify(crv)
        assert report.shrinker is None and report.rotator is None, rho
        assert "overflows at this scale" in report.unavailable["shrinker"], rho
        assert report.stationary.residual == pytest.approx(1.0), rho
        assert report.verdict is None, rho
        json.dumps(cd.report_to_dict(report), allow_nan=False)


def test_classify_constant_that_underflows_is_unavailable():
    # At length 1e100 or more, K = -6 L^-4 and S fall below the normal
    # doubles; a K of -0.0 would otherwise keep the shrinker verdict
    # whatever its sign.
    for rho in (1e100, 1e110, 1e150, 1e200):
        crv = moved(_FIXTURE_CURVES["lemniscate_256"], scale=rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cd.classify(crv)
        assert report.shrinker is None and report.rotator is None, rho
        assert "underflows at this scale" in report.unavailable["shrinker"], rho
        assert report.verdict is None, rho
        json.dumps(cd.report_to_dict(report), allow_nan=False)


def test_classify_curve_longer_than_double_range():
    # At 2**1022 the lemniscate's length, about 2.4e308, is beyond the double
    # range, though every chord is a normal double. The copy the fits are made
    # on is the one made at 2**1000, so each fit names the same constant, with
    # its exponent shifted, as it underflows.
    crv = _FIXTURE_CURVES["lemniscate_256"]
    reports = {}
    for power in (1000, 1022):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports[power] = cd.classify(moved(crv, scale=2.0**power))
    report = reports[1022]
    assert report.verdict is None
    json.dumps(cd.report_to_dict(report), allow_nan=False)
    mantissa = re.compile(r"the fitted constant (\S+) \* 2\*\*-\d+ underflows at this scale")
    assert report.unavailable.keys() == reports[1000].unavailable.keys() == set(soliton.VERDICT_PRIORITY)
    for name, text in report.unavailable.items():
        assert mantissa.fullmatch(text)[1] == mantissa.fullmatch(reports[1000].unavailable[name])[1], name


def test_classify_large_circle_keeps_small_curvature():
    # k1 = 1/rho is a normal double, and k2 = 0.0 is exact, not underflow.
    crv = _FIXTURE_CURVES["circle_256"]
    base = cd.classify(crv).stationary.k1
    for rho in (1e-150, 1e-110, 1e100, 1e110, 1e150):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cd.classify(moved(crv, scale=rho))
        assert report.verdict == "stationary", rho
        assert report.stationary.k1 * rho == pytest.approx(base, rel=1e-12), rho
        assert report.stationary.k2 == 0.0, rho
        json.dumps(cd.report_to_dict(report), allow_nan=False)


def test_fits_unit_length_agrees_bit_for_bit():
    # Scaling by a power of two is exact, and so is the map back.
    crv = _FIXTURE_CURVES["perturbed_ellipse_256"]
    for power in (-40, 3, 40):
        got = cd.classify(moved(crv, scale=2.0**power))
        base = cd.classify(crv)
        assert got.shrinker.K == base.shrinker.K * 2.0 ** (-4 * power)
        assert got.stationary.k1 == base.stationary.k1 * 2.0 ** -power
        assert got.translator.residual == base.translator.residual


# ---------------------------------------------------------------------------
# Reference: the four separate fits that the one-Gram classify replaced


def _reference_classify(curve: cd.DiscreteCurve, tol: float = soliton.DEFAULT_TOL):
    fields = curve_fields(curve)
    dl, nu, kss, kap = fields.dl, fields.normal, fields.kappa_ss, fields.kappa
    total = fields.length

    def wnorm(values):
        return float(np.sqrt(np.sum(values**2 * dl)))

    def normalized(defect):
        scale = soliton.defect_scale(fields)
        return 0.0 if scale == 0.0 else wnorm(defect) / scale

    def stationary():
        k1 = float(np.sum(kap * dl) / total)
        k2, fitted = 0.0, k1
        if not curve.closed:
            ds = fields.s - float(np.sum(fields.s * dl) / total)
            k2 = float(np.sum(kap * ds * dl) / float(np.sum(ds**2 * dl)))
            fitted = k1 + k2 * ds
        nk = wnorm(kap)
        return soliton.StationaryFit(k1, k2, 0.0 if nk == 0.0 else wnorm(kap - fitted) / nk)

    def shrinker():
        gdn = np.sum(curve.nodes * nu, axis=1)
        if float(np.sum(gdn**2 * dl)) <= soliton._DEGENERATE_DEN * total**3:
            raise DegenerateGeometry("<gamma, nu> vanishes along the curve; the shrinker "
                                     "constant is not identifiable")
        design = np.column_stack([gdn, nu[:, 0], nu[:, 1]])
        gram = design.T @ (design * dl[:, None])
        if np.linalg.cond(gram) >= soliton._DEGENERATE_COND:
            raise DegenerateGeometry("shrinker normal equations are singular")
        coef = np.linalg.solve(gram, design.T @ (-kss * dl))
        return soliton.ShrinkerFit(float(coef[0]), normalized(kss + design @ coef))

    def translator():
        m, b = nu.T @ (nu * dl[:, None]), nu.T @ (-kss * dl)
        constrained = bool(np.linalg.cond(m) >= soliton._DEGENERATE_COND)
        if constrained:
            w, vecs = np.linalg.eigh(m)
            v = (float(vecs[:, -1] @ b) / float(w[-1])) * vecs[:, -1]
        else:
            v = np.linalg.solve(m, b)
        return soliton.TranslatorFit((float(v[0]), float(v[1])), normalized(kss + nu @ v),
                                     constrained)

    def rotator():
        g = 2.0 * np.sum(fields.tangent * curve.nodes, axis=1)
        denom = float(np.sum(g**2 * dl))
        if denom < soliton._DEGENERATE_DEN * total**3:
            return soliton.RotatorFit(None, normalized(kss))
        s_hat = float(-np.sum(kss * g * dl) / denom)
        return soliton.RotatorFit(s_hat, normalized(kss + s_hat * g))

    fits, unavailable = {}, {}
    for name, fit in zip(soliton.VERDICT_PRIORITY, (stationary, shrinker, translator, rotator)):
        try:
            fits[name] = fit()
        except CurveDiffusionError as exc:
            unavailable[name] = str(exc)
    candidates = [(fits[name].residual, rank, name)
                  for rank, name in enumerate(soliton.VERDICT_PRIORITY)
                  if name in fits and fits[name].residual < tol]
    verdict = min(candidates)[2] if candidates else None
    if verdict == "shrinker" and fits["shrinker"].K > 0.0:
        verdict = "expander"
    return soliton.SolitonReport(**{name: fits.get(name) for name in soliton.VERDICT_PRIORITY},
                                 unavailable=unavailable, verdict=verdict)


def _assert_matches_reference(crv: cd.DiscreteCurve) -> None:
    # Constants agree to 1e-10 relative, or 1e-10 absolute at unit length:
    # a constant that is round-off (K of a circle, k1 of a figure eight)
    # follows the order of the sums, which the Gram matrix changes.
    # Residuals agree in 6 digits, or within 1e-15: a residual that is
    # round-off (the stationary fit of a circle) follows the same sums.
    unit = cd.length(crv)
    got, want = cd.classify(crv), _reference_classify(crv)
    assert got.verdict == want.verdict
    assert got.unavailable.keys() == want.unavailable.keys()
    for name in soliton.VERDICT_PRIORITY:
        g, w = cd.report_to_dict(got)[name], cd.report_to_dict(want)[name]
        assert g.keys() == w.keys()
        if "residual" in w:
            assert g["residual"] == pytest.approx(w["residual"], rel=0.0, abs=1e-15), name
    for got_c, want_c, power in (
            (got.stationary.k1, want.stationary.k1, 1),
            (got.stationary.k2, want.stationary.k2, 2),
            *([(got.shrinker.K, want.shrinker.K, 4)] if want.shrinker else [])):
        assert got_c == pytest.approx(want_c, rel=1e-10, abs=1e-10 / unit**power)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_FIXTURE_CURVES)),
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    rho=st.floats(-3.0, 3.0).map(lambda p: 10.0**p),
    reverse=st.booleans(),
)
# Both failed while kappa divided by numpy's speed**3, which is not exact
# under the power-of-two scaling the fits take to unit length.
@example(name="circle_256", angle=0.0, shift=(0.0, 0.0), rho=10.0**-1e-5, reverse=False)
@example(name="circle_256", angle=0.0, shift=(0.0, 0.0), rho=1.0000000000001135, reverse=False)
def test_classify_matches_reference(name, angle, shift, rho, reverse):
    crv = _FIXTURE_CURVES[name]
    _assert_matches_reference(moved(crv.reversed() if reverse else crv, angle,
                                    rho * np.asarray(shift), rho))


@pytest.mark.parametrize("spec", [
    cd.Line(point=(0.0, 1.0), direction=(1.0, 0.0), s_min=-1.0, s_max=1.0),
    cd.Circle(1.0),
], ids=["line", "origin_circle"])
def test_degenerate_fits_match_reference_without_warnings(spec):
    crv = cd.sample_analytic(spec, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cd.classify(crv)
        _assert_matches_reference(crv)
    if isinstance(spec, cd.Line):
        assert report.translator.constrained
        assert "shrinker" in report.unavailable and report.shrinker is None
    else:
        assert report.rotator.S is None


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
        # Along a translator with velocity V, d/ds of <V, tangent> + kappa
        # kappa_s is kappa_s^2, so its integral is the boundary difference.
        f = cd.curve_fields(w)
        integral = float(np.sum(f.kappa_s**2 * f.dl))
        flux = f.tangent @ np.asarray(fit.V) + f.kappa * f.kappa_s
        boundary = float(flux[-1] - flux[0])
        defects.append(abs(integral - boundary) / abs(integral))
    assert defects[1] < 5e-3
    assert defects[0] / defects[1] > 3.0  # second-order decay
