"""End-to-end acceptance gate: eight headline guarantees.

Each test exercises one guarantee at its stated tolerance, times itself
against the runtime budget, and prints a single PASS/FAIL summary line
with the measured numbers (visible even under captured output).
"""
from __future__ import annotations

import time

import numpy as np
import pytest

import curvediffusion as cd
from curvediffusion.analytic import _elliptic_k_quadrature
from conftest import ellipse_curve, moved


def _report(capsys, num: int, label: str, ok: bool, detail: str,
            elapsed: float, budget: float) -> None:
    with capsys.disabled():
        print(
            f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {label}: "
            f"{detail} [{elapsed:.2f}s / budget {budget:g}s]"
        )


def test_criterion_1_lemniscate_soliton_identity(capsys):
    t0 = time.perf_counter()
    fits = {n: cd.fit_shrinker(cd.sample_analytic(cd.Lemniscate(), n))
            for n in (128, 256, 512)}
    errs = [abs(fits[n].K + 6.0) for n in (128, 256, 512)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    k512, res512 = fits[512].K, fits[512].residual
    elapsed = time.perf_counter() - t0

    ok = (
        -6.01 <= k512 <= -5.99
        and res512 < 1e-3
        and min(orders) >= 1.7
        and elapsed < 1.0
    )
    _report(capsys, 1, "lemniscate shrinker fit", ok,
            f"K={k512:.6f} residual={res512:.2e} "
            f"orders={orders[0]:.2f},{orders[1]:.2f}", elapsed, 1.0)
    assert ok


def test_criterion_2_lifespan_ratios(capsys):
    t0 = time.perf_counter()
    b = cd.time_bounds(1.0)
    d_star = abs(b.ratio_star - 2.9115257845)
    d_tilde = abs(b.ratio_tilde - 2.3946339747)
    dk = abs(_elliptic_k_quadrature(-1.0) - cd.elliptic_K(-1.0))
    elapsed = time.perf_counter() - t0

    ok = d_star <= 1e-8 and d_tilde <= 1e-8 and dk <= 1e-10 and elapsed < 0.1
    _report(capsys, 2, "lifespan ratios", ok,
            f"T*/T8={b.ratio_star:.10f} Tt/T8={b.ratio_tilde:.10f} "
            f"|dK|={dk:.1e}", elapsed, 0.1)
    assert ok


def test_criterion_3_self_similar_shrinking(capsys):
    t0 = time.perf_counter()
    crv = cd.sample_analytic(cd.Lemniscate(), 512)
    traj = cd.evolve(crv, cd.FlowSpec(t_end=1.0 / 48.0))
    ratio = cd.length(traj.snapshots[-1]) / cd.length(traj.snapshots[0])
    ratio_err = abs(ratio - 0.5**0.25) / 0.5**0.25
    k_fit = cd.fit_scale_profile(traj).K
    drift = cd.hausdorff_distance(
        cd.normalize_shape(traj.snapshots[0]),
        cd.normalize_shape(traj.snapshots[-1]),
    )
    elapsed = time.perf_counter() - t0

    ok = (
        ratio_err < 0.01
        and abs(k_fit + 6.0) < 0.1
        and drift < 0.01
        and elapsed < 60.0
    )
    _report(capsys, 3, "self-similar shrinking", ok,
            f"L ratio err={ratio_err:.2e} K={k_fit:.4f} "
            f"shape drift={drift:.2e}", elapsed, 60.0)
    assert ok


def test_criterion_4_conservation_laws(capsys):
    t0 = time.perf_counter()
    crv = ellipse_curve(256)
    h = cd.length(crv) / 256
    traj = cd.evolve(crv, cd.FlowSpec(dt=h * h / 8, t_end=0.01, snapshot_every=5))
    m = traj.monitors
    area_drift = float(np.max(np.abs(m.A - m.A[0])) / abs(m.A[0]))
    length_ok = bool(np.all(np.diff(m.L) <= 1e-10))
    ratio_ok = bool(np.all(np.diff(np.abs(m.I)) < 0))
    decay = cd.isoperimetric_decay_check(m)
    elapsed = time.perf_counter() - t0

    ok = (
        area_drift < 1e-3
        and length_ok
        and ratio_ok
        and decay < 0.02
        and elapsed < 30.0
    )
    _report(capsys, 4, "conservation laws", ok,
            f"area drift={area_drift:.2e} L nonincreasing={length_ok} "
            f"|I| decreasing={ratio_ok} decay dev={decay:.2e}", elapsed, 30.0)
    assert ok


def _dissipation_mismatch(n: int, dt_factor: float) -> float:
    crv = cd.resample_uniform(cd.sample_analytic(cd.Lemniscate(), n), n)
    h = cd.length(crv) / n
    traj = cd.evolve(crv, cd.FlowSpec(
        dt=dt_factor * h * h, t_end=1.0 / 480.0,
        redistribute_every=0, snapshot_every=1,
    ))
    m = traj.monitors
    rate = np.diff(m.L) / np.diff(m.t)
    diss_mid = 0.5 * (m.diss[1:] + m.diss[:-1])
    return float(np.max(np.abs(rate + diss_mid) / diss_mid))


def test_criterion_5_dissipation_identity(capsys):
    t0 = time.perf_counter()
    coarse = _dissipation_mismatch(256, 0.25)
    fine_h = _dissipation_mismatch(512, 0.25)
    fine_dt = _dissipation_mismatch(512, 0.125)
    elapsed = time.perf_counter() - t0

    ok = (
        fine_h <= 0.05
        and coarse > fine_h > fine_dt
        and elapsed < 60.0
    )
    _report(capsys, 5, "dissipation identity", ok,
            f"mismatch N=256:{coarse:.2e} N=512:{fine_h:.2e} "
            f"N=512,dt/2:{fine_dt:.2e}", elapsed, 60.0)
    assert ok


def test_criterion_6_stationary_classification(capsys):
    t0 = time.perf_counter()
    circle = cd.sample_analytic(cd.Circle(1.0), 256)
    verdict = cd.classify(circle).verdict

    clothoid = cd.sample_analytic(
        cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-2.0, s_max=2.0), 512
    )
    fit = cd.fit_stationary(clothoid)
    s = np.linspace(-2.0, 2.0, 512)
    window = np.where((s >= 0.5) & (s <= 2.0))[0][::4]
    nested = cd.osculating_discs_nested(clothoid, window)
    elapsed = time.perf_counter() - t0

    ok = (
        verdict == "stationary"
        and abs(fit.k1) < 1e-2
        and abs(fit.k2 - np.pi) < 1e-2
        and nested is True
        and elapsed < 1.0
    )
    _report(capsys, 6, "stationary classification", ok,
            f"circle verdict={verdict} k1={fit.k1:.4f} k2={fit.k2:.4f} "
            f"nested={nested}", elapsed, 1.0)
    assert ok


def test_criterion_7_translator_rotator_rigidity(capsys):
    t0 = time.perf_counter()
    fixtures = {
        "circle": cd.sample_analytic(cd.Circle(1.0), 256),
        "ellipse": ellipse_curve(256),
        "lemniscate": cd.sample_analytic(cd.Lemniscate(), 512),
    }

    checks = []
    constants = []
    for name, crv in fixtures.items():
        f = cd.curve_fields(crv)
        h = cd.length(crv) / crv.n
        a, b = cd.curvature_energy_identity(crv)
        energy_rel = abs(a + b) / max(a, 1e-30)
        c, d = cd.frame_position_identity(crv)
        flux = max(
            abs(cd.normal_flux_identity(crv, (1.0, 0.0))),
            abs(cd.normal_flux_identity(crv, (0.0, 1.0))),
        )
        checks.append(energy_rel <= 2.0 * h * h)
        checks.append(abs(c + d) <= 1e-10)
        checks.append(flux <= 1e-10)
        constants.append(f"{name}:{energy_rel / (h * h):.2f}")

        fit = cd.fit_translator(crv)
        if fit.residual < 1e-3:
            kss_norm = float(np.sqrt(np.sum(f.kappa_ss**2 * f.dl)))
            speed_ratio = float(np.hypot(*fit.V)) / (kss_norm * cd.length(crv))
            checks.append(speed_ratio < 1e-3)

    rot = cd.fit_rotator(fixtures["circle"])
    checks.append(rot.S is None and rot.residual < 1e-6)
    elapsed = time.perf_counter() - t0

    ok = all(checks) and elapsed < 1.0
    _report(capsys, 7, "translator/rotator rigidity", ok,
            "energy defect/h^2 " + " ".join(constants) +
            f" rotator S={'Indeterminate' if rot.S is None else rot.S}",
            elapsed, 1.0)
    assert ok


def test_criterion_8_equivariance_suite(capsys):
    t0 = time.perf_counter()
    base = cd.sample_analytic(cd.Lemniscate(), 512)
    base_report = cd.classify(base)
    k0 = base_report.shrinker.K

    rng = np.random.default_rng(11)
    worst = 0.0
    verdicts_ok = True
    for _ in range(100):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        shift = rng.normal(size=2) * 3.0
        rho = float(np.exp(rng.uniform(-1.0, 1.0)))
        report = cd.classify(moved(base, angle, shift, rho))
        verdicts_ok &= report.verdict == "shrinker"
        worst = max(worst, abs(report.shrinker.K * rho**4 - k0) / abs(k0))

    rev = cd.classify(base.reversed())
    rev_ok = (
        rev.verdict == base_report.verdict
        and abs(rev.shrinker.K - k0) <= 1e-10 * abs(k0)
        and all(
            abs(getattr(rev, nm).residual - getattr(base_report, nm).residual)
            <= 1e-10
            for nm in ("stationary", "shrinker", "translator", "rotator")
        )
    )
    elapsed = time.perf_counter() - t0

    ok = verdicts_ok and worst <= 1e-8 and rev_ok and elapsed < 10.0
    _report(capsys, 8, "equivariance suite", ok,
            f"100 motions verdicts={'all shrinker' if verdicts_ok else 'FAIL'} "
            f"worst K rel err={worst:.1e} reversal ok={rev_ok}", elapsed, 10.0)
    assert ok
