"""Shared fixtures and curve builders for the test suite."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import curvediffusion as cd
from curvediffusion import monitor

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def ellipse_curve(n: int = 256, a: float = 1.0, b: float = 0.5) -> cd.DiscreteCurve:
    u = 2.0 * np.pi * np.arange(n) / n
    nodes = np.column_stack([a * np.cos(u), b * np.sin(u)])
    return cd.DiscreteCurve(nodes, closed=True)


def random_smooth_curve(rng: np.random.Generator, n: int = 256) -> cd.DiscreteCurve:
    """Closed star-shaped curve with a seeded Fourier-perturbed radius."""
    u = 2.0 * np.pi * np.arange(n) / n
    r = np.ones(n)
    for k in range(2, 7):
        a, b = rng.normal(size=2)
        r += 0.03 * (a * np.cos(k * u) + b * np.sin(k * u))
    return cd.DiscreteCurve(np.column_stack([r * np.cos(u), r * np.sin(u)]), closed=True)


def forward_euler(curve: cd.DiscreteCurve, dt: float) -> cd.DiscreteCurve:
    """One forward-Euler step of the curve diffusion flow, nodes + dt v nu, for
    tests that use it as an oracle; stable only for dt <= 0.125 h^4."""
    f = cd.curve_fields(curve)
    v = cd.normal_velocity(f, cd.CURVE_DIFFUSION)
    return cd.DiscreteCurve(curve.nodes + dt * v[:, None] * f.normal, curve.closed)


def monitor_series(times, curves) -> cd.MonitorSeries:
    """The monitor series of curves at times, each row from its own field
    record, as evolve builds it for its snapshots."""
    return monitor._series(times, [monitor._row(c, cd.curve_fields(c)) for c in curves])


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def moved(curve: cd.DiscreteCurve, angle: float = 0.0, shift=(0.0, 0.0),
          scale: float = 1.0) -> cd.DiscreteCurve:
    nodes = scale * (curve.nodes @ rotation(angle).T) + np.asarray(shift, dtype=float)
    return cd.DiscreteCurve(nodes, closed=curve.closed)


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def circle_512() -> cd.DiscreteCurve:
    return cd.sample_analytic(cd.Circle(1.0), 512)


@pytest.fixture(scope="session")
def lemniscate_512() -> cd.DiscreteCurve:
    return cd.sample_analytic(cd.Lemniscate(), 512)


@pytest.fixture(scope="session")
def clothoid_512() -> cd.DiscreteCurve:
    spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-2.0, s_max=2.0)
    return cd.sample_analytic(spec, 512)


@pytest.fixture(scope="session")
def perturbed_ellipse() -> cd.DiscreteCurve:
    return cd.read_curve_csv(FIXTURE_DIR / "perturbed_ellipse_256.csv")


def _node_1_onto(curve: cd.DiscreteCurve, onto: int) -> cd.DiscreteCurve:
    nodes = curve.nodes.copy()
    nodes[1] = nodes[onto]
    return cd.DiscreteCurve(nodes, curve.closed)


def repeat_node_on_step(monkeypatch, flow_module, step_number: int, onto: int = 0) -> None:
    """Make call `step_number` of flow._advance return its curve with node 1
    moved onto node `onto`: onto=0 repeats a node (a degenerate segment),
    onto=-1 makes node 0's neighbours coincide (a fold-back). A run with a
    fixed dt makes one call per step."""
    real = flow_module._advance
    calls = []

    def faulty(curve, *args):
        new = real(curve, *args)
        calls.append(None)
        return new if len(calls) != step_number else _node_1_onto(new, onto)

    monkeypatch.setattr(flow_module, "_advance", faulty)


def repeat_node_on_record(monkeypatch, flow_module, record_number: int, onto: int = 0) -> None:
    """Make field record `record_number` that evolve takes see its curve with
    node 1 moved onto node `onto`, as repeat_node_on_step does. Records are
    numbered in the order they are taken: one per kept state through
    flow.curve_fields (the first for the initial one), and one per row of
    each stacked flow._fields call of a controlled attempt, in stage and then
    row order: the first substeps of rows 2, 3 and 4 (a half, a third and a
    quarter), then the second substeps of rows 3 and 4, then row 4's third."""
    real_curve, real_stack = flow_module.curve_fields, flow_module._fields
    taken = [0]

    def faulty_curve(curve):
        taken[0] += 1
        return real_curve(curve if taken[0] != record_number else _node_1_onto(curve, onto))

    def faulty_stack(nodes, closed):
        row = record_number - taken[0] - 1
        taken[0] += len(nodes)
        if 0 <= row < len(nodes):
            nodes = nodes.copy()
            nodes[row] = _node_1_onto(cd.DiscreteCurve(nodes[row], closed), onto).nodes
        return real_stack(nodes, closed)

    monkeypatch.setattr(flow_module, "curve_fields", faulty_curve)
    monkeypatch.setattr(flow_module, "_fields", faulty_stack)
