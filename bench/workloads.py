"""The benchmark's three workloads: seeded inputs, one timed pass, and the
checks that decide whether a pass was correct.

Every input is derived from the seed by rigid motions (rotation and
translation), a cyclic shift of node 0 on closed curves, and noise on the
perturbed ellipse. Nothing is ever scaled: a dilation by rho changes the
automatic step by rho^2 and with it the step and snapshot counts the checks
compare across seeds.

The package under test is driven only through `curvediffusion.cli.main`,
the same entry point as the `curvediffusion` console script; it sees the
generated CSV and JSON files and nothing else.

Every `check` is preceded by one run of the fixed reference computation of
reference.py, and the last check of a pass is followed by one more, so
that each check latency has a reference time taken just before and just
after it, under the same load from the host's other tenants.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("lemniscate_evolve", "clothoid_frames", "classify_batch")

# Snapshots of the evolve workloads are classified with this tolerance: the
# last lemniscate snapshot has a shrinker residual of 0.0108, just above the
# package default of 0.01, and should still count as a shrinker.
SNAPSHOT_CHECK_TOL = 0.05
# Acceptance criterion 3 of the test suite, applied to every lemniscate pass.
LEMNISCATE_TOLERANCES = {"length_err": 0.01, "K_err": 0.1, "shape_drift": 0.01}
CLASSIFY_SIZES = (256, 512, 1024, 4096)
FIXTURES = {
    "circle_256.csv": "stationary",
    "clothoid_256.csv": "stationary",
    "lemniscate_256.csv": "shrinker",
    "perturbed_ellipse_256.csv": "none",
}
# Exact values the accuracy metrics compare against: the lemniscate of
# Bernoulli is a shrinker with K = -6 and length law L^4 = L0^4 (1 - 24 t);
# the unit circle has curvature 1; the clothoid is stationary (K = 0,
# constant length).
LEMNISCATE_K = -6.0


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_curve(path: Path, nodes: np.ndarray, closed: bool) -> None:
    """Curve CSV in the package's file format, written by the benchmark so
    that the inputs do not depend on the writer under test."""
    lines = [f"# closed={'true' if closed else 'false'}", "x,y"]
    lines.extend(f"{_fmt(x)},{_fmt(y)}" for x, y in nodes)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_curve(path: Path) -> np.ndarray:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#") and line != "x,y"]
    return np.array(rows, dtype=float)


def rigid_motion(nodes: np.ndarray, closed: bool, rng: np.random.Generator) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(angle), np.sin(angle)
    moved = nodes @ np.array([[c, -s], [s, c]]).T + rng.uniform(-2.0, 2.0, size=2)
    if closed:
        moved = np.roll(moved, -int(rng.integers(len(nodes))), axis=0)
    return moved


def perturbed_ellipse(n: int, rng: np.random.Generator) -> np.ndarray:
    """(1, 0.5) ellipse with smooth Fourier noise of amplitude 0.1 (modes
    2..5), the recipe of the committed perturbed-ellipse fixture."""
    u = 2.0 * np.pi * np.arange(n) / n
    pert = np.zeros((n, 2))
    for mode in range(2, 6):
        for col in range(2):
            a, b = rng.normal(size=2)
            pert[:, col] += a * np.cos(mode * u) + b * np.sin(mode * u)
    pert *= 0.1 / np.max(np.abs(pert))
    return np.column_stack([np.cos(u), 0.5 * np.sin(u)]) + pert


def run_cli(cli, argv: list[str]) -> tuple[int, str, float, float]:
    """One in-process `curvediffusion` invocation with stdout captured;
    returns (exit code, stdout, wall seconds, process CPU seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return code, out.getvalue(), elapsed, cpu


def run_check(cli, res: PassResult, argv: list[str]) -> tuple[int, str, float, float]:
    """run_cli for one `check`, right after a reference run; records both
    latencies in `res`."""
    res.ref_ms.append(1e3 * reference.reference_seconds())
    outcome = run_cli(cli, argv)
    res.check_ms.append(1e3 * outcome[2])
    return outcome


def _polyline_distance(points: np.ndarray, nodes: np.ndarray, closed: bool) -> float:
    """Largest distance from `points` to the polyline through `nodes`."""
    a = nodes if closed else nodes[:-1]
    d = (np.roll(nodes, -1, axis=0) if closed else nodes[1:]) - a
    dd = np.einsum("jk,jk->j", d, d)
    worst = 0.0
    for chunk in np.array_split(points, max(1, len(points) // 64)):
        w = chunk[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("ijk,jk->ij", w, d) / dd, 0.0, 1.0)
        r = w - t[:, :, None] * d[None, :, :]
        worst = max(worst, float(np.einsum("ijk,ijk->ij", r, r).min(axis=1).max()))
    return math.sqrt(worst)


def hausdorff(a: np.ndarray, b: np.ndarray, closed: bool) -> float:
    """Hausdorff distance between two polylines, measured from each one's
    nodes to the other's segments, so that nodes sliding along an unchanged
    curve do not count as a change of shape."""
    return max(_polyline_distance(a, b, closed), _polyline_distance(b, a, closed))


def polyline_length(nodes: np.ndarray, closed: bool) -> float:
    diff = (np.roll(nodes, -1, axis=0) - nodes) if closed else np.diff(nodes, axis=0)
    return float(np.hypot(diff[:, 0], diff[:, 1]).sum())


def normalized(nodes: np.ndarray) -> np.ndarray:
    """Closed curve moved to its arc-length centroid and scaled to unit length."""
    seg = np.hypot(*(np.roll(nodes, -1, axis=0) - nodes).T)
    weight = 0.5 * (seg + np.roll(seg, 1))
    centroid = (nodes * weight[:, None]).sum(axis=0) / seg.sum()
    return (nodes - centroid) / seg.sum()


class PassResult:
    """What one pass measured and whether it was correct.

    check_ms is the latency of each `check`, and ref_ms the time of the
    reference run before each check and after the last one. ops and
    failures are the operations the pass attempted and the ones whose
    output was wrong; accuracy holds the end-to-end accuracy metrics;
    counts holds program-reported counts (steps, snapshots, bytes).
    """

    def __init__(self, wall_s: float, cpu_s: float) -> None:
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.check_ms: list[float] = []
        self.ref_ms: list[float] = []
        self.ops = 0
        self.failures: list[str] = []
        self.accuracy: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.verdicts: list[str] = []

    def to_dict(self) -> dict:
        return dict(vars(self))


class EvolveWorkload:
    """`curvediffusion evolve` on one exact curve, then every written
    snapshot is classified with `curvediffusion check`."""

    def __init__(self, name: str, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        if name == "lemniscate_evolve":
            self.nodes, self.closed = 512, True
            self.flow = {"t_end": 1.0 / 48.0, "snapshot_every": 10}
            self.emit_svg = False
            self.verdict = "shrinker"
        else:
            self.nodes, self.closed = 1024, False
            self.flow = {"t_end": 4e-4, "snapshot_every": 2}
            self.emit_svg = True
            self.verdict = "stationary"
        self.flow.update({"kind": "curve_diffusion", "scheme": "semi_implicit",
                          "dt": "auto", "redistribute_every": 10})
        self.out_dir = work / "run"
        self.config_path = work / "config.json"
        self.input_path = work / "input.csv"

    def setup(self, cd) -> None:
        if self.closed:
            spec = cd.Lemniscate()
        else:
            spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2.0, s_min=-1.0, s_max=1.0)
        base = cd.sample_analytic(spec, self.nodes).nodes
        nodes = rigid_motion(base, self.closed, np.random.default_rng(self.seed))
        write_curve(self.input_path, nodes, self.closed)
        config = {
            "input": {"path": str(self.input_path)},
            "flow": self.flow,
            "out_dir": str(self.out_dir),
            "fit_scale": True,
            "emit_svg": self.emit_svg,
        }
        self.config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    def run_pass(self, cd, tracer=None) -> PassResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with _recording(tracer):
            code, _, wall, cpu = run_cli(cd.cli, ["evolve", str(self.config_path)])
        res = PassResult(wall, cpu)
        res.ops = 1
        res.counts["bytes_read"] = (self.input_path.stat().st_size
                                    + self.config_path.stat().st_size)
        if code != 0:
            res.failures.append(f"evolve exit code {code}")
            return res
        try:
            self._check(cd, res)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res.failures.append(f"unreadable output: {exc!r}")
        return res

    def _check(self, cd, res: PassResult) -> None:
        fail = res.failures.append
        result = json.loads((self.out_dir / "result.json").read_text(encoding="utf-8"))
        steps, snaps = int(result["n_steps"]), int(result["n_snapshots"])
        res.counts.update(steps=steps, snapshots=snaps, bytes_written=sum(
            p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file()))
        if result["termination"] != "time_reached":
            fail(f"termination {result['termination']}")
        every = self.flow["snapshot_every"]
        if snaps != 1 + math.ceil(steps / every):
            fail(f"{snaps} snapshots for {steps} steps at snapshot_every={every}")
        snap_dir = self.out_dir / "snapshots"
        csvs = [snap_dir / f"t_{i}.csv" for i in range(snaps)]
        if not all(p.is_file() for p in csvs):
            fail("missing snapshot CSV")
            return
        n_svg = len(list(snap_dir.glob("*.svg")))
        if n_svg != (snaps if self.emit_svg else 0):
            fail(f"{n_svg} SVG files for {snaps} snapshots")
        rows = (self.out_dir / "monitors.csv").read_text(encoding="utf-8").splitlines()
        if len(rows) != snaps + 1:
            fail(f"monitors.csv has {len(rows) - 1} rows for {snaps} snapshots")

        first, last = read_curve(csvs[0]), read_curve(csvs[-1])
        t_end = self.flow["t_end"]
        length0, length1 = (polyline_length(first, self.closed),
                            polyline_length(last, self.closed))
        if self.closed:
            exact_length = length0 * (1.0 - 24.0 * t_end) ** 0.25
            exact_k = LEMNISCATE_K
            drift = hausdorff(normalized(first), normalized(last), True)
        else:
            exact_length = length0
            exact_k = 0.0
            drift = hausdorff(first, last, False) / length0
        res.accuracy = {
            "length_err": abs(length1 / exact_length - 1.0),
            "K_err": abs(float(result["K"]) - exact_k),
            "shape_drift": drift,
        }
        if self.closed:
            for key, tol in LEMNISCATE_TOLERANCES.items():
                if not res.accuracy[key] < tol:
                    fail(f"{key}={res.accuracy[key]:.3g} is not below {tol}")
        else:
            text = csvs[-1].read_text(encoding="utf-8")
            if cd.curve_to_csv(cd.curve_from_csv(text)) != text:
                fail("last snapshot CSV does not round-trip exactly")

        for path in csvs:
            code, out, _, _ = run_check(
                cd.cli, res, ["check", str(path), "--tol", str(SNAPSHOT_CHECK_TOL)])
            verdict = json.loads(out)["verdict"] if code in (0, 1) else f"exit {code}"
            res.verdicts.append(verdict)
            if verdict != self.verdict:
                fail(f"{path.name}: verdict {verdict}, expected {self.verdict}")
        res.ref_ms.append(1e3 * reference.reference_seconds())


class ClassifyWorkload:
    """`curvediffusion check` over the four committed fixtures and, for each
    size in CLASSIFY_SIZES, a moved lemniscate, circle and clothoid and a
    perturbed ellipse."""

    def __init__(self, work: Path, seed: int, fixture_dir: Path) -> None:
        self.work = work
        self.seed = seed
        self.inputs = [(fixture_dir / f, v) for f, v in FIXTURES.items()]

    def setup(self, cd) -> None:
        rng = np.random.default_rng(self.seed)
        clothoid = cd.FresnelFamily(c1=0.0, c2=np.pi / 2.0, s_min=-1.0, s_max=1.0)
        for n in CLASSIFY_SIZES:
            for kind, spec, verdict in (("lemniscate", cd.Lemniscate(), "shrinker"),
                                        ("circle", cd.Circle(radius=1.0), "stationary"),
                                        ("clothoid", clothoid, "stationary")):
                closed = kind != "clothoid"
                nodes = rigid_motion(cd.sample_analytic(spec, n).nodes, closed, rng)
                path = self.work / f"{kind}_{n}.csv"
                write_curve(path, nodes, closed)
                self.inputs.append((path, verdict))
            path = self.work / f"perturbed_ellipse_{n}.csv"
            write_curve(path, rigid_motion(perturbed_ellipse(n, rng), True, rng), True)
            self.inputs.append((path, "none"))
        self.bytes_read = sum(p.stat().st_size for p, _ in self.inputs)

    def run_pass(self, cd, tracer=None) -> PassResult:
        """One `check` per input; the pass's wall and CPU time are the sums
        over its checks, without the reference runs between them."""
        res = PassResult(0.0, 0.0)
        with _recording(tracer):
            outcomes = [run_check(cd.cli, res, ["check", str(path)])
                        for path, _ in self.inputs]
            res.ref_ms.append(1e3 * reference.reference_seconds())
        res.wall_s = sum(o[2] for o in outcomes)
        res.cpu_s = sum(o[3] for o in outcomes)
        res.ops = len(self.inputs)
        res.counts.update(steps=0, snapshots=0, bytes_written=0, bytes_read=self.bytes_read)
        k_err = length_err = residual = 0.0
        for (path, expected), (code, out, _, _) in zip(self.inputs, outcomes):
            if code != (1 if expected == "none" else 0):
                res.failures.append(f"{path.name}: exit code {code}")
                res.verdicts.append(f"exit {code}")
                continue
            try:
                report = json.loads(out)
                res.verdicts.append(report["verdict"])
            except (ValueError, KeyError) as exc:
                res.failures.append(f"{path.name}: unreadable report: {exc!r}")
                continue
            if report["verdict"] != expected:
                res.failures.append(f"{path.name}: verdict {report['verdict']}, "
                                    f"expected {expected}")
                continue
            if expected != "none":
                residual = max(residual, report[expected]["residual"])
            if path.name.startswith("lemniscate"):
                k_err = max(k_err, abs(report["shrinker"]["K"] - LEMNISCATE_K))
            elif path.name.startswith("circle"):
                length_err = max(length_err, abs(1.0 / report["stationary"]["k1"] - 1.0))
        # On this workload length_err is the error of the radius the
        # stationary fit gives for the unit circles, and shape_drift is the
        # largest normalized residual of the expected soliton fit.
        res.accuracy = {"length_err": length_err, "K_err": k_err, "shape_drift": residual}
        return res


@contextlib.contextmanager
def _recording(tracer):
    if tracer is None:
        yield
        return
    tracer.phase = "pass"
    try:
        yield
    finally:
        tracer.phase = None


def make_workload(name: str, work: Path, seed: int, root: Path):
    work.mkdir(parents=True, exist_ok=True)
    if name == "classify_batch":
        return ClassifyWorkload(work, seed, root / "tests" / "fixtures")
    return EvolveWorkload(name, work, seed)
