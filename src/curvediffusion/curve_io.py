"""File formats: curve CSV, monitor CSV, SVG snapshots, run directories.

All writers are deterministic: identical inputs produce byte-identical
output. Floats are emitted with 17 significant digits (round-trip exact
for IEEE doubles) and newlines are always '\\n'.

Curve CSV contract: UTF-8, optional '#' comment lines, a mandatory
leading comment `# closed=true` or `# closed=false`, a header line `x,y`,
then one node per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .geometry import DiscreteCurve
from .monitor import MonitorSeries


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def curve_to_csv(curve: DiscreteCurve) -> str:
    lines = [f"# closed={'true' if curve.closed else 'false'}", "x,y"]
    lines.extend(f"{_fmt(x)},{_fmt(y)}" for x, y in curve.nodes)
    return "\n".join(lines) + "\n"


def write_curve_csv(curve: DiscreteCurve, path) -> None:
    Path(path).write_text(curve_to_csv(curve), encoding="utf-8", newline="\n")


def curve_from_csv(text: str) -> DiscreteCurve:
    """Parse the curve CSV contract; raises ValueError on malformed input."""
    closed: bool | None = None
    rows: list[tuple[float, float]] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("closed="):
                value = body.split("=", 1)[1].strip().lower()
                if value not in ("true", "false"):
                    raise ValueError(
                        f"line {lineno}: closed flag must be true or false, got {value!r}"
                    )
                closed = value == "true"
            continue
        if not saw_header:
            if line.lower() != "x,y":
                raise ValueError(f"line {lineno}: expected header 'x,y', got {line!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two comma-separated values")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric coordinate") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"line {lineno}: non-finite coordinate")
        rows.append((x, y))
    if closed is None:
        raise ValueError("missing mandatory '# closed=true|false' comment")
    if not saw_header:
        raise ValueError("missing 'x,y' header line")
    if len(rows) < 2:
        raise ValueError(f"need at least 2 nodes, got {len(rows)}")
    return DiscreteCurve(np.array(rows, dtype=float), closed)


def read_curve_csv(path) -> DiscreteCurve:
    return curve_from_csv(Path(path).read_text(encoding="utf-8"))


def monitors_to_csv(series: MonitorSeries) -> str:
    """monitors.csv contract: columns t,L,A,I,Q,diss; I blank when undefined."""
    lines = ["t,L,A,I,Q,diss"]
    for i in range(series.t.size):
        ratio = "" if np.isnan(series.I[i]) else _fmt(series.I[i])
        area = "" if np.isnan(series.A[i]) else _fmt(series.A[i])
        lines.append(
            f"{_fmt(series.t[i])},{_fmt(series.L[i])},{area},{ratio},"
            f"{_fmt(series.Q[i])},{_fmt(series.diss[i])}"
        )
    return "\n".join(lines) + "\n"


def write_monitors_csv(series: MonitorSeries, path) -> None:
    Path(path).write_text(monitors_to_csv(series), encoding="utf-8", newline="\n")


def curve_to_svg(curve: DiscreteCurve) -> str:
    """Single-path, stroke-only SVG with the viewBox fitted to the curve's
    bounding box plus a 5% margin. The y axis is flipped so the plane's
    orientation matches the usual mathematical convention."""
    pts = np.column_stack([curve.nodes[:, 0], -curve.nodes[:, 1]])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    pad = 0.05 * span if span > 0.0 else 1.0
    x0, y0 = lo[0] - pad, lo[1] - pad
    w, h = hi[0] - lo[0] + 2.0 * pad, hi[1] - lo[1] + 2.0 * pad

    moves = [f"M {_fmt(pts[0, 0])} {_fmt(pts[0, 1])}"]
    moves.extend(f"L {_fmt(x)} {_fmt(y)}" for x, y in pts[1:])
    if curve.closed:
        moves.append("Z")
    path_data = " ".join(moves)
    stroke = _fmt(0.004 * max(w, h))
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">\n'
        f'  <path d="{path_data}" fill="none" stroke="black" '
        f'stroke-width="{stroke}"/>\n'
        "</svg>\n"
    )


def write_json(obj, path) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2) + "\n", encoding="utf-8", newline="\n"
    )


def write_run_directory(out_dir, config: dict, traj, scale_fit=None,
                        emit_svg: bool = False) -> None:
    """Persist a trajectory: config.json, snapshots/t_<index>.csv (and .svg
    when requested), monitors.csv, result.json."""
    out = Path(out_dir)
    snap_dir = out / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)

    write_json(config, out / "config.json")
    for i, curve in enumerate(traj.snapshots):
        write_curve_csv(curve, snap_dir / f"t_{i}.csv")
        if emit_svg:
            (snap_dir / f"t_{i}.svg").write_text(
                curve_to_svg(curve), encoding="utf-8", newline="\n"
            )
    write_monitors_csv(traj.monitors, out / "monitors.csv")

    result = {
        "termination": traj.termination,
        "t_final": float(traj.times[-1]),
        "n_steps": int(traj.n_steps),
        "n_snapshots": len(traj.snapshots),
    }
    if scale_fit is not None:
        result["K"] = scale_fit.K
        result["scale_fit"] = asdict(scale_fit)
    write_json(result, out / "result.json")
