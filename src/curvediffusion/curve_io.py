"""File formats: curve CSV, monitor CSV, SVG snapshots, run directories.

All writers are deterministic: identical inputs produce byte-identical
output. Floats are emitted with 17 significant digits (%.17g, round-trip
exact for IEEE doubles): each format is one row template filled from a
whole table at once. A curve's nodes are formatted once, as the rows of
its CSV; the SVG path data is that row text verbatim, drawn under a y
flip, and a run directory shares it between a snapshot's two files.
Every file is written through one UTF-8 writer whose newlines are always
'\\n'.

Curve CSV contract: UTF-8, optional '#' comment lines, a mandatory
leading comment `# closed=true` or `# closed=false`, a header line `x,y`,
then one node per line; a file may start with a UTF-8 byte-order mark.
A text in the writer's own layout (the `# closed=` line and the `x,y`
header, then ASCII rows with no '#' and no line break but '\\n', whose
commas and newlines alternate, the last row ending in '\\n') is read in one
bulk pass: one numpy pass over its bytes checks the separators and one
map(float) pass converts every coordinate. Any other text (comments or
blank lines after the header, '\\r\\n' or another line break, non-ASCII
digits, a malformed row) falls through to a row-by-row walk over the
stripped lines: same files, same nodes, and it names the first bad line.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .geometry import DiscreteCurve
from .monitor import MonitorSeries


def _node_rows(curve: DiscreteCurve) -> str:
    """One 'x,y' line per node, the body of the curve CSV, in one % call."""
    return ("%.17g,%.17g\n" * curve.n) % tuple(curve.nodes.ravel().tolist())


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _csv_text(curve: DiscreteCurve, rows: str) -> str:
    flag = "true" if curve.closed else "false"
    return f"# closed={flag}\nx,y\n" + rows


def curve_to_csv(curve: DiscreteCurve) -> str:
    return _csv_text(curve, _node_rows(curve))


def write_curve_csv(curve: DiscreteCurve, path) -> None:
    _write_text(path, curve_to_csv(curve))


_WRITER_FLAGS = {"# closed=true": True, "# closed=false": False}
# The comment mark and every line break of str.splitlines that is ASCII but '\n'.
_NOT_IN_WRITER_ROWS = ("#", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


def curve_from_csv(text: str) -> DiscreteCurve:
    """Parse the curve CSV contract; raises ValueError on malformed input.

    A text in the writer's layout is read by _writer_nodes in one pass, any
    other text by _walk_lines.
    """
    flag, _, tail = text.partition("\nx,y\n")
    if flag in _WRITER_FLAGS and (nodes := _writer_nodes(tail)) is not None:
        return DiscreteCurve(nodes, _WRITER_FLAGS[flag])
    return _walk_lines(text)


def _walk_lines(text: str) -> DiscreteCurve:
    """Sort each stripped line into blank, comment, header or data row, and
    convert a data row with float as it is read; an error names its line."""
    closed: bool | None = None
    saw_header = False
    rows: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            body = line[1:].strip()
            if body.lower().startswith("closed="):
                value = body.split("=", 1)[1].strip().lower()
                if value not in ("true", "false"):
                    raise ValueError(
                        f"line {lineno}: closed flag must be true or false, got {value!r}")
                closed = value == "true"
        elif not saw_header:
            if line.lower() != "x,y":
                raise ValueError(f"line {lineno}: expected header 'x,y', got {line!r}")
            saw_header = True
        else:
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected two comma-separated values")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric coordinate") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"line {lineno}: non-finite coordinate")
            rows.append((x, y))
    if closed is None:
        raise ValueError("missing mandatory '# closed=true|false' comment")
    if not saw_header:
        raise ValueError("missing 'x,y' header line")
    if len(rows) < 2:
        raise ValueError(f"need at least 2 nodes, got {len(rows)}")
    return DiscreteCurve(np.array(rows), closed)


def _writer_nodes(body: str) -> np.ndarray | None:
    """The nodes of a body of at least two rows in the writer's layout, or
    None for any other body or a cell that is not a finite float. On such a
    body the line walk would strip no row into a blank or a comment and read
    each row's two cells alike."""
    if not (body.endswith("\n") and body.isascii()) or any(
            map(body.__contains__, _NOT_IN_WRITER_ROWS)):
        return None
    raw = np.frombuffer(body.encode(), np.uint8)
    commas, breaks = np.flatnonzero(raw == 44), np.flatnonzero(raw == 10)
    # Row i is the only one holding comma i when each lies between breaks i-1 and i.
    if not (2 <= commas.size == breaks.size and (commas < breaks).all()
            and (breaks[:-1] < commas[1:]).all()):
        return None
    cells = body[:-1].replace("\n", ",").split(",")
    try:
        nodes = np.fromiter(map(float, cells), float, len(cells)).reshape(-1, 2)
    except ValueError:
        return None
    return nodes if np.isfinite(nodes).all() else None


def read_curve_csv(path) -> DiscreteCurve:
    return curve_from_csv(Path(path).read_text(encoding="utf-8-sig"))


def monitors_to_csv(series: MonitorSeries) -> str:
    """monitors.csv contract: columns t,L,A,I,Q,diss; A and I blank when NaN."""
    table = np.column_stack([series.t, series.L, series.A, series.I, series.Q, series.diss])
    # A NaN A or I cell drops its %.17g from that row's template.
    shown = np.ones(table.shape, dtype=bool)
    shown[:, 2:4] = ~np.isnan(table[:, 2:4])
    template = "".join(",".join(row) + "\n"
                       for row in np.where(shown, "%.17g", "").tolist())
    return "t,L,A,I,Q,diss\n" + template % tuple(table[shown].tolist())


def write_monitors_csv(series: MonitorSeries, path) -> None:
    _write_text(path, monitors_to_csv(series))


def _svg_text(curve: DiscreteCurve, rows: str) -> str:
    """The SVG document of a curve whose _node_rows are `rows`: a single
    stroke-only path with the viewBox fitted to the curve's bounding box
    plus a 5% margin. The path data is the row text, drawn under
    scale(1 -1) so the plane's orientation matches the usual mathematical
    convention."""
    lo = curve.nodes.min(axis=0)
    hi = curve.nodes.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    pad = 0.05 * span if span > 0.0 else 1.0
    x0, y0 = lo[0] - pad, -hi[1] - pad
    w, h = hi[0] - lo[0] + 2.0 * pad, hi[1] - lo[1] + 2.0 * pad
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.17g %.17g %.17g %.17g">\n'
        '  <path transform="scale(1 -1)" d="M %s%s" fill="none" stroke="black" '
        'stroke-width="%.17g"/>\n'
        "</svg>\n"
    ) % (x0, y0, w, h, rows, "Z" if curve.closed else "", 0.004 * max(w, h))


def write_json(obj, path) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def write_run_directory(out_dir, config: dict, traj, scale_fit=None,
                        emit_svg: bool = False) -> None:
    """Persist a trajectory: config.json, snapshots/t_<index>.csv (and .svg
    when requested), monitors.csv, result.json. Snapshot files of an earlier
    run into the same directory are deleted first."""
    out = Path(out_dir)
    snap_dir = out / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    for stale in snap_dir.glob("t_*"):
        if re.fullmatch(r"t_[0-9]+\.(csv|svg)", stale.name):
            stale.unlink()

    write_json(config, out / "config.json")
    for i, curve in enumerate(traj.snapshots):
        rows = _node_rows(curve)
        _write_text(snap_dir / f"t_{i}.csv", _csv_text(curve, rows))
        if emit_svg:
            _write_text(snap_dir / f"t_{i}.svg", _svg_text(curve, rows))
    write_monitors_csv(traj.monitors, out / "monitors.csv")

    result = {"termination": traj.termination}
    if traj.termination_detail is not None:
        result["termination_detail"] = traj.termination_detail
    result |= {
        "t_final": float(traj.times[-1]),
        "n_steps": int(traj.n_steps),
        "n_snapshots": len(traj.snapshots),
    }
    if scale_fit is not None:
        result["K"] = scale_fit.K
        result["scale_fit"] = asdict(scale_fit)
    write_json(result, out / "result.json")
