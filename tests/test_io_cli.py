"""File formats (curve CSV, monitors CSV, SVG) and the command line."""
from __future__ import annotations

import argparse
import codecs
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvediffusion as cd
from curvediffusion import analytic, cli, curve_io, flow
from conftest import ellipse_curve, monitor_series, moved, repeat_node_on_step


# ---------------------------------------------------------------------------
# Curve CSV


def test_csv_round_trip_closed(lemniscate_512):
    text = curve_io.curve_to_csv(lemniscate_512)
    back = curve_io.curve_from_csv(text)
    assert back.closed is True
    assert np.array_equal(back.nodes, lemniscate_512.nodes)
    assert curve_io.curve_to_csv(back) == text


def test_csv_round_trip_open(clothoid_512, tmp_path):
    path = tmp_path / "clothoid.csv"
    curve_io.write_curve_csv(clothoid_512, path)
    back = curve_io.read_curve_csv(path)
    assert back.closed is False
    assert np.array_equal(back.nodes, clothoid_512.nodes)


@settings(max_examples=100, deadline=None)
@given(
    nodes=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                             st.floats(allow_nan=False, allow_infinity=False)),
                   min_size=2, max_size=30),
    closed=st.booleans(),
)
def test_csv_round_trip_exact(nodes, closed):
    crv = cd.DiscreteCurve(np.array(nodes, dtype=float), closed)
    text = curve_io.curve_to_csv(crv)
    back = curve_io.curve_from_csv(text)
    assert back.closed is closed
    assert back.nodes.tobytes() == crv.nodes.tobytes()  # exact, signed zeros included
    assert curve_io.curve_to_csv(back) == text


def test_csv_layout(circle_512):
    lines = curve_io.curve_to_csv(circle_512).splitlines()
    assert lines[0] == "# closed=true"
    assert lines[1] == "x,y"
    assert len(lines) == 2 + 512


def test_csv_tolerates_comments_and_blanks():
    text = "# a note\n\n# closed=false\nx,y\n0,0\n\n# mid comment\n1,0\n"
    for newline in ("\n", "\r\n"):
        crv = curve_io.curve_from_csv(text.replace("\n", newline))
        assert crv.closed is False
        assert crv.nodes.tolist() == [[0.0, 0.0], [1.0, 0.0]], repr(newline)


@pytest.mark.parametrize(
    "text",
    [
        "x,y\n0,0\n1,0\n",  # missing closed flag
        "# closed=maybe\nx,y\n0,0\n1,0\n",
        "# closed=true\na,b\n0,0\n1,0\n",  # bad header
        "# closed=true\nx,y\n0,0\n1,zz\n",
        "# closed=true\nx,y\n0,0\n1,0,0\n",  # three columns
        "# closed=true\nx,y\n0,0\n",  # single node
        "# closed=true\nx,y\n0,0\nnan,1\n",
        "# closed=true\nx,y\n0,0\n1,inf\n",
        "# closed=true\nx,y\n0,0\n1\n2,3,4\n",  # six cells, but not in pairs
        "# closed=true\nx,y\n",  # header, no rows
        "# closed=true\nx,y\n0,0\n1,2,\n",
        "# closed=true\nx,y\n0,0\n,2\n",
    ],
)
def test_csv_malformed(text):
    with pytest.raises(ValueError):
        curve_io.curve_from_csv(text)


# ---------------------------------------------------------------------------
# Reader reference: the per-line parser the vectorized reader replaced


def _reference_curve_from_csv(text: str) -> cd.DiscreteCurve:
    closed = None
    rows = []
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
    return cd.DiscreteCurve(np.array(rows, dtype=float), closed)


_PAD = st.sampled_from(["", " ", "\t", "   "])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CELL = st.one_of(_FINITE.map(repr), _FINITE.map(lambda v: "%.17g" % v),
                  _FINITE.map(lambda v: "%+.17e" % v), st.integers(-9, 9).map(str))
_VALID_ROW = st.builds(lambda a, x, b, c, y, d: f"{a}{x}{b},{c}{y}{d}",
                       _PAD, _CELL, _PAD, _PAD, _CELL, _PAD)
# Lines that change nothing: blanks and comments that are not closed flags.
_NOISE_LINE = st.sampled_from(["", "   ", "\t", "# a note", "#", "#closed", "# x,y"])
# Lines that each make a document malformed wherever they stand: rows with
# 0 or 2 commas, empty, non-numeric or non-finite cells, a bad closed flag.
_FAULT_LINE = st.sampled_from([
    "1", "1,2,3", ",", "1,,2", "1,2,", ",2", "1;2", "zz,1", "1,0x1", "x,y",
    "nan,1", "1, inf", "-inf,-inf", "1,NaN", "# closed=maybe", "#closed=",
])
_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\u2028"])


@st.composite
def _free_documents(draw):
    """(text, faults): a curve CSV and an upper bound on its number of faults."""
    flag = draw(st.sampled_from(["# closed=true", "# closed=false", " #Closed= TRUE ", None]))
    header = draw(st.sampled_from(["x,y", " X,Y ", None]))
    rows = draw(st.lists(_VALID_ROW, max_size=12))
    late_flag = draw(st.sampled_from([None, None, "# closed=false", "#closed=true"]))
    lines = [line for line in (flag, header, *rows, late_flag) if line is not None]
    faults = ((flag is None and late_flag is None) + (header is None)
              + (len(rows) < 2))
    for line in draw(st.lists(_NOISE_LINE, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    injected = draw(st.lists(_FAULT_LINE, max_size=2))
    for line in injected:
        lines.insert(draw(st.integers(0, len(lines))), line)
    faults += len(injected)
    if draw(st.integers(0, 9)) == 0:  # a wild line: the fault count is unknown
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=8)))
        faults = None
    text = "".join(line + draw(_BREAK) for line in lines)
    return (text if draw(st.booleans()) else text.rstrip()), faults


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                             "\u0665\u0666\u0667\u0668\u0669")
# Each edit but the last two keeps a writer file valid; all but "none" leave
# its layout. "split_row" puts a line break before a row's comma, which
# float() alone would read as whitespace.
_WRITER_EDITS = ("none", "comment", "blank", "crlf", "cr", "arabic", "late_flag",
                 "no_final_newline", "three_cells", "split_row")


@st.composite
def _writer_documents(draw):
    """(text, faults): curve_to_csv of finite nodes with at most one edit."""
    nodes = draw(st.lists(st.tuples(_FINITE, _FINITE), min_size=2, max_size=12))
    crv = cd.DiscreteCurve(np.array(nodes, dtype=float), draw(st.booleans()))
    lines = curve_io.curve_to_csv(crv).split("\n")[:-1]
    breaks = ["\n"] * len(lines)
    edit = draw(st.sampled_from(_WRITER_EDITS))
    row = draw(st.integers(2, len(lines) - 1))
    if edit in ("comment", "blank"):
        lines.insert(row, "# a note" if edit == "comment" else "")
        breaks.append("\n")
    elif edit in ("crlf", "cr"):
        breaks[draw(st.integers(0, len(breaks) - 1))] = "\r\n" if edit == "crlf" else "\r"
    elif edit == "arabic":
        cell = str(draw(st.integers(0, 999))).translate(_ARABIC_INDIC)
        lines[row] = cell + lines[row][lines[row].index(","):]
    elif edit == "late_flag":
        lines.append(draw(st.sampled_from(["# closed=true", "# closed=false"])))
        breaks.append("\n")
    elif edit == "three_cells":
        lines[row] += ",0"
    elif edit == "split_row":
        brk = draw(st.sampled_from(["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]))
        lines[row] = lines[row].replace(",", brk + ",")
    text = "".join(map(str.__add__, lines, breaks))
    faults = {"three_cells": 1, "split_row": 2}.get(edit, 0)
    return (text[:-1] if edit == "no_final_newline" else text), faults


def _csv_documents():
    """(text, faults): a curve CSV and an upper bound on its number of faults."""
    return st.one_of(_free_documents(), _writer_documents())


def _parse_outcome(reader, text):
    try:
        return reader(text), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(doc=_csv_documents())
# A bad row before a bad flag: the first bad line in file order is named.
@example(doc=("# closed=true\nx,y\n0,0\n1\n# closed=maybe\n2,3\n", 2))
def test_csv_reader_matches_reference(doc):
    # Both readers accept the same documents with bit-identical nodes, and
    # reject the same ones with the same message.
    text, faults = doc
    expected, expected_error = _parse_outcome(_reference_curve_from_csv, text)
    got, error = _parse_outcome(curve_io.curve_from_csv, text)
    if faults == 0:
        assert expected is not None, expected_error
    if expected is not None:
        assert got is not None, error
        assert got.closed is expected.closed
        assert got.nodes.tobytes() == expected.nodes.tobytes()
    else:
        assert error == expected_error


def test_csv_reader_takes_bulk_pass_on_writer_files(monkeypatch, tmp_path, lemniscate_512,
                                                    clothoid_512):
    # Every file the writers make is read without the line walk.
    def no_walk(text):
        raise AssertionError("line walk")

    monkeypatch.setattr(curve_io, "_walk_lines", no_walk)
    for crv in (lemniscate_512, clothoid_512, moved(ellipse_curve(64), 0.3, (1e9, -2.0)),
                moved(ellipse_curve(64), scale=1e-300)):
        path = tmp_path / "c.csv"
        curve_io.write_curve_csv(crv, path)
        back = curve_io.read_curve_csv(path)
        assert back.closed is crv.closed
        assert back.nodes.tobytes() == crv.nodes.tobytes()
    traj = flow.evolve(lemniscate_512, flow.FlowSpec(t_end=1e-6, snapshot_every=1))
    curve_io.write_run_directory(tmp_path / "run", {}, traj, emit_svg=True)
    for path in sorted((tmp_path / "run" / "snapshots").glob("*.csv")):
        assert curve_io.read_curve_csv(path).n == 512
    with pytest.raises(AssertionError, match="line walk"):
        curve_io.curve_from_csv(curve_io.curve_to_csv(clothoid_512).replace("\n", "\r\n"))


# ---------------------------------------------------------------------------
# Monitors CSV


def test_monitors_csv_format(circle_512):
    m = monitor_series([0.0, 0.5], [circle_512, circle_512])
    lines = curve_io.monitors_to_csv(m).splitlines()
    assert lines[0] == "t,L,A,I,Q,diss"
    row = lines[1].split(",")
    assert len(row) == 6
    assert float(row[0]) == 0.0
    assert float(row[1]) == pytest.approx(cd.length(circle_512))
    assert float(row[3]) == pytest.approx(1.0, abs=1e-4)


def test_monitors_csv_blank_when_undefined(lemniscate_512, clothoid_512):
    # Figure eight: area defined (zero), ratio blank. Open arc: both blank.
    m8 = monitor_series([0.0], [lemniscate_512])
    row = curve_io.monitors_to_csv(m8).splitlines()[1].split(",")
    assert row[3] == "" and row[2] != ""
    mo = monitor_series([0.0], [clothoid_512])
    row = curve_io.monitors_to_csv(mo).splitlines()[1].split(",")
    assert row[2] == "" and row[3] == ""


# ---------------------------------------------------------------------------
# SVG


def _svg(curve: cd.DiscreteCurve) -> str:
    """The SVG text write_run_directory writes for a snapshot."""
    return curve_io._svg_text(curve, curve_io._node_rows(curve))


def _viewbox(svg: str) -> list[float]:
    match = re.search(r'viewBox="([^"]+)"', svg)
    assert match is not None
    return [float(tok) for tok in match.group(1).split()]


def test_svg_viewbox_margin():
    crv = cd.sample_analytic(cd.Circle(1.0), 256)
    svg = _svg(crv)
    # Bounding box [-1, 1]^2 plus a 5% margin on each side.
    assert _viewbox(svg) == pytest.approx([-1.1, -1.1, 2.2, 2.2], abs=1e-12)


def test_svg_single_closed_path(circle_512):
    svg = _svg(circle_512)
    assert svg.count("<path") == 1
    assert 'fill="none"' in svg
    assert re.search(r'd="M [^"]*Z"', svg)


def test_svg_open_path_has_no_closepath(clothoid_512):
    svg = _svg(clothoid_512)
    assert "Z" not in re.search(r'd="([^"]*)"', svg).group(1)


@pytest.mark.parametrize("closed", [True, False])
def test_svg_path_is_csv_rows_under_y_flip(closed, circle_512, clothoid_512):
    for curve in (cd.DiscreteCurve(_edge_nodes(), closed=closed),
                  circle_512 if closed else clothoid_512):
        with np.errstate(over="ignore", invalid="ignore"):  # the edge viewBox overflows
            svg = _svg(curve)
        body = curve_io.curve_to_csv(curve).partition("\nx,y\n")[2]
        data = "M " + body + ("Z" if closed else "")
        assert f' d="{data}" ' in svg
        path = ET.fromstring(svg).find("{http://www.w3.org/2000/svg}path")
        assert path.get("transform") == "scale(1 -1)"
        # XML reads each newline of an attribute as a space; SVG takes both
        # as separators, and every pair after the moveto as a lineto.
        assert path.get("d") == data.replace("\n", " ")
        pairs = path.get("d")[2:].removesuffix("Z").split()
        nodes = np.array([[float(v) for v in pair.split(",")] for pair in pairs])
        assert nodes.tobytes() == curve.nodes.tobytes()


# ---------------------------------------------------------------------------
# Writer reference: a per-scalar re-statement of every text format


def _g(value) -> str:
    return format(float(value), ".17g")


def _reference_curve_csv(curve) -> str:
    lines = [f"# closed={'true' if curve.closed else 'false'}", "x,y"]
    lines.extend(f"{_g(x)},{_g(y)}" for x, y in curve.nodes)
    return "\n".join(lines) + "\n"


def _reference_svg(curve) -> str:
    pts = np.column_stack([curve.nodes[:, 0], -curve.nodes[:, 1]])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    pad = 0.05 * span if span > 0.0 else 1.0
    x0, y0 = lo[0] - pad, lo[1] - pad
    w, h = hi[0] - lo[0] + 2.0 * pad, hi[1] - lo[1] + 2.0 * pad
    rows = "".join(f"{_g(x)},{_g(y)}\n" for x, y in curve.nodes)
    close = "Z" if curve.closed else ""
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_g(x0)} {_g(y0)} {_g(w)} {_g(h)}">\n'
        f'  <path transform="scale(1 -1)" d="M {rows}{close}" fill="none" stroke="black" '
        f'stroke-width="{_g(0.004 * max(w, h))}"/>\n'
        "</svg>\n"
    )


def _reference_monitors_csv(series) -> str:
    lines = ["t,L,A,I,Q,diss"]
    for i in range(series.t.size):
        area = "" if np.isnan(series.A[i]) else _g(series.A[i])
        ratio = "" if np.isnan(series.I[i]) else _g(series.I[i])
        lines.append(f"{_g(series.t[i])},{_g(series.L[i])},{area},{ratio},"
                     f"{_g(series.Q[i])},{_g(series.diss[i])}")
    return "\n".join(lines) + "\n"


# Signed zeros, the smallest subnormal, the largest double and values that
# need all 17 digits, next to ordinary coordinates.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-300, 123456789.125]


def _edge_nodes(n: int = 40) -> np.ndarray:
    rng = np.random.default_rng(7)
    nodes = rng.normal(scale=3.0, size=(n, 2))
    nodes.flat[: len(_EDGE_VALUES)] = _EDGE_VALUES
    nodes.flat[-len(_EDGE_VALUES):] = _EDGE_VALUES[::-1]
    return nodes


@pytest.mark.parametrize("closed", [True, False])
def test_curve_writers_match_reference(closed):
    curve = cd.DiscreteCurve(_edge_nodes(), closed=closed)
    assert curve_io.curve_to_csv(curve) == _reference_curve_csv(curve)
    with np.errstate(over="ignore", invalid="ignore"):  # the viewBox overflows
        assert _svg(curve) == _reference_svg(curve)


@pytest.mark.parametrize("closed", [True, False])
def test_svg_matches_reference_on_non_finite_nodes(closed):
    # The path carries each coordinate as the CSV row prints it ('nan' for a
    # NaN whatever its sign bit), and the viewBox, taken from the unflipped
    # nodes, must equal the reference's box of the y-negated points.
    nan, inf = float("nan"), float("inf")
    nodes = _edge_nodes()
    nodes[12:20] = [[nan, 1.0], [2.0, nan], [-3.0, np.copysign(nan, -1.0)],
                    [np.copysign(nan, -1.0), -0.0], [inf, -inf], [-inf, inf],
                    [nan, inf], [-inf, nan]]
    nodes[0] = [0.5, nan]
    nodes[-1] = [nan, -inf]
    curve = cd.DiscreteCurve(nodes, closed=closed)
    with np.errstate(over="ignore", invalid="ignore"):  # the viewBox overflows
        assert _svg(curve) == _reference_svg(curve)
    assert curve_io.curve_to_csv(curve) == _reference_curve_csv(curve)


@pytest.mark.parametrize("closed", [True, False])
def test_run_directory_snapshots_match_reference(closed, tmp_path):
    if closed:
        curve = moved(ellipse_curve(64), angle=0.3, shift=(-0.25, 0.5))
    else:
        spec = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-2.0, s_max=2.0)
        curve = cd.sample_analytic(spec, 64)
    traj = cd.evolve(curve, cd.FlowSpec(dt=1e-4, t_end=1e-3, snapshot_every=3))
    assert len(traj.snapshots) >= 3
    curve_io.write_run_directory(tmp_path, {"closed": closed}, traj, emit_svg=True)
    snap_dir = tmp_path / "snapshots"
    assert len(list(snap_dir.iterdir())) == 2 * len(traj.snapshots)
    for i, snap in enumerate(traj.snapshots):
        csv = (snap_dir / f"t_{i}.csv").read_bytes().decode("utf-8")
        svg = (snap_dir / f"t_{i}.svg").read_bytes().decode("utf-8")
        assert csv == _reference_curve_csv(snap), i
        assert svg == _reference_svg(snap), i


@pytest.mark.parametrize("closed", [True, False])
def test_svg_matches_reference_on_ordinary_curve(closed, circle_512, clothoid_512):
    # The edge values above overflow the viewBox; these curves keep it finite,
    # and a one-point curve takes the unit pad.
    curve = circle_512 if closed else clothoid_512
    assert _svg(curve) == _reference_svg(curve)
    single = cd.DiscreteCurve(np.array([[1.5, -0.0], [1.5, -0.0]]), closed=closed)
    assert _svg(single) == _reference_svg(single)


def test_monitors_csv_matches_reference():
    values = np.array(_EDGE_VALUES)
    nan = float("nan")
    area = values.copy()
    area[[1, 4]] = nan
    ratio = values[::-1].copy()
    ratio[[0, 1, 7]] = nan
    series = cd.MonitorSeries(t=values, L=np.abs(values), A=area, I=ratio,
                              Q=values[::-1], diss=np.roll(values, 3))
    text = curve_io.monitors_to_csv(series)
    assert text == _reference_monitors_csv(series)
    assert text.splitlines()[2].split(",")[2:4] == ["", ""]


# ---------------------------------------------------------------------------
# CLI: generate


def test_cli_generate_lemniscate(tmp_path):
    out = tmp_path / "lem.csv"
    rc = cli.main(["generate", "--kind", "lemniscate", "--nodes", "128",
                   "--out", str(out)])
    assert rc == 0
    crv = curve_io.read_curve_csv(out)
    assert crv.closed and crv.nodes.shape == (128, 2)


def test_cli_generate_deterministic(tmp_path):
    args = ["generate", "--kind", "fresnel", "--c2", "1.5707963",
            "--smin", "-2", "--smax", "2", "--nodes", "64"]
    assert cli.main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_generate_bad_radius(tmp_path, capsys):
    rc = cli.main(["generate", "--kind", "circle", "--radius", "-1",
                   "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_generate_too_few_nodes(tmp_path):
    rc = cli.main(["generate", "--kind", "circle", "--nodes", "3",
                   "--out", str(tmp_path / "c.csv")])
    assert rc == 2


def test_cli_generate_missing_directory(tmp_path):
    rc = cli.main(["generate", "--kind", "circle",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "c.csv")])
    assert rc == 3


# Every field of every analytic spec, by name; the generate flags are built from these.
_SPEC_FIELDS = {f.name: f for cls in analytic._SPEC_KINDS.values()
                for f in dataclasses.fields(cls)}


def test_cli_generate_flags_are_the_spec_fields(capsys):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices["generate"]._actions
               if a.dest not in ("help", "kind", "nodes", "out")}
    assert {name: a.option_strings for name, a in actions.items()} == {
        name: ["--" + name.replace("_", "")] for name in _SPEC_FIELDS}
    # The flag names generate has always had.
    assert sorted(a.option_strings[0] for a in actions.values()) == sorted(
        ["--radius", "--center", "--orientation", "--scale", "--c1", "--c2", "--theta",
         "--v", "--smin", "--smax", "--point", "--direction"])
    for name, action in actions.items():
        assert action.help == ", ".join(
            kind for kind, cls in analytic._SPEC_KINDS.items()
            if name in {f.name for f in dataclasses.fields(cls)})
    with pytest.raises(SystemExit) as stop:
        cli.main(["generate", "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    for action in actions.values():
        assert action.option_strings[0] in text


@pytest.mark.parametrize("kind", list(analytic._SPEC_KINDS))
def test_cli_generate_rejects_flags_of_other_kinds(tmp_path, kind):
    own = [f.name for f in dataclasses.fields(analytic._SPEC_KINDS[kind])]
    out = tmp_path / "c.csv"
    foreign = [f for name, f in _SPEC_FIELDS.items() if name not in own]
    assert foreign
    for field in foreign:
        values = ["1", "2"] if field.type == "tuple[float, float]" else ["5"]
        flag = "--" + field.name.replace("_", "")
        code, err = _run_cli(["generate", "--kind", kind, flag, *values, "--out", str(out)])
        assert code == 2
        assert err == (f"error: --kind {kind} takes no {flag}; its flags: "
                       + ", ".join("--" + name.replace("_", "") for name in own) + "\n")
        assert not out.exists()


def test_cli_generate_errors_name_flags(tmp_path):
    # The spec fields s_min and s_max are the flags --smin and --smax.
    out = tmp_path / "c.csv"
    code, err = _run_cli(["generate", "--kind", "circle", "--smin", "1", "--out", str(out)])
    assert (code, err) == (2, "error: --kind circle takes no --smin; "
                              "its flags: --radius, --center, --orientation\n")
    code, err = _run_cli(["generate", "--kind", "fresnel", "--smin", "2", "--out", str(out)])
    assert (code, err) == (2, "error: need --smin < --smax, got [2.0, 1.0]\n")
    assert not out.exists()
    # A config names the JSON key, as written.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"input": {"spec": {"kind": "circle", "s_min": 1.0}},
                                  "flow": {}, "out_dir": str(tmp_path / "run")}))
    code, err = _run_cli(["evolve", str(config)])
    assert (code, err) == (2, "error: 'circle' spec has no field 's_min'; "
                              "fields: radius, center, orientation\n")


@pytest.mark.parametrize("value", ["0.5", "0", "2"])
def test_cli_generate_orientation_is_a_sign(tmp_path, value):
    out = tmp_path / "c.csv"
    code, err = _run_cli(["generate", "--kind", "lemniscate", "--orientation", value,
                          "--out", str(out)])
    assert code == 2
    assert "orientation" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", list(analytic._SPEC_KINDS))
def test_cli_generate_defaults_are_the_spec_defaults(tmp_path, kind):
    # Omitted flags take the dataclass defaults: the bare circle has radius 1,
    # the bare fresnel spec c1 = c2 = 0 (a straight segment).
    assert cli.main(["generate", "--kind", kind, "--nodes", "64",
                     "--out", str(tmp_path / "cli.csv")]) == 0
    spec = analytic._SPEC_KINDS[kind]()
    curve_io.write_curve_csv(cd.sample_analytic(spec, 64), tmp_path / "lib.csv")
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


# ---------------------------------------------------------------------------
# CLI: check


def _run_check(path, capsys, *extra):
    rc = cli.main(["check", str(path), *extra])
    return rc, json.loads(capsys.readouterr().out)


def test_cli_check_lemniscate(tmp_path, capsys, lemniscate_512):
    path = tmp_path / "lem.csv"
    curve_io.write_curve_csv(lemniscate_512, path)
    rc, report = _run_check(path, capsys)
    assert rc == 0
    assert report["verdict"] == "shrinker"
    assert report["shrinker"]["K"] == pytest.approx(-6.0, abs=0.05)


def test_cli_check_no_verdict(fixture_dir, capsys):
    rc, report = _run_check(fixture_dir / "perturbed_ellipse_256.csv", capsys)
    assert rc == 1
    assert report["verdict"] == "none"


def test_cli_check_loose_tolerance(fixture_dir, capsys):
    rc, report = _run_check(fixture_dir / "perturbed_ellipse_256.csv", capsys,
                            "--tol", "10")
    assert rc == 0 and report["verdict"] != "none"


def test_cli_check_writes_json(tmp_path, capsys, circle_512):
    path = tmp_path / "circle.csv"
    out = tmp_path / "report.json"
    curve_io.write_curve_csv(circle_512, path)
    rc = cli.main(["check", str(path), "--json", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert out.read_text(encoding="utf-8") == stdout
    assert json.loads(stdout)["verdict"] == "stationary"


def test_cli_check_underflowing_constant_exits_1(tmp_path, capsys, fixture_dir):
    lem = curve_io.read_curve_csv(fixture_dir / "lemniscate_256.csv")
    path = tmp_path / "lem_big.csv"
    for rho in (1e100, 1e150):
        curve_io.write_curve_csv(cd.DiscreteCurve(lem.nodes * rho, lem.closed), path)
        rc, report = _run_check(path, capsys)
        assert rc == 1, rho
        assert report["verdict"] == "none", rho
        assert "underflows at this scale" in report["shrinker"]["unavailable"], rho


def test_cli_check_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,0\n1,0\n", encoding="utf-8")
    assert cli.main(["check", str(bad)]) == 2
    capsys.readouterr()


def test_cli_check_fold_back_exits_2(tmp_path):
    # The zigzag passes the chord check; the fields name the node where it
    # folds back instead of dividing by its zero parameter speed.
    path = tmp_path / "zigzag.csv"
    path.write_text("# closed=true\nx,y\n" + "0,1\n0.0,0.0\n" * 4, encoding="utf-8")
    code, err = _run_cli(["check", str(path)])
    assert code == 2
    assert err == ("error: parameter speed 0.000e+00 at node 0 is not positive: "
                   "the curve folds back on itself there\n")


def test_cli_check_accepts_byte_order_mark(tmp_path, capsys, fixture_dir):
    # A CRLF file that starts with a UTF-8 BOM and has comments and blank
    # lines between its rows gives the same report as the plain fixture.
    plain = fixture_dir / "lemniscate_256.csv"
    lines = plain.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# closed=true"  # the BOM goes in front of the flag
    lines[5:5] = ["", "# written elsewhere", "  "]
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + "\r\n".join(lines).encode("utf-8") + b"\r\n")
    assert _run_check(path, capsys) == _run_check(plain, capsys)


def test_cli_check_missing_file(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "nope.csv")]) == 3
    capsys.readouterr()


GENERATE_CASES = [
    (["--kind", "circle", "--radius", "2"], "stationary"),
    (["--kind", "lemniscate"], "shrinker"),
    (["--kind", "fresnel", "--c2", "1.5707963267948966",
      "--smin", "-2", "--smax", "2"], "stationary"),
    # Axis-aligned so the sampled nodes are exactly collinear; a diagonal
    # direction leaves roundoff-level curvature whose relative residual is
    # O(1) by construction.
    (["--kind", "line", "--point", "0.3", "-1", "--direction", "1", "0",
      "--smax", "3"], "stationary"),
    # Every field defaulted: the unit circle and, for fresnel, a straight segment.
    (["--kind", "circle"], "stationary"),
    (["--kind", "fresnel"], "stationary"),
]


@pytest.mark.parametrize("args,expected", GENERATE_CASES,
                         ids=["circle", "lemniscate", "fresnel", "line", "circle_defaults",
                              "fresnel_defaults"])
def test_cli_generate_check_roundtrip(tmp_path, capsys, args, expected):
    path = tmp_path / "curve.csv"
    assert cli.main(["generate", *args, "--nodes", "512",
                     "--out", str(path)]) == 0
    rc, report = _run_check(path, capsys)
    assert rc == 0
    assert report["verdict"] == expected


# ---------------------------------------------------------------------------
# CLI: evolve


def _evolve_config(tmp_path, **flow_overrides):
    flow_cfg = {"t_end": 1.0 / 48.0, "snapshot_every": 10}
    flow_cfg.update(flow_overrides)
    return {
        "input": {"spec": {"kind": "lemniscate", "scale": 1.0}, "nodes": 512},
        "flow": flow_cfg,
        "out_dir": str(tmp_path / "run"),
    }


def test_cli_evolve_run_directory(tmp_path, capsys):
    config = _evolve_config(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["evolve", str(cfg_path)]) == 0

    run = tmp_path / "run"
    assert json.loads((run / "config.json").read_text())["flow"] == config["flow"]
    result = json.loads((run / "result.json").read_text())
    assert result["termination"] == "time_reached"
    assert "termination_detail" not in result
    assert result["t_final"] == pytest.approx(1.0 / 48.0)
    # Shrinking figure eight: the fitted scale profile recovers K near -6.
    assert -6.1 < result["K"] < -5.9

    snaps = sorted((run / "snapshots").glob("t_*.csv"))
    assert len(snaps) == result["n_snapshots"]
    assert (run / "snapshots" / "t_0.csv").exists()
    first = curve_io.read_curve_csv(snaps[0])
    assert first.nodes.shape == (512, 2)

    monitor_rows = (run / "monitors.csv").read_text().splitlines()
    assert monitor_rows[0] == "t,L,A,I,Q,diss"
    assert len(monitor_rows) - 1 == result["n_snapshots"]


def test_cli_evolve_rerun_leaves_no_stale_snapshots(tmp_path):
    # A fixed dt: 10 steps, then 3.
    config = _evolve_config(tmp_path, t_end=4e-3, snapshot_every=1, dt=4e-4)
    config["input"]["nodes"] = 128
    config["emit_svg"] = True
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["evolve", str(cfg_path)]) == 0
    snap_dir = tmp_path / "run" / "snapshots"
    assert len(list(snap_dir.glob("t_*.svg"))) == 11
    # Only the writer's own names are deleted.
    for name in ("t_x.csv", "t_1.svg.bak", "notes.svg"):
        (snap_dir / name).write_text("kept", encoding="utf-8")

    config["flow"]["t_end"] = 1e-3
    config["emit_svg"] = False
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["evolve", str(cfg_path)]) == 0
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    assert result["n_snapshots"] == 4
    assert sorted(p.name for p in snap_dir.iterdir()) == [
        "notes.svg", "t_0.csv", "t_1.csv", "t_1.svg.bak", "t_2.csv", "t_3.csv", "t_x.csv"]


def test_cli_evolve_non_regular_is_recorded(tmp_path, monkeypatch):
    # A fixed dt makes one _advance call per step.
    repeat_node_on_step(monkeypatch, flow, 3)
    config = _evolve_config(tmp_path, t_end=1e-3, snapshot_every=1, dt=1e-4)
    config["input"]["nodes"] = 128
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["evolve", str(cfg_path)]) == 0
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    assert result["termination"] == "non_regular"
    assert result["n_steps"] == 2
    assert list(result)[:2] == ["termination", "termination_detail"]
    assert result["termination_detail"].startswith("minimum segment length 0.000e+00 is below")
    assert result["termination_detail"].endswith(
        f"(last kept state: step 2, t = {result['t_final']!r})")


def test_cli_evolve_deterministic(tmp_path):
    config = {
        "input": {"spec": {"kind": "circle", "radius": 1.0}, "nodes": 64},
        "flow": {"t_end": 1e-4, "snapshot_every": 5},
        "out_dir": None,
        "emit_svg": True,
    }
    outputs = []
    for name in ("run_a", "run_b"):
        config["out_dir"] = str(tmp_path / name)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["evolve", str(cfg_path)]) == 0
        run = tmp_path / name
        blobs = [(run / "monitors.csv").read_bytes(),
                 (run / "result.json").read_bytes()]
        blobs += [p.read_bytes() for p in sorted((run / "snapshots").iterdir())]
        outputs.append(blobs)
    assert outputs[0] == outputs[1]
    assert any(b.startswith(b"<svg") for b in outputs[0])


def test_cli_evolve_config_with_byte_order_mark(tmp_path):
    config = {
        "input": {"spec": {"kind": "circle", "radius": 1.0}, "nodes": 64},
        "flow": {"t_end": 1e-4},
        "out_dir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(codecs.BOM_UTF8 + json.dumps(config).encode("utf-8"))
    assert cli.main(["evolve", str(cfg_path)]) == 0
    assert json.loads((tmp_path / "run" / "config.json").read_text()) == config


def test_cli_evolve_input_path_and_no_fit(tmp_path):
    src = tmp_path / "circle.csv"
    assert cli.main(["generate", "--kind", "circle", "--nodes", "64",
                     "--out", str(src)]) == 0
    config = {
        "input": {"path": str(src)},
        "flow": {"t_end": 1e-4},
        "out_dir": str(tmp_path / "run"),
        "fit_scale": False,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["evolve", str(cfg_path)]) == 0
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    assert "K" not in result


_CLOTHOID = cd.FresnelFamily(c1=0.0, c2=np.pi / 2, s_min=-1.0, s_max=1.0)


def _evolve_scaled(tmp_path, spec, scale, t_end):
    """Exit code and stderr of `evolve` on spec's 256-node sample scaled by
    `scale`, read from a CSV, with numpy warnings raised as errors."""
    curve = cd.sample_analytic(spec, 256)
    curve_io.write_curve_csv(cd.DiscreteCurve(scale * curve.nodes, curve.closed),
                             tmp_path / "curve.csv")
    config = {"input": {"path": str(tmp_path / "curve.csv")},
              "flow": {"t_end": t_end, "snapshot_every": 1}, "out_dir": str(tmp_path / "run")}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _run_cli(["evolve", str(cfg_path)])


@pytest.mark.parametrize("scale", [1e60, 1e-60])
def test_cli_evolve_runs_at_extreme_scales(tmp_path, scale):
    # Time scales like length^4: t_end 1e-3 scale^4 is 1e237 at 1e60, where
    # the scale fit regressed on t * t overflowed.
    code, err = _evolve_scaled(tmp_path, cd.Circle(), scale, 1e-3 * scale**4)
    assert (code, err) == (0, "")
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    assert result["termination"] == "time_reached"
    if scale > 1.0:
        assert math.isfinite(result["K"])


@pytest.mark.parametrize("spec, scale", [
    *((cd.Circle(), scale) for scale in (1e100, 1e-100, 1e120, 1e-120)),
    (_CLOTHOID, 1e100), (_CLOTHOID, 1e-100),
], ids=lambda v: f"{v:g}" if isinstance(v, float) else type(v).__name__)
def test_cli_evolve_refuses_h4_outside_the_double_range(tmp_path, spec, scale):
    # Before, these raised OverflowError from dt / h**4, or a numpy overflow or
    # divide-by-zero warning in the fields, the solve or the dissipation.
    code, err = _evolve_scaled(tmp_path, spec, scale, 1e-3)
    assert code == 2
    match = re.fullmatch(r"error: mean node spacing h = (\S+) puts h\^4 outside the normal "
                         r"double range; rescale the curve\n", err)
    assert match is not None, err
    seg = cd.segment_lengths(cd.sample_analytic(spec, 256))
    assert float(match.group(1)) == pytest.approx(scale * seg.mean(), rel=1e-3)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("redistribute_every", [10, 0])
def test_cli_evolve_refuses_fewer_than_eight_nodes(tmp_path, redistribute_every):
    # Before, the message came from whichever call failed first: the initial
    # resample_uniform ("resample_uniform needs M >= 8, got 6") or, without
    # redistribution, curve_fields.
    config = _evolve_config(tmp_path, redistribute_every=redistribute_every)
    config["input"]["nodes"] = 6
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert _run_cli(["evolve", str(cfg_path)]) == (
        2, "error: evolve needs at least 8 nodes, got 6\n")
    assert not (tmp_path / "run").exists()


def _naming(named, mutate):
    """mutate, tagged with the text its error message must contain (the
    test id stays the function's name)."""
    mutate.named = named
    return mutate


def _assert_evolve_rejects(tmp_path, mutate):
    """`evolve` on the mutated default config exits 2 with one error line
    naming mutate.named, and writes no run directory."""
    config = _evolve_config(tmp_path)
    mutate(config)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code, err = _run_cli(["evolve", str(cfg_path)])
    assert code == 2
    assert err.startswith("error: ") and not _TRACEBACK.search(err)
    assert mutate.named in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "mutate",
    [
        _naming("flow", lambda c: c.pop("flow")),
        _naming("error: scheme 'explicit' was removed: forward Euler is stable only for "
                "dt <= 0.125 h^4; use 'semi_implicit'",
                lambda c: c["flow"].update(scheme="explicit")),
        _naming("t_end", lambda c: c["flow"].update(t_end=-1.0)),
        _naming("path", lambda c: c["input"].update(path="also.csv")),  # both path and spec
        _naming("parabola", lambda c: c["input"]["spec"].update(kind="parabola")),
        _naming("'emit_sgv'", lambda c: c.update(emit_sgv=True)),
        _naming("'note'", lambda c: c["input"].update(note=1)),
        _naming("'t_edn'", lambda c: c["flow"].update(t_edn=1e-4)),
        _naming("'radius'", lambda c: c["input"]["spec"].update(radius=1.0)),
    ],
)
def test_cli_evolve_bad_config(tmp_path, mutate):
    _assert_evolve_rejects(tmp_path, mutate)


@pytest.mark.parametrize(
    "mutate",
    [
        _naming("nodes", lambda c: c["input"].update(nodes=[64])),
        _naming("t_end", lambda c: c["flow"].update(t_end=None)),
        _naming("dt", lambda c: c["flow"].update(dt=[1])),
        _naming("kind", lambda c: c["input"].update(spec={"kind": []})),
        _naming("path", lambda c: c.update(input={"path": 5})),
        _naming("out_dir", lambda c: c.update(out_dir=7)),
        _naming("'nodes' must be a finite integer",
                lambda c: c["input"].update(nodes=64.5)),
        _naming("'snapshot_every' must be a finite integer",
                lambda c: c["flow"].update(snapshot_every=2.5)),
        _naming("'redistribute_every' must be a finite integer",
                lambda c: c["flow"].update(redistribute_every=0.5)),
        _naming("'orientation' must be a finite integer",
                lambda c: c["input"]["spec"].update(orientation=0.5)),
    ],
    ids=["nodes", "t_end", "dt", "spec_kind", "path", "out_dir", "nodes_fraction",
         "snapshot_every_fraction", "redistribute_every_fraction", "orientation_fraction"],
)
def test_cli_evolve_wrongly_typed_value(tmp_path, mutate):
    _assert_evolve_rejects(tmp_path, mutate)


def _config_argv(mutate):
    """argv for `evolve` on the default config after `mutate`, as a function of tmp_path."""
    def argv(tmp_path):
        config = _evolve_config(tmp_path)
        mutate(config)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")  # NaN, Infinity allowed
        return ["evolve", str(cfg_path)]
    return argv


_HUGE_INT = 10**400  # 401 digits: a valid JSON number too large for a double


@pytest.mark.parametrize(
    "argv,named",
    [
        (_config_argv(lambda c: c["flow"].update(snapshot_every=math.inf)), "snapshot_every"),
        (_config_argv(lambda c: c["flow"].update(redistribute_every=math.inf)),
         "redistribute_every"),
        (_config_argv(lambda c: c["input"].update(nodes=math.inf)), "nodes"),
        (_config_argv(lambda c: c["flow"].update(t_end=_HUGE_INT)), "t_end"),
        (_config_argv(lambda c: c["input"].update(
            spec={"kind": "circle", "radius": _HUGE_INT})), "radius"),
        (_config_argv(lambda c: c["input"].update(
            spec={"kind": "circle", "radius": 1.0, "center": [-math.inf, 0]})), "center"),
        (_config_argv(lambda c: c["flow"].update(length_min=math.nan)), "length_min"),
        (lambda tmp_path: ["generate", "--kind", "circle", "--radius", "nan",
                           "--out", str(tmp_path / "circle.csv")], "radius"),
        (lambda tmp_path: ["generate", "--kind", "circle", "--orientation", "inf",
                           "--out", str(tmp_path / "circle.csv")], "orientation"),
        (lambda tmp_path: ["bounds", "nan"], "L0"),
        (lambda tmp_path: ["bounds", "inf"], "L0"),
    ],
    ids=["snapshot_every_inf", "redistribute_every_inf", "nodes_inf", "t_end_huge_int",
         "radius_huge_int", "center_minus_inf", "length_min_nan", "generate_radius_nan",
         "generate_orientation_inf", "bounds_nan", "bounds_inf"],
)
def test_cli_rejects_non_finite_numbers(tmp_path, argv, named):
    code, err = _run_cli(argv(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and not _TRACEBACK.search(err)
    # Rejected up front by name, not by a later numerical failure.
    assert named in err and "finite" in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "circle.csv").exists()


_JSON_TYPES = {
    "null": st.none(),
    "bool": st.booleans(),
    "integer": st.integers(-10**6, 10**6),
    "fraction": st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda v: not v.is_integer()),
    "string": st.text(max_size=8).filter(lambda v: v != "auto"),
    "array": st.lists(st.integers(-3, 3) | st.text(max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
_NUMBER = {"integer", "fraction"}
# Each spec base sets every field of its class.
_SPEC_BASES = {
    "circle": {"radius": 1.0, "center": [0.5, 0.0], "orientation": 1},
    "lemniscate": {"scale": 1.0, "orientation": -1},
    "fresnel": {"c1": 0.0, "c2": 1.5, "theta": 0.1, "v": [0.0, 1.0], "s_min": -1.0,
                "s_max": 1.0, "orientation": 1},
    "line": {"point": [0.0, 0.0], "direction": [1.0, 0.0], "s_min": 0.0, "s_max": 1.0,
             "orientation": -1},
}
# JSON types each config field accepts (dt also takes the string "auto"); the
# counts take only integral numbers.
_CONFIG_FIELDS = {
    ("input",): {"object"}, ("flow",): {"object"}, ("out_dir",): {"string"},
    ("fit_scale",): {"bool"}, ("emit_svg",): {"bool"},
    ("input", "path"): {"string"}, ("input", "nodes"): {"integer"},
    ("input", "spec"): {"object"}, ("input", "spec", "kind"): {"string"},
    ("flow", "kind"): {"string"}, ("flow", "scheme"): {"string"},
    ("flow", "dt"): _NUMBER | {"null"}, ("flow", "t_end"): _NUMBER,
    ("flow", "redistribute_every"): {"integer"}, ("flow", "snapshot_every"): {"integer"},
    ("flow", "length_min"): _NUMBER | {"null"}, ("flow", "min_spacing"): _NUMBER | {"null"},
}


@st.composite
def _wrongly_typed_config(draw):
    """A valid config with one value of a JSON type its field does not take,
    or with one key added that is not a field of its object."""
    kind = draw(st.sampled_from(sorted(_SPEC_BASES)))
    config = {
        "input": {"spec": {"kind": kind, **_SPEC_BASES[kind]}, "nodes": 16},
        "flow": {"t_end": 1e-6, "dt": "auto", "length_min": None},
        "out_dir": "run", "fit_scale": True, "emit_svg": False,
    }
    fields = dict(_CONFIG_FIELDS)
    for key, value in _SPEC_BASES[kind].items():
        fields[("input", "spec", key)] = (
            {"array"} if isinstance(value, list) else {"integer"} if key == "orientation"
            else _NUMBER)
    if draw(st.booleans()):
        level = draw(st.sampled_from([(), ("input",), ("flow",), ("input", "spec")]))
        known = {path[-1] for path in fields if path[:-1] == level}
        path = level + (draw(st.text(max_size=8).filter(lambda k: k not in known)),)
        value = draw(st.one_of(*_JSON_TYPES.values()))
    else:
        path = draw(st.sampled_from(sorted(fields)))
        value = draw(_JSON_TYPES[draw(st.sampled_from(sorted(set(_JSON_TYPES) - fields[path])))])
        if path == ("input", "path"):
            config["input"] = {}  # a path input has no spec
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return config


# The first line of a traceback. It is matched at the start of a line, so an
# error message that echoes a drawn "Traceback" back is not taken for one.
_TRACEBACK = re.compile(r"^Traceback \(most recent call last\)", re.MULTILINE)


def _run_cli(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(config=_wrongly_typed_config())
def test_cli_evolve_fuzz_wrong_types(tmp_path_factory, config):
    cfg_path = tmp_path_factory.mktemp("fuzz") / "config.json"
    if config["out_dir"] == "run":  # keep any accidental run out of the working directory
        config["out_dir"] = str(cfg_path.parent / "run")
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code, err = _run_cli(["evolve", str(cfg_path)])
    assert code == 2
    assert err.startswith("error: ") and not _TRACEBACK.search(err)
    assert not (cfg_path.parent / "run").exists()


@pytest.mark.parametrize(
    "cls", [flow.FlowSpec, *analytic._SPEC_KINDS.values(), cli._RunConfig, cli._InputConfig],
    ids=lambda cls: cls.__name__,
)
def test_config_fields_have_json_readers(cls):
    # A field of a type the reader has no entry for would fail evolve with a
    # KeyError; the reader leaves a null out, so an `X | None` field must default to None.
    for field in dataclasses.fields(cls):
        assert field.type.removesuffix(" | None") in analytic._JSON_TYPES, field.name
        if field.type.endswith(" | None"):
            assert field.default is None, field.name


_CSV_ROW = st.one_of(
    st.tuples(st.floats(), st.floats()).map(lambda p: f"{p[0]!r},{p[1]!r}"),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda p: f"{p[0]},{p[1]}"),
    st.text(max_size=8),
)
_CSV_TEXT = st.one_of(
    st.text(),
    st.builds(
        lambda flag, header, rows: f"# closed={flag}\n{header}\n" + "\n".join(rows) + "\n",
        st.sampled_from(["true", "false", "maybe"]),
        st.sampled_from(["x,y", "a,b"]),
        st.lists(_CSV_ROW, max_size=40),
    ),
)


@settings(max_examples=150, deadline=None)
@given(text=_CSV_TEXT)
# A zigzag: every chord is regular, but each node's neighbours coincide.
@example(text="# closed=true\nx,y\n" + "0,1\n0.0,0.0\n" * 4)
# Normal chords whose sum is beyond the double range.
@example(text="# closed=true\nx,y\n0.0,0.0\n0.0,8.98846567431158e+307\n")
# Chords beyond the double range: from hypot, and from the difference.
@example(text="# closed=true\nx,y\n0.0,0.0\n1.2711610061536462e+308,1.2711610061536464e+308\n")
@example(text="# closed=true\nx,y\n0.0,-1e308\n0.0,1e308\n1,0\n")
def test_cli_check_fuzz_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "curve.csv"
    path.write_text(text, encoding="utf-8")
    code, err = _run_cli(["check", str(path)])
    assert code in (0, 1, 2)
    assert not _TRACEBACK.search(err)


def test_cli_evolve_config_not_json(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{not json", encoding="utf-8")
    assert cli.main(["evolve", str(cfg_path)]) == 2
    capsys.readouterr()


def test_cli_evolve_missing_config(tmp_path):
    assert cli.main(["evolve", str(tmp_path / "nope.json")]) == 3


# ---------------------------------------------------------------------------
# CLI: bounds


def test_cli_bounds(capsys):
    assert cli.main(["bounds", "1.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["T_star"] == pytest.approx(1.6040597272944278e-4, rel=1e-12)
    assert data["ratio_tilde"] == pytest.approx(2.3946339747462941, rel=1e-12)


def test_cli_bounds_scaling(capsys):
    assert cli.main(["bounds", "2.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["T_fig8"] == pytest.approx(16 * 5.509344055317327e-5, rel=1e-12)


def test_cli_bounds_invalid(capsys):
    assert cli.main(["bounds", "-1.0"]) == 2
    capsys.readouterr()


def test_cli_bounds_json_file(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    assert cli.main(["bounds", "1.0", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["T_tilde"] == pytest.approx(
        1.3192862453429398e-4, rel=1e-12
    )


_OUT_OF_RANGE = {
    **{f"tol_{t}": ["check", "circle_256.csv", "--tol", t] for t in ("nan", "inf", "-1", "0")},
    **{f"bounds_{L0}": ["bounds", L0] for L0 in ("1e100", "1e-100", "1e-80")},
}


@pytest.mark.parametrize("argv", list(_OUT_OF_RANGE.values()), ids=list(_OUT_OF_RANGE))
def test_cli_rejects_out_of_range_values(tmp_path, fixture_dir, monkeypatch, argv):
    monkeypatch.chdir(fixture_dir)
    out = tmp_path / "out.json"
    code, err = _run_cli(argv + ["--json", str(out)])
    assert code == 2
    assert err.startswith("error: ") and not _TRACEBACK.search(err)
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI: one parser per process
#
# main() parses every call with the parser the first call built. That is safe
# because parse_args fills a fresh Namespace per call and never mutates the
# parser; these tests pin it.


_ARGV_TOKEN = st.one_of(
    st.sampled_from([
        "generate", "evolve", "check", "bounds", "--kind", "--nodes", "--out",
        *("--" + name.replace("_", "") for name in _SPEC_FIELDS), *analytic._SPEC_KINDS,
        "--tol", "--json", "--help", "-h", "--", "-", "nan", "-nan", "inf", "1e100",
        "--no-such-flag", "--c", "--s",
    ]),
    st.floats().map(repr),
    st.integers(-300, 300).map(str),
    st.text(max_size=6),
)
_ARGV = st.one_of(
    st.builds(lambda command, rest: [command, *rest],
              st.sampled_from(["generate", "evolve", "check", "bounds"]),
              st.lists(_ARGV_TOKEN, max_size=8)),
    st.lists(_ARGV_TOKEN, max_size=8),
)


def _argv_outcome(parser, argv):
    """repr of the parsed Namespace (NaN != NaN, so no ==), or the exit code
    with everything printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(parser.parse_args(argv))
        except SystemExit as stop:
            return stop.code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(earlier=_ARGV, argv=_ARGV)
def test_cli_shared_parser_parses_like_a_fresh_one(earlier, argv):
    shared = cli._build_parser()
    assert shared is cli._build_parser()
    _argv_outcome(shared, earlier)
    assert _argv_outcome(shared, argv) == _argv_outcome(cli._build_parser.__wrapped__(), argv)


def test_cli_check_tolerance_does_not_carry_over(tmp_path, capsys):
    # The N=128 lemniscate's shrinker residual (0.0123) lies between the
    # default tolerance 0.01 and 0.05.
    path = tmp_path / "lem128.csv"
    assert cli.main(["generate", "--kind", "lemniscate", "--nodes", "128",
                     "--out", str(path)]) == 0
    rc, report = _run_check(path, capsys, "--tol", "0.05")
    assert (rc, report["verdict"]) == (0, "shrinker")
    assert 0.01 < report["shrinker"]["residual"] < 0.05
    rc, report = _run_check(path, capsys)
    assert (rc, report["verdict"]) == (1, "none")


def test_cli_generate_spec_flags_do_not_carry_over(tmp_path):
    # The spec flags default to SUPPRESS; a flag given once must not reach the next call.
    argv = ["generate", "--kind", "circle", "--nodes", "64", "--out"]
    assert cli.main([*argv, str(tmp_path / "r2.csv"), "--radius", "2"]) == 0
    assert cli.main([*argv, str(tmp_path / "r1.csv")]) == 0
    curve_io.write_curve_csv(cd.sample_analytic(cd.Circle(1.0), 64), tmp_path / "lib.csv")
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    assert (tmp_path / "r2.csv").read_bytes() != (tmp_path / "r1.csv").read_bytes()


def test_cli_check_json_path_does_not_carry_over(tmp_path, capsys, fixture_dir):
    out = tmp_path / "out.json"
    rc, report = _run_check(fixture_dir / "circle_256.csv", capsys, "--json", str(out))
    assert (rc, report["verdict"]) == (0, "stationary")
    written = out.read_bytes()
    rc, report = _run_check(fixture_dir / "lemniscate_256.csv", capsys)
    assert (rc, report["verdict"]) == (0, "shrinker")
    assert out.read_bytes() == written
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("argv, code", [
    (["check"], 2),
    (["check", "circle_256.csv", "--tol"], 2),
    (["bounds", "1.0", "--tol", "0.1"], 2),
    (["check", "--help"], 0),
    (["--help"], 0),
])
def test_cli_main_runs_after_usage_error_or_help(capsys, fixture_dir, monkeypatch, argv, code):
    monkeypatch.chdir(fixture_dir)
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == code
    capsys.readouterr()
    rc, report = _run_check("clothoid_256.csv", capsys)
    assert (rc, report["verdict"]) == (0, "stationary")


def test_cli_builds_one_parser_per_process(tmp_path, capsys, fixture_dir, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._build_parser.cache_clear()  # as in a new process
    for i in range(20):
        argv = (["check", str(fixture_dir / "circle_256.csv")],
                ["bounds", "1.0"],
                ["generate", "--kind", "line", "--out", str(tmp_path / f"{i}.csv")])[i % 3]
        assert cli.main(argv) == 0
    capsys.readouterr()
    # One tree: the root parser and one per subcommand, built by the first call.
    assert built == ["curvediffusion"] + [f"curvediffusion {name}" for name in cli._HANDLERS]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "curvediffusion", "bounds", "1.0"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["T_star"] == pytest.approx(
        1.6040597272944278e-4, rel=1e-12
    )


# The public names of the package. README's Library section gives the rule
# a name is kept by; a change to this list is a change to the public surface.
_PUBLIC_NAMES = [
    "AmbiguousTurning", "AnalyticCurveSpec", "CURVE_DIFFUSION", "Circle",
    "CurveDiffusionError", "CurveFields", "CurveJet", "DegenerateGeometry", "DiscreteCurve",
    "DomainError", "ELASTIC", "FlowSpec", "FresnelFamily", "HypothesisViolated",
    "Lemniscate", "LifespanBounds", "Line", "MonitorSeries", "NonFinite", "NonRegular",
    "OpenCurve", "QuadratureFailure", "RotatorFit", "SEMI_IMPLICIT", "ScaleFit",
    "ShrinkerFit", "SolitonReport", "SolveFailure", "StationaryFit", "TooFewNodes",
    "TooFewSnapshots", "Trajectory", "TranslatorFit", "Undefined", "classify",
    "curvature_energy_identity", "curve_fields", "curve_from_csv", "curve_to_csv",
    "elliptic_K", "evolve", "fit_rotator", "fit_scale_profile", "fit_shrinker",
    "fit_stationary", "fit_translator", "frame_position_identity", "hausdorff_distance",
    "isoperimetric_decay_check", "lemniscate_point", "length", "monitors_to_csv",
    "normal_flux_identity", "normal_velocity", "normalize_shape", "osculating_discs_nested",
    "read_curve_csv", "report_to_dict", "resample_uniform", "sample_analytic",
    "segment_lengths", "signed_area", "spec_from_dict", "spec_to_dict", "time_bounds",
    "winding_number", "write_curve_csv", "write_monitors_csv", "write_run_directory",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(cd).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == _PUBLIC_NAMES


_SCIPY_PROBE = """
import contextlib, io, json, sys
import curvediffusion as cd
from curvediffusion import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

seen = {"import curvediffusion": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen[argv[0]] = code if code else scipy_modules()
# The probe sees a lazy import once a banded solve runs.
cd.resample_uniform(cd.sample_analytic(cd.Circle(1.0), 16), 16)
seen["resample_uniform"] = "scipy.linalg" in sys.modules
print(json.dumps(seen))
"""


def test_commands_without_a_solve_load_no_scipy(tmp_path, fixture_dir):
    argv = [["check", str(fixture_dir / "lemniscate_256.csv")],
            ["generate", "--kind", "lemniscate", "--nodes", "64",
             "--out", str(tmp_path / "lem.csv")],
            ["bounds", "1.0"]]
    src = str(Path(cd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import curvediffusion": [], "check": [],
                                       "generate": [], "bounds": [],
                                       "resample_uniform": True}
