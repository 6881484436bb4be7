"""Command-line interface: generate, evolve, check, bounds.

An `evolve` config is read by analytic._from_json into _RunConfig, _InputConfig,
an analytic spec and flow.FlowSpec, whose fields are its only schema. The
`generate` flags are the analytic spec fields, read by the same function.

Exit codes: 0 success (check: a verdict exists), 1 check found no verdict,
2 invalid input or configuration, 3 file I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import analytic, curve_io, flow, monitor, soliton
from .errors import CurveDiffusionError, DomainError, TooFewSnapshots


def _spec_flags() -> dict[str, dict]:
    """add_argument keywords of the `generate` flag of each analytic spec field,
    by field name: a float or a pair, no default (spec_from_dict supplies the
    kind's defaults and refuses a field of another kind), the kinds as help."""
    kinds: dict[str, list[str]] = {}
    pairs = set()
    for kind, cls in analytic._SPEC_KINDS.items():
        for f in fields(cls):
            kinds.setdefault(f.name, []).append(kind)
            if f.type == "tuple[float, float]":
                pairs.add(f.name)
    return {name: {"dest": name, "type": float, "default": argparse.SUPPRESS,
                   "help": ", ".join(kinds[name]),
                   **({"nargs": 2, "metavar": ("X", "Y")} if name in pairs else {})}
            for name in kinds}


_SPEC_FLAGS = _spec_flags()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser every main() call shares, built by the first one: parse_args
    makes a fresh Namespace per call and never mutates the parser."""
    parser = argparse.ArgumentParser(
        prog="curvediffusion",
        description="Simulate curve diffusion flow of plane curves, generate "
        "exact soliton curves, classify solitons, and evaluate lifespan times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample an analytic curve to CSV")
    gen.add_argument("--kind", required=True, choices=list(analytic._SPEC_KINDS))
    gen.add_argument("--nodes", type=int, default=256)
    gen.add_argument("--out", required=True)
    for name, options in _SPEC_FLAGS.items():
        gen.add_argument(_flag(name), **options)

    evo = sub.add_parser("evolve", help="run a flow described by a JSON config")
    evo.add_argument("config", help="path to the run configuration JSON")

    chk = sub.add_parser("check", help="classify a curve file as a soliton")
    chk.add_argument("curve", help="path to a curve CSV")
    chk.add_argument("--tol", type=float, default=soliton.DEFAULT_TOL)
    chk.add_argument("--json", dest="json_out", default=None,
                     help="also write the report to this path")

    bnd = sub.add_parser("bounds", help="T_star, T_tilde and the figure-eight time T_fig8 of L0")
    bnd.add_argument("L0", type=float)
    bnd.add_argument("--json", dest="json_out", default=None,
                     help="also write the bounds to this path")
    return parser


def _flag(name: str) -> str:
    return "--" + name.replace("_", "")


def _spec_from_args(args: argparse.Namespace) -> analytic.AnalyticCurveSpec:
    """The spec of the given flags; an error names flags, not spec fields."""
    own = [f.name for f in fields(analytic._SPEC_KINDS[args.kind])]
    given = {name: getattr(args, name) for name in _SPEC_FLAGS if hasattr(args, name)}
    foreign = [name for name in given if name not in own]
    if foreign:
        raise ValueError(f"--kind {args.kind} takes no {_flag(foreign[0])}; "
                         f"its flags: {', '.join(map(_flag, own))}")
    try:
        return analytic.spec_from_dict({"kind": args.kind, **given})
    except DomainError as exc:
        message = str(exc)
        for name in own:
            if "_" in name:  # a field whose flag is spelled without it
                message = message.replace(name, _flag(name))
        raise DomainError(message) from None


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    curve = analytic.sample_analytic(spec, args.nodes)
    curve_io.write_curve_csv(curve, args.out)
    return 0


@dataclass(frozen=True)
class _RunConfig:
    """Top level of an `evolve` config; `flow` is read as a flow.FlowSpec."""

    input: dict
    flow: dict
    out_dir: str
    fit_scale: bool = True
    emit_svg: bool = False


@dataclass(frozen=True)
class _InputConfig:
    """The `input` object: a curve CSV path, or an analytic spec sampled at `nodes`."""

    path: str | None = None
    spec: dict | None = None
    nodes: int = 256

    def __post_init__(self) -> None:
        if (self.path is None) == (self.spec is None):
            raise ValueError("'input' needs exactly one of 'path' or 'spec'")


def _cmd_evolve(args: argparse.Namespace) -> int:
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    run = analytic._from_json(_RunConfig, config, "config")
    source = analytic._from_json(_InputConfig, run.input, "'input'")
    flow_data = {**run.flow, "dt": None} if run.flow.get("dt") == "auto" else run.flow
    spec = analytic._from_json(flow.FlowSpec, flow_data, "'flow'")
    if source.path is not None:
        curve = curve_io.read_curve_csv(source.path)
    else:
        curve = analytic.sample_analytic(analytic.spec_from_dict(source.spec), source.nodes)
    traj = flow.evolve(curve, spec)

    scale_fit = None
    if run.fit_scale:
        try:
            scale_fit = flow.fit_scale_profile(traj)
        except TooFewSnapshots:
            scale_fit = None
    curve_io.write_run_directory(run.out_dir, config, traj, scale_fit=scale_fit,
                                 emit_svg=run.emit_svg)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    curve = curve_io.read_curve_csv(args.curve)
    report = soliton.classify(curve, tol=args.tol)
    _print_json(soliton.report_to_dict(report), args.json_out)
    return 0 if report.verdict is not None else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    _print_json(monitor.time_bounds(args.L0).to_dict(), args.json_out)
    return 0


def _print_json(payload: dict, json_out) -> None:
    print(json.dumps(payload, indent=2))
    if json_out:
        curve_io.write_json(payload, json_out)


_HANDLERS = {
    "generate": _cmd_generate,
    "evolve": _cmd_evolve,
    "check": _cmd_check,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, CurveDiffusionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
