"""Span tracer that wraps the package's public functions from outside.

The package binds functions by name (`from .geometry import curve_fields`
in flow, monitor and soliton), so wrapping one attribute is not enough:
`Tracer.installed` rebinds each wrapped function in every
`curvediffusion` module namespace that holds it, geometry's own included,
and restores the originals on exit. Spans (name, start, end, parent, N,
phase) stay in memory; `layer_metrics` turns them into the per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import sys
import time

import numpy as np

# (module, attribute, span name). flow.splu is the sparse LU factorization
# inside flow.step; the factor it returns is wrapped so that its solve
# calls become "flow.step.solve" spans.
LAYERS = (
    ("flow", "evolve", "flow.evolve"),
    ("flow", "step", "flow.step"),
    ("flow", "splu", "flow.step.factor"),
    (None, None, "flow.step.solve"),
    ("flow", "auto_dt", "flow.auto_dt"),
    ("flow", "fit_scale_profile", "flow.fit_scale_profile"),
    ("geometry", "curve_fields", "geometry.curve_fields"),
    ("geometry", "resample_uniform", "geometry.resample_uniform"),
    ("geometry", "length", "geometry.length"),
    ("geometry", "segment_lengths", "geometry.segment_lengths"),
    ("monitor", "monitor_curves", "monitor.monitor_curves"),
    ("monitor", "dissipation", "monitor.dissipation"),
    ("curve_io", "write_run_directory", "curve_io.write_run_directory"),
    ("curve_io", "write_curve_csv", "curve_io.write_curve_csv"),
    ("curve_io", "curve_to_svg", "curve_io.curve_to_svg"),
    ("curve_io", "write_monitors_csv", "curve_io.write_monitors_csv"),
    ("curve_io", "read_curve_csv", "curve_io.read_curve_csv"),
    ("soliton", "classify", "soliton.classify"),
    ("soliton", "fit_stationary", "soliton.fit_stationary"),
    ("soliton", "fit_shrinker", "soliton.fit_shrinker"),
    ("soliton", "fit_translator", "soliton.fit_translator"),
    ("soliton", "fit_rotator", "soliton.fit_rotator"),
    ("soliton", "report_to_dict", "soliton.report_to_dict"),
    ("analytic", "sample_analytic", "analytic.sample_analytic"),
    ("cli", "main", "cli.main"),
)
# Layers that run while the inputs are generated, reported per set-up
# instead of per pass.
SETUP_LAYERS = ("analytic.sample_analytic",)
# Layers whose per-call percentiles are reported; they reach 1000 calls in
# a run on at least one workload.
PERCENTILE_LAYERS = (
    "flow.step", "flow.step.solve", "geometry.curve_fields",
    "geometry.segment_lengths", "geometry.length", "soliton.classify",
    "curve_io.read_curve_csv", "cli.main",
)
# Layers broken out by the node count of the curve they were called on.
BY_SIZE_LAYERS = ("geometry.curve_fields", "soliton.classify", "curve_io.read_curve_csv")
SIZES = (256, 512, 1024, 4096)
# Counts the worker and the orchestrator add beside the span metrics.
EXTRA_METRICS = {
    "flow.steps": "count",
    "flow.snapshots": "count",
    "geometry.segment_lengths.per_step": "ratio",
    "curve_io.bytes_written": "bytes",
    "curve_io.bytes_read": "bytes",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.passes": "count",
    "raw.wall_s": "s",
    "raw.cpu_s": "s",
    "raw.check_ms_p50": "ms",
    "raw.check_ms_p90": "ms",
    "raw.reference_ms": "ms",
    "trace_overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in reporting order."""
    units: dict[str, str] = {}
    for _, _, name in LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s",
                      f"{name}.self_s": "s"})
        if name == "flow.step":
            units["flow.step.build.total_s"] = "s"
        if name in PERCENTILE_LAYERS:
            units.update({f"{name}.p50_ms": "ms", f"{name}.p99_ms": "ms"})
        if name in BY_SIZE_LAYERS:
            units.update({f"{name}.N{n}.per_call_ms": "ms" for n in SIZES})
    units.update(EXTRA_METRICS)
    return units


class _TracedFactor:
    """Stands in for the object splu returns; only `solve` is traced."""

    def __init__(self, lu, solve) -> None:
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans while `phase` is set ("setup" or "pass")."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    getattr(args[0], "n", None) if args else None, tracer.phase]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if span[4] is None:
                span[4] = getattr(result, "n", None)
            return result

        return traced

    def _wrap_splu(self, splu):
        factor = self.wrap("flow.step.factor", splu)

        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TracedFactor(lu, self.wrap("flow.step.solve", lu.solve))

        return traced_splu

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapped function in all loaded package modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "curvediffusion" or name.startswith("curvediffusion.")}
        wrappers = {}
        for module, attr, name in LAYERS:
            # A function the package no longer has reports zero calls.
            original = getattr(modules.get(f"curvediffusion.{module}"), str(attr), None)
            if original is None:
                continue
            wrapper = (self._wrap_splu(original) if attr == "splu"
                       else self.wrap(name, original))
            wrappers[id(original)] = (original, wrapper)
        saved = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        try:
            yield self
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics from spans: calls, total and self seconds per pass
    (per set-up for SETUP_LAYERS), per-call percentiles over the whole run,
    and mean per-call milliseconds by node count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    groups: dict[str, list[tuple[float, float, int | None]]] = {}
    for (name, start, end, _, n, phase), child in zip(spans, child_time):
        wanted = "setup" if name in SETUP_LAYERS else "pass"
        if phase == wanted:
            groups.setdefault(name, []).append((end - start, end - start - child, n))

    out: dict[str, float] = {}
    for _, _, name in LAYERS:
        rows = groups.get(name, [])
        per = 1 if name in SETUP_LAYERS else max(passes, 1)
        total = sum(r[0] for r in rows)
        own = sum(r[1] for r in rows)
        out[f"{name}.calls"] = len(rows) / per
        out[f"{name}.total_s"] = total / per
        out[f"{name}.self_s"] = own / per
        if name == "flow.step":
            out["flow.step.build.total_s"] = own / per
        if name in PERCENTILE_LAYERS:
            ms = np.array([r[0] for r in rows]) * 1e3
            out[f"{name}.p50_ms"] = float(np.percentile(ms, 50)) if ms.size else 0.0
            out[f"{name}.p99_ms"] = float(np.percentile(ms, 99)) if ms.size else 0.0
        if name in BY_SIZE_LAYERS:
            for size in SIZES:
                ms = [r[0] * 1e3 for r in rows if r[2] == size]
                out[f"{name}.N{size}.per_call_ms"] = float(np.mean(ms)) if ms else 0.0
    steps = out["flow.step.calls"]
    out["geometry.segment_lengths.per_step"] = (
        out["geometry.segment_lengths.calls"] / steps if steps else 0.0)
    return out


def run_calls(spans: list[list]) -> dict[str, int]:
    """Pass-phase calls over the whole run of each PERCENTILE_LAYERS layer,
    the sample count behind its percentiles."""
    calls = dict.fromkeys(PERCENTILE_LAYERS, 0)
    for span in spans:
        if span[0] in calls and span[5] == "pass":
            calls[span[0]] += 1
    return calls
