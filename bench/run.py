"""Benchmark of the curvediffusion package, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl
    python3 bench/run.py --self-test

A run prints every metric with its unit, one per line, then the
environment, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. --out appends the run, with
its environment, to a JSON-lines result set that --compare reads.

Each workload runs in its own process (bench/worker.py) with src on
PYTHONPATH and the BLAS/OpenMP thread pools capped; --trace 1 runs an
untraced and a traced process, half of --seconds each, so that the
untraced one installs no wrappers. Pass and check timings are measured in
units of the fixed computation of bench/reference.py, timed in the same
run, and given in nominal seconds (reference.NOMINAL_S per unit). See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
    "success_ratio": "ratio",
    "length_err": "ratio",
    "K_err": "1",
    "shape_drift": "ratio",
}
# set-up time is the median of this many fresh processes, the measuring
# process included.
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A run, all its worker processes together, is stopped after this long.
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def thread_cap() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: str(thread_cap()) for var in THREAD_VARS})
    return env


def run_worker(root: Path, work: Path, workload: str, seed: int, seconds: float,
               deadline: float, trace: bool = False,
               setup_only: bool = False) -> tuple[float, dict | None]:
    """Start one worker process, killed at the time.monotonic() `deadline`;
    return (seconds from start to READY, its JSON result or None for a
    set-up-only worker)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--work", str(work)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{workload} worker exited with code {code}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tally(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations; a pass fails at most its ops."""
    attempted = sum(p["ops"] for p in passes)
    failed = sum(min(len(p["failures"]), p["ops"]) for p in passes)
    return attempted, failed


def timings(passes: list[dict]) -> dict[str, float]:
    """Pass and check timings of a run in nominal seconds, and the raw
    ones they come from.

    A nominal time is a measured time over the reference time of the same
    run, times reference.NOMINAL_S. wall_s and cpu_s divide a pass's mean
    time by the mean time of all the run's reference runs: the host's slow
    phases last from seconds to minutes, and the references taken
    throughout the run see the same phases as its passes. check_ms_p50 and
    check_ms_p90 are percentiles of each check's latency over the mean of
    the reference runs just before and just after it, which removes even
    the phases that change within a pass.
    """
    refs = [ms for p in passes for ms in p["ref_ms"]]
    checks = [ms for p in passes for ms in p["check_ms"]]
    ratios = [2.0 * ms / (before + after) for p in passes
              for ms, before, after in zip(p["check_ms"], p["ref_ms"], p["ref_ms"][1:])]
    if len(ratios) < 2:
        raise BenchError("fewer than two checks ran, so no timing can be given")
    ref_s = statistics.fmean(refs) / 1e3
    wall_s = statistics.fmean(p["wall_s"] for p in passes)
    cpu_s = statistics.fmean(p["cpu_s"] for p in passes)
    nominal_ms = 1e3 * reference.NOMINAL_S
    return {
        "wall_s": wall_s / ref_s * reference.NOMINAL_S,
        "cpu_s": cpu_s / ref_s * reference.NOMINAL_S,
        "check_ms_p50": _percentile(ratios, 50) * nominal_ms,
        "check_ms_p90": _percentile(ratios, 90) * nominal_ms,
        "raw.wall_s": wall_s,
        "raw.cpu_s": cpu_s,
        "raw.check_ms_p50": _percentile(checks, 50),
        "raw.check_ms_p90": _percentile(checks, 90),
        "raw.reference_ms": ref_s * 1e3,
    }


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    passes = result["passes"]
    attempted, failed = tally(passes)
    metrics = {
        "setup_s": _median(setups),
        **{k: v for k, v in timings(passes).items() if k in END_TO_END},
        "peak_rss_mb": result["peak_rss_mb"],
        "success_ratio": 1.0 - failed / attempted,
    }
    for key in ("length_err", "K_err", "shape_drift"):
        values = [p["accuracy"][key] for p in passes if key in p["accuracy"]]
        metrics[key] = _median(values) if values else 0.0
    return metrics


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, args, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **versions,
        "thread_caps": {var: str(thread_cap()) for var in THREAD_VARS},
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(root: Path, args) -> tuple[dict, dict, list[str]]:
    """Run the workload; return (final JSON object, environment, report lines)."""
    base = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace:
            _, plain = run_worker(root, base / "plain", args.workload, args.seed,
                                  args.seconds / 2, deadline)
            _, traced = run_worker(root, base / "traced", args.workload, args.seed,
                                   args.seconds / 2, deadline, trace=True)
            main, notes = traced, {}
            metrics = dict(traced["layers"])
            plain_timings = timings(plain["passes"])
            metrics.update({k: v for k, v in plain_timings.items() if k.startswith("raw.")})
            metrics["trace_overhead"] = (
                timings(traced["passes"])["wall_s"] / plain_timings["wall_s"] - 1.0)
            units = tracing.per_layer_units()
            for name, calls in traced["run_calls"].items():
                notes[f"{name}.p50_ms"] = notes[f"{name}.p99_ms"] = (
                    f"{calls} calls in the run" + (" (< 1000)" if calls < 1000 else ""))
            passes = plain["passes"] + traced["passes"]
        else:
            setups = [run_worker(root, base / f"setup{i}", args.workload, args.seed, 0,
                                 deadline, setup_only=True)[0]
                      for i in range(SETUP_SAMPLES - 1)]
            setup_s, main = run_worker(root, base / "main", args.workload, args.seed,
                                       args.seconds, deadline)
            setups.append(setup_s)
            metrics = end_to_end(main, setups)
            units = END_TO_END
            passes = main["passes"]
            raw = timings(passes)
            n_checks = sum(len(p["check_ms"]) for p in passes)
            notes = {
                "setup_s": f"median of {len(setups)} fresh processes",
                "wall_s": f"nominal, mean of {len(passes)} passes; raw {raw['raw.wall_s']:.4g} s, "
                          f"reference {raw['raw.reference_ms']:.4g} ms (mean of {n_checks})",
                "cpu_s": f"nominal, mean of {len(passes)} passes; raw {raw['raw.cpu_s']:.4g} s",
                "check_ms_p50": f"nominal, {n_checks} checks; raw {raw['raw.check_ms_p50']:.4g} ms",
                "check_ms_p90": f"nominal, {n_checks} checks; raw {raw['raw.check_ms_p90']:.4g} ms",
            }
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()
    attempted, failed = tally(passes)
    unit_name = "checks" if args.workload == "classify_batch" else "passes"
    notes["success_ratio"] = f"fail_ratio {failed}/{attempted} {unit_name}"
    lines = []
    for name, unit in units.items():
        value = metrics[name]
        note = notes.get(name, "")
        if name.endswith(".calls") and value == 0:
            note = "absent on this workload"
        lines.append(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())
    for p in passes:
        lines.extend(f"  FAILED: {f}" for f in p["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, environment(root, args, main["versions"]), lines


def check_root(root: Path) -> None:
    """The benchmark builds nothing: it needs the package sources and the
    committed fixtures of a checkout."""
    for path in (root / "src" / "curvediffusion" / "__init__.py",
                 root / "tests" / "fixtures" / "lemniscate_256.csv"):
        if not path.is_file():
            raise BenchError(f"{path.relative_to(root)} is missing; run from the "
                             "root of a curvediffusion checkout")


SELF_TEST_SEEDS = (1, 2)
# The layout check averages the per-layer times over this many seconds of
# passes; single passes on a shared machine can swap the two largest layers.
LAYOUT_SECONDS = 10.0
# How far the accuracy metrics of two seeds may differ. The node-0 shift
# moves where redistribution puts the nodes of the lemniscate, which moves
# its shape_drift by a few percent and the other two by about 1e-5
# relative; everything else agrees to round-off.
SEED_RTOL = {"length_err": 1e-4, "K_err": 1e-4, "shape_drift": 0.1}


def self_test(root: Path) -> list[str]:
    """Problems found; empty when the benchmark is consistent.

    Checks that BENCHMARK.json lists the metrics the benchmark reports,
    that two seeds give the same step and snapshot counts and verdicts and
    matching accuracy, and that a traced run shows the layer layout the
    workloads were chosen for.
    """
    problems = []
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if [m["name"] for m in spec["per_layer"]] != list(tracing.per_layer_units()):
        problems.append("BENCHMARK.json per_layer differs from tracer.per_layer_units()")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    base = root / ".bench_work" / f"self-test-{os.getpid()}"
    deadline = time.monotonic() + 3 * RUN_TIMEOUT_S
    try:
        for workload in WORKLOADS:
            first, second = (
                run_worker(root, base / f"{workload}-{seed}", workload, seed, 0, deadline)[1]
                ["passes"][0] for seed in SELF_TEST_SEEDS)
            for p in (first, second):
                problems += [f"{workload}: {f}" for f in p["failures"]]
            for key in ("steps", "snapshots"):
                if first["counts"].get(key) != second["counts"].get(key):
                    problems.append(f"{workload}: {key} differ between seeds")
            if first["verdicts"] != second["verdicts"]:
                problems.append(f"{workload}: verdicts differ between seeds")
            for key, rtol in SEED_RTOL.items():
                a, b = first["accuracy"][key], second["accuracy"][key]
                if abs(a - b) > rtol * max(abs(a), abs(b)):
                    problems.append(f"{workload}: {key} {a:.6g} vs {b:.6g} "
                                    f"differ by more than {rtol:g} relative")
            layers = run_worker(root, base / f"{workload}-traced", workload, SELF_TEST_SEEDS[0],
                                LAYOUT_SECONDS, deadline, trace=True)[1]["layers"]
            # run.py adds trace_overhead and the raw.* timings itself
            added = {k for k in tracing.per_layer_units()
                     if k == "trace_overhead" or k.startswith("raw.")}
            if set(layers) != set(tracing.per_layer_units()) - added:
                problems.append(f"{workload}: traced metric names differ")
            problems += [f"{workload}: {p}" for p in layout_problems(workload, layers)]
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()
    return problems


def layout_problems(workload: str, layers: dict) -> list[str]:
    """The per-layer shape each workload was chosen for."""
    problems = []
    pass_s = layers["cli.main.total_s"]
    flow_calls = sum(v for k, v in layers.items()
                     if k.startswith("flow.") and k.endswith(".calls"))
    if workload == "lemniscate_evolve":
        if not layers["flow.step.total_s"] > 0.5 * pass_s:
            problems.append("flow.step is not the majority of a pass")
    elif workload == "clothoid_frames":
        if not layers["curve_io.write_run_directory.total_s"] > layers["flow.evolve.total_s"]:
            problems.append("curve_io writers are not the largest layer")
    elif flow_calls != 0:
        problems.append(f"{flow_calls:g} flow.* calls per pass")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run to this JSON-lines result set")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.compare:
            spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
            print(compare.report(spec, *(compare.load(Path(p)) for p in args.compare)))
            return 0
        check_root(root)
        if args.self_test:
            problems = self_test(root)
            for problem in problems:
                print(f"FAIL {problem}")
            print("self-test", "FAILED" if problems else "passed")
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        result, env, lines = measure(root, args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    print("\n".join(lines))
    print("env " + json.dumps(env))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
