"""One workload process: import the package, write the seeded inputs, print
READY, then run passes in a closed loop until the time budget is spent.

    python3 bench/worker.py --workload NAME --seed N --seconds S --work DIR
                            [--trace] [--setup-only]

Run it from the root of a checkout with `src` on PYTHONPATH; bench/run.py
does that. The last line of stdout is a JSON object with the passes, the
peak resident memory and, with --trace, the per-layer metrics. At least
one pass always runs, so --seconds 0 runs exactly one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()

    t0 = time.perf_counter()
    import scipy

    import curvediffusion as cd
    import curvediffusion.cli  # noqa: F401  (binds cd.cli)
    import_s = time.perf_counter() - t0
    package = Path(cd.__file__).resolve().parent
    if package != (root / "src" / "curvediffusion").resolve():
        print(f"error: imported curvediffusion from {package}, not from ./src",
              file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        workload = workloads.make_workload(args.workload, Path(args.work), args.seed, root)
        t1 = time.perf_counter()
        if tracer:
            tracer.phase = "setup"
        workload.setup(cd)
        if tracer:
            tracer.phase = None
        inputs_s = time.perf_counter() - t1
        print("READY", flush=True)
        if args.setup_only:
            return 0
        reference.reference_seconds()  # warm-up, untimed
        # A pass starts only if it is expected to end within the budget.
        passes = []
        start = time.perf_counter()
        while True:
            gc.collect()  # start every pass with the same collector state
            passes.append(workload.run_pass(cd, tracer).to_dict())
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break

    out = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        layers = tracing.layer_metrics(tracer.spans, len(passes))
        counts = {key: float(np.median([p["counts"][key] for p in passes]))
                  for key in passes[0]["counts"]}
        layers.update({
            "flow.steps": counts.get("steps", 0.0),
            "flow.snapshots": counts.get("snapshots", 0.0),
            "curve_io.bytes_written": counts.get("bytes_written", 0.0),
            "curve_io.bytes_read": counts["bytes_read"],
            "setup.import_s": import_s,
            "setup.inputs_s": inputs_s,
            "trace.passes": float(len(passes)),
        })
        out["layers"] = layers
        out["run_calls"] = tracing.run_calls(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
