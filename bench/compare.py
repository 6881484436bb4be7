"""Compare two result sets written by `bench/run.py --out`.

For each workload and metric it prints both sides' median and quartiles,
the ratio of the medians, and a verdict:

  better      the change wins at least 9 of every 10 pairs (runs paired in
              the order they were recorded, ties counting for neither) and
              the medians differ by more than the parent's interquartile
              range; or the spread is wider than the bound but every run
              of the change beats every run of the parent;
  unresolved  the spread of either side is wider than the metric's bound;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

Per-layer metrics have no bound, so only the pair rule applies to them and
"worse" is its mirror image.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Runs of a result set grouped by (workload, trace), in recorded order."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            run = json.loads(line)
            key = (run["env"]["workload"], int(run["env"]["trace"]))
            groups.setdefault(key, []).append(run["result"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float | None) -> str:
    sign = -1.0 if lower_is_better else 1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "better"
    if bound is None:
        return "worse" if losses >= 0.9 * len(pairs) and -gain > p3 - p1 else "unchanged"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better"
        return "unresolved"
    if pm and -gain / abs(pm) > bound:
        return "worse"
    return "unchanged"


def report(spec: dict, parent: dict, change: dict) -> str:
    """Text table for every (workload, trace) group present on both sides."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        lines.append(f"{workload} (trace {trace}): {len(p_runs)} parent runs, "
                     f"{len(c_runs)} change runs")
        lines.append(f"  {'metric':<44} {'parent q1/med/q3':>32} "
                     f"{'change q1/med/q3':>32} {'ratio':>7}  verdict")
        failed = [sum(r["failed"] for r in runs) for runs in (p_runs, c_runs)]
        attempted = [sum(r["attempted"] for r in runs) for runs in (p_runs, c_runs)]
        lines.append(f"  failed ops: parent {failed[0]}/{attempted[0]}, "
                     f"change {failed[1]}/{attempted[1]}")
        for name in p_runs[0]["metrics"]:
            if name not in metrics or not all(name in r["metrics"] for r in c_runs):
                continue
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            m = metrics[name]
            pq, cq = quartiles(pv), quartiles(cv)
            ratio = f"{cq[1] / pq[1]:7.3f}" if pq[1] else "    n/a"
            lines.append(
                f"  {name:<44} {_q(pq):>32} {_q(cq):>32} {ratio}  "
                f"{verdict(pv, cv, m['better'] == 'lower', m.get('bound'))}")
    if not lines:
        lines.append("no workload appears in both result sets")
    return "\n".join(lines)


def _q(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)
