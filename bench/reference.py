"""A fixed reference computation that tells how fast this host runs right now.

A shared host slows every process on it, CPU time included, when other
tenants load the cores it shares with them: by 1.5-2x, in phases lasting
from a fraction of a second to many minutes. No statistic taken inside one
run removes a phase that lasts the whole run. So the workloads time this
computation right before every `check`, and the timings of BENCHMARK.json
are in units of its time ("ref"), measured in the same run under the same
load. A change to the package cannot move the reference: it uses numpy and
scipy directly and nothing of curvediffusion.

Its mix is that of a pass: a scipy.sparse operator build and a sparse LU
factor and solve at N=512, small-array numpy, and float text formatting
and parsing, all interpreter-bound.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

N = 512
ROUNDS = 1
# The reference's typical time on one uncontended core of a 2-vCPU Intel
# Xeon virtual machine (2.5-4.6 ms over 400 runs, median 4.3 ms). It only
# fixes the scale of the nominal seconds; it is never compared with a
# measured time.
NOMINAL_S = 4e-3


def _round(nodes: np.ndarray) -> np.ndarray:
    n = len(nodes)
    d2 = sp.diags([1.0, -2.0, 1.0, 1.0, 1.0], offsets=[-1, 0, 1, n - 1, -(n - 1)],
                  shape=(n, n), format="csr") * float(n * n)
    b4 = (d2.T @ d2).tocsc()
    lu = splu((sp.identity(n, format="csc") + 1e-7 * b4).tocsc())
    rhs = nodes + 1e-7 * (b4 @ nodes)
    moved = np.column_stack([lu.solve(rhs[:, 0]), lu.solve(rhs[:, 1])])
    seg = np.hypot(*(np.roll(moved, -1, axis=0) - moved).T)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    return np.column_stack([np.interp(arc[:-1], arc, np.append(moved[:, k], moved[0, k]))
                            for k in range(2)])


def reference_seconds() -> float:
    """Wall seconds of one fixed reference computation (about NOMINAL_S);
    checks its own result.

    The cyclic garbage collector is off while it runs, so that the objects
    the package leaves on the heap cannot change its time.
    """
    u = 2.0 * np.pi * np.arange(N) / N
    nodes = np.column_stack([np.cos(u), np.sin(u)])
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            nodes = _round(nodes)
            text = "\n".join(f"{x!r},{y!r}" for x, y in nodes.tolist())
            nodes = np.array([[float(v) for v in line.split(",")]
                              for line in text.splitlines()])
        elapsed = time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    radius = np.hypot(nodes[:, 0], nodes[:, 1])
    if not (np.all(np.isfinite(radius)) and abs(radius.mean() - 1.0) < 1e-2):
        raise RuntimeError("reference computation went wrong")
    return elapsed
