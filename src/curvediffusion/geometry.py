"""Discrete plane curves and their differential-geometric operators.

A curve is an ordered list of planar nodes with a closed/open flag and an
implicit uniform parameter: node i sits at u_i = i * du. Closed curves
never repeat the first node.

Every per-node field the stencils see has one layout, (..., N, k): nodes on
the second to last axis, components on the last, and a scalar such as kappa
on a trailing length-1 axis. A stencil is a slice along the node axis, of a
closed field padded with its last row in front and its first row behind
(_wrap), or of an open field as it is, whose two end rows take one-sided
stencils. Leading axes are a stack (B, N, 2) of closed curves, which the
field kernel _fields also takes: a flow step records the states of its
table rows with one call, and row i of the record is bit-equal to
curve_fields of curve i. Open curves are never stacked.

All derivatives are second-order finite differences in the parameter u,
converted to arc-length derivatives with the chain rule (divide by the
local speed |gamma_u|). Curvature derivatives kappa_s and kappa_ss are
obtained by applying the discrete d/ds operator to the kappa field rather
than by symbolic formulas, so every field converges at O(1/N^2) on smooth
samples and the same code path serves analytic and simulated curves.

Conventions:
  * normal = tangent rotated by +pi/2, i.e. nu = (-t_y, t_x); a
    counterclockwise circle then has positive curvature and inward normal.
  * kappa = cross(gamma_u, gamma_uu) / (|gamma_u| |gamma_u| |gamma_u|) (signed): a product, so
    the fields and the controlled flow step commute exactly with scaling by powers of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AmbiguousTurning,
    HypothesisViolated,
    NonRegular,
    OpenCurve,
    TooFewNodes,
)

# Five-point arithmetic (two chained three-point stencils) needs this much room.
MIN_NODES_FIELDS = 8
# Segments shorter than this times the mean spacing count as degenerate.
REGULARITY_FACTOR = 1e-14
# Pre-rounding turning number must be this close to an integer.
WINDING_WINDOW = 0.1
# Open end stencils: rows i and N-1-i of the two ends, weighted for d/du (first three) and d2/du2.
_END_ROWS = np.array([[0, 1, 2, 0, 1, 2, 3], [-1, -2, -3, -1, -2, -3, -4]])
_END_WEIGHTS = np.array([[-3, 4, -1, 2, -5, 4, -1], [3, -4, 1, 2, -5, 4, -1]], float)[..., None]


@dataclass(frozen=True)
class DiscreteCurve:
    """Uniformly parametrized polyline sample of a plane curve.

    Parameters
    ----------
    nodes : (N, 2) array_like
        Planar node coordinates in parameter order.
    closed : bool
        Whether node N-1 connects back to node 0.
    """

    nodes: np.ndarray
    closed: bool

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError(f"nodes must have shape (N, 2), got {nodes.shape}")
        if nodes.shape[0] < 2:
            raise TooFewNodes(f"a curve needs at least 2 nodes, got {nodes.shape[0]}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "closed", bool(self.closed))

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def reversed(self) -> "DiscreteCurve":
        """Same point set traversed in the opposite direction.

        Closed curves keep node 0 first so that reversal is an involution
        on the node set, not just on the image.
        """
        if self.closed:
            order = np.r_[0, np.arange(self.n - 1, 0, -1)]
            return DiscreteCurve(self.nodes[order], True)
        return DiscreteCurve(self.nodes[::-1], False)


@dataclass(frozen=True)
class CurveFields:
    """Per-node geometric fields of a discrete curve.

    tangent, normal : (N, 2) unit vectors, normal = tangent rotated +pi/2.
    kappa, kappa_s, kappa_ss : (N,) signed curvature and its arc-length
        derivatives (units 1/length, 1/length^2, 1/length^3).
    seg : chord lengths of consecutive segments, as segment_lengths
        returns them (N closed, N-1 open); the length property is
        seg.sum(), bit-equal to length().
    speed : (N,) parameter speed |gamma_u| that turns d/du into d/ds.

    Derived from seg on first read and then kept, since a flow step reads
    neither:
    dl : (N,) arc-length quadrature weights; dl.sum() equals the
        polygonal length of the curve.
    s : (N,) cumulative arc length from node 0 (chord-length based).

    The record of a stack of closed curves (_fields) has a leading row axis
    on the seven arrays; length, dl and s are those of single records only.
    """

    tangent: np.ndarray
    normal: np.ndarray
    kappa: np.ndarray
    kappa_s: np.ndarray
    kappa_ss: np.ndarray
    seg: np.ndarray
    speed: np.ndarray

    @property
    def length(self) -> float:
        return float(self.seg.sum())

    @cached_property
    def dl(self) -> np.ndarray:
        # Trapezoidal weight: half of each adjacent segment; an open end has
        # one. A closed curve has as many segments as nodes.
        seg = self.seg
        closed = seg.size == self.kappa.size
        padded = np.concatenate([seg[-1:], seg] if closed else [[0.0], seg, [0.0]])
        return 0.5 * (padded[1:] + padded[:-1])

    @cached_property
    def s(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.seg[: self.kappa.size - 1])])


def _wrap(f: np.ndarray, closed: bool) -> np.ndarray:
    """A per-node field (..., N, k) laid out for the stencils: on a closed
    curve its last node row is prepended and its first appended, so that
    f[..., 2:, :], f[..., 1:-1, :] and f[..., :-2, :] are the next, own and
    previous rows of every node; an open field is returned as it is."""
    return np.concatenate([f[..., -1:, :], f, f[..., :1, :]], axis=-2) if closed else f


def _d_du(f: np.ndarray, closed: bool, second: bool = False):
    """Second-order d/du of a field (..., N, k) given as _wrap returns it, and
    with second=True the pair (d/du, d2/du2). Stencils are central, one-sided
    at the two end rows of an open field; u spans 2 pi closed and 1 open."""
    ahead, own, behind = f[..., 2:, :], f[..., 1:-1, :], f[..., :-2, :]
    d1 = ahead - behind
    d2 = ahead - 2.0 * own + behind if second else None
    du = 2.0 * np.pi / d1.shape[-2] if closed else 1.0 / (f.shape[-2] - 1)
    if not closed:
        c = np.take(f, _END_ROWS, axis=-2) * _END_WEIGHTS  # (..., 2, 7, k)
        e1 = c[..., 0, :] + c[..., 1, :] + c[..., 2, :]
        d1 = np.concatenate([e1[..., :1, :], d1, e1[..., 1:, :]], axis=-2)
        if second:
            e2 = c[..., 3, :] + c[..., 4, :] + c[..., 5, :] + c[..., 6, :]
            d2 = np.concatenate([e2[..., :1, :], d2, e2[..., 1:, :]], axis=-2)
    d1 /= 2.0 * du
    if not second:
        return d1
    d2 /= du**2
    return d1, d2


def _d_ds(values: np.ndarray, speed: np.ndarray, closed: bool) -> np.ndarray:
    """Arc-length derivative of a per-node field (..., N, k): the parameter
    stencil of _d_du divided by the local speed |gamma_u| (..., N). Leading
    axes are a closed stack's rows; a scalar field rides k = 1."""
    return _d_du(_wrap(values, closed), closed) / speed[..., None]


def segment_lengths(curve: DiscreteCurve) -> np.ndarray:
    """Chord lengths of consecutive segments (N for closed, N-1 for open).
    A chord beyond the double range comes back inf, without a warning."""
    f = _wrap(curve.nodes, curve.closed)
    with np.errstate(over="ignore"):
        diff = f[2:] - f[1:-1] if curve.closed else f[1:] - f[:-1]
        return np.hypot(diff[:, 0], diff[:, 1])


def _require_regular(seg: np.ndarray, exp: int = 0) -> np.ndarray:
    """Return seg once every chord length and their sum are finite and every
    chord is above the regularity floor. seg may be the chords scaled by
    2**-exp; a message then gives them in the curve's units. A stack (B, N)
    of chord rows is checked row by row: the first row that fails raises
    what it would raise alone."""
    with np.errstate(over="ignore"):
        total = seg.sum(axis=-1)
    floor = REGULARITY_FACTOR * (total / seg.shape[-1])
    if seg.ndim > 1:
        bad = np.flatnonzero(~(seg.min(axis=-1) > floor))
        return _require_regular(seg[bad[0]], exp) if bad.size else seg
    if not math.isfinite(floor):
        raise NonRegular(f"segment lengths are non-finite (their sum is {total})")
    if total == 0.0:
        raise NonRegular("every segment has length 0: the nodes coincide")
    if seg.min() <= floor:
        raise NonRegular(
            f"minimum segment length {math.ldexp(seg.min(), exp):.3e} is below the "
            f"regularity threshold {math.ldexp(floor, exp):.3e}"
        )
    return seg


def length(curve: DiscreteCurve) -> float:
    """Total polygonal length; closed curves include the wrap segment."""
    return float(_require_regular(segment_lengths(curve)).sum())


def signed_area(curve: DiscreteCurve) -> float:
    """Shoelace signed area, positive for counterclockwise embedded curves."""
    if not curve.closed:
        raise OpenCurve("signed_area requires a closed curve")
    f = _wrap(curve.nodes, True)
    (x, y), (xn, yn) = f[1:-1].T, f[2:].T
    return float(0.5 * np.sum(x * yn - y * xn))


def winding_number(curve: DiscreteCurve) -> int:
    """Total turning of the chord direction divided by 2*pi.

    The pre-rounding value must land within 0.1 of an integer; smooth
    samples with N >= 64 are within about 1e-3, so anything farther
    indicates a genuinely broken input.
    """
    if not curve.closed:
        raise OpenCurve("winding_number requires a closed curve")
    f = _wrap(curve.nodes, True)
    diff = f[2:] - f[1:-1]
    headings = np.arctan2(diff[:, 1], diff[:, 0])
    turns = np.diff(headings, append=headings[:1])
    turns = (turns + np.pi) % (2.0 * np.pi) - np.pi
    total = float(turns.sum() / (2.0 * np.pi))
    if not np.isfinite(total):
        raise AmbiguousTurning("turning angles are not finite")
    _require_regular(np.hypot(diff[:, 0], diff[:, 1]))
    nearest = round(total)
    if abs(total - nearest) > WINDING_WINDOW:
        raise AmbiguousTurning(
            f"turning number {total:.6f} is farther than {WINDING_WINDOW} "
            "from every integer"
        )
    return int(nearest)


def curve_fields(curve: DiscreteCurve) -> CurveFields:
    """Compute the full per-node field record for a curve.

    Raises
    ------
    TooFewNodes
        If the curve has fewer than 8 nodes (the chained three-point
        stencils for kappa_ss need that much support).
    NonRegular
        If any segment is degenerate, a node is not finite, a chord or the
        length is beyond the double range, or the parameter speed vanishes
        at a node (a fold-back, e.g. coinciding neighbours).
    """
    if curve.n < MIN_NODES_FIELDS:
        raise TooFewNodes(
            f"curve_fields needs at least {MIN_NODES_FIELDS} nodes, got {curve.n}"
        )
    return _fields(curve.nodes, curve.closed)


def _fields(nodes: np.ndarray, closed: bool) -> CurveFields:
    """The field record of the curve with these (N, 2) nodes, or, closed,
    of a stack (B, N, 2) of curves of at least 8 nodes each: its arrays then
    carry the leading row axis, and the row lengths are seg.sum(axis=-1). A
    row that is not regular raises NonRegular as curve_fields of that row
    would, node indices within it."""
    f = _wrap(nodes, closed)
    with np.errstate(over="ignore"):
        chord = f[..., 2:, :] - f[..., 1:-1, :] if closed else f[..., 1:, :] - f[..., :-1, :]
        seg = np.hypot(chord[..., 0], chord[..., 1])
    _require_regular(seg)

    g_u, g_uu = _d_du(f, closed, second=True)
    speed = np.hypot(g_u[..., 0], g_u[..., 1])
    if not speed.min() > 0.0:
        rows = speed.reshape(-1, speed.shape[-1])
        row = rows[np.argmin(rows.min(axis=-1) > 0.0)]
        node = int(np.argmin(row))
        raise NonRegular(f"parameter speed {row[node]:.3e} at node {node} is not "
                         "positive: the curve folds back on itself there")

    tangent = g_u / speed[..., None]
    normal = np.empty_like(tangent)
    np.negative(tangent[..., 1], out=normal[..., 0])
    normal[..., 1] = tangent[..., 0]
    cross = g_u[..., :1] * g_uu[..., 1:] - g_u[..., 1:] * g_uu[..., :1]
    kappa = cross / (speed * speed * speed)[..., None]
    kappa_s = _d_ds(kappa, speed, closed)
    kappa_ss = _d_ds(kappa_s, speed, closed)
    return CurveFields(tangent, normal, kappa[..., 0], kappa_s[..., 0], kappa_ss[..., 0],
                       seg, speed)


def _solve_banded(ab: np.ndarray, rhs: np.ndarray, l_and_u=None) -> np.ndarray:
    """Solve a banded system given in scipy.linalg's band storage: the upper
    form of a symmetric positive definite matrix (banded Cholesky) when
    l_and_u is None, else the general form with l_and_u = (lower, upper)
    bands (banded LU). scipy.linalg is imported here, on the first solve,
    so that a command that solves nothing never loads it."""
    from scipy import linalg

    if l_and_u is None:
        return linalg.solveh_banded(ab, rhs, check_finite=False)
    return linalg.solve_banded(l_and_u, ab, rhs, check_finite=False)


def _spline_moments(h: np.ndarray, d: np.ndarray, closed: bool) -> np.ndarray:
    """Second derivatives M, one row per knot, of the C2 cubic spline with
    knot spacings h and chord slopes d (one row per segment): periodic when
    closed, not-a-knot when open.

    Row i of the system is h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i]
    + h[i] M[i+1] = 6 (d[i] - d[i-1]). Closed, it is cyclic: a tridiagonal
    B plus h[-1] e e^T, e = e_0 + e_{N-1}, and Sherman-Morrison solves it
    from one Cholesky solve of B for the data and e together. Open, the
    not-a-knot conditions (the third derivative is continuous across the
    second and the second-to-last knot) eliminate the two end moments and
    leave a tridiagonal system that is no longer symmetric.
    """
    if closed:
        # The spacing and slope of the segment before each knot come first.
        h_pad = np.concatenate([h[-1:], h])
        diag = 2.0 * (h_pad[1:] + h_pad[:-1])
        diag[0] -= h[-1]
        diag[-1] -= h[-1]
        rhs = np.zeros((h.size, 3))
        rhs[:, :2] = 6.0 * np.diff(np.concatenate([d[-1:], d]), axis=0)
        rhs[0, 2] = rhs[-1, 2] = 1.0
        # Row 0 of the upper band storage starts with an unused entry.
        sol = _solve_banded(np.stack([h_pad[:-1], diag]), rhs)
        z = sol[:, 2]
        m = sol[:, :2] - z[:, None] * (h[-1] * (sol[0, :2] + sol[-1, :2])
                                       / (1.0 + h[-1] * (z[0] + z[-1])))
        return np.concatenate([m, m[:1]])
    r = 6.0 * np.diff(d, axis=0)
    if h.size < 3:
        # Through 2 nodes a line, through 3 a parabola: M is constant.
        return np.broadcast_to(r.sum(axis=0) / (3.0 * h.sum()), (h.size + 1, 2))
    h0, h1, a, b = h[0], h[1], h[-2], h[-1]
    diag = 2.0 * (h[:-1] + h[1:])
    diag[0] += h0 * (h0 + h1) / h1
    diag[-1] += b * (a + b) / a
    upper = np.concatenate([[0.0], h[1:-1]])
    lower = np.concatenate([h[1:-1], [0.0]])
    upper[1] = h1 - h0 * h0 / h1
    lower[-2] = a - b * b / a
    m = _solve_banded(np.stack([upper, diag, lower]), r, (1, 1))
    first = ((h0 + h1) * m[0] - h0 * m[1]) / h1
    last = ((a + b) * m[-1] - b * m[-2]) / a
    return np.vstack([first, m, last])


def resample_uniform(curve: DiscreteCurve, m: int) -> DiscreteCurve:
    """Redistribute to m nodes at equal arc-length spacing.

    Coordinates are interpolated with a C2 cubic spline against cumulative
    chord length (periodic for closed curves, not-a-knot for open ones),
    so the shape change is O(1/N^2). Node 0 is kept as the arc-length
    origin.
    """
    if m < MIN_NODES_FIELDS:
        raise TooFewNodes(f"resample_uniform needs M >= {MIN_NODES_FIELDS}, got {m}")
    seg = _require_regular(segment_lengths(curve))
    knots = np.concatenate([[0.0], np.cumsum(seg)])
    total = knots[-1]
    if curve.closed:
        pts = np.vstack([curve.nodes, curve.nodes[:1]])
        targets = total * np.arange(m) / m
    else:
        pts = curve.nodes
        targets = total * np.arange(m) / (m - 1)
    h = seg[:, None]
    d = np.diff(pts, axis=0) / h
    moments = _spline_moments(seg, d, curve.closed)
    lo, hi = moments[:-1], moments[1:]
    # Each segment's cubic in its local coordinate x, from its left knot.
    c1 = d - h * (2.0 * lo + hi) / 6.0
    c2 = 0.5 * lo
    c3 = (hi - lo) / (6.0 * h)
    i = np.clip(np.searchsorted(knots, targets, side="right") - 1, 0, seg.size - 1)
    x = (targets - knots[i])[:, None]
    y, a1, a2, a3 = (np.take(c, i, axis=0) for c in (pts, c1, c2, c3))
    nodes = y + x * (a1 + x * (a2 + x * a3))
    return DiscreteCurve(nodes, curve.closed)


def osculating_discs_nested(curve: DiscreteCurve, i_range) -> bool:
    """Pairwise nesting of osculating discs on an index range.

    The hypothesis is kappa strictly monotone and of one sign on the
    range; violation raises rather than returning False. Containment is
    tested for every pair i < j as |c_i - c_j| + r_small <= r_big + 1e-9.

    Parameters
    ----------
    i_range : slice or array_like of int
        Node indices, in curve order, to test.
    """
    idx = np.arange(curve.n)[i_range]
    if idx.size < 2:
        raise HypothesisViolated("need at least two indices to test nesting")
    fields = curve_fields(curve)
    kap = fields.kappa[idx]
    if np.any(kap == 0.0) or np.any(kap[0] * kap < 0.0):
        raise HypothesisViolated("kappa must be nonzero and of one sign on the range")
    dk = np.diff(kap)
    if not (np.all(dk > 0.0) or np.all(dk < 0.0)):
        raise HypothesisViolated("kappa must be strictly monotone on the range")

    centers = curve.nodes[idx] + fields.normal[idx] / kap[:, None]
    radii = 1.0 / np.abs(kap)
    # Pairwise test, vectorized: rows i, columns j, only i < j matters.
    dist = np.hypot(
        centers[:, None, 0] - centers[None, :, 0],
        centers[:, None, 1] - centers[None, :, 1],
    )
    big, small = np.maximum(radii[:, None], radii[None, :]), np.minimum(
        radii[:, None], radii[None, :]
    )
    ok = dist + small <= big + 1e-9
    return bool(np.all(ok[np.triu_indices(idx.size, k=1)]))


def normalize_shape(curve: DiscreteCurve) -> DiscreteCurve:
    """Translate the arc-length centroid to the origin and scale to unit length."""
    fields = curve_fields(curve)
    total = fields.length
    centroid = (curve.nodes * fields.dl[:, None]).sum(axis=0) / total
    return DiscreteCurve((curve.nodes - centroid) / total, curve.closed)


def hausdorff_distance(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Symmetric Hausdorff distance between the two node sets: the farthest
    any node of one set lies from its nearest node in the other.

    scipy.spatial is imported here, on the first call, so that importing the
    package never loads it."""
    from scipy.spatial.distance import directed_hausdorff

    return max(directed_hausdorff(a.nodes, b.nodes)[0], directed_hausdorff(b.nodes, a.nodes)[0])
