"""Closed-form reference curves and the special functions they need.

Generators cover the exact solutions of the flow: circles and lines
(trivially stationary), the spiral family with curvature linear in arc
length (stationary, includes the clothoid), and the Bernoulli lemniscate
(the figure-eight that shrinks self-similarly). The spiral family is
parametrized by quadratures

    C(s; c1, c2) = integral_0^s cos(c1 t + c2 t^2) dt
    S(s; c1, c2) = integral_0^s sin(c1 t + c2 t^2) dt

followed by a rotation and a translation; the resulting curve is
arc-length parametrized with curvature kappa(s) = 2 c2 s + c1. The
complete elliptic integral K(m) fixes the lemniscate's length 4 K(-1).

Everything here is a pure function with no special-function dependency.
Both quadratures use one composite 16-point Gauss-Legendre rule on panels
laid out in advance from the integrand: the spiral's panels keep the
tangent's turn below 1 rad, and the panels for K(m) grow geometrically
away from the integrand's peak.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .errors import DomainError, QuadratureFailure, TooFewNodes
from .geometry import DiscreteCurve

# Smallest sample any generator will emit. Four points suffice to carry a
# polygon; derivative operators impose their own stricter floor.
MIN_SAMPLE_NODES = 4

# A panel layout that would need more than _MAX_PANELS panels is refused
# before it is allocated.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 2**20


def _gauss_legendre(f, edges: np.ndarray) -> np.ndarray:
    """Integral of f over each panel [edges[i], edges[i + 1]].

    f takes an array; it is called once per node with one point in every
    panel, so memory stays proportional to the number of panels.
    """
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    return half * sum(w * f(mid + x * half) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def _require_panels(count: float) -> None:
    # Checked on the float count, before anything of that size is allocated;
    # a NaN count is refused too.
    if not count <= _MAX_PANELS:
        raise QuadratureFailure(
            f"quadrature would need {count:.3g} panels, more than {_MAX_PANELS}"
        )


def _elliptic_k_agm(m: float) -> float:
    # K(m) = pi / (2 * AGM(1, sqrt(1 - m))), valid for m < 1.
    a, b = 1.0, float(np.sqrt(1.0 - m))
    for _ in range(64):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), float(np.sqrt(a * b))
    return float(np.pi / (2.0 * a))


def _elliptic_k_quadrature(m: float) -> float:
    # The tests' independent reference for elliptic_K (they agree to ~1e-15).
    # K(m) = integral_0^{pi/2} (a + b sin^2 t)^(-1/2) dt with a, b >= 0: t = theta
    # for m <= 0 (a = 1, b = -m), t = pi/2 - theta for m > 0 (a = 1 - m, b = m),
    # which puts the peak at t = 0 and avoids the cancellation in
    # 1 - m sin^2 theta as m -> 1. The peak has width about sqrt(a / b); the
    # panels start at that width and double up to pi/2.
    a, b = (1.0, -m) if m <= 0.0 else (1.0 - m, m)
    steep = np.sqrt(b / a)
    doublings = np.ceil(np.log2(max(np.pi / 2.0 * steep, 1.0)))
    _require_panels(doublings + 1.0)
    edges = np.concatenate([[0.0], 2.0 ** np.arange(int(doublings)) / steep, [np.pi / 2.0]])
    panels = _gauss_legendre(lambda t: 1.0 / np.sqrt(a + b * np.sin(t) ** 2), edges)
    return float(np.sum(panels))


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter form:
    K(m) = integral_0^{pi/2} (1 - m sin^2 theta)^(-1/2) dtheta for m < 1,
    by the AGM iteration K(m) = pi / (2 AGM(1, sqrt(1 - m))).
    """
    if m >= 1.0:
        raise DomainError(f"elliptic_K requires m < 1, got {m}")
    return _elliptic_k_agm(m)


@dataclass(frozen=True)
class CurveJet:
    """Pointwise curve data: position, frame, curvature and its s-derivatives.

    gamma_dot_nu is the support-style inner product <gamma, nu> that the
    shrinker equation pairs with kappa_ss.
    """

    point: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    kappa: np.ndarray
    kappa_s: np.ndarray
    kappa_ss: np.ndarray
    gamma_dot_nu: np.ndarray


def lemniscate_point(u, scale: float = 1.0) -> CurveJet:
    """Exact fields of the Bernoulli lemniscate at parameter u.

    The unit-scale curve is gamma(u) = (cos u, sin u cos u) / (1 + sin^2 u),
    a figure eight with crossing at the origin. Closed forms:

        kappa    =  3 cos u / (1 + sin^2 u)^(1/2)
        kappa_s  = -6 sin u / (1 + sin^2 u)
        kappa_ss = -6 cos^3 u / (1 + sin^2 u)^(3/2)
        <gamma, nu> = cos u (sin^2 u - 1) / (1 + sin^2 u)^(3/2)

    so kappa_ss = 6 <gamma, nu> identically: the curve satisfies the
    shrinker equation kappa_ss + K <gamma, nu> = 0 with K = -6. Scaling by
    rho multiplies coordinates by rho and maps K to K / rho^4, hence the
    extinction time rho^4 / 24.

    Accepts scalar or array u; fields broadcast accordingly. Raises
    DomainError for a scale at which a field leaves the double range.
    """
    if scale <= 0.0:
        raise DomainError(f"lemniscate scale must be positive, got {scale}")
    u = np.asarray(u, dtype=float)
    s, c = np.sin(u), np.cos(u)
    den = 1.0 + s**2

    # gamma_u = (-s (3 - s^2), c^2 - 2 s^2) / den^2 with |gamma_u| = den^(-1/2).
    tangent = np.stack([-s * (3.0 - s**2), c**2 - 2.0 * s**2], axis=-1) / den[
        ..., None
    ] ** 1.5
    normal = np.stack([-tangent[..., 1], tangent[..., 0]], axis=-1)
    kappa = 3.0 * c / np.sqrt(den)
    kappa_s = -6.0 * s / den
    kappa_ss = -6.0 * c**3 / den**1.5
    gamma_dot_nu = c * (s**2 - 1.0) / den**1.5

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return CurveJet(
                point=_lemniscate_nodes(u, scale),
                tangent=tangent,
                normal=normal,
                kappa=kappa / scale,
                kappa_s=kappa_s / scale**2,
                kappa_ss=kappa_ss / scale**3,
                gamma_dot_nu=scale * gamma_dot_nu,
            )
    except (OverflowError, FloatingPointError):
        raise DomainError(f"lemniscate scale {scale!r} puts the curvature jet "
                          "outside the double range") from None


def _lemniscate_nodes(u: np.ndarray, scale: float) -> np.ndarray:
    """The points scale (cos u, sin u cos u) / (1 + sin^2 u), shape (..., 2)."""
    s, c = np.sin(u), np.cos(u)
    den = 1.0 + s**2
    return scale * np.stack([c / den, s * c / den], axis=-1)


@dataclass(frozen=True)
class Circle:
    """Circle of radius `radius` (1 unless given) about `center`, sampled
    counterclockwise for orientation = 1."""

    radius: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)
    orientation: int = 1

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise DomainError(f"circle radius must be positive, got {self.radius}")
        _check_orientation(self.orientation)


@dataclass(frozen=True)
class Lemniscate:
    scale: float = 1.0
    orientation: int = 1

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise DomainError(f"lemniscate scale must be positive, got {self.scale}")
        _check_orientation(self.orientation)


@dataclass(frozen=True)
class FresnelFamily:
    """Spiral with kappa(s) = 2 c2 s + c1, rotated by theta, shifted by v.

    c2 = 0 with c1 != 0 gives a circular arc of curvature c1; c1 = c2 = 0,
    the default, gives a straight segment. Both are permitted.
    """

    c1: float = 0.0
    c2: float = 0.0
    theta: float = 0.0
    v: tuple[float, float] = (0.0, 0.0)
    s_min: float = 0.0
    s_max: float = 1.0
    orientation: int = 1

    def __post_init__(self) -> None:
        if not self.s_min < self.s_max:
            raise DomainError(
                f"need s_min < s_max, got [{self.s_min}, {self.s_max}]"
            )
        _check_orientation(self.orientation)


@dataclass(frozen=True)
class Line:
    point: tuple[float, float] = (0.0, 0.0)
    direction: tuple[float, float] = (1.0, 0.0)
    s_min: float = 0.0
    s_max: float = 1.0
    orientation: int = 1

    def __post_init__(self) -> None:
        if np.hypot(*self.direction) == 0.0:
            raise DomainError("line direction must be nonzero")
        if not self.s_min < self.s_max:
            raise DomainError(
                f"need s_min < s_max, got [{self.s_min}, {self.s_max}]"
            )
        _check_orientation(self.orientation)


AnalyticCurveSpec = Circle | Lemniscate | FresnelFamily | Line


def _check_orientation(value: int) -> None:
    if value not in (1, -1):
        raise DomainError(f"orientation must be +1 or -1, got {value}")


def _fresnel_sample(spec: FresnelFamily, s_values: np.ndarray) -> np.ndarray:
    # The path 0 -> s_0 -> s_1 -> ... is cut into segments, and each segment
    # into k equal panels, so that the phase c1 t + c2 t^2, whose slope is at
    # most `rate` on the path, changes by at most 1 rad on any panel.
    c1, c2 = spec.c1, spec.c2
    path = np.concatenate([[0.0], s_values])
    step = np.diff(path)
    rate = abs(c1) + 2.0 * abs(c2) * np.max(np.abs(path))
    per_segment = np.maximum(np.ceil(rate * np.abs(step)), 1.0)
    _require_panels(per_segment.sum())
    k = per_segment.astype(int)
    ends = np.cumsum(k)
    seg = np.repeat(np.arange(len(k)), k)
    frac = (np.arange(ends[-1]) - (ends - k)[seg]) / k[seg]
    edges = np.append(path[seg] + step[seg] * frac, path[-1])
    panels = _gauss_legendre(lambda t: np.exp(1j * (c1 * t + c2 * t * t)), edges)
    z = np.cumsum(panels)[ends - 1]
    base = np.column_stack([z.real, z.imag])
    ct, st = np.cos(spec.theta), np.sin(spec.theta)
    rot = np.array([[ct, -st], [st, ct]])
    return base @ rot.T + np.asarray(spec.v, dtype=float)


def sample_analytic(spec: AnalyticCurveSpec, n: int) -> DiscreteCurve:
    """Uniform-parameter sample of an analytic curve.

    Closed kinds sample u over [0, 2 pi) without repeating the seam node;
    open kinds sample s over [s_min, s_max] inclusive. orientation = -1
    reverses the node order. A FresnelFamily node integrates the unit
    tangent exp(i (c1 t + c2 t^2)) from 0 with composite Gauss-Legendre
    panels on which the tangent turns by at most 1 rad; QuadratureFailure
    is raised when that would need more than 2**20 panels.
    """
    if n < MIN_SAMPLE_NODES:
        raise TooFewNodes(f"sample_analytic needs N >= {MIN_SAMPLE_NODES}, got {n}")
    if isinstance(spec, Circle):
        u = 2.0 * np.pi * np.arange(n) / n
        nodes = np.asarray(spec.center, dtype=float) + spec.radius * np.column_stack(
            [np.cos(u), np.sin(u)]
        )
        curve = DiscreteCurve(nodes, closed=True)
    elif isinstance(spec, Lemniscate):
        u = 2.0 * np.pi * np.arange(n) / n
        curve = DiscreteCurve(_lemniscate_nodes(u, spec.scale), closed=True)
    elif isinstance(spec, FresnelFamily):
        s = np.linspace(spec.s_min, spec.s_max, n)
        curve = DiscreteCurve(_fresnel_sample(spec, s), closed=False)
    elif isinstance(spec, Line):
        direction = np.asarray(spec.direction, dtype=float)
        direction = direction / np.hypot(*direction)
        s = np.linspace(spec.s_min, spec.s_max, n)
        nodes = np.asarray(spec.point, dtype=float) + s[:, None] * direction
        curve = DiscreteCurve(nodes, closed=False)
    else:
        raise TypeError(f"unknown analytic spec {type(spec).__name__}")
    return curve.reversed() if spec.orientation == -1 else curve


_SPEC_KINDS = {
    "circle": Circle,
    "lemniscate": Lemniscate,
    "fresnel": FresnelFamily,
    "line": Line,
}


def spec_to_dict(spec: AnalyticCurveSpec) -> dict:
    """JSON-ready dict with a `kind` discriminator."""
    for kind, cls in _SPEC_KINDS.items():
        if isinstance(spec, cls):
            return {"kind": kind, **{key: list(value) if isinstance(value, tuple) else value
                                     for key, value in asdict(spec).items()}}
    raise TypeError(f"unknown analytic spec {type(spec).__name__}")


def _is_number(value) -> bool:
    """A JSON number (not a bool) that is a finite double: not NaN, not
    infinite, and not an integer too large to convert."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# Field annotation (a string, by `from __future__`) -> (JSON type, its test, conversion).
_JSON_TYPES = {
    "float": ("a finite number", _is_number, float),
    "int": ("a finite integer", lambda v: _is_number(v) and float(v).is_integer(), int),
    "tuple[float, float]": (
        "a pair of finite numbers",
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
        lambda v: (float(v[0]), float(v[1]))),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "bool": ("true or false", lambda v: isinstance(v, bool), bool),
    "dict": ("a JSON object", lambda v: isinstance(v, dict), dict),
}


def _from_json(cls, data, where: str):
    """cls(**data) for a dataclass cls whose every `X | None` field defaults to None.

    Each key must be a field, its value of the field's type in _JSON_TYPES or,
    for `X | None`, null. Raises ValueError naming the offending key."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object")
    annotations = {f.name: f.type for f in fields(cls)}
    for f in fields(cls):
        if f.default is MISSING and f.name not in data:
            raise ValueError(f"{where} is missing the {f.name!r} field")
    values = {}
    for key, value in data.items():
        if key not in annotations:
            raise ValueError(f"{where} has no field {key!r}; fields: {', '.join(annotations)}")
        if value is None and annotations[key].endswith(" | None"):
            continue
        expected, accepts, convert = _JSON_TYPES[annotations[key].removesuffix(" | None")]
        if not accepts(value):
            raise ValueError(f"{where} field {key!r} must be {expected}, got {value!r}")
        values[key] = convert(value)
    return cls(**values)


def spec_from_dict(data: dict) -> AnalyticCurveSpec:
    """Inverse of spec_to_dict; raises ValueError on malformed input.

    `kind` names the class and every other key must be one of its fields,
    typed as _from_json requires; omitted fields take the class defaults.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("analytic spec JSON must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ValueError(f"unknown analytic curve kind {kind!r}")
    return _from_json(_SPEC_KINDS[kind], {k: v for k, v in data.items() if k != "kind"},
                      f"{kind!r} spec")
