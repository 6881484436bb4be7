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

Everything here is a pure function; quadratures are adaptive Simpson with
interval bisection to absolute tolerance 1e-12, with no special-function
dependency so the values can be certified by Richardson extrapolation.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure, TooFewNodes
from .geometry import DiscreteCurve

# Smallest sample any generator will emit. Four points suffice to carry a
# polygon; derivative operators impose their own stricter floor.
MIN_SAMPLE_NODES = 4

_QUAD_TOL = 1e-12
_QUAD_MAX_DEPTH = 60


def _adaptive_simpson(f, a: float, b: float, tol: float = _QUAD_TOL,
                      max_depth: int = _QUAD_MAX_DEPTH):
    """Adaptive composite Simpson integral of f over [a, b].

    Works for real- or complex-valued f. Each bisection halves the local
    tolerance; the accepted estimate includes the standard (S_fine -
    S_coarse)/15 correction. Raises QuadratureFailure at the depth limit,
    or earlier if an unconverged interval shrinks below the spacing of
    representable floats (its midpoint collapses onto an endpoint, which
    would otherwise make the error estimate vacuously zero).
    """
    if a == b:
        return 0.0 * f(a)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def simpson(x0, x2, f0, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    fa, fb = f(a), f(b)
    m, fm, whole = simpson(a, b, fa, fb)
    total = 0.0 * fa
    # Stack of (left, mid, right, f(left), f(mid), f(right), S, tol, depth).
    stack = [(a, m, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        x0, x1, x2, f0, f1, f2, s_whole, loc_tol, depth = stack.pop()
        if not (x0 < x1 < x2):
            raise QuadratureFailure(
                f"integrand did not converge before the interval near "
                f"{x0:.6g} collapsed to machine precision"
            )
        lm, flm, s_left = simpson(x0, x1, f0, f1)
        rm, frm, s_right = simpson(x1, x2, f1, f2)
        err = s_left + s_right - s_whole
        if abs(err) <= 15.0 * loc_tol:
            total += s_left + s_right + err / 15.0
            continue
        if depth >= max_depth:
            raise QuadratureFailure(
                f"adaptive Simpson did not converge within {max_depth} "
                f"bisections on [{x0:.6g}, {x2:.6g}]"
            )
        half = 0.5 * loc_tol
        stack.append((x0, lm, x1, f0, flm, f1, s_left, half, depth + 1))
        stack.append((x1, rm, x2, f1, frm, f2, s_right, half, depth + 1))
    return sign * total


def _elliptic_k_agm(m: float) -> float:
    # K(m) = pi / (2 * AGM(1, sqrt(1 - m))), valid for m < 1.
    a, b = 1.0, float(np.sqrt(1.0 - m))
    for _ in range(64):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), float(np.sqrt(a * b))
    return float(np.pi / (2.0 * a))


def _elliptic_k_quadrature(m: float) -> float:
    def integrand(theta):
        return 1.0 / np.sqrt(1.0 - m * np.sin(theta) ** 2)

    return float(_adaptive_simpson(integrand, 0.0, np.pi / 2.0, tol=1e-14))


def elliptic_K(m: float, method: str = "auto") -> float:
    """Complete elliptic integral of the first kind, parameter form.

    K(m) = integral_0^{pi/2} (1 - m sin^2 theta)^(-1/2) dtheta for m < 1.
    The default route uses the AGM iteration for 0 <= m < 1 and adaptive
    quadrature for m < 0; pass method="agm" or method="quadrature" to pin
    one route (the two cross-check each other to about 1e-12).
    """
    if m >= 1.0:
        raise DomainError(f"elliptic_K requires m < 1, got {m}")
    if method == "agm":
        return _elliptic_k_agm(m)
    if method == "quadrature":
        return _elliptic_k_quadrature(m)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    return _elliptic_k_agm(m) if m >= 0.0 else _elliptic_k_quadrature(m)


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

    Accepts scalar or array u; fields broadcast accordingly.
    """
    if scale <= 0.0:
        raise DomainError(f"lemniscate scale must be positive, got {scale}")
    u = np.asarray(u, dtype=float)
    s, c = np.sin(u), np.cos(u)
    den = 1.0 + s**2

    point = np.stack([c / den, s * c / den], axis=-1)
    # gamma_u = (-s (3 - s^2), c^2 - 2 s^2) / den^2 with |gamma_u| = den^(-1/2).
    tangent = np.stack([-s * (3.0 - s**2), c**2 - 2.0 * s**2], axis=-1) / den[
        ..., None
    ] ** 1.5
    normal = np.stack([-tangent[..., 1], tangent[..., 0]], axis=-1)
    kappa = 3.0 * c / np.sqrt(den)
    kappa_s = -6.0 * s / den
    kappa_ss = -6.0 * c**3 / den**1.5
    gamma_dot_nu = c * (s**2 - 1.0) / den**1.5

    return CurveJet(
        point=scale * point,
        tangent=tangent,
        normal=normal,
        kappa=kappa / scale,
        kappa_s=kappa_s / scale**2,
        kappa_ss=kappa_ss / scale**3,
        gamma_dot_nu=scale * gamma_dot_nu,
    )


@dataclass(frozen=True)
class Circle:
    radius: float
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

    c2 = 0 with c1 != 0 gives a circular arc of curvature c1; c1 = c2 = 0
    gives a straight line. Both are permitted.
    """

    c1: float
    c2: float
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


def _fresnel_integrand(spec: FresnelFamily):
    c1, c2 = spec.c1, spec.c2

    def f(t):
        return np.exp(1j * (c1 * t + c2 * t * t))

    return f


def fresnel_point(s: float, spec: FresnelFamily) -> np.ndarray:
    """Point of the spiral family at arc length s (before orientation).

    Evaluates the cosine and sine quadratures to absolute tolerance 1e-12,
    then applies the family's rotation and translation.
    """
    return _fresnel_sample(spec, np.array([float(s)]))[0]


def _fresnel_sample(spec: FresnelFamily, s_values: np.ndarray) -> np.ndarray:
    # Integrate segment by segment so an N-point sample costs N short
    # quadratures instead of N integrals from zero. Per-segment tolerance
    # is tightened so the accumulated error stays near 1e-12.
    f = _fresnel_integrand(spec)
    seg_tol = _QUAD_TOL / max(1, len(s_values))
    z = np.empty(len(s_values), dtype=complex)
    z[0] = _adaptive_simpson(f, 0.0, float(s_values[0]), tol=_QUAD_TOL)
    for i in range(1, len(s_values)):
        z[i] = z[i - 1] + _adaptive_simpson(
            f, float(s_values[i - 1]), float(s_values[i]), tol=seg_tol
        )
    base = np.column_stack([z.real, z.imag])
    ct, st = np.cos(spec.theta), np.sin(spec.theta)
    rot = np.array([[ct, -st], [st, ct]])
    return base @ rot.T + np.asarray(spec.v, dtype=float)


def sample_analytic(spec: AnalyticCurveSpec, n: int) -> DiscreteCurve:
    """Uniform-parameter sample of an analytic curve.

    Closed kinds sample u over [0, 2 pi) without repeating the seam node;
    open kinds sample s over [s_min, s_max] inclusive. orientation = -1
    reverses the node order.
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
        curve = DiscreteCurve(lemniscate_point(u, spec.scale).point, closed=True)
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


def spec_from_dict(data: dict) -> AnalyticCurveSpec:
    """Inverse of spec_to_dict; raises ValueError on malformed input.

    Every field must be a finite JSON number, or a pair of them for the
    vector fields center, v, point and direction.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("analytic spec JSON must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ValueError(f"unknown analytic curve kind {kind!r}")
    fields = {k: v for k, v in data.items() if k != "kind"}
    for key, value in fields.items():
        if key in ("center", "v", "point", "direction"):
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(_is_number, value))):
                raise ValueError(f"field {key!r} must be a pair of finite numbers")
            fields[key] = (float(value[0]), float(value[1]))
        elif not _is_number(value):
            raise ValueError(f"field {key!r} must be a finite number")
    try:
        return _SPEC_KINDS[kind](**fields)
    except TypeError as exc:
        raise ValueError(f"bad fields for {kind!r} spec: {exc}") from exc
