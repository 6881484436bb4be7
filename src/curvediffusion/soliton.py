"""Soliton detection: fit each self-similar ansatz and classify.

A curve evolving under the flow only by scaling, translation, or rotation
must satisfy one of three pointwise equations in its geometric fields:

    shrinker/expander:  kappa_ss + K <gamma, nu>   = 0
    translator:         kappa_ss + <V, nu>         = 0
    rotator:            kappa_ss + 2 S <tangent, gamma> = 0

and a stationary curve has kappa affine in arc length, kappa = k2 s + k1.
Each fit here is an arc-length-weighted least-squares solve of the
corresponding linear model with a closed-form normal equation, so results
are deterministic and need no iterative solver.

Residual normalization. Every residual is the weighted L2 norm of the
defect divided by a curvature-derivative scale, making it dimensionless
and invariant under scaling of the curve. The denominator is

    max(||kappa_ss||, ||kappa|| * (2 pi / L)^2)

rather than ||kappa_ss|| alone: on exact zero-kappa_ss inputs (circles,
clothoids) the raw kappa_ss field is pure discretization noise and a
noise/noise quotient would sit near 1 instead of near 0. Both terms scale
the same way under dilation, so scale invariance is preserved. The
stationary fit divides by ||kappa|| instead (its defect lives at the
level of kappa).

Shrinker fits quotient out translations: the shrinker equation fixes the
homothety center at the origin, so the inner product <gamma, nu> of a
shifted input would be polluted by a <c, nu> term. Fitting K jointly with
a free vector times nu removes exactly that term and makes the reported K
independent of where the input happens to sit in the plane.

One system per curve. The fits are made at unit length: on the curve
scaled by the power of two 2**-e that brings its length into [1/2, 1).
That scaling is exact, so the fits agree bit for bit with fits in the
curve's own units wherever those stay in the double range, and the
fitted constants are mapped back exactly (k1 by L^-1, k2 by L^-2, V by
L^-3, K and S by L^-4). Without it the squares of kappa_ss overflow or
underflow far from unit size, and the shrinker's condition number mixes
the length <gamma, nu> with the unitless nu. The tests cover similarities
with scale factors from 1e-60 to 1e60; a constant the double range cannot
hold (K of a curve of length 1e-100) makes its fit unavailable. The
shrinker, translator and rotator normal equations are blocks of one
weighted Gram matrix X^T diag(dl) X of the columns [kappa_ss, <gamma, nu>,
nu_x, nu_y, 2 <tangent, gamma>], their condition numbers come from the
eigenvalues of the symmetric blocks, and defect_scale is computed once.
The residuals are still weighted norms of explicit defect vectors: a
quadratic form in the Gram matrix would cancel to round-off on exact
solitons, whose residuals are near 1e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CurveDiffusionError, DegenerateGeometry, DomainError, NonFinite, OpenCurve
from .geometry import CurveFields, DiscreteCurve, _d_ds, curve_fields

# Relative threshold for degenerate normal equations.
_DEGENERATE_COND = 1e12
# Denominator floor for the shrinker and rotator fits, relative to L^3.
_DEGENERATE_DEN = 1e-12
# Default classification tolerance; N=256 exact-soliton samples pass it
# and the seeded perturbed-ellipse fixture fails it.
DEFAULT_TOL = 1e-2

VERDICT_PRIORITY = ("stationary", "shrinker", "translator", "rotator")


@dataclass(frozen=True)
class StationaryFit:
    k1: float
    k2: float
    residual: float


@dataclass(frozen=True)
class ShrinkerFit:
    K: float
    residual: float


@dataclass(frozen=True)
class TranslatorFit:
    V: tuple[float, float]
    residual: float
    # True when the normal directions were too degenerate to identify both
    # components (straight lines): only the component along nu is fitted.
    constrained: bool = False


@dataclass(frozen=True)
class RotatorFit:
    # None means Indeterminate: the curve is invariant enough that S drops
    # out of the equation (origin-centered circles); residual is at S = 0.
    S: float | None
    residual: float


@dataclass(frozen=True)
class SolitonReport:
    stationary: StationaryFit | None
    shrinker: ShrinkerFit | None
    translator: TranslatorFit | None
    rotator: RotatorFit | None
    unavailable: dict
    verdict: str | None


def _wnorm(values: np.ndarray, dl: np.ndarray) -> float:
    return float(np.sqrt(np.dot(values * values, dl)))


def defect_scale(fields: CurveFields) -> float:
    """Normalization scale for kappa_ss-level defects (see module docstring)."""
    total = fields.length
    return max(
        _wnorm(fields.kappa_ss, fields.dl),
        _wnorm(fields.kappa, fields.dl) * (2.0 * np.pi / total) ** 2,
    )


def _normal_solve(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve symmetric normal equations by eigendecomposition, and say whether
    they are singular (condition number >= _DEGENERATE_COND); a singular
    system is solved along the eigenvector of its largest eigenvalue only."""
    w, vecs = np.linalg.eigh(gram)
    size = np.abs(w)
    singular = bool(size.max() >= _DEGENERATE_COND * size.min())
    if singular:
        w, vecs = w[-1:], vecs[:, -1:]
    return vecs @ ((vecs.T @ rhs) / w), singular


class _Fits:
    """The four fits of one curve, made on its copy scaled by 2**-e, where
    2**e is its length rounded up to a power of two (see the module
    docstring). A fitted constant that the double range cannot hold in
    the curve's units raises NonFinite."""

    def __init__(self, curve: DiscreteCurve, fields: CurveFields | None = None) -> None:
        fields = curve_fields(curve) if fields is None else fields
        self.e = e = math.frexp(fields.length)[1]
        self.closed = curve.closed
        self.fields = CurveFields(
            fields.tangent, fields.normal, np.ldexp(fields.kappa, e),
            np.ldexp(fields.kappa_s, 2 * e), np.ldexp(fields.kappa_ss, 3 * e),
            np.ldexp(fields.seg, -e), np.ldexp(fields.speed, -e))
        self.nodes = np.ldexp(curve.nodes, -e)

    def _in_units(self, value: float, power: int) -> float:
        """A constant of unit length**-power fitted on the copy, in the curve's units."""
        try:
            return math.ldexp(float(value), -power * self.e)
        except OverflowError:
            raise NonFinite(f"the fitted constant {float(value)!r} * 2**{-power * self.e} "
                            "overflows at this scale") from None

    @cached_property
    def _rows(self) -> np.ndarray:
        """X^T: the rows kappa_ss, <gamma, nu>, nu_x, nu_y, 2 <tangent, gamma>."""
        f = self.fields
        x, y = self.nodes.T
        (nx, ny), (tx, ty) = f.normal.T, f.tangent.T
        return np.array([f.kappa_ss, x * nx + y * ny, nx, ny, 2.0 * (tx * x + ty * y)])

    @cached_property
    def _gram(self) -> np.ndarray:
        rows = self._rows
        return rows @ (rows * self.fields.dl).T

    @cached_property
    def _scale(self) -> float:
        return defect_scale(self.fields)

    def _residual(self, defect: np.ndarray) -> float:
        scale = self._scale
        return 0.0 if scale == 0.0 else _wnorm(defect, self.fields.dl) / scale

    def stationary(self) -> StationaryFit:
        fields = self.fields
        dl, kap = fields.dl, fields.kappa
        total = fields.length
        k1 = float(np.sum(kap * dl) / total)
        k2, fitted = 0.0, k1
        if not self.closed:
            ds = fields.s - float(np.sum(fields.s * dl) / total)
            k2 = float(np.sum(kap * ds * dl) / float(np.sum(ds**2 * dl)))
            fitted = k1 + k2 * ds
        nk = _wnorm(kap, dl)
        residual = 0.0 if nk == 0.0 else _wnorm(kap - fitted, dl) / nk
        return StationaryFit(k1=self._in_units(k1, 1), k2=self._in_units(k2, 2),
                             residual=residual)

    def shrinker(self) -> ShrinkerFit:
        gram = self._gram
        if gram[1, 1] <= _DEGENERATE_DEN * self.fields.length**3:
            raise DegenerateGeometry(
                "<gamma, nu> vanishes along the curve; the shrinker constant "
                "is not identifiable"
            )
        coef, singular = _normal_solve(gram[1:4, 1:4], -gram[1:4, 0])
        if singular:
            raise DegenerateGeometry("shrinker normal equations are singular")
        defect = self.fields.kappa_ss + coef @ self._rows[1:4]
        return ShrinkerFit(K=self._in_units(coef[0], 4), residual=self._residual(defect))

    def translator(self) -> TranslatorFit:
        v, constrained = _normal_solve(self._gram[2:4, 2:4], -self._gram[2:4, 0])
        defect = self.fields.kappa_ss + v @ self._rows[2:4]
        return TranslatorFit(V=(self._in_units(v[0], 3), self._in_units(v[1], 3)),
                             residual=self._residual(defect), constrained=constrained)

    def rotator(self) -> RotatorFit:
        gram = self._gram
        kss = self.fields.kappa_ss
        if gram[4, 4] < _DEGENERATE_DEN * self.fields.length**3:
            return RotatorFit(S=None, residual=self._residual(kss))
        s_hat = -gram[0, 4] / gram[4, 4]
        defect = kss + s_hat * self._rows[4]
        return RotatorFit(S=self._in_units(s_hat, 4), residual=self._residual(defect))


def fit_stationary(curve: DiscreteCurve, fields: CurveFields | None = None) -> StationaryFit:
    """Weighted linear regression of kappa against arc length.

    The slope is k2; the intercept k1 is reported at the arc-length
    centroid of the sample, which makes it independent of where the
    sample window starts along the curve. On a closed curve periodicity
    forces k2 = 0, so only k1 (the mean curvature) is fitted and the
    result does not depend on node 0 or the direction. The residual is
    normalized by ||kappa||.
    """
    return _Fits(curve, fields).stationary()


def fit_shrinker(curve: DiscreteCurve, fields: CurveFields | None = None) -> ShrinkerFit:
    """Least-squares K in kappa_ss + K <gamma, nu> = 0 (translations quotiented).

    K < 0 is the shrinking case with extinction time T = -rho^4 / (4 K);
    K > 0 would expand. Raises DegenerateGeometry when <gamma, nu> is
    identically zero in the weighted sense (straight line through the
    origin), where K is meaningless.
    """
    return _Fits(curve, fields).shrinker()


def fit_translator(curve: DiscreteCurve, fields: CurveFields | None = None) -> TranslatorFit:
    """Least-squares V in kappa_ss + <V, nu> = 0.

    When the 2x2 normal-equation matrix is near-singular (all normals
    parallel, e.g. a straight line) only the component of V along nu is
    identifiable; that one-dimensional fit, along the eigenvector of the
    larger eigenvalue, is returned with the constrained flag set instead
    of raising.
    """
    return _Fits(curve, fields).translator()


def fit_rotator(curve: DiscreteCurve, fields: CurveFields | None = None) -> RotatorFit:
    """Least-squares S in kappa_ss + 2 S <tangent, gamma> = 0.

    <tangent, gamma> is half the arc-length derivative of |gamma|^2, so it
    vanishes identically on origin-centered circles; the fit then returns
    S = None (Indeterminate) with the residual evaluated at S = 0. That is
    a reported state, not an error.
    """
    return _Fits(curve, fields).rotator()


def classify(curve: DiscreteCurve, tol: float = DEFAULT_TOL) -> SolitonReport:
    """Run all four fits and pick a verdict.

    The verdict is the class of smallest residual among those below tol.
    Ties go to the earlier class in the order stationary > shrinker >
    translator > rotator: a curve that is exactly stationary satisfies the
    other three equations trivially (a straight line has residual 0.0 for
    both the stationary and the translator fit, for example), and the more
    specific description should win. A shrinker verdict with K > 0 is
    relabelled "expander". If no residual is below tol the verdict is
    None. Fit errors become per-class entries in `unavailable` rather
    than exceptions. tol must be a finite positive number (DomainError).
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise DomainError(f"classify tol must be a finite positive number, got {tol}")
    system = _Fits(curve)
    fits: dict[str, object] = {}
    unavailable: dict[str, str] = {}
    for name in VERDICT_PRIORITY:
        try:
            fits[name] = getattr(system, name)()
        except CurveDiffusionError as exc:
            unavailable[name] = str(exc)

    candidates = [
        (fits[name].residual, rank, name)
        for rank, name in enumerate(VERDICT_PRIORITY)
        if name in fits and fits[name].residual < tol
    ]
    verdict = min(candidates)[2] if candidates else None
    if verdict == "shrinker" and fits["shrinker"].K > 0.0:
        verdict = "expander"

    return SolitonReport(**{name: fits.get(name) for name in VERDICT_PRIORITY},
                         unavailable=unavailable, verdict=verdict)


def _sig6(value: float) -> float:
    return float(f"{value:.6g}")


def report_to_dict(report: SolitonReport) -> dict:
    """JSON-ready dict; residuals are rounded to 6 significant digits.

    A fit is a shallow copy of its fields, with tuples as lists and
    `constrained` only when true; a missing fit is {"unavailable": reason}.
    """
    out: dict = {}
    for name in VERDICT_PRIORITY:
        fit = getattr(report, name)
        if fit is None:
            out[name] = {"unavailable": report.unavailable.get(name, "")}
            continue
        entry = {key: list(value) if isinstance(value, tuple) else value
                 for key, value in vars(fit).items() if key != "constrained" or value}
        entry["residual"] = _sig6(fit.residual)
        out[name] = entry
    out["verdict"] = report.verdict if report.verdict is not None else "none"
    return out


def curvature_energy_identity(curve: DiscreteCurve) -> tuple[float, float]:
    """Closed-curve pair (sum kappa_s^2 dl, sum kappa kappa_ss dl).

    Integration by parts around a closed curve makes the two sums exact
    negatives of each other in the continuum; the discrete defect
    |a + b| is O(h^2) relative to a. The vanishing of this combination is
    what forces closed translators to be trivial.
    """
    if not curve.closed:
        raise OpenCurve("the curvature energy identity is for closed curves")
    fields = curve_fields(curve)
    a = float(np.sum(fields.kappa_s**2 * fields.dl))
    b = float(np.sum(fields.kappa * fields.kappa_ss * fields.dl))
    return a, b


def normal_flux_identity(curve: DiscreteCurve, v) -> float:
    """sum <v, kappa nu> dl for a fixed vector v; O(h^2)-small when closed.

    The curvature vector integrates to zero around a closed curve, so this
    flux vanishes for every direction v.
    """
    if not curve.closed:
        raise OpenCurve("the normal flux identity is for closed curves")
    fields = curve_fields(curve)
    v = np.asarray(v, dtype=float)
    return float(np.sum(fields.kappa * (fields.normal @ v) * fields.dl))


def frame_position_identity(curve: DiscreteCurve) -> tuple[float, float]:
    """Closed-curve pair (sum <nu_s, gamma> dl, sum <nu, gamma_s> dl).

    Their sum is the integral of d/ds <nu, gamma> around the curve, hence
    zero in the continuum; the discrete sum is O(h^2). This is the
    mechanism that forces closed rotators to be trivial.
    """
    if not curve.closed:
        raise OpenCurve("the frame position identity is for closed curves")
    fields = curve_fields(curve)
    nu_s = _d_ds(fields.normal, fields.speed, True)
    a = float(np.sum(np.sum(nu_s * curve.nodes, axis=1) * fields.dl))
    b = float(np.sum(np.sum(fields.normal * fields.tangent, axis=1) * fields.dl))
    return a, b


def open_translator_identity(curve: DiscreteCurve, v) -> tuple[float, float]:
    """Open-curve pair (sum kappa_s^2 dl, boundary term [<v, tangent> + kappa kappa_s]).

    For a translator with velocity v the two agree: d/ds of
    <v, tangent> + kappa kappa_s is kappa_s^2 along solutions. The
    boundary term is evaluated last-node minus first-node.
    """
    if curve.closed:
        raise OpenCurve("the boundary identity needs an open curve window")
    fields = curve_fields(curve)
    v = np.asarray(v, dtype=float)
    integral = float(np.sum(fields.kappa_s**2 * fields.dl))
    flux = fields.tangent @ v + fields.kappa * fields.kappa_s
    boundary = float(flux[-1] - flux[0])
    return integral, boundary
