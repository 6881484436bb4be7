"""Curve diffusion flow of plane curves: simulation, exact soliton
curves, soliton classification, and lifespan times."""

from .analytic import (
    AnalyticCurveSpec,
    Circle,
    CurveJet,
    FresnelFamily,
    Lemniscate,
    Line,
    elliptic_K,
    lemniscate_point,
    sample_analytic,
    spec_from_dict,
    spec_to_dict,
)
from .curve_io import (
    curve_from_csv,
    curve_to_csv,
    monitors_to_csv,
    read_curve_csv,
    write_curve_csv,
    write_monitors_csv,
    write_run_directory,
)
from .errors import (
    AmbiguousTurning,
    CurveDiffusionError,
    DegenerateGeometry,
    DomainError,
    HypothesisViolated,
    NonFinite,
    NonRegular,
    OpenCurve,
    QuadratureFailure,
    SolveFailure,
    TooFewNodes,
    TooFewSnapshots,
    Undefined,
)
from .flow import (
    CURVE_DIFFUSION,
    SEMI_IMPLICIT,
    FlowSpec,
    ScaleFit,
    Trajectory,
    evolve,
    fit_scale_profile,
)
from .geometry import (
    CurveFields,
    DiscreteCurve,
    curve_fields,
    hausdorff_distance,
    length,
    normalize_shape,
    osculating_discs_nested,
    resample_uniform,
    segment_lengths,
    signed_area,
    winding_number,
)
from .monitor import (
    LifespanBounds,
    MonitorSeries,
    isoperimetric_decay_check,
    time_bounds,
)
from .soliton import (
    RotatorFit,
    ShrinkerFit,
    SolitonReport,
    StationaryFit,
    TranslatorFit,
    classify,
    curvature_energy_identity,
    fit_rotator,
    fit_shrinker,
    fit_stationary,
    fit_translator,
    frame_position_identity,
    normal_flux_identity,
    report_to_dict,
)

__version__ = "0.1.0"
