"""Extrinsic calibration of RGB-D camera pairs from matched line features.

The package estimates the rigid transform between a *source* and a *target*
camera without requiring field-of-view overlap at calibration time.  Matched
3D line segments (and, where target depth is missing, 2D projections) feed a
rotation gate, a translation-consistency vote that decides when enough
evidence has been seen, and a Levenberg--Marquardt refinement that starts
from the gate's rotation and the vote's point.  A closed-form solver built on
the Cayley--Gibbs--Rodrigues parametrization is part of the library.
"""

from .constraints import (
    CaseKind,
    Correspondence,
    QuadraticSystem,
    assemble,
    classify,
    full3d_rows,
    monomial_vector,
    pnl_rows,
    rbar_coefficients,
)
from .errors import (
    CalibrationError,
    DegenerateLine,
    DegenerateTranslation,
    EmptyInput,
    IllConditionedPlane,
    InfeasibleSpec,
    InsufficientLines,
    NearSingularRotation,
    NoRealSolution,
    ParallelPlanes,
    RankDeficient,
    SchemaError,
    TooFewSamples,
    WrongKind,
)
from .geometry import (
    CGRParams,
    CameraIntrinsics,
    Extrinsics,
    Line2D,
    PluckerLine,
    cgr_to_rotation,
    line_projection_matrix,
    plucker_from_points,
    project_so3,
    rotation_angle,
    rotation_to_cgr,
    transform_line,
)
from .metrics import (
    PlaneMergeInput,
    PlaneMergeMetrics,
    fit_plane,
    plane_merge_metrics,
    pose_variation_errors,
    rotation_step_errors,
    square_size_error_mm,
    translation_step_errors,
)
from .pipeline import (
    CalibrationReport,
    LineObservation,
    PipelineConfig,
    TerminationReason,
    ingest,
    ransac_fit_line,
    run,
    try_finalize,
)
from .selection import (
    VotingResult,
    candidate_from_full3d,
    candidate_from_pnl,
    convergence_voting,
    gate_rotation,
    rotation_rows,
)
from .simulator import RigSpec, cell_seed, generate, pose_errors, rotation_about_y, sweep
from .solver import (
    PoseSolution,
    eliminate_translation,
    refine,
    solve_quadratic_system,
)

__version__ = "0.1.0"

__all__ = [
    "CGRParams",
    "CalibrationError",
    "CalibrationReport",
    "CameraIntrinsics",
    "CaseKind",
    "Correspondence",
    "DegenerateLine",
    "DegenerateTranslation",
    "EmptyInput",
    "Extrinsics",
    "IllConditionedPlane",
    "InfeasibleSpec",
    "InsufficientLines",
    "Line2D",
    "LineObservation",
    "NearSingularRotation",
    "NoRealSolution",
    "ParallelPlanes",
    "PipelineConfig",
    "PlaneMergeInput",
    "PlaneMergeMetrics",
    "PluckerLine",
    "PoseSolution",
    "QuadraticSystem",
    "RankDeficient",
    "RigSpec",
    "SchemaError",
    "TerminationReason",
    "TooFewSamples",
    "VotingResult",
    "WrongKind",
    "assemble",
    "candidate_from_full3d",
    "candidate_from_pnl",
    "cell_seed",
    "cgr_to_rotation",
    "classify",
    "convergence_voting",
    "eliminate_translation",
    "fit_plane",
    "full3d_rows",
    "gate_rotation",
    "generate",
    "ingest",
    "line_projection_matrix",
    "monomial_vector",
    "plane_merge_metrics",
    "plucker_from_points",
    "pnl_rows",
    "pose_errors",
    "pose_variation_errors",
    "project_so3",
    "ransac_fit_line",
    "rbar_coefficients",
    "refine",
    "rotation_about_y",
    "rotation_angle",
    "rotation_rows",
    "rotation_step_errors",
    "rotation_to_cgr",
    "run",
    "solve_quadratic_system",
    "square_size_error_mm",
    "sweep",
    "transform_line",
    "translation_step_errors",
    "try_finalize",
]
