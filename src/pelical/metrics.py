"""Evaluation metrics for real-rig experiments.

Two families: plane-merge quality (how well a checkerboard plane seen by
both cameras coincides after applying the estimated extrinsics) and
pose-step errors (how consistently a series of calibrations tracks known
20-degree / 5-cm increments of the physical rig).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, IllConditionedPlane
from .geometry import Extrinsics


@dataclass(frozen=True)
class PlaneMergeInput:
    """Board points seen by each camera (meters, camera frames).

    Corner pairs (the two farthest board corners per camera) and the number
    of squares separating them enable the square-size metric.
    """

    target_points: np.ndarray
    source_points: np.ndarray
    target_corners: np.ndarray | None = None
    source_corners: np.ndarray | None = None
    squares_per_row: int | None = None


@dataclass(frozen=True)
class PlaneMergeMetrics:
    """Merged-plane discrepancy: offsets in mm, normals in degrees."""

    offset_gap_mm: float
    normal_angle_deg: float
    square_size_error_mm: float | None


def fit_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Total-least-squares plane fit; returns (unit normal, origin distance).

    Raises IllConditionedPlane when the point cloud does not clearly span
    two dimensions (the two largest covariance eigenvalues must exceed the
    smallest hundredfold).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise EmptyInput("plane fit needs at least 3 points of shape (n, 3)")
    centroid = pts.mean(axis=0)
    _, sing, Vt = np.linalg.svd(pts - centroid, full_matrices=False)
    eig = sing**2  # descending
    # collinear clouds leave both trailing eigenvalues at round-off level,
    # where their ratio is meaningless -- require real planar extent first
    if eig[1] <= 1e-12 * eig[0]:
        raise IllConditionedPlane("points do not span two dimensions")
    if not (eig[0] > 100.0 * eig[2] and eig[1] > 100.0 * eig[2]):
        raise IllConditionedPlane("points do not define a stable plane")
    normal = Vt[2]
    offset = float(normal @ centroid)
    if offset < 0:
        normal, offset = -normal, -offset
    return normal, offset


def plane_merge_metrics(
    inp: PlaneMergeInput, T: Extrinsics, square_mm: float = 108.0
) -> PlaneMergeMetrics:
    """Compare the two board planes after mapping the source set through T.

    The offset gap is the difference of the plane-to-origin distances, the
    angle is between the normals folded to [0, 90] degrees, and the square
    size error compares the mean corner-span-per-square against the true
    square edge of ``square_mm`` millimetres.
    """
    merged_source = T.transform_points(inp.source_points)
    n_t, d_t = fit_plane(inp.target_points)
    n_s, d_s = fit_plane(merged_source)
    cosang = min(1.0, abs(float(n_t @ n_s)))
    angle = math.degrees(math.acos(cosang))
    gap_mm = abs(d_t - d_s) * 1000.0

    square_err = None
    if (
        inp.target_corners is not None
        and inp.source_corners is not None
        and inp.squares_per_row
    ):
        square_err = square_size_error_mm(
            inp.target_corners,
            T.transform_points(np.asarray(inp.source_corners, float)),
            inp.squares_per_row,
            square_mm,
        )
    return PlaneMergeMetrics(gap_mm, angle, square_err)


def square_size_error_mm(
    target_corners: np.ndarray,
    merged_source_corners: np.ndarray,
    squares_per_row: int,
    square_mm: float = 108.0,
) -> float:
    """|mean corner-to-corner span per square - true square edge| in mm."""
    spans = []
    for corners in (target_corners, merged_source_corners):
        c = np.asarray(corners, dtype=float).reshape(2, 3)
        spans.append(float(np.linalg.norm(c[1] - c[0])) * 1000.0)
    mean_square = float(np.mean(spans)) / squares_per_row
    return abs(mean_square - square_mm)


def _euler_xyz_deg(R: np.ndarray) -> np.ndarray:
    """Intrinsic XYZ Euler angles (deg) of ``R = Rx(a) Ry(b) Rz(c)``."""
    return np.degrees(
        [
            math.atan2(-R[1, 2], R[2, 2]),
            math.asin(min(1.0, max(-1.0, R[0, 2]))),
            math.atan2(-R[0, 1], R[0, 0]),
        ]
    )


def rotation_step_errors(
    poses: list[Extrinsics], step_deg: float = 20.0
) -> list[float]:
    """Per-step deviation (deg) of consecutive Euler triples from (0, step, 0).

    Poses come from a protocol that rotates the rig about the camera y axis
    in fixed increments; the middle intrinsic-XYZ Euler angle is the varied
    one.  Pitch values beyond 85 degrees sit too close to the Euler
    singularity for the difference to mean much, so they trigger a warning.
    """
    if len(poses) < 2:
        raise EmptyInput("need at least two poses")
    eulers = [_euler_xyz_deg(p.rotation) for p in poses]
    if any(abs(e[1]) > 85.0 for e in eulers):
        warnings.warn("pitch beyond 85 deg; Euler step errors are unreliable")
    target = np.array([0.0, step_deg, 0.0])
    return [
        float(np.linalg.norm((e2 - e1) - target))
        for e1, e2 in zip(eulers, eulers[1:])
    ]


def translation_step_errors(
    poses: list[Extrinsics], step_cm: float = 5.0
) -> list[float]:
    """Per-step deviation (cm) of consecutive baseline changes from step_cm."""
    if len(poses) < 2:
        raise EmptyInput("need at least two poses")
    return [
        abs(float(np.linalg.norm(p2.translation - p1.translation)) * 100.0 - step_cm)
        for p1, p2 in zip(poses, poses[1:])
    ]


def pose_variation_errors(
    groups: list[dict],
    step_rot_deg: float = 20.0,
    step_trans_cm: float = 5.0,
) -> list[dict]:
    """Flatten step errors for several pose series into table rows.

    Each group is ``{"name": str, "vary": "rotation"|"translation",
    "poses": [Extrinsics, ...]}``; rotation groups report degree errors,
    translation groups centimeter errors.
    """
    rows: list[dict] = []
    for group in groups:
        vary = group["vary"]
        if vary == "rotation":
            errs = rotation_step_errors(group["poses"], step_rot_deg)
        elif vary == "translation":
            errs = translation_step_errors(group["poses"], step_trans_cm)
        else:
            raise ValueError(f"unknown variation kind {vary!r}")
        for i, err in enumerate(errs):
            rows.append(
                {"group": group["name"], "vary": vary, "step_index": i, "error": err}
            )
    return rows
