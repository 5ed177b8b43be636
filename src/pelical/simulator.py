"""Synthetic two-camera rigs for exercising the calibration pipeline.

Lines are sampled so that each one is actually visible in both cameras
(projected segment of at least ten pixels), which is what makes high-yaw /
low-overlap rigs feasible: when a line drawn inside the source frustum
rarely reaches the target view, the sampler falls back to "penetrating"
lines constructed through one point seen by each camera.  All randomness
flows through a single seeded generator, so a spec reproduces its streams
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import MAX_MAGNITUDE, MAX_SAMPLES, _real
from .errors import InfeasibleSpec
from .geometry import (
    CameraIntrinsics,
    Extrinsics,
    Line2D,
    PluckerLine,
    plucker_from_points,
    rotation_angle,
)
from .pipeline import LineObservation, PipelineConfig, run

_MIN_SEGMENT_PX = 10.0
_MIN_DEPTH = 0.05
_MAX_REJECTS = 10_000
#: Most lines per stream, and most points per camera: a stream holds
#: (n_lines x samples_per_line) of them.
_MAX_LINES = 10_000
_MAX_POINTS = 100_000
#: Points along a segment at which its visibility in an image is tested.
_GRID = np.linspace(0.0, 1.0, 257)

#: A segment's visible part in an image, as a parameter range along a->b.
Interval = tuple[float, float]


@dataclass(frozen=True)
class RigSpec:
    """Everything needed to generate one synthetic observation stream."""

    truth: Extrinsics
    target_intrinsics: CameraIntrinsics
    source_intrinsics: CameraIntrinsics
    n_lines: int = 12
    line_length_m: tuple[float, float] = (0.5, 3.0)
    scene_depth_m: tuple[float, float] = (0.8, 4.0)
    pixel_noise_sigma: float = 0.0
    depth_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    samples_per_line: int = 40
    pnl_fraction: float = 0.0
    rng_seed: int = 0
    depth_noise_model: str = "isotropic"

    def __post_init__(self) -> None:
        """Check every field but the three records, which check themselves;
        a bad value raises TypeError or ValueError naming its field."""
        for name, low, high in (("n_lines", 1, _MAX_LINES), ("samples_per_line", 2, MAX_SAMPLES)):
            if not low <= _real(getattr(self, name), name, integer=True) <= high:
                raise ValueError(f"{name} must lie in [{low}, {high}]")
        if self.n_lines * self.samples_per_line > _MAX_POINTS:
            raise ValueError(f"n_lines x samples_per_line must be at most {_MAX_POINTS}")
        if _real(self.rng_seed, "rng_seed", integer=True) < 0:
            raise ValueError("rng_seed must be non-negative")
        for name, high in (
            ("pixel_noise_sigma", MAX_MAGNITUDE),
            ("depth_noise_sigma", MAX_MAGNITUDE),
            ("outlier_fraction", 1),
            ("pnl_fraction", 1),
        ):
            if not 0 <= _real(getattr(self, name), name) <= high:
                raise ValueError(f"{name} must lie in [0, {high:g}]")
        for name in ("line_length_m", "scene_depth_m"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)) or len(value) != 2:
                raise TypeError(f"{name} must be a pair of numbers, got {value!r}")
            lo, hi = (float(_real(v, name)) for v in value)
            if not 0 < lo <= hi <= MAX_MAGNITUDE:
                raise ValueError(f"{name} must be a range 0 < lo <= hi <= {MAX_MAGNITUDE:g}")
            object.__setattr__(self, name, (lo, hi))
        if self.depth_noise_model not in ("isotropic", "axial_z2"):
            raise ValueError("depth_noise_model must be 'isotropic' or 'axial_z2'")


@dataclass(frozen=True)
class GroundTruthRecord:
    """Truth bookkeeping for one emitted observation."""

    obs_id: int
    source_line: PluckerLine
    target_line: PluckerLine
    is_outlier: bool
    is_pnl: bool


class _RejectBudget:
    def __init__(self, limit: int) -> None:
        self.left = limit

    def spend(self) -> None:
        self.left -= 1
        if self.left <= 0:
            raise InfeasibleSpec(
                f"rejection sampling exceeded {_MAX_REJECTS} attempts"
            )


def _backproject(K: CameraIntrinsics, uv: np.ndarray, depth: float) -> np.ndarray:
    return np.array(
        [
            (uv[0] - K.cx) * depth / K.fx,
            (uv[1] - K.cy) * depth / K.fy,
            depth,
        ]
    )


def _random_pixel(K: CameraIntrinsics, rng: np.random.Generator) -> np.ndarray:
    mu, mv = 0.1 * K.width, 0.1 * K.height
    return np.array(
        [rng.uniform(mu, K.width - mu), rng.uniform(mv, K.height - mv)]
    )


def _visible_interval(
    a: np.ndarray, b: np.ndarray, K: CameraIntrinsics
) -> Interval | None:
    """Parameter range of segment a->b whose projection stays inside the image.

    Requires the projected sub-segment to span at least _MIN_SEGMENT_PX.
    """
    pts = a[None, :] + _GRID[:, None] * (b - a)[None, :]
    z = pts[:, 2]
    front = z > _MIN_DEPTH
    # Points behind the camera get a harmless depth; the mask drops them.
    z = np.where(front, z, 1.0)
    u = K.fx * pts[:, 0] / z + K.cx
    v = K.fy * pts[:, 1] / z + K.cy
    inside = front & (u >= 0) & (u <= K.width - 1) & (v >= 0) & (v <= K.height - 1)
    idx = np.flatnonzero(inside)
    if len(idx) < 2:
        return None
    lo, hi = idx[0], idx[-1]
    if math.hypot(u[hi] - u[lo], v[hi] - v[lo]) < _MIN_SEGMENT_PX:
        return None
    return float(_GRID[lo]), float(_GRID[hi])


def _free_segment(
    K: CameraIntrinsics, spec: RigSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """A segment of random length and direction about a random point of the
    frustum of ``K``, in that camera's frame."""
    mid = _backproject(K, _random_pixel(K, rng), rng.uniform(*spec.scene_depth_m))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    half = 0.5 * rng.uniform(*spec.line_length_m)
    return mid - half * direction, mid + half * direction


def _sample_segment(
    spec: RigSpec, rng: np.random.Generator, budget: _RejectBudget
) -> tuple[np.ndarray, np.ndarray, Interval, Interval]:
    """One 3D segment (source frame) visible in both cameras, with its
    visible intervals in the source and the target image."""
    K_s, K_t = spec.source_intrinsics, spec.target_intrinsics
    T = spec.truth
    # First try free-floating segments inside the source frustum; if the rig
    # has little view overlap these rarely reach the target camera, so fall
    # back to penetrating segments anchored in both views.
    for _ in range(40):
        a, b = _free_segment(K_s, spec, rng)
        if seen := _seen_by_both(a, b, spec):
            return a, b, *seen
        budget.spend()
    to_source = T.inverse()
    while True:
        p = _backproject(K_s, _random_pixel(K_s, rng), rng.uniform(*spec.scene_depth_m))
        q_t = _backproject(K_t, _random_pixel(K_t, rng), rng.uniform(*spec.scene_depth_m))
        q = to_source.transform_point(q_t)
        span = q - p
        if np.linalg.norm(span) < 0.05:
            budget.spend()
            continue
        a, b = p - 0.05 * span, q + 0.05 * span
        if seen := _seen_by_both(a, b, spec):
            return a, b, *seen
        budget.spend()


def _seen_by_both(
    a: np.ndarray, b: np.ndarray, spec: RigSpec
) -> tuple[Interval, Interval] | None:
    """The visible intervals of a->b (source frame) in the source and the
    target image, or None when either camera does not see it."""
    source = _visible_interval(a, b, spec.source_intrinsics)
    if source is None:
        return None
    a_t = spec.truth.transform_point(a)
    b_t = spec.truth.transform_point(b)
    target = _visible_interval(a_t, b_t, spec.target_intrinsics)
    return None if target is None else (source, target)


def _target_only_segment(
    spec: RigSpec, rng: np.random.Generator, budget: _RejectBudget
) -> tuple[np.ndarray, np.ndarray, Interval]:
    """A segment (target frame) visible in the target camera only, with its
    visible interval -- used to manufacture mismatched (outlier) target
    observations."""
    K_t = spec.target_intrinsics
    while True:
        a, b = _free_segment(K_t, spec, rng)
        if (seen := _visible_interval(a, b, K_t)) is not None:
            return a, b, seen
        budget.spend()


def _noisy_view(
    a: np.ndarray,
    b: np.ndarray,
    K: CameraIntrinsics,
    seen: Interval,
    spec: RigSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample noisy 3D points and the noisy pixels of the two ends for one
    camera's view of the segment a->b (all in that camera's frame) over its
    visible interval ``seen``; returns ``(points, endpoint pixels)``."""
    lo, hi = seen
    lam = np.linspace(lo, hi, spec.samples_per_line)
    pts = a[None, :] + lam[:, None] * (b - a)[None, :]
    if spec.depth_noise_sigma > 0:
        if spec.depth_noise_model == "isotropic":
            pts = pts + rng.normal(scale=spec.depth_noise_sigma, size=pts.shape)
        else:
            rays = pts / np.linalg.norm(pts, axis=1, keepdims=True)
            mags = rng.normal(size=len(pts)) * spec.depth_noise_sigma * pts[:, 2] ** 2
            pts = pts + mags[:, None] * rays
    ends3d = np.stack([a + lo * (b - a), a + hi * (b - a)])
    uv = K.project(ends3d)
    if spec.pixel_noise_sigma > 0:
        uv = uv + rng.normal(scale=spec.pixel_noise_sigma, size=uv.shape)
    return pts, uv


def generate(spec: RigSpec) -> tuple[list[LineObservation], list[GroundTruthRecord]]:
    """Produce a shuffled observation stream plus per-observation truth."""
    rng = np.random.default_rng(spec.rng_seed)
    budget = _RejectBudget(_MAX_REJECTS)
    n = spec.n_lines
    n_pnl = int(math.floor(spec.pnl_fraction * n))
    n_out = int(math.floor(spec.outlier_fraction * n))
    pnl_ids = set(rng.choice(n, size=n_pnl, replace=False).tolist()) if n_pnl else set()
    out_ids = set(rng.choice(n, size=n_out, replace=False).tolist()) if n_out else set()

    observations: list[LineObservation] = []
    records: list[GroundTruthRecord] = []
    for i in range(n):
        a, b, src_seen, tgt_seen = _sample_segment(spec, rng, budget)
        # the unused source pixels are still drawn, to keep the RNG stream
        src_pts, _ = _noisy_view(a, b, spec.source_intrinsics, src_seen, spec, rng)
        if i in out_ids:
            ta, tb, tgt_seen = _target_only_segment(spec, rng, budget)
        else:
            ta = spec.truth.transform_point(a)
            tb = spec.truth.transform_point(b)
        tgt_pts, uv = _noisy_view(ta, tb, spec.target_intrinsics, tgt_seen, spec, rng)
        is_pnl = i in pnl_ids
        observations.append(
            LineObservation(
                obs_id=i,
                source_samples=src_pts,
                target_samples=None if is_pnl else tgt_pts,
                target_2d=Line2D.from_endpoints(uv[0], uv[1]),
            )
        )
        records.append(
            GroundTruthRecord(
                obs_id=i,
                source_line=plucker_from_points(a, b),
                target_line=plucker_from_points(ta, tb),
                is_outlier=i in out_ids,
                is_pnl=is_pnl,
            )
        )

    order = rng.permutation(n)
    observations = [observations[k] for k in order]
    records = [records[k] for k in order]
    return observations, records


def rotation_about_y(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def pose_errors(estimate: Extrinsics, truth: Extrinsics) -> tuple[float, float]:
    """(rotation error in degrees, translation error in millimeters)."""
    rot = math.degrees(rotation_angle(estimate.rotation.T @ truth.rotation))
    trans = 1000.0 * float(np.linalg.norm(estimate.translation - truth.translation))
    return rot, trans


def cell_seed(base_seed: int, *indices: int) -> int:
    """Deterministic per-cell seed derived from the sweep position."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(indices))
    return int(ss.generate_state(1)[0])


def sweep(
    base: RigSpec,
    rotations_deg: list[float],
    baselines_m: list[float],
    n_seeds: int = 1,
    pipeline_cfg: PipelineConfig | None = None,
) -> list[dict]:
    """Grid evaluation over rig rotations and baselines.

    For each (rotation, baseline, seed) cell the rig truth becomes a yaw
    about y plus an x-axis baseline; the cell's rig seed and pipeline seed
    derive deterministically from the base seed and the cell position.
    An infeasible rig does not stop the sweep; its row holds NaN errors.
    Returns the rows of the error table.
    """
    cfg = pipeline_cfg or PipelineConfig()
    rows: list[dict] = []
    for i, rot_deg in enumerate(rotations_deg):
        for j, baseline in enumerate(baselines_m):
            truth = Extrinsics(rotation_about_y(rot_deg), np.array([baseline, 0.0, 0.0]))
            for k in range(n_seeds):
                spec = replace(
                    base, truth=truth, rng_seed=cell_seed(base.rng_seed, i, j, k)
                )
                run_cfg = replace(cfg, rng_seed=cell_seed(base.rng_seed, i, j, k, 1))
                try:
                    obs, _ = generate(spec)
                    report = run(obs, run_cfg, spec.target_intrinsics)
                except InfeasibleSpec:
                    errors, converged = (math.nan, math.nan), False
                else:
                    errors = pose_errors(report.extrinsics, truth)
                    converged = report.termination.value == "converged"
                rows.append(
                    {
                        "rotation_deg": rot_deg,
                        "baseline_m": baseline,
                        "seed": k,
                        "rot_err_deg": errors[0],
                        "trans_err_mm": errors[1],
                        "converged": converged,
                    }
                )
    return rows
