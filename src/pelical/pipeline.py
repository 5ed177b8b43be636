"""Streaming calibration pipeline.

Observations arrive one matched line pair at a time.  Each is fitted
(RANSAC on the 3D samples of both cameras), classified by depth quality,
and passed through the rotation gate, which stores it on acceptance.
After every accepted pair (once a minimum population exists) the pipeline
attempts to finalize: gate, vote, refine.  Candidate translation lines built
under the gate's rotation vote; if the vote carries, that rotation and the
vote's point are refined on the voting inliers only.  A refined mean
cost under the configured threshold ends the run as Converged; any other
outcome hands the store to the gate's eviction (``selection.evict``).
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .checks import MAX_SAMPLES, _real
# only perfbench's tracer reads assemble and solve_quadratic_system here
from .constraints import CaseKind, Correspondence, assemble, classify
from .errors import (
    DegenerateLine,
    InsufficientLines,
    ParallelPlanes,
    TooFewSamples,
)
from .geometry import (
    CameraIntrinsics,
    Extrinsics,
    Line2D,
    PluckerLine,
    _readonly,
    axis_norms,
    cross3,
)
from .selection import (
    ROTATION_ROW_COUNT,
    VOTE_MIN_COUNT,
    RotationGateState,
    candidate_from_full3d,
    candidate_from_pnl,
    convergence_voting,
    evict,
    gate_rotation,
    rotation_rows,
    vote_threshold,
)
from .solver import refine, solve_quadratic_system

#: RANSAC line fit: inlier distance, two-point hypotheses per fit, and the
#: fewest inliers a fitted line needs.
RANSAC_DISTANCE_M = 0.01
RANSAC_ITERATIONS = 200
RANSAC_MIN_INLIERS = 8
#: Hypotheses scored before the fit looks for one that holds every sample.
#: On the benchmark's streams 97 % of fits have one, 75 % among the first
#: 16, and the median index of the first is 6.  First slices of 12 to 32
#: timed within 3 % of each other per fit and 8 was 4 % slower: the
#: products are taken for every hypothesis at once, so a slice costs little.
RANSAC_FIRST_SLICE = 16


@dataclass(frozen=True)
class PipelineConfig:
    inlier_ratio_threshold: float = 0.8
    epsilon_d_m: float = 0.02
    cost_threshold: float = 2.0
    max_pairs: int = 200
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not _real(self.epsilon_d_m, "epsilon_d_m") > 0:
            raise ValueError("epsilon_d_m must be positive")
        if not 0 < _real(self.inlier_ratio_threshold, "inlier_ratio_threshold") <= 1:
            raise ValueError("inlier_ratio_threshold must lie in (0, 1]")
        if not 1 <= _real(self.max_pairs, "max_pairs", integer=True) <= sys.maxsize:
            raise ValueError(f"max_pairs must lie in [1, {sys.maxsize}]")
        if _real(self.rng_seed, "rng_seed", integer=True) < 0:
            raise ValueError("rng_seed must be non-negative")
        _real(self.cost_threshold, "cost_threshold")


@dataclass(frozen=True)
class LineObservation:
    """One matched line pair as delivered by the front end.

    3D samples are in the respective camera frame, ordered consistently
    between the two views (segment trackers provide this ordering; the
    simulator samples both sides along the same parametrization).
    ``target_samples`` is None when the target camera had no usable depth.
    Each sample list holds 2 to ``MAX_SAMPLES`` points and is stored as a
    read-only copy, so editing the caller's array leaves the observation as
    it was.
    """

    obs_id: int
    source_samples: np.ndarray
    target_samples: np.ndarray | None
    target_2d: Line2D

    def __post_init__(self) -> None:
        for name, or_none in (("source_samples", ""), ("target_samples", " or None")):
            value = getattr(self, name)
            if value is None and or_none:
                continue
            pts = _readonly(value)
            if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 2:
                raise ValueError(f"{name} must be (n >= 2, 3){or_none}")
            if len(pts) > MAX_SAMPLES:
                raise ValueError(f"{name} must hold at most {MAX_SAMPLES} points")
            if not np.isfinite(pts).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, pts)


def _hypothesis_products(
    q: np.ndarray, ii: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(along, gram)``: for hypothesis ``h`` through centred sample
    ``q[ii[h]]`` with unit direction ``d[h]``, ``along[h, k]`` is
    ``d[h] . (q_k - q[ii[h]])`` and ``gram[h, k]`` is ``q[ii[h]] . q_k``.

    Each is one matrix product over every hypothesis: BLAS rounds an entry
    differently with the number of rows (at 200 samples and more, a 16-row
    product and the same rows of a 200-row one differ in the last place),
    so every slice :func:`_inlier_masks` scores reads the same bits.
    """
    qi = q[ii]
    along = d @ q.T
    along -= np.einsum("ij,ij->i", d, qi)[:, None]
    return along, qi @ q.T


def _inlier_masks(
    sq: np.ndarray, ii: np.ndarray, along: np.ndarray, gram: np.ndarray, threshold: float
) -> np.ndarray:
    """Which samples lie within ``threshold`` of each hypothesis line.

    ``sq`` holds the squared norms of the centred samples ``q``, and
    ``along`` and ``gram`` are the hypotheses' rows of
    :func:`_hypothesis_products`, which are overwritten.  The squared
    distance of sample ``k`` is taken by Pythagoras: ``|q_k - q_i|^2`` from
    the Gram form minus the squared projection ``along``.  Every temporary
    is ``(hypotheses, n)``, so time and memory stay O(iterations * n).
    """
    dist2 = gram
    dist2 *= -2.0
    dist2 += sq
    dist2 += sq[ii][:, None]
    dist2 -= np.square(along, out=along)
    return dist2 < threshold * threshold


def ransac_fit_line(
    samples: np.ndarray,
    rng: np.random.Generator,
) -> tuple[PluckerLine, float, np.ndarray]:
    """Robust 3D line fit.

    Two-point hypotheses are scored by inlier count; the best consensus set
    is refit by its principal direction through the centroid.  The returned
    direction points from the first toward the last inlier in input order,
    so two cameras sampling the same physical line in corresponding order
    fit consistently oriented lines.  Returns
    ``(line, inlier_ratio, endpoints)`` with endpoints the extreme inlier
    projections onto the fitted line.

    The hypotheses are scored in order, the first ``RANSAC_FIRST_SLICE``
    then the rest, and scoring stops once one holds every sample.  No later
    hypothesis can hold more, and a later slice takes the lead only with
    strictly more inliers, so the winner is the first hypothesis with the
    most inliers, as if all were scored, and the result is the same to the
    last bit.
    """
    # C order: the mean of all samples then rounds as the mean of a full
    # consensus set, a C-ordered copy, does
    pts = np.ascontiguousarray(samples, dtype=float)
    n = len(pts)
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")

    ii = rng.integers(0, n, size=RANSAC_ITERATIONS)
    jj = rng.integers(0, n - 1, size=RANSAC_ITERATIONS)
    jj += jj >= ii
    dirs = pts[jj] - pts[ii]
    norms = axis_norms(dirs, axis=1)
    valid = norms > 1e-9
    # A hypothesis through two equal samples is degenerate: its direction
    # is left undivided and it scores -1, below any real consensus.
    dirs /= np.where(valid, norms, 1.0)[:, None]
    # the sum over the count, as ``pts.mean(axis=0)`` takes it
    centroid = np.add.reduce(pts, axis=0) / n
    centred = pts - centroid
    sq = np.einsum("nj,nj->n", centred, centred)
    along, gram = _hypothesis_products(centred, ii, dirs)
    count, mask = -1, None
    for rows in (slice(0, RANSAC_FIRST_SLICE), slice(RANSAC_FIRST_SLICE, None)):
        masks = _inlier_masks(sq, ii[rows], along[rows], gram[rows], RANSAC_DISTANCE_M)
        counts = np.where(valid[rows], np.add.reduce(masks, axis=1), -1)
        best = counts.argmax()
        if counts[best] > count:
            count, mask = int(counts[best]), masks[best]
        if count == n:
            break
    if count < 2:
        raise DegenerateLine("no two-point hypothesis found a consensus")

    inliers = pts
    if count < n:  # else the centring of every sample above is the refit's
        inliers = pts[mask]
        centroid = np.add.reduce(inliers, axis=0) / count
        centred = inliers - centroid
    _, _, Vt = np.linalg.svd(centred, full_matrices=False)
    direction = Vt[0]
    if float((inliers[-1] - inliers[0]) @ direction) < 0.0:
        direction = -direction

    proj = centred @ direction
    endpoints = centroid + np.array([[proj.min()], [proj.max()]]) * direction
    line = PluckerLine(direction, cross3(centroid, direction))
    return line, float(count) / n, endpoints


class RoundStatus(enum.Enum):
    ACCEPTED = "accepted"
    GATE_REJECTED = "gate_rejected"
    REJECTED = "rejected"


@dataclass(frozen=True)
class RoundOutcome:
    status: RoundStatus
    reason: str | None = None


class TerminationReason(enum.Enum):
    CONVERGED = "converged"
    MAX_PAIRS = "max_pairs"
    ABORTED = "aborted"


@dataclass
class FinalizeAttempt:
    """One :func:`try_finalize` call's trace entry, its fields in file order:
    the store's size and SO(3) distance at the start, the vote (inliers,
    votes needed, carried), why the attempt stopped early, the refined cost
    per inlier, and the ids evicted.  Unset fields stay None or empty."""

    pairs: int
    d_so3: float
    vote_size: int | None = None
    vote_threshold: int | None = None
    vote_converged: bool | None = None
    note: str | None = None
    mean_cost: float | None = None
    evicted: list[int | None] = field(default_factory=list)

    def as_dict(self) -> dict:
        """The entry as the calibration file writes it: its set fields."""
        entry = {name: value for name, value in vars(self).items() if value is not None}
        if not self.evicted:
            del entry["evicted"]
        return entry


@dataclass
class CalibrationReport:
    """Final (or best-effort) calibration result with an audit trail."""

    extrinsics: Extrinsics
    final_cost: float
    termination: TerminationReason
    accepted_pairs: int
    voting_inlier_ids: tuple[int, ...]
    trace: list[FinalizeAttempt]
    inlier_correspondences: list[Correspondence] = field(default_factory=list)


@dataclass
class PipelineState:
    """Single-owner mutable state threaded through ingest/finalize calls."""

    target_K: CameraIntrinsics
    rng: np.random.Generator
    gate: RotationGateState = field(default_factory=RotationGateState.empty)
    trace: list[FinalizeAttempt] = field(default_factory=list)
    last_pose: Extrinsics | None = None

    @classmethod
    def fresh(cls, cfg: PipelineConfig, target_K: CameraIntrinsics) -> "PipelineState":
        return cls(target_K=target_K, rng=np.random.default_rng(cfg.rng_seed))


def ingest(
    obs: LineObservation, state: PipelineState, cfg: PipelineConfig
) -> RoundOutcome:
    """Fit, classify and gate one observation; the gate keeps it on acceptance."""
    try:
        src_line, src_ratio, src_endpoints = ransac_fit_line(obs.source_samples, state.rng)
    except (TooFewSamples, DegenerateLine) as exc:
        return RoundOutcome(RoundStatus.REJECTED, f"source fit failed: {exc}")
    # Both sides are divisions by the sample count, so the inlier count
    # meets the minimum exactly when the ratio does.
    if src_ratio < RANSAC_MIN_INLIERS / len(obs.source_samples):
        return RoundOutcome(RoundStatus.REJECTED, "too few source fit inliers")

    tgt_line = tgt_endpoints = None
    tgt_ratio = 0.0
    if obs.target_samples is not None:
        try:
            fit = ransac_fit_line(obs.target_samples, state.rng)
        except (TooFewSamples, DegenerateLine):
            fit = None
        if fit is not None and fit[1] >= RANSAC_MIN_INLIERS / len(obs.target_samples):
            tgt_line, tgt_ratio, tgt_endpoints = fit

    kind = classify(src_ratio, tgt_ratio, cfg.inlier_ratio_threshold)
    if kind is CaseKind.REJECT:
        return RoundOutcome(RoundStatus.REJECTED, "inlier ratios below threshold")
    if kind is CaseKind.PNL:
        tgt_line = tgt_endpoints = None

    corr = Correspondence(
        kind=kind,
        source_line=src_line,
        source_endpoints=src_endpoints,
        target_line_2d=obs.target_2d,
        target_line_3d=tgt_line,
        target_endpoints=tgt_endpoints,
        obs_id=obs.obs_id,
    )

    rows = rotation_rows(corr, state.target_K)
    accepted, state.gate = gate_rotation(state.gate, corr, rows)
    if not accepted:
        return RoundOutcome(RoundStatus.GATE_REJECTED, "SO(3) distance grew past its budget")
    return RoundOutcome(RoundStatus.ACCEPTED)


def _candidate_lines(
    gate: RotationGateState, R: np.ndarray, K_t: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, list[Correspondence]]:
    """Candidate translation lines of the gate's stored pairs under ``R``.

    The FULL3D lines come from one stacked call on their pairs' source
    directions and moments and target moments, the PNL lines one pair at a
    time; PNL pairs with degenerate endpoint planes are dropped.  Returns
    ``(p0, u, members)``: ``(n, 3)`` arrays in store order and the pairs
    they belong to.
    """
    # a pair's row count tells its kind
    full = gate.sizes == ROTATION_ROW_COUNT[CaseKind.FULL3D]
    fulls = [c for c, f in zip(gate.pairs, full) if f]
    p0 = np.empty((len(full), 3))
    u = np.empty((len(full), 3))
    p0[full], u[full] = candidate_from_full3d(
        np.array([c.source_line.d for c in fulls]).reshape(-1, 3),
        np.array([c.source_line.m for c in fulls]).reshape(-1, 3),
        np.array([c.target_line_3d.m for c in fulls]).reshape(-1, 3),
        R,
    )
    keep = full.copy()
    for i in np.flatnonzero(~full):
        try:
            p0[i], u[i] = candidate_from_pnl(gate.pairs[i], R, K_t)
            keep[i] = True
        except ParallelPlanes:
            continue
    return p0[keep], u[keep], [c for c, k in zip(gate.pairs, keep) if k]


def try_finalize(
    state: PipelineState, cfg: PipelineConfig
) -> CalibrationReport | None:
    """Gate, vote, refine: if the vote under the gate's rotation carries,
    refine from that rotation and the vote's point.

    Returns a Converged report or None (not ready).  A failed vote, or a
    converged one whose mean refined cost is not below ``cost_threshold``,
    may evict several stored pairs (see :func:`selection.evict`).  The
    attempt's :class:`FinalizeAttempt` is appended to ``state.trace``.
    """
    attempt = FinalizeAttempt(len(state.gate.pairs), state.gate.distance)
    state.trace.append(attempt)
    R = state.gate.rotation
    if R is None:
        attempt.note = "rotation undetermined"
        return None

    p0, u, members = _candidate_lines(state.gate, R, state.target_K)
    threshold = vote_threshold(len(members))
    try:
        vote = convergence_voting(p0, u, cfg.epsilon_d_m, threshold)
    except InsufficientLines as exc:
        attempt.note = f"voting failed: {exc}"
        return None
    attempt.vote_size = len(vote.inlier_indices)
    attempt.vote_threshold = threshold
    attempt.vote_converged = vote.converged
    if vote.converged:
        inlier_cs = [members[i] for i in vote.inlier_indices]
        refined = refine(Extrinsics(R, vote.convergence_point), inlier_cs, state.target_K)
        state.last_pose = refined.extrinsics
        attempt.mean_cost = refined.refined_cost / len(inlier_cs)
        if attempt.mean_cost < cfg.cost_threshold:  # a NaN cost never converges
            ids = tuple(c.obs_id for c in inlier_cs if c.obs_id is not None)
            return CalibrationReport(
                extrinsics=refined.extrinsics,
                final_cost=attempt.mean_cost,
                termination=TerminationReason.CONVERGED,
                accepted_pairs=len(state.gate.pairs),
                voting_inlier_ids=ids,
                trace=state.trace,
                inlier_correspondences=inlier_cs,
            )
    # Not yet: the vote failed, or it converged around a pose that still
    # fits poorly (e.g. when a mismatched pair slipped into the store
    # early).  Either way the store gets one eviction pass, which may also
    # drop honest pairs (see selection.evict).
    attempt.evicted, state.gate = evict(state.gate)
    return None


def run(
    stream,
    cfg: PipelineConfig,
    target_K: CameraIntrinsics,
) -> CalibrationReport:
    """Drive the pipeline over an observation stream until it converges,
    the stream ends, or ``max_pairs`` observations were ingested; the
    report's trace holds every finalize attempt."""
    state = PipelineState.fresh(cfg, target_K)
    for obs in itertools.islice(stream, cfg.max_pairs):
        outcome = ingest(obs, state, cfg)
        if outcome.status is RoundStatus.ACCEPTED and len(state.gate.pairs) >= VOTE_MIN_COUNT:
            report = try_finalize(state, cfg)
            if report is not None:
                return report

    # The stream is exhausted.  Earlier rounds may have admitted mismatched
    # pairs while the gate was still underdetermined; re-vote while the last
    # attempt evicted pairs, so a poisoned store can still recover.  Without
    # an eviction the store is as that attempt left it, and a deterministic
    # re-vote would only repeat it.
    while state.trace and state.trace[-1].evicted:
        report = try_finalize(state, cfg)
        if report is not None:
            return report

    if state.last_pose is not None:
        pose = state.last_pose
    elif state.gate.rotation is not None:
        pose = Extrinsics(state.gate.rotation, np.zeros(3))
    else:
        pose = Extrinsics.identity()
    termination = TerminationReason.MAX_PAIRS if state.gate.pairs else TerminationReason.ABORTED
    return CalibrationReport(
        extrinsics=pose,
        final_cost=math.inf,
        termination=termination,
        accepted_pairs=len(state.gate.pairs),
        voting_inlier_ids=(),
        trace=state.trace,
    )
