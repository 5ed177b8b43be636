"""Streaming calibration pipeline.

Observations arrive one matched line pair at a time.  Each is fitted
(RANSAC on the 3D samples of both cameras), classified by depth quality,
passed through the rotation gate, and stored on acceptance.  After every
accepted pair (once a minimum population exists) the pipeline attempts to
finalize: build candidate translation lines under the current gate
rotation, run convergence voting, and -- if the vote carries -- solve and
refine the full pose from the voting inliers only.  A refined mean cost
under the configured threshold ends the run as Converged.

One recovery mechanism goes beyond the plain gate: pairs accepted while the
gate was still underdetermined are never re-examined by the gate itself, so
a single early mismatch can poison the rotation estimate forever.  When a
vote fails, the pipeline therefore tentatively peels the stored pairs with
the largest direction residuals; the removal is kept only when it collapses
the SO(3) distance, which is exactly the signature of mismatched pairs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import CaseKind, Correspondence, assemble, classify
from .errors import (
    CalibrationError,
    DegenerateLine,
    DegenerateTranslation,
    InsufficientLines,
    NoRealSolution,
    ParallelPlanes,
    TooFewSamples,
)
from .geometry import CameraIntrinsics, Extrinsics, Line2D, PluckerLine, cross3, row_norms
from .selection import (
    ROTATION_ROW_COUNT,
    RotationGateState,
    _solve_state,
    candidate_from_full3d,
    candidate_from_pnl,
    convergence_voting,
    gate_rotation,
    rotation_rows,
)
from .solver import PoseSolution, SolverConfig, _real, refine, solve_quadratic_system

#: Accepted pairs required before the first finalize attempt.
MIN_PAIRS_FOR_FINALIZE = 4
#: An eviction is kept only if it shrinks the SO(3) distance below this
#: fraction of its starting value.
EVICTION_FACTOR = 0.5


@dataclass(frozen=True)
class RansacConfig:
    distance_threshold_m: float = 0.01
    iterations: int = 200
    min_inlier_count: int = 8

    def __post_init__(self) -> None:
        if not _real(self, "distance_threshold_m") > 0:
            raise ValueError("distance_threshold_m must be positive")
        for name in ("iterations", "min_inlier_count"):
            if _real(self, name, integer=True) < 1:
                raise ValueError(f"{name} must be at least 1")
        # scoring holds (iterations x samples) arrays
        if self.iterations > 10_000:
            raise ValueError("iterations must be at most 10000")

    def to_dict(self) -> dict:
        return {
            "distance_threshold_m": self.distance_threshold_m,
            "iterations": self.iterations,
            "min_inlier_count": self.min_inlier_count,
        }


@dataclass(frozen=True)
class PipelineConfig:
    inlier_ratio_threshold: float = 0.8
    ransac: RansacConfig = field(default_factory=RansacConfig)
    epsilon_d_m: float = 0.02
    vote_min_count: int = 4
    vote_fraction: float = 0.6
    cost_threshold: float = 2.0
    max_pairs: int = 200
    rng_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if not _real(self, "epsilon_d_m") > 0:
            raise ValueError("epsilon_d_m must be positive")
        for name in ("inlier_ratio_threshold", "vote_fraction"):
            if not 0 < _real(self, name) <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")
        for name in ("vote_min_count", "max_pairs"):
            if _real(self, name, integer=True) < 1:
                raise ValueError(f"{name} must be at least 1")
        if _real(self, "rng_seed", integer=True) < 0:
            raise ValueError("rng_seed must be non-negative")
        _real(self, "cost_threshold")

    def vote_threshold(self, n_lines: int) -> int:
        return max(self.vote_min_count, math.ceil(self.vote_fraction * n_lines))

    def to_dict(self) -> dict:
        return {
            "inlier_ratio_threshold": self.inlier_ratio_threshold,
            "ransac": self.ransac.to_dict(),
            "epsilon_d_m": self.epsilon_d_m,
            "vote_min_count": self.vote_min_count,
            "vote_fraction": self.vote_fraction,
            "cost_threshold": self.cost_threshold,
            "max_pairs": self.max_pairs,
            "rng_seed": self.rng_seed,
            "solver": self.solver.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        kwargs = dict(data)
        for name, kind in (("ransac", RansacConfig), ("solver", SolverConfig)):
            block = kwargs.pop(name, None)
            if block is not None:
                if not isinstance(block, dict):
                    raise TypeError(f"{name} must be an object")
                try:
                    kwargs[name] = kind(**block)
                except (TypeError, ValueError) as exc:
                    raise type(exc)(f"{name}: {exc}") from exc
        return cls(**kwargs)


@dataclass(frozen=True)
class LineObservation:
    """One matched line pair as delivered by the front end.

    3D samples are in the respective camera frame, ordered consistently
    between the two views (segment trackers provide this ordering; the
    simulator samples both sides along the same parametrization).
    ``target_samples`` is None when the target camera had no usable depth.
    """

    obs_id: int
    source_samples: np.ndarray
    target_samples: np.ndarray | None
    source_2d: Line2D
    target_2d: Line2D

    def __post_init__(self) -> None:
        src = np.asarray(self.source_samples, dtype=float)
        if src.ndim != 2 or src.shape[1] != 3 or src.shape[0] < 2:
            raise ValueError("source_samples must be (n >= 2, 3)")
        if not np.isfinite(src).all():
            raise ValueError("source_samples must be finite")
        object.__setattr__(self, "source_samples", src)
        if self.target_samples is not None:
            tgt = np.asarray(self.target_samples, dtype=float)
            if tgt.ndim != 2 or tgt.shape[1] != 3 or tgt.shape[0] < 2:
                raise ValueError("target_samples must be (n >= 2, 3) or None")
            if not np.isfinite(tgt).all():
                raise ValueError("target_samples must be finite")
            object.__setattr__(self, "target_samples", tgt)


def _inlier_masks(
    pts: np.ndarray, ii: np.ndarray, d: np.ndarray, threshold: float
) -> np.ndarray:
    """Which samples lie within ``threshold`` of each hypothesis line.

    Hypothesis ``h`` passes through ``pts[ii[h]]`` with unit direction
    ``d[h]``.  The squared distance of sample ``k`` is taken by Pythagoras
    on centred samples ``q``: ``|q_k - q_i|^2`` from the Gram form minus the
    squared projection ``d . (q_k - q_i)``.  Every temporary is
    ``(iterations, n)``, so time and memory stay O(iterations * n).
    """
    q = pts - pts.mean(axis=0)
    sq = np.einsum("nj,nj->n", q, q)
    qi = q[ii]
    along = d @ q.T
    along -= np.einsum("ij,ij->i", d, qi)[:, None]
    dist2 = qi @ q.T
    dist2 *= -2.0
    dist2 += sq
    dist2 += sq[ii][:, None]
    dist2 -= np.square(along, out=along)
    return dist2 < threshold * threshold


def ransac_fit_line(
    samples: np.ndarray,
    cfg: RansacConfig,
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
    """
    pts = np.asarray(samples, dtype=float)
    n = len(pts)
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")

    ii = rng.integers(0, n, size=cfg.iterations)
    jj = rng.integers(0, n - 1, size=cfg.iterations)
    jj = jj + (jj >= ii)
    dirs = pts[jj] - pts[ii]
    norms = np.linalg.norm(dirs, axis=1)
    valid = norms > 1e-9
    # Degenerate hypotheses score -1, below any real consensus.
    safe = np.where(valid, norms, 1.0)[:, None]
    masks = _inlier_masks(pts, ii, dirs / safe, cfg.distance_threshold_m)
    counts = np.where(valid, masks.sum(axis=1), -1)
    best = int(np.argmax(counts))
    if counts[best] < 2:
        raise DegenerateLine("no two-point hypothesis found a consensus")
    inlier_mask = masks[best]
    inliers = pts[inlier_mask]

    centroid = inliers.mean(axis=0)
    _, _, Vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    direction = Vt[0]
    idx = np.flatnonzero(inlier_mask)
    span = pts[idx[-1]] - pts[idx[0]]
    if float(span @ direction) < 0.0:
        direction = -direction

    proj = (inliers - centroid) @ direction
    endpoints = np.stack(
        [centroid + proj.min() * direction, centroid + proj.max() * direction]
    )
    line = PluckerLine(direction, cross3(centroid, direction))
    return line, float(inlier_mask.sum()) / n, endpoints


class RoundStatus(enum.Enum):
    ACCEPTED = "accepted"
    GATE_REJECTED = "gate_rejected"
    REJECTED = "rejected"


@dataclass(frozen=True)
class RoundOutcome:
    status: RoundStatus
    reason: str | None = None
    distance: float = math.inf


class TerminationReason(enum.Enum):
    CONVERGED = "converged"
    MAX_PAIRS = "max_pairs"
    ABORTED = "aborted"


@dataclass
class CalibrationReport:
    """Final (or best-effort) calibration result with an audit trail."""

    extrinsics: Extrinsics
    final_cost: float
    termination: TerminationReason
    accepted_pairs: int
    voting_inlier_ids: tuple[int, ...]
    trace: list[dict]
    solution: PoseSolution | None = None
    inlier_correspondences: list[Correspondence] = field(default_factory=list)


@dataclass
class PipelineState:
    """Single-owner mutable state threaded through ingest/finalize calls."""

    target_K: CameraIntrinsics
    rng: np.random.Generator
    gate: RotationGateState = field(default_factory=RotationGateState.empty)
    correspondences: list[Correspondence] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)
    ingested: int = 0
    last_solution: PoseSolution | None = None

    @classmethod
    def fresh(cls, cfg: PipelineConfig, target_K: CameraIntrinsics) -> "PipelineState":
        return cls(target_K=target_K, rng=np.random.default_rng(cfg.rng_seed))


def ingest(
    obs: LineObservation, state: PipelineState, cfg: PipelineConfig
) -> RoundOutcome:
    """Fit, classify and gate one observation; store it on acceptance."""
    try:
        src_line, src_ratio, src_endpoints = ransac_fit_line(
            obs.source_samples, cfg.ransac, state.rng
        )
    except (TooFewSamples, DegenerateLine) as exc:
        return RoundOutcome(RoundStatus.REJECTED, f"source fit failed: {exc}")
    if src_ratio * len(obs.source_samples) < cfg.ransac.min_inlier_count:
        return RoundOutcome(RoundStatus.REJECTED, "too few source fit inliers")

    tgt_line = tgt_endpoints = None
    tgt_ratio = 0.0
    if obs.target_samples is not None:
        try:
            fit = ransac_fit_line(obs.target_samples, cfg.ransac, state.rng)
        except (TooFewSamples, DegenerateLine):
            fit = None
        if fit is not None and fit[1] * len(obs.target_samples) >= cfg.ransac.min_inlier_count:
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
    accepted, new_gate = gate_rotation(state.gate, rows)
    if not accepted:
        return RoundOutcome(RoundStatus.GATE_REJECTED, "SO(3) distance grew past its budget",
                            distance=state.gate.distance)
    state.gate = new_gate
    state.correspondences.append(corr)
    return RoundOutcome(RoundStatus.ACCEPTED, distance=new_gate.distance)


def _maybe_evict(state: PipelineState) -> list[int | None]:
    """Drop the stored pairs most at odds with the rotation estimate.

    Pairs admitted while the gate was still underdetermined can hold the
    least-squares system permanently off the rotation manifold; once they
    are in, the gate never re-examines them.  This greedily peels the pair
    with the largest linear-system residual, re-solving after each removal,
    and commits the shortest removal prefix that shrinks the SO(3) distance
    below ``EVICTION_FACTOR`` times its starting value.  Peeling several
    pairs per call matters: with two or more bad pairs, removing just one
    barely moves the distance and a single-step test would deadlock.
    Peeling stops before the rows would fall under nine or the pairs under
    ``MIN_PAIRS_FOR_FINALIZE``, and when the rotation becomes undetermined.
    If no prefix reaches the target the store is left untouched.  That does
    not keep an honest store whole: with few rows, dropping the worst-fitting
    noisy pair can halve the distance by itself, so an outlier-free stream
    whose vote never forms keeps losing pairs (20 to 36 per 60-line stream
    at 0.5 px / 3 mm noise).  Returns the evicted ids.
    """
    orig = state.gate
    if orig.rotation is None or not 0.0 < orig.distance < math.inf:
        return []
    sizes = np.array([ROTATION_ROW_COUNT[c.kind] for c in state.correspondences])
    stacks = _row_stacks(orig.C, orig.b, sizes)
    kept = np.ones(len(sizes), dtype=bool)
    cur = orig
    removed: list[int] = []
    while cur.rotation is not None:
        residuals = _pair_residuals(stacks, cur.rotation.reshape(-1))
        residuals[~kept] = -np.inf
        worst = int(np.argmax(residuals))
        if cur.row_count - sizes[worst] < 9 or kept.sum() - 1 < MIN_PAIRS_FOR_FINALIZE:
            break
        removed.append(worst)
        kept[worst] = False
        rows = np.repeat(kept, sizes)
        cur = _solve_state(orig.C[rows], orig.b[rows])
        if cur.distance < EVICTION_FACTOR * orig.distance:
            evicted = [state.correspondences[i].obs_id for i in removed]
            state.gate = cur
            state.correspondences = [c for c, k in zip(state.correspondences, kept) if k]
            return evicted
    return []


def _row_stacks(
    C: np.ndarray, b: np.ndarray, sizes: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The gate's stacked rows grouped by pair row count (``sizes[i]`` rows
    for pair ``i``): for each count ``n`` present, the mask of those pairs
    and their rows as ``(k, n, 9)`` and ``(k, n)`` stacks, in store order."""
    rows = np.repeat(sizes, sizes)
    return [
        (sizes == n, C[rows == n].reshape(-1, n, 9), b[rows == n].reshape(-1, n))
        for n in ROTATION_ROW_COUNT.values()
        if n in sizes
    ]


def _pair_residuals(
    stacks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], vec: np.ndarray
) -> np.ndarray:
    """``|C_i vec - b_i|`` of each stored pair's rows, in store order.

    One stacked ``(k, n, 9) @ vec`` product per row count, which rounds
    exactly like the per-pair products; a single 2-D ``C @ vec`` does not.
    """
    out = np.empty(len(stacks[0][0]))
    for pairs, C, b in stacks:
        out[pairs] = row_norms(C @ vec - b)
    return out


def _candidate_lines(
    cs: list[Correspondence], R: np.ndarray, K_t: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, list[Correspondence]]:
    """Candidate translation lines of the stored pairs under ``R``.

    The FULL3D lines come from one batched call, the PNL lines one pair at
    a time; PNL pairs with degenerate endpoint planes are dropped.  Returns
    ``(p0, u, members)``: ``(n, 3)`` arrays in store order and the pairs
    they belong to.
    """
    full = np.array([c.kind is CaseKind.FULL3D for c in cs], dtype=bool)
    p0 = np.empty((len(cs), 3))
    u = np.empty((len(cs), 3))
    p0[full], u[full] = candidate_from_full3d([c for c, f in zip(cs, full) if f], R)
    keep = full.copy()
    for i in np.flatnonzero(~full):
        try:
            p0[i], u[i] = candidate_from_pnl(cs[i], R, K_t)
            keep[i] = True
        except ParallelPlanes:
            continue
    return p0[keep], u[keep], [c for c, k in zip(cs, keep) if k]


def _full3d_weights(
    cs: list[Correspondence], K_t: CameraIntrinsics
) -> np.ndarray:
    """Pixel-equivalent weights: 3D residuals scaled by fx over mean depth."""
    w = np.ones(len(cs))
    for i, c in enumerate(cs):
        if c.kind is CaseKind.FULL3D:
            z = float(np.mean(np.abs(c.target_endpoints[:, 2])))
            w[i] = K_t.fx / max(z, 1e-6)
    return w


def try_finalize(
    state: PipelineState, cfg: PipelineConfig
) -> CalibrationReport | None:
    """Vote on translation observability and, if converged, solve the pose.

    Returns a Converged report or None (not ready).  A failed vote, or a
    converged one whose refined cost stays above ``cost_threshold``, may
    evict several stored pairs (see :func:`_maybe_evict`).
    """
    entry: dict = {"pairs": len(state.correspondences), "d_so3": state.gate.distance}
    state.trace.append(entry)
    R = state.gate.rotation
    if R is None:
        entry["note"] = "rotation undetermined"
        return None

    p0, u, members = _candidate_lines(state.correspondences, R, state.target_K)
    if len(members) < 2:
        entry["note"] = "too few candidate lines"
        return None

    threshold = cfg.vote_threshold(len(members))
    try:
        vote = convergence_voting(p0, u, cfg.epsilon_d_m, threshold)
    except InsufficientLines as exc:
        entry["note"] = f"voting failed: {exc}"
        return None
    entry["vote_size"] = len(vote.inlier_indices)
    entry["vote_threshold"] = threshold
    entry["vote_converged"] = vote.converged
    if not vote.converged:
        evicted = _maybe_evict(state)
        if evicted:
            entry["evicted"] = evicted
        return None

    inlier_cs = [members[i] for i in vote.inlier_indices]
    try:
        system = assemble(inlier_cs, state.target_K)
        solution = solve_quadratic_system(system)
        weights = _full3d_weights(inlier_cs, state.target_K)
        refined = refine(solution, inlier_cs, state.target_K, cfg.solver, weights)
    except (DegenerateTranslation, NoRealSolution, CalibrationError) as exc:
        entry["note"] = f"solve failed: {exc}"
        return None
    state.last_solution = refined
    mean_cost = refined.refined_cost / len(inlier_cs)
    entry["mean_cost"] = mean_cost
    if not mean_cost < cfg.cost_threshold:  # a NaN cost never converges
        # A vote can converge around a pose that still fits poorly -- e.g.
        # when a mismatched pair slipped into the store early.  Give the
        # eviction pass a chance here too; it is a no-op for honest stores.
        evicted = _maybe_evict(state)
        if evicted:
            entry["evicted"] = evicted
        return None
    ids = tuple(c.obs_id for c in inlier_cs if c.obs_id is not None)
    return CalibrationReport(
        extrinsics=refined.extrinsics,
        final_cost=mean_cost,
        termination=TerminationReason.CONVERGED,
        accepted_pairs=len(state.correspondences),
        voting_inlier_ids=ids,
        trace=state.trace,
        solution=refined,
        inlier_correspondences=inlier_cs,
    )


def run(
    stream,
    cfg: PipelineConfig,
    target_K: CameraIntrinsics,
) -> CalibrationReport:
    """Drive the pipeline over an observation stream until it converges,
    the stream ends, or ``max_pairs`` observations were ingested."""
    state = PipelineState.fresh(cfg, target_K)
    for obs in stream:
        if state.ingested >= cfg.max_pairs:
            break
        state.ingested += 1
        outcome = ingest(obs, state, cfg)
        if (
            outcome.status is RoundStatus.ACCEPTED
            and len(state.correspondences) >= MIN_PAIRS_FOR_FINALIZE
        ):
            report = try_finalize(state, cfg)
            if report is not None:
                return report

    # The stream is exhausted.  Earlier rounds may have admitted mismatched
    # pairs while the gate was still underdetermined; keep re-voting as long
    # as evictions make progress so a poisoned store can still recover.
    while len(state.correspondences) >= MIN_PAIRS_FOR_FINALIZE:
        before = len(state.correspondences)
        report = try_finalize(state, cfg)
        if report is not None:
            return report
        if len(state.correspondences) == before:
            break

    if state.last_solution is not None:
        pose = state.last_solution.extrinsics
    elif state.gate.rotation is not None:
        pose = Extrinsics(state.gate.rotation, np.zeros(3))
    else:
        pose = Extrinsics.identity()
    termination = (
        TerminationReason.ABORTED
        if not state.correspondences
        else TerminationReason.MAX_PAIRS
    )
    return CalibrationReport(
        extrinsics=pose,
        final_cost=math.inf,
        termination=termination,
        accepted_pairs=len(state.correspondences),
        voting_inlier_ids=(),
        trace=state.trace,
        solution=state.last_solution,
    )
