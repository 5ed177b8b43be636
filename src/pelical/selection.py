"""Streaming pair selection: rotation gating, eviction and translation voting.

Every matched pair constrains the rotation linearly (FULL3D pairs map the
source direction onto the target direction, PNL pairs confine it to the
back-projection plane of the observed image line).  The gate keeps the
accepted pairs with those rows and their 9x9 normal equations, solves the
normal equations for the best linear map, and measures how far it sits
from SO(3): a pair is only kept when it does not push the estimate away
from the rotation manifold.  Solving a pair therefore costs the same
however many are stored, and removing one subtracts its block of the
normal equations.  What else a stored pair contributes -- its row count,
that block, and the inputs of its FULL3D candidate translation line -- is
made once, when the gate accepts it, and stacked next to the stored pairs,
so finalize attempts and evictions read arrays instead of rebuilding them
from the pairs each time.

Pairs accepted while the gate was still underdetermined are never
re-examined by the gate itself, so a single early mismatch can poison the
rotation estimate forever.  When a vote fails, or converges around a pose
whose mean cost is not below the threshold, the gate therefore tentatively
peels the stored pairs with the largest direction residuals
(:func:`evict`); the removal is kept only when it collapses the SO(3)
distance, which is exactly the signature of mismatched pairs.

Independently, each accepted pair pins the translation to a 3D line.  When
enough of those candidate lines pass near a common point, the translation
is considered observable and the estimate has converged: the lines "vote"
for the true camera offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import CaseKind, Correspondence
from .errors import InsufficientLines, ParallelPlanes, RankDeficient, WrongKind
from .geometry import (
    CameraIntrinsics,
    axis_norms,
    cross3,
    cross_rows,
    line_projection_matrix,
    project_so3,
    row_norms,
    skew,
    so3_distance,
)

#: Rows needed before the rotation least-squares problem is determined.
_FULL_ROWS = 9
#: The gate admits a pair while the SO(3) distance stays below its value
#: over ``EVICTION_FACTOR`` plus ``GATE_SLACK`` (see :func:`gate_rotation`);
#: an eviction is kept only when it shrinks the distance below
#: ``EVICTION_FACTOR`` times its starting value.
GATE_SLACK = 1e-10
EVICTION_FACTOR = 0.5
#: ``lstsq``'s default rank cutoff on a 9x9 system, relative to its largest
#: singular value (see :func:`_solve_normal`).
_RANK_CUTOFF = 9 * np.finfo(float).eps
#: Size bound on the (proposals x lines x 3) float64 distance tensor that
#: :func:`convergence_voting` evaluates at once.
VOTE_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class RotationGateState:
    """Accepted pairs, their direction constraints and the rotation estimate.

    ``pairs`` holds every accepted pair in acceptance order, ``C``/``b``
    stack their :func:`rotation_rows` in that order, and ``G = C^T C``,
    ``h = C^T b`` are the rows' 9x9 normal equations, summed one pair at a
    time.  The per-pair arrays are made once, when the gate accepts a pair,
    and stacked in the same order: ``sizes`` holds each pair's row count,
    ``G_pair``/``h_pair`` its block ``(C_row^T C_row, C_row^T b_row)`` of
    the normal equations (:func:`evict` downdates by them), and ``d_s``,
    ``m_s``, ``m_t`` its :func:`candidate_from_full3d` inputs: the source
    line's direction and moment and the target line's moment, which is zero
    for PNL pairs.  ``rotation`` is the SO(3) projection of the minimum-norm
    least-squares solution of ``G x = h`` (reshaped 3x3, row-major; None
    while the system is too degenerate to project; see
    :func:`_solve_normal`), and ``distance`` the spectrum
    distance of that solution to SO(3) -- infinity exactly while
    ``rotation`` is None.  Below nine rows the solution is the minimum-norm
    one of an underdetermined system, so the distance is usually finite
    already but not yet used to reject pairs (see :func:`gate_rotation`).
    """

    pairs: tuple[Correspondence, ...]
    C: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray
    sizes: np.ndarray
    G_pair: np.ndarray
    h_pair: np.ndarray
    d_s: np.ndarray
    m_s: np.ndarray
    m_t: np.ndarray
    rotation: np.ndarray | None = None
    distance: float = np.inf

    @classmethod
    def empty(cls) -> "RotationGateState":
        return cls(
            (), np.zeros((0, 9)), np.zeros(0), np.zeros((9, 9)), np.zeros(9),
            np.zeros(0, dtype=np.intp), np.zeros((0, 9, 9)), np.zeros((0, 9)),
            np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)),
        )

    @property
    def row_count(self) -> int:
        return self.C.shape[0]


#: Rows :func:`rotation_rows` contributes per pair, by kind.
ROTATION_ROW_COUNT = {CaseKind.FULL3D: 3, CaseKind.PNL: 1}


def rotation_rows(
    c: Correspondence, K_t: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Linear constraints ``C vec(R) = b`` contributed by one pair.

    FULL3D: three rows encoding ``R d_s = d_t``.  PNL: one row demanding
    ``R d_s`` be orthogonal to the plane normal ``K^T l`` of the observed
    image line (normalized so mixed systems weight both kinds comparably).
    ``vec(R)`` is row-major.
    """
    d_s = c.source_line.d
    if c.kind is CaseKind.FULL3D:
        C = np.zeros((3, 9))
        for i in range(3):
            C[i, 3 * i : 3 * i + 3] = d_s
        return C, np.array(c.target_line_3d.d)
    normal = K_t.camera_matrix.T @ c.target_line_2d.coeffs
    normal = normal / np.linalg.norm(normal)
    return np.kron(normal, d_s)[None, :], np.zeros(1)


def _solve_normal(G: np.ndarray, h: np.ndarray) -> tuple[np.ndarray | None, float]:
    """``(rotation, distance)`` of the rows whose normal equations are
    ``G x = h``: the SO(3) projection of their minimum-norm least-squares
    solution, and its spectrum distance to SO(3).

    That solution is the minimum-norm solution of the 9x9 system itself.
    ``np.linalg.solve`` finds it while ``G`` is regular.  ``G`` counts as
    singular where ``lstsq``'s own rank cutoff, ``9 eps`` times its largest
    singular value, would drop a direction -- always below nine rows, and on
    stores whose lines share one or two directions -- and then ``lstsq``
    does.  There ``np.linalg.solve`` rarely raises; it returns an arbitrary
    solution instead (rotations 50-170 degrees off).
    """
    w = np.linalg.eigvalsh(G)  # G is symmetric, so these are its singular values
    if w[0] > _RANK_CUTOFF * w[-1]:
        sol = np.linalg.solve(G, h)
    else:
        sol = np.linalg.lstsq(G, h, rcond=None)[0]
    try:
        R, sigma, sigma_target = project_so3(sol.reshape(3, 3))
    except RankDeficient:
        return None, np.inf
    return R, so3_distance(sigma, sigma_target)


def gate_rotation(
    state: RotationGateState, pair: Correspondence, new_rows: tuple[np.ndarray, np.ndarray]
) -> tuple[bool, RotationGateState]:
    """Tentatively add ``pair`` and its :func:`rotation_rows`; keep them
    unless the SO(3) distance grows past its budget.

    The pair's block ``(C_row^T C_row, C_row^T b_row)`` joins the normal
    equations, which are solved as they stand, so the solve costs the same
    at any store size; only an accepted pair joins ``pairs``, its rows
    ``C``/``b`` and the per-pair arrays, that block among them, which are
    made here, once.  A rejected pair returns ``state`` itself.

    While the accumulated system has fewer than nine rows it cannot reject
    anything (the least-squares fit is underdetermined), so early pairs are
    accepted unconditionally.  Once active, the gate accepts a pair when the
    new distance stays below ``distance / EVICTION_FACTOR + GATE_SLACK``: a
    pair may at most double the distance that an eviction must halve.
    The absolute slack keeps noise-free streams alive (there the distance
    sits at float round-off and a strict comparison would randomly starve
    the pipeline); the relative budget does the same on noisy streams,
    where each honest pair adds its own fit error and the distance
    fluctuates around the noise floor instead of decreasing monotonically.
    A mismatched pair typically multiplies the distance tens of times over,
    so doubling still rejects it cleanly.
    """
    C_row, b_row = new_rows
    G_pair, h_pair = C_row.T @ C_row, C_row.T @ b_row
    G, h = state.G + G_pair, state.h + h_pair
    rotation, distance = _solve_normal(G, h)
    budget = state.distance / EVICTION_FACTOR + GATE_SLACK
    if state.row_count >= _FULL_ROWS and not distance < budget:
        return False, state
    # a PNL pair has no target line; it stores a zero target moment
    m_t = pair.target_line_3d.m if pair.kind is CaseKind.FULL3D else np.zeros(3)
    return True, RotationGateState(
        state.pairs + (pair,),
        np.concatenate([state.C, C_row]),
        np.concatenate([state.b, b_row]),
        G,
        h,
        np.concatenate([state.sizes, [len(C_row)]]),
        np.concatenate([state.G_pair, G_pair[None]]),
        np.concatenate([state.h_pair, h_pair[None]]),
        np.concatenate([state.d_s, pair.source_line.d[None]]),
        np.concatenate([state.m_s, pair.source_line.m[None]]),
        np.concatenate([state.m_t, m_t[None]]),
        rotation,
        distance,
    )


def evict(state: RotationGateState) -> tuple[list[int | None], RotationGateState]:
    """Drop the stored pairs most at odds with the rotation estimate.

    Greedily peels the pair with the largest linear-system residual,
    downdating the normal equations by its stored 9x9 block and solving them
    again after each removal, and commits the shortest removal prefix that
    shrinks the SO(3) distance below ``EVICTION_FACTOR`` times its starting
    value; the committed gate rebuilds its normal equations from the kept
    rows, so no downdate round-off stays in them, and keeps the kept pairs'
    per-pair arrays as the gate made them.  Peeling several pairs per call
    matters: with two or more bad pairs, removing just one barely moves the
    distance and a single-step test would deadlock.  Peeling stops before
    the rows would fall under ``_FULL_ROWS`` or the pairs under
    ``VOTE_MIN_COUNT``, and when the rotation becomes undetermined.  The
    store is left untouched when no prefix reaches the target, and when its
    distance is within ``GATE_SLACK``: there it is float round-off, which
    any removal halves or doubles at random.  An honest store still bleeds:
    with few rows, dropping the worst-fitting noisy pair can halve the
    distance by itself, so an outlier-free stream whose vote never forms
    keeps losing pairs (20 to 36 per 60-line stream at 0.5 px / 3 mm
    noise).  Returns the evicted ids and the gate without them, or ``[]``
    and ``state`` itself.
    """
    if state.rotation is None or not GATE_SLACK < state.distance < math.inf:
        return [], state
    sizes = state.sizes
    starts = np.cumsum(sizes) - sizes
    G, h, row_count, rotation = state.G, state.h, state.row_count, state.rotation
    removed: list[int] = []
    while rotation is not None and len(sizes) - len(removed) > VOTE_MIN_COUNT:
        residuals = _pair_residuals(state.C, state.b, starts, rotation.reshape(-1))
        residuals[removed] = -np.inf
        worst = int(np.argmax(residuals))
        row_count -= int(sizes[worst])
        if row_count < _FULL_ROWS:
            break
        removed.append(worst)
        G = G - state.G_pair[worst]
        h = h - state.h_pair[worst]
        rotation, distance = _solve_normal(G, h)
        if distance < EVICTION_FACTOR * state.distance:
            return [state.pairs[i].obs_id for i in removed], _without(state, removed)
    return [], state


def _without(state: RotationGateState, removed: list[int]) -> RotationGateState:
    """``state`` without the pairs at the indices ``removed``: the kept rows
    and per-pair arrays, and normal equations rebuilt from those rows."""
    kept = np.ones(len(state.pairs), dtype=bool)
    kept[removed] = False
    rows = np.repeat(kept, state.sizes)
    C, b = state.C[rows], state.b[rows]
    G, h = C.T @ C, C.T @ b
    return RotationGateState(
        tuple(c for c, k in zip(state.pairs, kept) if k),
        C,
        b,
        G,
        h,
        state.sizes[kept],
        state.G_pair[kept],
        state.h_pair[kept],
        state.d_s[kept],
        state.m_s[kept],
        state.m_t[kept],
        *_solve_normal(G, h),
    )


def _pair_residuals(
    C: np.ndarray, b: np.ndarray, starts: np.ndarray, vec: np.ndarray
) -> np.ndarray:
    """``|C_i vec - b_i|`` of each stored pair's rows, in store order; pair
    ``i``'s rows start at row ``starts[i]``."""
    e = C @ vec - b
    return np.sqrt(np.add.reduceat(e * e, starts))


def candidate_from_full3d(
    d_s: np.ndarray, m_s: np.ndarray, m_t: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Translation loci of FULL3D pairs given the rotation.

    Pair ``i`` has the source line ``(d_s[i], m_s[i])`` and the target
    moment ``m_t[i]``, each array ``(k, 3)`` (a gate stores them for its
    pairs, see :class:`RotationGateState`).  The moment transport equation
    leaves ``t`` free only along the rotated source direction
    ``u = R d_s``; the particular solution is
    ``p0 = (R m_s - m_t) x (R d_s)``.  Returns ``(p0, u)``, each ``(k, 3)``
    with unit ``u``.  Every product is a stacked matmul, so each row has the
    bits of the one-pair formula.
    """
    Rd = (R @ d_s[:, :, None])[..., 0]
    p0 = cross_rows((R @ m_s[:, :, None])[..., 0] - m_t, Rd)
    return p0, Rd / row_norms(Rd)[:, None]


def candidate_from_pnl(
    c: Correspondence, R: np.ndarray, K_t: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Translation locus of a PNL pair given the rotation.

    Given the rotation, the observed image line pins ``t`` through two kinds
    of linear constraints.  Each observed 2D endpoint ``x`` contributes a
    moment plane ``(R d_s x P^T x)^T t = -x^T P R m_s`` (P the line
    projection matrix).  Those planes collapse onto each other as the
    rotation nears the exact one (their separation scales with the residual
    of the direction constraint), so by themselves they never pin more than
    a plane: the anchor point along the line stays unobservable from line
    incidence alone.  The observed endpoints, however, are the images of the
    transferred source segment endpoints, so each endpoint/source-endpoint
    match adds the point-transfer rows ``[x]_x K t = -[x]_x K R X``.  The
    stacked system is solved by least squares.  Segment orientation is not
    shared across cameras, so the reversed endpoint ordering is tried when
    the first one implies a segment behind the camera; the first ordering in
    front of the camera gives the anchor.  The candidate line runs through
    that anchor ``p0`` along the unit ``u = R d_s``; returns ``(p0, u)``.

    Raises WrongKind for a pair that is not PNL, and ParallelPlanes when the
    2D endpoints coincide, the stacked constraints are rank deficient, or
    both orderings lie behind the camera.
    """
    if c.kind is not CaseKind.PNL:
        raise WrongKind("candidate_from_pnl needs a PNL pair")
    ep = c.target_line_2d.endpoints
    if np.linalg.norm(ep[0] - ep[1]) < 1e-9:
        raise ParallelPlanes("2D endpoints are coincident")
    P = line_projection_matrix(K_t)
    K = K_t.camera_matrix
    Rd = R @ c.source_line.d
    PRm = P @ (R @ c.source_line.m)
    x_h = [np.array([uv[0], uv[1], 1.0]) for uv in ep]
    S = [skew(x) for x in x_h]
    # The rows do not depend on the endpoint ordering; only the values do.
    rows = np.stack([cross3(Rd, P.T @ x) for x in x_h] + [r for Sx in S for r in Sx @ K])
    moments = [-float(x @ PRm) for x in x_h]
    scale = row_norms(rows)
    keep = ~(scale < 1e-12)
    A = rows[keep] / scale[keep, None]
    for picked in (c.source_endpoints, c.source_endpoints[::-1]):
        transfers = [-Sx @ (K @ (R @ X)) for Sx, X in zip(S, picked)]
        b = np.concatenate([moments, *transfers])[keep] / scale[keep]
        sol, _, _, sv = np.linalg.lstsq(A, b, rcond=None)
        if sv[2] < 1e-9 * max(1.0, sv[0]):
            break
        # the swapped ordering is often algebraically consistent too (the
        # endpoint rays and the line direction are coplanar), but it places
        # the transferred segment behind the camera
        if min((R @ X + sol)[2] for X in picked) > 0.0:
            return sol, Rd / np.linalg.norm(Rd)
    raise ParallelPlanes("endpoint planes are degenerate")


@dataclass(frozen=True)
class VotingResult:
    """Outcome of convergence voting over candidate translation lines."""

    converged: bool
    inlier_indices: tuple[int, ...]
    convergence_point: np.ndarray | None


def _line_distances(pts: np.ndarray, p0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``(k, n)`` distances of points ``pts`` to the lines ``(p0, u)``."""
    perp = pts[:, None, :] - p0[None, :, :]  # (k, n, 3)
    along = np.einsum("knj,nj->kn", perp, u)
    perp -= along[..., None] * u[None, :, :]
    return axis_norms(perp, axis=2)


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, the pairs ``i < j`` in row-major order,
    from the pair counts per row rather than an ``n x n`` mask."""
    ii = np.repeat(np.arange(n - 1), np.arange(n - 1, 0, -1))
    # row i's pairs start at position i (2n - i - 1) / 2
    jj = np.arange(len(ii)) - ii * (2 * n - 1 - ii) // 2 + ii + 1
    return ii, jj


def _proposals(p0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Common-perpendicular midpoints of every non-parallel pair of the lines
    ``(p0, u)``, batched, in ``triu_indices`` order."""
    ii, jj = _pair_indices(len(p0))
    u1, u2 = u[ii], u[jj]
    ok = axis_norms(cross_rows(u1, u2), axis=1) >= 1e-9
    if not ok.any():
        raise InsufficientLines("no non-parallel candidate line pair")
    ii, jj, u1, u2 = ii[ok], jj[ok], u1[ok], u2[ok]
    q1, q2 = p0[ii], p0[jj]
    w0 = q1 - q2
    b = np.einsum("ij,ij->i", u1, u2)
    d = np.einsum("ij,ij->i", u1, w0)
    e = np.einsum("ij,ij->i", u2, w0)
    denom = 1.0 - b * b
    s = (b * e - d) / denom
    t = (e - b * d) / denom
    q1 += s[:, None] * u1
    q2 += t[:, None] * u2
    return 0.5 * (q1 + q2)


#: A vote carries with ``max(VOTE_MIN_COUNT, ceil(VOTE_FRACTION * lines))``
#: agreeing candidate lines, so finalize waits for, and eviction keeps,
#: ``VOTE_MIN_COUNT`` pairs.
VOTE_MIN_COUNT = 4
VOTE_FRACTION = 0.6


def vote_threshold(n_lines: int) -> int:
    """Votes a point needs among ``n_lines`` candidate lines to carry."""
    return max(VOTE_MIN_COUNT, math.ceil(VOTE_FRACTION * n_lines))


def convergence_voting(
    p0: np.ndarray,
    u: np.ndarray,
    epsilon_d: float,
    vote_threshold: int,
) -> VotingResult:
    """Find the point supported by the most candidate lines.

    Line ``i`` runs through ``p0[i]`` along the unit ``u[i]`` (both
    ``(n, 3)``).  Every non-parallel pair of lines proposes the midpoint of
    its common perpendicular; the proposal whose ``epsilon_d``-neighborhood
    captures the most lines wins (ties by the smaller summed inlier
    distance, then by the earlier proposal).  The vote converges when the
    winning set reaches ``vote_threshold``.  Proposals are scored a chunk at
    a time, so no distance tensor exceeds ``VOTE_CHUNK_BYTES``, and the
    winner's inliers are those its chunk found; the proposals themselves
    take O(n^2) memory.
    """
    n = len(p0)
    if n < 2:
        raise InsufficientLines("voting needs at least two candidate lines")

    pts = _proposals(p0, u)
    # each distance depends on its own proposal and line only, so chunking
    # changes no bit of counts, sums or their lexsort order
    chunk = max(1, VOTE_CHUNK_BYTES // (n * 3 * 8))
    best = None
    for lo in range(0, len(pts), chunk):
        dist = _line_distances(pts[lo : lo + chunk], p0, u)
        member = dist < epsilon_d
        counts = member.sum(axis=1)
        sums = np.where(member, dist, 0.0).sum(axis=1)
        i = np.lexsort((sums, -counts))[0]
        # a later chunk's leader wins only with more votes, or as many at a
        # strictly smaller sum, as the lexsort of all proposals would rank it
        score = (int(counts[i]), -float(sums[i]))
        if best is None or score > best[0]:
            best = score, lo + i, member[i]
    _, winner, member = best
    inliers = tuple(np.flatnonzero(member).tolist())
    return VotingResult(
        converged=len(inliers) >= vote_threshold,
        inlier_indices=inliers,
        convergence_point=pts[winner],
    )
