"""Streaming pair selection: rotation gating and translation voting.

Every matched pair constrains the rotation linearly (FULL3D pairs map the
source direction onto the target direction, PNL pairs confine it to the
back-projection plane of the observed image line).  The gate accumulates
those rows, solves for the best linear map, and measures how far it sits
from SO(3): a pair is only kept when it does not push the estimate away
from the rotation manifold.

Independently, each accepted pair pins the translation to a 3D line.  When
enough of those candidate lines pass near a common point, the translation
is considered observable and the estimate has converged: the lines "vote"
for the true camera offset.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constraints import CaseKind, Correspondence
from .errors import InsufficientLines, ParallelPlanes, RankDeficient
from .geometry import (
    CameraIntrinsics,
    cross3,
    line_projection_matrix,
    project_so3,
    row_norms,
    skew,
    so3_distance,
)

#: Rows needed before the rotation least-squares problem is determined.
_FULL_ROWS = 9
#: Absolute and relative budgets on the SO(3) distance the gate admits
#: (see :func:`gate_rotation`).
GATE_SLACK = 1e-10
GATE_GROWTH = 1.0
#: Size bound on the (proposals x lines x 3) float64 distance tensor that
#: :func:`convergence_voting` evaluates at once.
VOTE_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class RotationGateState:
    """Accumulated direction constraints and the current rotation estimate.

    ``C``/``b`` stack every accepted pair's :func:`rotation_rows` in
    acceptance order.  ``rotation`` is the SO(3) projection of their
    unconstrained least-squares solution (reshaped 3x3, row-major; None
    while the system is too degenerate to project), and ``distance`` the
    spectrum distance of that solution to SO(3) -- infinity until enough
    rows exist to make it meaningful.
    """

    C: np.ndarray
    b: np.ndarray
    rotation: np.ndarray | None = None
    distance: float = np.inf

    @classmethod
    def empty(cls) -> "RotationGateState":
        return cls(C=np.zeros((0, 9)), b=np.zeros(0))

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


def _solve_state(C: np.ndarray, b: np.ndarray) -> RotationGateState:
    sol, *_ = np.linalg.lstsq(C, b, rcond=None)
    M = sol.reshape(3, 3)
    try:
        R, sigma, sigma_target = project_so3(M)
        dist = so3_distance(sigma, sigma_target)
    except RankDeficient:
        R, dist = None, np.inf
    return RotationGateState(C=C, b=b, rotation=R, distance=dist)


def gate_rotation(
    state: RotationGateState, new_rows: tuple[np.ndarray, np.ndarray]
) -> tuple[bool, RotationGateState]:
    """Tentatively add a pair's rows; keep them unless the SO(3) distance
    grows past its budget.

    While the accumulated system has fewer than nine rows it cannot reject
    anything (the least-squares fit is underdetermined), so early pairs are
    accepted unconditionally.  Once active, the gate accepts a pair when the
    new distance stays below ``distance * (1 + GATE_GROWTH) + GATE_SLACK``.
    The absolute slack keeps noise-free streams alive (there the distance
    sits at float round-off and a strict comparison would randomly starve
    the pipeline); the relative growth budget does the same on noisy
    streams, where each honest pair adds its own fit error and the distance
    fluctuates around the noise floor instead of decreasing monotonically.
    A mismatched pair typically multiplies the distance tens of times over,
    so a growth budget of 1 still rejects it cleanly.
    """
    C_row, b_row = new_rows
    C_new = np.vstack([state.C, C_row])
    b_new = np.concatenate([state.b, b_row])
    candidate = _solve_state(C_new, b_new)
    if state.row_count < _FULL_ROWS:
        return True, candidate
    if candidate.distance < state.distance * (1.0 + GATE_GROWTH) + GATE_SLACK:
        return True, candidate
    return False, state


def candidate_from_full3d(
    pairs: Sequence[Correspondence], R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Translation loci of FULL3D pairs given the rotation.

    The moment transport equation leaves ``t`` free only along the rotated
    source direction ``u = R d_s``; the particular solution is
    ``p0 = (R m_s - m_t) x (R d_s)``.  Returns ``(p0, u)``, each ``(k, 3)``
    with unit ``u``.  The pairs are stacked and every product is a stacked
    matmul, so each row has the bits of the one-pair formula.
    """
    if any(c.kind is not CaseKind.FULL3D for c in pairs):
        raise ParallelPlanes("candidate_from_full3d needs FULL3D pairs")
    d_s = np.array([c.source_line.d for c in pairs]).reshape(-1, 3, 1)
    m_s = np.array([c.source_line.m for c in pairs]).reshape(-1, 3, 1)
    m_t = np.array([c.target_line_3d.m for c in pairs]).reshape(-1, 3)
    Rd = (R @ d_s)[..., 0]
    p0 = np.cross((R @ m_s)[..., 0] - m_t, Rd)
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
    shared across cameras, so both endpoint orderings are tried; orderings
    implying a segment behind the camera are discarded and the best
    remaining fit wins.  The candidate line runs through that anchor
    ``p0`` along the unit ``u = R d_s``; returns ``(p0, u)``.

    Raises ParallelPlanes when the 2D endpoints coincide or the stacked
    constraints are rank deficient.
    """
    if c.kind is not CaseKind.PNL:
        raise ParallelPlanes("candidate_from_pnl needs a PNL pair")
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
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[2] < 1e-9 * max(1.0, sv[0]):
        raise ParallelPlanes("endpoint planes are degenerate")

    best: tuple[float, np.ndarray] | None = None
    for picked in (c.source_endpoints, c.source_endpoints[::-1]):
        transfers = [-Sx @ (K @ (R @ X)) for Sx, X in zip(S, picked)]
        b = np.concatenate([moments, *transfers])[keep] / scale[keep]
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        # the swapped ordering is often algebraically consistent too (the
        # endpoint rays and the line direction are coplanar), but it places
        # the transferred segment behind the camera
        depths = [(R @ X + sol)[2] for X in picked]
        if min(depths) <= 0.0:
            continue
        misfit = float(np.linalg.norm(A @ sol - b))
        if best is None or misfit < best[0]:
            best = (misfit, sol)
    if best is None:
        raise ParallelPlanes("endpoint planes are degenerate")
    return best[1], Rd / np.linalg.norm(Rd)


@dataclass(frozen=True)
class VotingResult:
    """Outcome of convergence voting over candidate translation lines."""

    converged: bool
    inlier_indices: tuple[int, ...]
    convergence_point: np.ndarray | None


def _line_distances(pts: np.ndarray, p0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``(k, n)`` distances of points ``pts`` to the lines ``(p0, u)``."""
    diff = pts[:, None, :] - p0[None, :, :]  # (k, n, 3)
    along = np.einsum("knj,nj->kn", diff, u)
    perp = diff - along[..., None] * u[None, :, :]
    return np.linalg.norm(perp, axis=2)


def _proposals(p0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Common-perpendicular midpoints of every non-parallel pair of the lines
    ``(p0, u)``, batched, in ``triu_indices`` order."""
    ii, jj = np.triu_indices(len(p0), k=1)
    u1, u2 = u[ii], u[jj]
    ok = np.linalg.norm(np.cross(u1, u2), axis=1) >= 1e-9
    if not np.any(ok):
        raise InsufficientLines("no non-parallel candidate line pair")
    u1, u2 = u1[ok], u2[ok]
    w0 = p0[ii[ok]] - p0[jj[ok]]
    b = np.einsum("ij,ij->i", u1, u2)
    d = np.einsum("ij,ij->i", u1, w0)
    e = np.einsum("ij,ij->i", u2, w0)
    denom = 1.0 - b * b
    s = (b * e - d) / denom
    t = (e - b * d) / denom
    q1 = p0[ii[ok]] + s[:, None] * u1
    q2 = p0[jj[ok]] + t[:, None] * u2
    return 0.5 * (q1 + q2)


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
    distance).  The vote converges when the winning set reaches
    ``vote_threshold``.  Proposals are scored a chunk at a time, so no
    distance tensor exceeds ``VOTE_CHUNK_BYTES``; the proposals themselves
    take O(n^2) memory.
    """
    n = len(p0)
    if n < 2:
        raise InsufficientLines("voting needs at least two candidate lines")

    pts = _proposals(p0, u)
    # each distance depends on its own proposal and line only, so chunking
    # changes no bit of counts, sums or their lexsort order
    chunk = max(1, VOTE_CHUNK_BYTES // (n * 3 * 8))
    counts = np.empty(len(pts), dtype=np.intp)
    sums = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        dist = _line_distances(pts[lo : lo + chunk], p0, u)
        member = dist < epsilon_d
        counts[lo : lo + chunk] = member.sum(axis=1)
        sums[lo : lo + chunk] = np.where(member, dist, 0.0).sum(axis=1)
    best = np.lexsort((sums, -counts))[0]
    member = _line_distances(pts[best : best + 1], p0, u)[0] < epsilon_d
    inliers = tuple(int(i) for i in np.flatnonzero(member))
    return VotingResult(
        converged=len(inliers) >= vote_threshold,
        inlier_indices=inliers,
        convergence_point=pts[best],
    )
