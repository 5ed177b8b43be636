"""Shared synthetic-data builders and reference formulas for the test suite.

The builders construct *algebraically exact* inputs from a known pose
(``noisy_correspondences`` then perturbs them with seeded noise), without
going through the simulator, so solver/selection tests do not depend on the
modules they are meant to check.  The references at the end restate, one
pair or one hypothesis at a time, formulas the package computes batched or
stacked, so tests can compare the two (``reference_gate`` builds a gate
holding given pairs from those formulas); ``reference_ransac_fit_line``
scores every line hypothesis in one call, where the package stops early;
``reference_evict`` peels the store re-solving the gate rows with
``lstsq``, where the package downdates their normal equations;
``reference_convergence_voting`` scores every proposal at once with the
generic numpy helpers, where the package scores them a chunk at a time;
``brute_force_roots`` is a grid-search oracle that certifies the
closed-form solver, and ``canon_walk`` the one-value-at-a-time writer that
checks the bulk one.  ``mutated`` is the hypothesis strategy that breaks
valid documents for the reader fuzzes, and ``odd_rig_spec`` the one that
makes odd but valid rig specs.  ``LINE2D_BOUNDARY_ROWS`` holds image lines
on either side of each of ``Line2D``'s bounds.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import replace

import numpy as np
import scipy.ndimage
import scipy.optimize
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from pelical import (
    CameraIntrinsics,
    Extrinsics,
    InsufficientLines,
    Line2D,
    LineObservation,
    ParallelPlanes,
    RankDeficient,
    assemble,
    candidate_from_pnl,
    line_projection_matrix,
    plucker_from_points,
    project_so3,
    rotation_rows,
    transform_line,
)
from pelical.constraints import (
    CaseKind,
    Correspondence,
    QuadraticSystem,
    monomial_jacobian,
    monomial_vector,
)
from pelical.geometry import PluckerLine, cross3, so3_distance
from pelical.pipeline import RANSAC_DISTANCE_M, RANSAC_ITERATIONS
from pelical.selection import (
    _FULL_ROWS,
    EVICTION_FACTOR,
    GATE_SLACK,
    ROTATION_ROW_COUNT,
    VOTE_MIN_COUNT,
    RotationGateState,
    VotingResult,
)
from pelical.solver import _stack_residuals, eliminate_translation

DEFAULT_K = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def rand_rotation(rng: np.random.Generator, max_deg: float = 80.0) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, np.deg2rad(max_deg))
    return Rotation.from_rotvec(angle * axis).as_matrix()


def rand_truth(
    rng: np.random.Generator, max_deg: float = 80.0, max_t: float = 0.6
) -> Extrinsics:
    t = rng.normal(size=3)
    t = t / np.linalg.norm(t) * rng.uniform(0.0, max_t)
    return Extrinsics(rand_rotation(rng, max_deg), t)


def rand_segment(
    rng: np.random.Generator, depth: float = 2.5, spread: float = 1.5, half: float = 0.8
) -> tuple:
    """A random 3D segment in front of the source camera."""
    p = rng.normal(size=3) * spread + np.array([0.0, 0.0, depth])
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    a, b = p - half * d, p + half * d
    return plucker_from_points(a, b), np.stack([a, b])


def make_correspondence(
    rng: np.random.Generator,
    truth: Extrinsics,
    kind: CaseKind,
    K: CameraIntrinsics = DEFAULT_K,
    obs_id: int | None = None,
) -> Correspondence:
    """Exact correspondence consistent with ``truth`` (no noise).

    Segments are redrawn until the transferred endpoints sit safely in
    front of the target camera and project to sane pixel coordinates, so
    every 2D observation could have come from a real detector.
    """
    while True:
        src, ends = rand_segment(rng)
        t_ends = truth.transform_points(ends)
        if np.min(t_ends[:, 2]) < 0.2:
            continue
        uv = np.stack([K.project(p) for p in t_ends])
        if np.max(np.abs(uv)) > 4000.0 or np.linalg.norm(uv[0] - uv[1]) < 5.0:
            continue
        break
    line2d = Line2D.from_endpoints(uv[0], uv[1])
    if kind is CaseKind.FULL3D:
        return Correspondence(
            kind=kind,
            source_line=src,
            source_endpoints=ends,
            target_line_2d=line2d,
            target_line_3d=transform_line(src, truth),
            target_endpoints=t_ends,
            obs_id=obs_id,
        )
    return Correspondence(
        kind=kind,
        source_line=src,
        source_endpoints=ends,
        target_line_2d=line2d,
        obs_id=obs_id,
    )


def consistent_correspondences(
    rng: np.random.Generator,
    truth: Extrinsics,
    n_full3d: int,
    n_pnl: int,
    K: CameraIntrinsics = DEFAULT_K,
) -> list[Correspondence]:
    cs = [
        make_correspondence(rng, truth, CaseKind.FULL3D, K, obs_id=i)
        for i in range(n_full3d)
    ]
    cs += [
        make_correspondence(rng, truth, CaseKind.PNL, K, obs_id=n_full3d + i)
        for i in range(n_pnl)
    ]
    return cs


def consistent_system(
    rng: np.random.Generator,
    truth: Extrinsics,
    n_full3d: int = 4,
    n_pnl: int = 2,
    K: CameraIntrinsics = DEFAULT_K,
):
    cs = consistent_correspondences(rng, truth, n_full3d, n_pnl, K)
    return assemble(cs, K), cs


def make_observation(
    rng: np.random.Generator,
    truth: Extrinsics,
    kind: CaseKind,
    K: CameraIntrinsics = DEFAULT_K,
    obs_id: int = 0,
    n_samples: int = 40,
    noise_3d: float = 0.0,
) -> LineObservation:
    """Raw stream observation consistent with ``truth`` (both depths exact).

    ``kind`` controls whether target depth samples are present; classification
    itself is still up to the pipeline.
    """
    while True:
        _, ends = rand_segment(rng)
        t_ends = truth.transform_points(ends)
        if np.min(t_ends[:, 2]) < 0.2 or np.min(ends[:, 2]) < 0.2:
            continue
        t_uv = np.stack([K.project(p) for p in t_ends])
        s_uv = np.stack([K.project(p) for p in ends])
        if np.max(np.abs(t_uv)) > 4000.0 or np.linalg.norm(t_uv[0] - t_uv[1]) < 5.0:
            continue
        if np.max(np.abs(s_uv)) > 4000.0 or np.linalg.norm(s_uv[0] - s_uv[1]) < 5.0:
            continue
        break
    ts = np.linspace(0.0, 1.0, n_samples)[:, None]
    src_samples = ends[0] + ts * (ends[1] - ends[0])
    if noise_3d > 0.0:
        src_samples = src_samples + rng.normal(size=src_samples.shape) * noise_3d
    tgt_samples = None
    if kind is CaseKind.FULL3D:
        tgt_samples = truth.transform_points(ends[0] + ts * (ends[1] - ends[0]))
        if noise_3d > 0.0:
            tgt_samples = tgt_samples + rng.normal(size=tgt_samples.shape) * noise_3d
    return LineObservation(
        obs_id=obs_id,
        source_samples=src_samples,
        target_samples=tgt_samples,
        source_2d=Line2D.from_endpoints(s_uv[0], s_uv[1]),
        target_2d=Line2D.from_endpoints(t_uv[0], t_uv[1]),
    )


def noisy_correspondences(
    rng: np.random.Generator,
    correspondences: list[Correspondence],
    pixel_sigma: float = 0.5,
    depth_sigma: float = 0.003,
) -> list[Correspondence]:
    """Perturb the target side of exact correspondences with Gaussian noise.

    Every 2D target endpoint moves by ``pixel_sigma`` pixels per axis and,
    for FULL3D pairs, every 3D target endpoint by ``depth_sigma`` meters,
    with the target line refit through the moved endpoints.
    """
    out = []
    for c in correspondences:
        uv = c.target_line_2d.endpoints + rng.normal(size=(2, 2)) * pixel_sigma
        c = replace(c, target_line_2d=Line2D.from_endpoints(uv[0], uv[1]))
        if c.kind is CaseKind.FULL3D:
            ends = c.target_endpoints + rng.normal(size=(2, 3)) * depth_sigma
            c = replace(
                c, target_endpoints=ends, target_line_3d=plucker_from_points(ends[0], ends[1])
            )
        out.append(c)
    return out


def reference_inlier_masks(
    pts: np.ndarray, ii: np.ndarray, d: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """RANSAC line scoring by explicit offsets: the reference for ``_inlier_masks``.

    Builds every sample's offset from each hypothesis anchor
    ``pts[ii]`` as one ``(iterations, n, 3)`` tensor and takes the norm of
    its part perpendicular to the unit direction ``d``.  Returns the
    ``(iterations, n)`` inlier masks and the distances they threshold.
    """
    diff = pts[None, :, :] - pts[ii][:, None, :]
    along = np.einsum("inj,ij->in", diff, d)
    perp = diff - along[..., None] * d[:, None, :]
    dist = np.linalg.norm(perp, axis=2)
    return dist < threshold, dist


def reference_ransac_fit_line(
    samples: np.ndarray, rng: np.random.Generator
) -> tuple[PluckerLine, float, np.ndarray]:
    """``pipeline.ransac_fit_line`` as it was before it scored in slices: all
    200 hypotheses in one call, the winner by ``argmax`` and the refit on a
    copy of the winner's inliers.  The reference the sliced fit must match
    bit for bit."""
    pts = np.asarray(samples, dtype=float)
    n = len(pts)
    ii = rng.integers(0, n, size=RANSAC_ITERATIONS)
    jj = rng.integers(0, n - 1, size=RANSAC_ITERATIONS)
    jj = jj + (jj >= ii)
    dirs = pts[jj] - pts[ii]
    norms = np.sqrt(np.add.reduce(dirs * dirs, axis=1))
    valid = norms > 1e-9
    dirs /= np.where(valid, norms, 1.0)[:, None]
    q = pts - pts.mean(axis=0)
    sq = np.einsum("nj,nj->n", q, q)
    qi = q[ii]
    along = dirs @ q.T
    along -= np.einsum("ij,ij->i", dirs, qi)[:, None]
    dist2 = qi @ q.T
    dist2 *= -2.0
    dist2 += sq
    dist2 += sq[ii][:, None]
    dist2 -= np.square(along, out=along)
    masks = dist2 < RANSAC_DISTANCE_M * RANSAC_DISTANCE_M
    counts = np.where(valid, np.count_nonzero(masks, axis=1), -1)
    best = int(np.argmax(counts))
    assert counts[best] >= 2
    inliers = pts[masks[best]]
    centroid = inliers.mean(axis=0)
    centred = inliers - centroid
    _, _, Vt = np.linalg.svd(centred, full_matrices=False)
    direction = Vt[0]
    if float((inliers[-1] - inliers[0]) @ direction) < 0.0:
        direction = -direction
    proj = centred @ direction
    endpoints = centroid + np.array([[proj.min()], [proj.max()]]) * direction
    line = PluckerLine(direction, cross3(centroid, direction))
    return line, float(counts[best]) / n, endpoints


def point_line_distance(p0: np.ndarray, u: np.ndarray, p: np.ndarray) -> float:
    """Distance of point ``p`` to the line through ``p0`` along unit ``u``."""
    diff = np.asarray(p, dtype=float) - p0
    return float(np.linalg.norm(diff - (diff @ u) * u))


def equidistant_point(p0: np.ndarray, u: np.ndarray, i: int, j: int) -> np.ndarray:
    """Midpoint of the common perpendicular of non-parallel candidate lines
    ``i`` and ``j`` (rows of the ``(n, 3)`` arrays ``p0``/``u``): the
    reference for the batched midpoints in ``convergence_voting``."""
    u1, u2 = u[i], u[j]
    if np.linalg.norm(np.cross(u1, u2)) < 1e-9:
        raise ValueError("candidate lines are parallel")
    w0 = p0[i] - p0[j]
    b = float(u1 @ u2)
    d = float(u1 @ w0)
    e = float(u2 @ w0)
    denom = 1.0 - b * b
    s = (b * e - d) / denom
    t = (e - b * d) / denom
    return 0.5 * ((p0[i] + s * u1) + (p0[j] + t * u2))


def reference_candidate_line(
    c: Correspondence, R: np.ndarray, K_t: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """One pair's candidate line ``(p0, u)``: the reference for the rows of
    ``pipeline._candidate_lines``.  FULL3D pairs use the one-pair form of
    ``p0 = (R m_s - m_t) x (R d_s)``, ``u = R d_s / |R d_s|``; PNL pairs go
    through ``candidate_from_pnl`` (raising ParallelPlanes when degenerate).
    """
    if c.kind is not CaseKind.FULL3D:
        return candidate_from_pnl(c, R, K_t)
    Rd = R @ c.source_line.d
    p0 = np.cross(R @ c.source_line.m - c.target_line_3d.m, Rd)
    return p0, Rd / np.linalg.norm(Rd)


def reference_candidate_lines(
    cs: list[Correspondence], R: np.ndarray, K_t: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, list[Correspondence]]:
    """Candidate lines one pair at a time, dropping degenerate PNL pairs."""
    p0, u, members = [], [], []
    for c in cs:
        try:
            line = reference_candidate_line(c, R, K_t)
        except ParallelPlanes:
            continue
        p0.append(line[0])
        u.append(line[1])
        members.append(c)
    return np.array(p0).reshape(-1, 3), np.array(u).reshape(-1, 3), members


def reference_pair_residuals(
    C: np.ndarray, b: np.ndarray, cs: list[Correspondence], vec: np.ndarray
) -> np.ndarray:
    """``|C_i vec - b_i|`` one pair's block at a time: the reference for
    ``selection._pair_residuals``.  Block ``i`` holds pair ``i``'s
    ``rotation_rows``, in store order."""
    out, end = [], 0
    for c in cs:
        n = ROTATION_ROW_COUNT[c.kind]
        out.append(float(np.linalg.norm(C[end : end + n] @ vec - b[end : end + n])))
        end += n
    return np.array(out)


def full3d_inputs(cs: list[Correspondence]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d_s, m_s, m_t)`` of FULL3D pairs, one row per pair: the arguments
    of ``candidate_from_full3d`` before the rotation."""
    assert all(c.kind is CaseKind.FULL3D for c in cs)
    return (
        np.array([c.source_line.d for c in cs]).reshape(-1, 3),
        np.array([c.source_line.m for c in cs]).reshape(-1, 3),
        np.array([c.target_line_3d.m for c in cs]).reshape(-1, 3),
    )


def reference_pair_arrays(cs: list[Correspondence]) -> dict[str, np.ndarray]:
    """The gate's per-pair arrays of ``cs``, one pair at a time: each pair's
    row count, its normal-equation block ``(C^T C, C^T b)`` of its
    ``rotation_rows``, and its source direction and moment and target
    moment (zero for PNL pairs)."""
    sizes, G_pair, h_pair, d_s, m_s, m_t = [], [], [], [], [], []
    for c in cs:
        C, b = rotation_rows(c, DEFAULT_K)
        sizes.append(len(C))
        G_pair.append(C.T @ C)
        h_pair.append(C.T @ b)
        d_s.append(c.source_line.d)
        m_s.append(c.source_line.m)
        m_t.append(c.target_line_3d.m if c.kind is CaseKind.FULL3D else np.zeros(3))
    return {
        "sizes": np.array(sizes, dtype=np.intp),
        "G_pair": np.array(G_pair).reshape(-1, 9, 9),
        "h_pair": np.array(h_pair).reshape(-1, 9),
        "d_s": np.array(d_s).reshape(-1, 3),
        "m_s": np.array(m_s).reshape(-1, 3),
        "m_t": np.array(m_t).reshape(-1, 3),
    }


def reference_gate(cs: list[Correspondence]) -> RotationGateState:
    """A gate holding exactly ``cs``, whatever the gate would have decided,
    built from the one-pair formulas (no rotation estimate)."""
    rows = [rotation_rows(c, DEFAULT_K) for c in cs]
    C = np.vstack([C for C, _ in rows])
    b = np.concatenate([b for _, b in rows])
    return RotationGateState(tuple(cs), C, b, C.T @ C, C.T @ b, **reference_pair_arrays(cs))


def assert_gate_holds_store_rows(gate: RotationGateState) -> None:
    """The gate's stacked system is exactly its pairs' ``rotation_rows``, in
    order, its normal equations are theirs to round-off, and its per-pair
    arrays are, bit for bit, those of ``reference_pair_arrays``."""
    rows = [rotation_rows(c, DEFAULT_K) for c in gate.pairs]
    np.testing.assert_array_equal(gate.C, np.vstack([C for C, _ in rows]))
    np.testing.assert_array_equal(gate.b, np.concatenate([b for _, b in rows]))
    assert_allclose(gate.G, gate.C.T @ gate.C, rtol=1e-12)
    assert_allclose(gate.h, gate.C.T @ gate.b, rtol=1e-12)
    for name, expected in reference_pair_arrays(list(gate.pairs)).items():
        got = getattr(gate, name)
        np.testing.assert_array_equal(got, expected, err_msg=name, strict=True)
        assert got.tobytes() == expected.tobytes(), name  # -0.0 included


def reference_gate_solve(C: np.ndarray, b: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Rotation and SO(3) distance of the gate rows ``C vec(R) = b`` solved
    by ``lstsq`` on the rows themselves: the reference for
    ``selection._solve_normal``, which solves their normal equations."""
    sol = np.linalg.lstsq(C, b, rcond=None)[0]
    try:
        R, sigma, sigma_target = project_so3(sol.reshape(3, 3))
    except RankDeficient:
        return None, np.inf
    return R, so3_distance(sigma, sigma_target)


def reference_evict(gate: RotationGateState) -> list[int | None]:
    """The ids ``selection.evict`` evicts from ``gate.pairs``, re-solving
    the kept rows of ``gate.C``/``gate.b`` with ``lstsq`` after each removal
    instead of downdating the normal equations.  Changes nothing."""
    cs, C, b, distance = gate.pairs, gate.C, gate.b, gate.distance
    if gate.rotation is None or not GATE_SLACK < distance < math.inf:
        return []
    sizes = np.array([ROTATION_ROW_COUNT[c.kind] for c in cs])
    kept = np.ones(len(cs), dtype=bool)
    removed: list[int] = []
    R = gate.rotation
    while R is not None:
        residuals = reference_pair_residuals(C, b, cs, R.reshape(-1))
        residuals[~kept] = -np.inf
        worst = int(np.argmax(residuals))
        too_few_rows = sizes[kept].sum() - sizes[worst] < _FULL_ROWS
        if too_few_rows or kept.sum() - 1 < VOTE_MIN_COUNT:
            break
        removed.append(worst)
        kept[worst] = False
        rows = np.repeat(kept, sizes)
        R, dist = reference_gate_solve(C[rows], b[rows])
        if dist < EVICTION_FACTOR * distance:
            return [cs[i].obs_id for i in removed]
    return []


def reference_proposals(p0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Common-perpendicular midpoints of every non-parallel pair of the lines
    ``(p0, u)`` in ``triu_indices`` order, with ``np.cross`` and
    ``np.linalg.norm``; raises InsufficientLines when every pair is
    parallel."""
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


def reference_convergence_voting(
    p0: np.ndarray, u: np.ndarray, epsilon_d: float, vote_threshold: int
) -> VotingResult:
    """``convergence_voting`` scoring every proposal against every line at
    once, in one ``(proposals, n, 3)`` tensor, with the generic numpy
    helpers: the reference for its chunked scoring.  Memory grows as n^3
    (about 1.3 GB at 300 lines)."""
    if len(p0) < 2:
        raise InsufficientLines("voting needs at least two candidate lines")
    pts = reference_proposals(p0, u)
    diff = pts[:, None, :] - p0[None, :, :]
    along = np.einsum("knj,nj->kn", diff, u)
    dist = np.linalg.norm(diff - along[..., None] * u[None, :, :], axis=2)
    member = dist < epsilon_d
    counts = member.sum(axis=1)
    sums = np.where(member, dist, 0.0).sum(axis=1)
    best = np.lexsort((sums, -counts))[0]
    inliers = tuple(int(i) for i in np.flatnonzero(member[best]))
    return VotingResult(len(inliers) >= vote_threshold, inliers, pts[best])


def point_to_line_residual(c: Correspondence, T: Extrinsics) -> np.ndarray:
    """3D residuals of a FULL3D pair's transformed source endpoints.

    Returns a (2, 3) array; row ``j`` is ``(I - d d^T)(R X_j + t - Y_j)``
    with ``Y_j`` the matching target endpoint.  The reference for the
    FULL3D rows of ``solver._stack_residuals`` at unit weight.
    """
    d = c.target_line_3d.d
    P = np.eye(3) - np.outer(d, d)
    return np.stack(
        [P @ (T.transform_point(X) - Y) for X, Y in zip(c.source_endpoints, c.target_endpoints)]
    )


def line_reprojection_residual(
    c: Correspondence, T: Extrinsics, K_t: CameraIntrinsics
) -> np.ndarray:
    """Signed pixel distances of a pair's two observed 2D endpoints to the
    reprojected source line.

    The source line is mapped into the target frame, its moment projected
    to an image line ``l_hat``, and each endpoint ``x`` contributes
    ``x^T l_hat / sqrt(l1^2 + l2^2)``.  The reference for the PNL rows of
    ``solver._stack_residuals``.
    """
    l_hat = line_projection_matrix(K_t) @ transform_line(c.source_line, T).m
    scale = 1.0 / np.hypot(l_hat[0], l_hat[1])
    return np.array(
        [scale * (l_hat @ np.array([uv[0], uv[1], 1.0])) for uv in c.target_line_2d.endpoints]
    )


def jacobian_check(
    correspondences: list[Correspondence],
    K_t: CameraIntrinsics,
    T: Extrinsics,
    step: float = 1e-6,
) -> float:
    """Max relative deviation between the analytic Jacobian of
    ``solver._stack_residuals`` and its central differences at ``T``."""
    w = np.ones(len(correspondences))
    R0 = np.array(T.rotation)
    t0 = np.array(T.translation)
    _, J = _stack_residuals(correspondences, K_t, R0, t0, w)

    def res_at(x: np.ndarray) -> np.ndarray:
        R = R0 @ Rotation.from_rotvec(x[:3]).as_matrix()
        e, _ = _stack_residuals(correspondences, K_t, R, t0 + x[3:], w)
        return e

    J_fd = np.empty_like(J)
    for k in range(6):
        dx = np.zeros(6)
        dx[k] = step
        J_fd[:, k] = (res_at(dx) - res_at(-dx)) / (2.0 * step)
    denom = max(1.0, float(np.abs(J_fd).max()))
    return float(np.abs(J - J_fd).max()) / denom


#: Half-width and step of the lattice :func:`brute_force_roots` searches.
ORACLE_GRID_HALFWIDTH = 2.0
ORACLE_GRID_STEP = 0.05


def brute_force_roots(system: QuadraticSystem) -> list[tuple[np.ndarray, float]]:
    """Exhaustive oracle for ``solver.solve_quadratic_system``.

    Evaluates ``||G r(s)||`` on a dense lattice over
    ``[-ORACLE_GRID_HALFWIDTH, ORACLE_GRID_HALFWIDTH]^3``, polishes every
    local lattice minimum with an off-the-shelf trust-region least-squares
    routine, and returns the distinct minima sorted by full-system residual.
    Slow by design; shares no search path with the production solver.
    """
    G, tau_map = eliminate_translation(system)
    axis = np.arange(
        -ORACLE_GRID_HALFWIDTH, ORACLE_GRID_HALFWIDTH + 0.5 * ORACLE_GRID_STEP, ORACLE_GRID_STEP
    )
    n = len(axis)
    S1, S2, S3 = np.meshgrid(axis, axis, axis, indexing="ij")
    s1, s2, s3 = S1.ravel(), S2.ravel(), S3.ravel()
    R_all = np.stack(
        [
            s1 * s1,
            s2 * s2,
            s3 * s3,
            s1 * s2,
            s1 * s3,
            s2 * s3,
            s1,
            s2,
            s3,
            np.ones_like(s1),
        ],
        axis=1,
    )
    F = np.linalg.norm(R_all @ G.T, axis=1).reshape(n, n, n)
    local_min = F <= scipy.ndimage.minimum_filter(F, size=3, mode="nearest")
    idx = np.argwhere(local_min)
    # Cap the polish work on pathological landscapes.
    if len(idx) > 400:
        order = np.argsort(F[local_min])[:400]
        idx = idx[order]

    def fun(s: np.ndarray) -> np.ndarray:
        return G @ monomial_vector(s)

    def jac(s: np.ndarray) -> np.ndarray:
        return G @ monomial_jacobian(s)

    found: list[np.ndarray] = []
    for i, j, k in idx:
        s0 = np.array([axis[i], axis[j], axis[k]])
        res = scipy.optimize.least_squares(fun, s0, jac=jac, method="lm", xtol=1e-15)
        found.append(res.x)

    distinct: list[np.ndarray] = []
    for s in found:
        if not any(np.linalg.norm(s - k) < 1e-5 for k in distinct):
            distinct.append(s)
    out = []
    for s in distinct:
        tau = tau_map @ monomial_vector(s)
        out.append((s, system.residual(s, tau)))
    out.sort(key=lambda item: (item[1], float(np.linalg.norm(item[0]))))
    return out


def canon_walk(value) -> str:
    """Canonical JSON of ``value``, one value at a time: the reference for
    ``fileio.dumps_canonical``, which formats whole float blocks at once."""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return "null"
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{canon_walk(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon_walk(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return canon_walk(value.tolist())
    raise TypeError(f"cannot serialize {type(value)!r}")


# ---------------------------------------------------------------------------
# fuzzing

#: Replacement values for fuzzed documents: wrong types, wrong shapes,
#: non-finite and huge numbers.  Huge integers stay far above any size an
#: allocation could honour, so a missing bound fails at once.
BAD_VALUES = st.sampled_from(
    ["x", None, True, {}, [], [1.0, 2.0], float("nan"), float("inf"), -1e300, 1e300,
     10**20, 10**400, -1, 0, 0.5]
)

_FRACTIONS = st.sampled_from([0.0, 1e-9, 0.5, 0.999, 1.0])
_SIGMAS = st.sampled_from([0.0, 1e-9, 0.05, 1.0, 100.0])
_RANGES = st.sampled_from([[0.1, 0.1], [1e-3, 1e3], [0.05, 100.0], [2.9, 3.0]])
#: Values of rig-spec fields that the reader accepts but that stress the
#: simulator: the fewest lines and samples, fractions at or near 0 and 1,
#: zero to huge sigmas, and single-point, narrow or huge ranges.
ODD_RIG_FIELDS = {
    "n_lines": st.sampled_from([1, 2, 3, 30]),
    "samples_per_line": st.sampled_from([2, 3, 9, 500]),
    "line_length_m": _RANGES,
    "scene_depth_m": _RANGES,
    "pixel_noise_sigma": _SIGMAS,
    "depth_noise_sigma": _SIGMAS,
    "outlier_fraction": _FRACTIONS,
    "pnl_fraction": _FRACTIONS,
    "depth_noise_model": st.sampled_from(["isotropic", "axial_z2"]),
}


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three nodes replaced, deleted, wrapped in a list or
    (lists only) truncated.  Each node is reached by a walk from the root that
    stops at each level below the first with odds of one in four, so most
    mutations reach a leaf, such as one sample coordinate, rather than a
    whole field."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while (
            isinstance(node, (dict, list))
            and node
            and (parent is None or draw(st.integers(0, 3)) > 0)
        ):
            parent = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            node = parent[key]
        if parent is None:
            continue
        op = draw(st.sampled_from(("value", "delete", "wrap", "truncate")))
        if op == "delete":
            del parent[key]
        elif op == "wrap":
            parent[key] = [node]
        elif op == "truncate" and isinstance(node, list):
            parent[key] = node[: draw(st.integers(0, max(0, len(node) - 1)))]
        else:
            parent[key] = copy.deepcopy(draw(BAD_VALUES))  # later mutations may edit it
    return doc


@st.composite
def odd_rig_spec(draw, doc):
    """The rig-spec document ``doc`` with one to three of its fields set to
    odd values of ``ODD_RIG_FIELDS``: a spec the reader accepts, so fuzzes
    reach the simulator and the pipeline behind it."""
    doc = copy.deepcopy(doc)
    names = draw(st.lists(st.sampled_from(sorted(ODD_RIG_FIELDS)), min_size=1, max_size=3))
    for name in names:
        doc[name] = draw(ODD_RIG_FIELDS[name])
    return doc


#: ``Line2D`` coefficients and endpoints on either side of each of its
#: bounds, and the message of the check that refuses them (None: accepted).
#: The norm rows hold pairs whose ``math.hypot`` is the largest (or
#: smallest) norm within 1e-9 of 1, or one ulp past it, and whose
#: ``np.hypot`` is the double next to that: only ``math.hypot`` gives
#: ``Line2D``'s verdict on them.  The first residual row sums to exactly
#: 0.5 px as ``a * u + b * v + c``, and to another value in any other order.
LINE2D_BOUNDARY_ROWS = {
    "norm-largest-above-1": (
        [float.fromhex("0x1.307d3fa4290aap-2"), float.fromhex("0x1.e8d74f329d079p-1"), 0.0],
        [[0.0, 0.0], [0.0, 0.0]],
        None,
    ),
    "norm-one-ulp-past-1+1e-9": (
        [float.fromhex("0x1.6291118226715p-1"), float.fromhex("0x1.715c0b3e43427p-1"), 0.0],
        [[0.0, 0.0], [0.0, 0.0]],
        "line coefficients must be normalized",
    ),
    "norm-smallest-below-1": (
        [float.fromhex("0x1.141ef3c4e61fdp-1"), float.fromhex("0x1.af29a47252e92p-1"), 0.0],
        [[0.0, 0.0], [0.0, 0.0]],
        None,
    ),
    "norm-one-ulp-past-1-1e-9": (
        [float.fromhex("0x1.bc2306eed438ep-1"), float.fromhex("0x1.fd74dcfb86e23p-2"), 0.0],
        [[0.0, 0.0], [0.0, 0.0]],
        "line coefficients must be normalized",
    ),
    "norm-below-1e-12": ([1e-13, 0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]],
                         "line coefficients are degenerate"),
    "residual-at-half-px": (
        [0.6, 0.8, float.fromhex("-0x1.0e486c67595d8p+9")],
        [[float.fromhex("0x1.710c719c5938fp+6"), float.fromhex("0x1.2f915cda87578p+9")]] * 2,
        "endpoints must lie on the line (within 0.5 px)",
    ),
    "residual-one-ulp-below-half-px": (
        [1.0, 0.0, 0.0], [[0.0, 7.0], [math.nextafter(0.5, 0.0), 3.0]], None
    ),
    "nan-offset": ([1.0, 0.0, math.nan], [[0.0, 0.0], [0.0, 0.0]],
                   "endpoints must lie on the line (within 0.5 px)"),
    "nan-endpoint": ([1.0, 0.0, 0.0], [[0.0, 0.0], [math.nan, 0.0]],
                     "endpoints must lie on the line (within 0.5 px)"),
}
