"""The closed-form pose solver (a library function) and the refinement.

``solve_quadratic_system`` eliminates the scaled translation, reads one
CGR root off the null vector of the reduced system, polishes it against the
algebraic cost and checks it against a sanity floor set by the smallest
singular value; the pipeline does not call it.  ``refine`` locally minimizes
the geometric cost (3D point-to-line plus 2D line reprojection) on
SO(3) x R^3 from any start; it stacks the pose-independent data of its
pairs once per call and evaluates each pose as arrays.  The polish and
``refine`` run the same Levenberg-Marquardt loop with the same stop rule, a
relative cost decrease below ``COST_TOLERANCE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (
    CaseKind,
    Correspondence,
    QuadraticSystem,
    monomial_jacobian,
    monomial_vector,
)
from .errors import DegenerateTranslation, EmptyInput, NoRealSolution
from .geometry import (
    CameraIntrinsics,
    CGRParams,
    Extrinsics,
    cgr_to_rotation,
    cross_rows,
    line_projection_matrix,
    project_so3,
    skew,
)


#: Levenberg-Marquardt settings: the iteration cap and the relative cost
#: decrease that end both the root polish and :func:`refine`; and the
#: starting damping of :func:`refine`.
MAX_LM_ITERATIONS = 100
LM_INITIAL_DAMPING = 1e-3
COST_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PoseSolution:
    """The closed-form solver's pose: its algebraic root ``s``, the residual
    ``||A r(s) + B tau||_2`` there, and that one root, polished and checked
    against the floor, as the ``(s, tau)`` pair of ``all_candidates``."""

    extrinsics: Extrinsics
    s: CGRParams
    algebraic_residual: float
    all_candidates: tuple = ()


@dataclass(frozen=True)
class RefinedPose:
    """:func:`refine`'s best pose and its geometric cost; ``lm_converged`` is
    False when the iteration cap ran out first."""

    extrinsics: Extrinsics
    refined_cost: float
    lm_converged: bool


def eliminate_translation(system: QuadraticSystem) -> tuple[np.ndarray, np.ndarray]:
    """Project the translation block out of ``A r + B tau = 0``.

    Returns ``(G, tau_map)`` with ``G = (I - B B^+) A`` and
    ``tau_map = -B^+ A`` so that ``tau = tau_map @ r(s)`` recovers the
    optimal scaled translation for any rotation candidate.  The
    pseudo-inverse uses an SVD cutoff of ``1e-10 * sigma_max``; a rank
    deficient B (translation unobservable, e.g. all lines parallel) raises
    DegenerateTranslation.
    """
    B = system.B
    U, sing, Vt = np.linalg.svd(B, full_matrices=False)
    if sing[2] <= 1e-10 * sing[0]:
        raise DegenerateTranslation("translation block is rank deficient")
    B_pinv = Vt.T @ np.diag(1.0 / sing) @ U.T
    tau_map = -B_pinv @ system.A
    G = system.A + B @ tau_map
    return G, tau_map


def _levenberg_marquardt(x, evaluate, step, lam: float, tries: int):
    """Damped Gauss-Newton (Levenberg-Marquardt) on ``||e(x)||^2``.

    ``evaluate(x)`` returns the residuals and their Jacobian ``(e, J)``;
    ``step(x, delta)`` applies a solved update.  Each point is evaluated
    once: an accepted trial carries its ``(e, J)`` into the next iteration.
    A failed trial multiplies the damping ``lam`` by 10, an accepted one by
    0.1 (floored at 1e-14).  The loop stops when the relative cost decrease
    of an accepted step falls below ``COST_TOLERANCE``, when none of
    ``tries`` damped trials improves the cost, or when the step is not
    finite.  Returns ``(x, cost, converged)``; ``converged`` is False only
    when ``MAX_LM_ITERATIONS`` iterations ran out.
    """
    e, J = evaluate(x)
    cost = float(e @ e)
    for _ in range(MAX_LM_ITERATIONS):
        g = J.T @ e
        JtJ = J.T @ J
        for _ in range(tries):
            try:
                delta = np.linalg.solve(JtJ + lam * np.eye(len(g)), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.isfinite(delta).all():
                return x, cost, True  # the damping overflowed or e is not finite
            x_new = step(x, delta)
            e_new, J_new = evaluate(x_new)
            cost_new = float(e_new @ e_new)
            if cost_new < cost:
                rel = (cost - cost_new) / max(cost, 1e-300)
                x, e, J, cost = x_new, e_new, J_new, cost_new
                lam = max(lam * 0.1, 1e-14)
                if rel < COST_TOLERANCE:
                    return x, cost, True
                break
            lam *= 10.0
        else:
            return x, cost, True  # no direction improves the cost: a local minimum
    return x, cost, False


def _polish_root(G_reduced: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """Polish ``||G r(s)||`` from a single start (see _levenberg_marquardt)."""
    s, _, _ = _levenberg_marquardt(
        np.asarray(s0, dtype=float),
        lambda s: (G_reduced @ monomial_vector(s), G_reduced @ monomial_jacobian(s)),
        lambda s, delta: s + delta,
        lam=1e-10, tries=12,
    )
    return s


def _check_floor(residual: float, s: np.ndarray, sigma_min: float, scale: float) -> None:
    """Raise NoRealSolution when root ``s`` fails the sanity floor.

    ``sigma_min`` bounds the best achievable residual of any unit vector, so
    a root orders of magnitude above it means the polynomial search failed
    rather than the data being noisy.  ``scale`` is the norm of the reduced
    system.
    """
    r_norm = float(np.linalg.norm(monomial_vector(s)))
    allowance = 1e3 * (sigma_min * r_norm) + 1e-9 * scale * r_norm
    if not residual <= max(allowance, 1e-12):
        raise NoRealSolution(
            f"best residual {residual:.3e} exceeds sanity bound {allowance:.3e}"
        )


def solve_quadratic_system(system: QuadraticSystem) -> PoseSolution:
    """Recover ``(R, t)`` from the merged system.

    The root is read off the trailing right-singular vector of the reduced
    system: in the noise-free case that null vector is exactly the monomial
    vector of the true root, so ``s`` is its linear entries over its last.
    The root is Gauss-Newton polished and must pass a sanity floor set by
    the smallest singular value, or NoRealSolution is raised.  The floor
    rejects the structurally underdetermined sets (e.g. two FULL3D and two
    PnL pairs), where no other start would help either.
    """
    G, tau_map = eliminate_translation(system)
    # Reduce to a square triangular factor: ||G r|| == ||R r||.
    G_reduced = np.linalg.qr(G, mode="r")

    _, sing, Vt = np.linalg.svd(G_reduced)
    v = Vt[-1]
    if not abs(v[9]) > 1e-6 * np.linalg.norm(v):
        raise NoRealSolution("no stationary point found")
    s = _polish_root(G_reduced, v[6:9] / v[9])
    tau = tau_map @ monomial_vector(s)
    residual = system.residual(s, tau)
    _check_floor(residual, s, sing[-1], float(np.linalg.norm(G_reduced)) or 1.0)
    t = tau / (1.0 + float(s @ s))
    return PoseSolution(
        extrinsics=Extrinsics(cgr_to_rotation(s), t),
        s=CGRParams(s),
        algebraic_residual=residual,
        all_candidates=((s, tau),),
    )


def _pose_free_terms(
    correspondences: list[Correspondence],
    K_t: CameraIntrinsics,
    weights: np.ndarray,
) -> tuple[tuple, tuple]:
    """What :func:`_residuals_at` needs of the pairs that does not depend on
    the pose, stacked once per :func:`refine` call, as ``(full, pnl)``.

    ``full`` holds, for the FULL3D pairs in order: their rows, weights,
    target-line projectors ``I - d d^T``, source endpoints with their
    cross-product matrices, target endpoints, and weighted projectors (the
    Jacobian's translation block).  ``pnl`` holds, for the PNL pairs: their
    rows, the line projection matrix, the source directions and moments
    with their cross-product matrices, and the homogeneous image endpoints.
    A FULL3D pair has six rows and a PNL pair two, in pair order.  The
    ``k``-th FULL3D pair's residuals are scaled by ``weights[k]``.
    """
    full = [c.kind is CaseKind.FULL3D for c in correspondences]
    F = [c for c, f in zip(correspondences, full) if f]
    N = [c for c, f in zip(correspondences, full) if not f]
    is_full = np.array(full, dtype=bool)
    sizes = np.where(is_full, 6, 2)
    starts = np.cumsum(sizes) - sizes
    d = np.array([c.target_line_3d.d for c in F]).reshape(-1, 3)
    X = np.array([c.source_endpoints for c in F]).reshape(-1, 2, 3)
    Y = np.array([c.target_endpoints for c in F]).reshape(-1, 2, 3)
    w = np.asarray(weights, dtype=float)
    P = np.eye(3) - d[:, :, None] * d[:, None, :]
    full_rows = (starts[is_full, None] + np.arange(6)).ravel()
    d_s = np.array([c.source_line.d for c in N]).reshape(-1, 3)
    m_s = np.array([c.source_line.m for c in N]).reshape(-1, 3)
    x_h = np.ones((len(N), 2, 3))
    x_h[..., :2] = np.array([c.target_line_2d.endpoints for c in N]).reshape(-1, 2, 2)
    pnl_rows = (starts[~is_full, None] + np.arange(2)).ravel()
    return (
        (full_rows, w, P, X, skew(X), Y, w[:, None, None] * P),
        (pnl_rows, line_projection_matrix(K_t), d_s, m_s, skew(d_s), skew(m_s), x_h),
    )


def _residuals_at(
    terms: tuple[tuple, tuple], R: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vector and its Jacobian at ``(R, t)``: one stacked pass over
    the FULL3D pairs and one over the PNL pairs of
    :func:`_pose_free_terms`, written into pair order.

    The pose is charted as ``R(delta) = R Exp(delta)``, ``t + dt``; Jacobians
    are taken at ``delta = 0``.  A FULL3D endpoint ``X`` with target
    endpoint ``Y`` gives ``w P (R X + t - Y)``, ``P`` the projector of its
    target line; a PNL endpoint ``x`` gives ``x . l / |(l_1, l_2)|``, ``l``
    the image of the transformed source line.  Every product is taken pair
    by pair, in the order a loop over the pairs takes it, so each row has
    the bits of evaluating its pair alone.
    """
    (full_rows, w, P, X, skew_X, Y, wP), pnl = terms
    pnl_rows, P_line, d_s, m_s, skew_d, skew_m, x_h = pnl
    rows = len(full_rows) + len(pnl_rows)
    e = np.empty(rows)
    J = np.empty((rows, 6))
    if len(full_rows):
        res = (P[:, None] @ ((R @ X[..., None])[..., 0] + t - Y)[..., None])[..., 0]
        e[full_rows] = (w[:, None, None] * res).ravel()
        Jf = np.empty(X.shape + (6,))
        Jf[..., :3] = -w[:, None, None, None] * ((P @ R)[:, None] @ skew_X)
        Jf[..., 3:] = wP[:, None]
        J[full_rows] = Jf.reshape(-1, 6)
    if len(pnl_rows):
        Rd = (R @ d_s[..., None])[..., 0]
        m_hat = (R @ m_s[..., None])[..., 0] + cross_rows(t, Rd)
        l_hat = (P_line @ m_hat[..., None])[..., 0]
        nrm2 = l_hat[:, 0] * l_hat[:, 0] + l_hat[:, 1] * l_hat[:, 1]
        nrm = np.sqrt(nrm2)
        dm_ddelta = (-R) @ skew_m - (skew(t) @ R) @ skew_d
        dl = P_line @ np.concatenate([dm_ddelta, -skew(Rd)], axis=2)  # (k, 3, 6)
        val = (x_h[:, :, None, :] @ l_hat[:, None, :, None])[..., 0, 0]
        e[pnl_rows] = (val / nrm[:, None]).ravel()
        l_12 = l_hat.copy()
        l_12[:, 2] = 0.0
        slope = (val / (nrm2 * nrm)[:, None])[..., None]
        de_dl = x_h / nrm[:, None, None] - slope * l_12[:, None]
        J[pnl_rows] = (de_dl[:, :, None, :] @ dl[:, None])[:, :, 0].reshape(-1, 6)
    return e, J


def refine(
    initial: Extrinsics,
    correspondences: list[Correspondence],
    K_t: CameraIntrinsics,
) -> RefinedPose:
    """Levenberg-Marquardt polish of the pose ``initial`` on the geometric cost.

    Minimizes the summed squared 3D point-to-line residuals (FULL3D pairs)
    plus squared 2D reprojection residuals (PNL pairs).  A FULL3D pair's
    residuals are put in pixel-equivalent units: scaled by ``fx`` over the
    mean depth of its target endpoints, floored at 1e-6 m.  What does not
    depend on the pose is stacked once per call (:func:`_pose_free_terms`),
    so each pose is one array pass over the pairs (:func:`_residuals_at`).
    Each rotation update composes a small rotation onto the estimate and
    re-orthonormalizes it, so a pose near 180 degrees, which has no finite
    CGR, refines like any other.  The best iterate is returned (see
    :func:`_levenberg_marquardt`).
    """
    if not correspondences:
        raise EmptyInput("nothing to refine")
    full = [c for c in correspondences if c.kind is CaseKind.FULL3D]
    depth = np.abs(np.reshape([c.target_endpoints[:, 2] for c in full], (-1, 2)))
    weights = K_t.fx / np.maximum(np.mean(depth, axis=1), 1e-6)
    terms = _pose_free_terms(correspondences, K_t, weights)

    def step(pose, delta):
        R, t = pose
        # The Cayley step Cay(delta / 2) equals Exp(delta) to first order,
        # so the Jacobian taken at delta = 0 holds for it too.
        R_new, _, _ = project_so3(R @ cgr_to_rotation(0.5 * delta[:3]))
        return R_new, t + delta[3:]

    (R, t), cost, converged = _levenberg_marquardt(
        (np.array(initial.rotation), np.array(initial.translation)),
        lambda pose: _residuals_at(terms, *pose),
        step,
        lam=LM_INITIAL_DAMPING, tries=16,
    )
    return RefinedPose(Extrinsics(R, t), cost, converged)
