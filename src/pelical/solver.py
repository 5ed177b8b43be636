"""Closed-loop pose estimation from the merged quadratic system.

``solve_quadratic_system`` eliminates the scaled translation, reads one
CGR root off the null vector of the reduced system, polishes it against the
algebraic cost and checks it against a sanity floor set by the smallest
singular value.  ``refine`` then locally minimizes the geometric cost
(3D point-to-line plus 2D line reprojection) on SO(3) x R^3.  The polish
and ``refine`` run the same Levenberg-Marquardt loop with the same stop
rule, a relative cost decrease below ``COST_TOLERANCE``.
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
    cross3,
    line_projection_matrix,
    project_so3,
    rotation_to_cgr,
    skew,
)


#: Levenberg-Marquardt settings of :func:`refine`: the iteration cap and the
#: starting damping; and the relative cost decrease that ends both the root
#: polish and :func:`refine`.
MAX_LM_ITERATIONS = 100
LM_INITIAL_DAMPING = 1e-3
COST_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PoseSolution:
    """Estimated extrinsics plus solver bookkeeping.

    ``algebraic_residual`` is ``||A r(s) + B tau||_2`` of the algebraic
    root (fixed at solve time; refinement does not touch it).
    ``all_candidates`` holds that one root, read off the null vector,
    polished and checked against the floor, as an ``(s, tau)`` pair.
    ``lm_converged`` is False when refinement hit its
    iteration cap before the relative cost decrease fell below tolerance.
    """

    extrinsics: Extrinsics
    s: CGRParams
    algebraic_residual: float
    refined_cost: float | None = None
    all_candidates: tuple = ()
    lm_converged: bool = True


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
    if sing[2] <= 1e-10 * sing[0] or sing[0] == 0.0:
        raise DegenerateTranslation("translation block is rank deficient")
    B_pinv = Vt.T @ np.diag(1.0 / sing) @ U.T
    tau_map = -B_pinv @ system.A
    G = system.A + B @ tau_map
    return G, tau_map


def _levenberg_marquardt(x, evaluate, step, lam: float, max_iter: int, tries: int):
    """Damped Gauss-Newton (Levenberg-Marquardt) on ``||e(x)||^2``.

    ``evaluate(x)`` returns the residuals and their Jacobian ``(e, J)``;
    ``step(x, delta)`` applies a solved update.  Each point is evaluated
    once: an accepted trial carries its ``(e, J)`` into the next iteration.
    A failed trial multiplies the damping ``lam`` by 10, an accepted one by
    0.1 (floored at 1e-14).  The loop stops when the relative cost decrease
    of an accepted step falls below ``COST_TOLERANCE``, when none of
    ``tries`` damped trials improves the cost, or when the step is not
    finite.  Returns ``(x, cost, converged)``; ``converged`` is False only
    when ``max_iter`` iterations ran out.
    """
    e, J = evaluate(x)
    cost = float(e @ e)
    for _ in range(max_iter):
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


def _polish_root(G_reduced: np.ndarray, s0: np.ndarray, max_iter: int = 80) -> np.ndarray:
    """Polish ``||G r(s)||`` from a single start (see _levenberg_marquardt)."""
    s, _, _ = _levenberg_marquardt(
        np.asarray(s0, dtype=float),
        lambda s: (G_reduced @ monomial_vector(s), G_reduced @ monomial_jacobian(s)),
        lambda s, delta: s + delta,
        lam=1e-10, max_iter=max_iter, tries=12,
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


def _stack_residuals(
    correspondences: list[Correspondence],
    K_t: CameraIntrinsics,
    R: np.ndarray,
    t: np.ndarray,
    weights: list[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vector and its Jacobian at ``(R, t)``.

    The pose is charted as ``R(delta) = R Exp(delta)``, ``t + dt``; Jacobians
    are taken at ``delta = 0``.  Pair ``i``'s FULL3D residuals are scaled by
    ``weights[i]`` (see :func:`refine`); PNL pairs ignore theirs.
    """
    P_line = line_projection_matrix(K_t)
    res: list[np.ndarray] = []
    jac: list[np.ndarray] = []
    for c, w in zip(correspondences, weights):
        if c.kind is CaseKind.FULL3D:
            d = c.target_line_3d.d
            P = np.eye(3) - np.outer(d, d)
            for j in range(2):
                X = c.source_endpoints[j]
                res.append(w * (P @ (R @ X + t - c.target_endpoints[j])))
                J = np.empty((3, 6))
                J[:, :3] = -w * (P @ R @ skew(X))
                J[:, 3:] = w * P
                jac.append(J)
        else:
            d_s, m_s = c.source_line.d, c.source_line.m
            Rd = R @ d_s
            m_hat = R @ m_s + cross3(t, Rd)
            l_hat = P_line @ m_hat
            nrm2 = l_hat[0] * l_hat[0] + l_hat[1] * l_hat[1]
            nrm = np.sqrt(nrm2)
            dm_ddelta = -R @ skew(m_s) - skew(t) @ R @ skew(d_s)
            dm_dt = -skew(Rd)
            dl = P_line @ np.hstack([dm_ddelta, dm_dt])  # (3, 6)
            for uv in c.target_line_2d.endpoints:
                x_h = np.array([uv[0], uv[1], 1.0])
                val = float(x_h @ l_hat)
                res.append(np.array([val / nrm]))
                de_dl = x_h / nrm - (val / (nrm2 * nrm)) * np.array(
                    [l_hat[0], l_hat[1], 0.0]
                )
                jac.append((de_dl @ dl)[None, :])
    return np.concatenate(res), np.vstack(jac)


def refine(
    initial: PoseSolution,
    correspondences: list[Correspondence],
    K_t: CameraIntrinsics,
) -> PoseSolution:
    """Levenberg-Marquardt polish of a pose against the geometric cost.

    Minimizes the summed squared 3D point-to-line residuals (FULL3D pairs)
    plus squared 2D reprojection residuals (PNL pairs).  A FULL3D pair's
    residuals are put in pixel-equivalent units: scaled by ``fx`` over the
    mean depth of its target endpoints, floored at 1e-6 m.  Each rotation
    update composes a small rotation onto the estimate and re-orthonormalizes
    it.  The best iterate is returned, with ``lm_converged=False`` when the
    iteration cap ran out first (see :func:`_levenberg_marquardt`).
    """
    if not correspondences:
        raise EmptyInput("nothing to refine")
    w = [K_t.fx / max(float(np.mean(np.abs(c.target_endpoints[:, 2]))), 1e-6)
         if c.kind is CaseKind.FULL3D else 1.0 for c in correspondences]

    def step(pose, delta):
        R, t = pose
        # The Cayley step Cay(delta / 2) equals Exp(delta) to first order,
        # so the Jacobian taken at delta = 0 holds for it too.
        R_new, _, _ = project_so3(R @ cgr_to_rotation(0.5 * delta[:3]))
        return R_new, t + delta[3:]

    (R, t), cost, converged = _levenberg_marquardt(
        (np.array(initial.extrinsics.rotation), np.array(initial.extrinsics.translation)),
        lambda pose: _stack_residuals(correspondences, K_t, *pose, w),
        step,
        lam=LM_INITIAL_DAMPING, max_iter=MAX_LM_ITERATIONS, tries=16,
    )
    return PoseSolution(
        extrinsics=Extrinsics(R, t),
        s=rotation_to_cgr(R),
        algebraic_residual=initial.algebraic_residual,
        refined_cost=cost,
        all_candidates=initial.all_candidates,
        lm_converged=converged,
    )
