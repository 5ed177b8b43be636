"""Closed-loop pose estimation from the merged quadratic system.

``solve_quadratic_system`` eliminates the scaled translation, extracts CGR
root candidates from the null space of the reduced system, polishes them
with damped Gauss-Newton, and picks the candidate with the smallest
algebraic residual.  ``refine`` then locally minimizes the geometric cost
(3D point-to-line plus 2D line reprojection) with Levenberg-Marquardt on
SO(3) x R^3.
"""

from __future__ import annotations

import math
import numbers
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


def _real(config, name: str, integer: bool = False):
    """Config field ``name``, checked to be a finite real number (an integer
    if asked) and not a bool; raises TypeError or ValueError naming the
    field otherwise."""
    value = getattr(config, name)
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integer else "a number"
        raise TypeError(f"{name} must be {noun}, got {value!r}")
    try:
        finite = integer or math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite")
    return value


@dataclass(frozen=True)
class SolverConfig:
    max_lm_iterations: int = 100
    lm_initial_damping: float = 1e-3
    cost_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if _real(self, "max_lm_iterations", integer=True) < 1:
            raise ValueError("max_lm_iterations must be positive")
        for name in ("lm_initial_damping", "cost_tolerance"):
            if not _real(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return {
            "max_lm_iterations": self.max_lm_iterations,
            "lm_initial_damping": self.lm_initial_damping,
            "cost_tolerance": self.cost_tolerance,
        }


@dataclass(frozen=True)
class PoseSolution:
    """Estimated extrinsics plus solver bookkeeping.

    ``algebraic_residual`` is ``||A r(s) + B tau||_2`` of the selected
    algebraic root (fixed at solve time; refinement does not touch it).
    ``all_candidates`` lists every distinct stationary point found as
    ``(s, tau)`` pairs.  ``lm_converged`` is False when refinement hit its
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


def _polish_root(G_reduced: np.ndarray, s0: np.ndarray, max_iter: int = 80) -> np.ndarray:
    """Damped Gauss-Newton on ``||G r(s)||`` from a single start."""
    s = np.asarray(s0, dtype=float).copy()
    h = G_reduced @ monomial_vector(s)
    cost = float(h @ h)
    lam = 1e-10
    for _ in range(max_iter):
        J = G_reduced @ monomial_jacobian(s)
        g = J.T @ h
        if np.linalg.norm(g, np.inf) < 1e-16:
            break
        JtJ = J.T @ J
        stepped = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(JtJ + lam * np.eye(3), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            s_new = s + delta
            h_new = G_reduced @ monomial_vector(s_new)
            cost_new = float(h_new @ h_new)
            if cost_new < cost:
                s, h, cost = s_new, h_new, cost_new
                lam = max(lam * 0.1, 1e-14)
                stepped = True
                if np.linalg.norm(delta) < 1e-14:
                    return s
                break
            lam *= 10.0
        if not stepped:
            break
    return s


def _dedupe(cands: list[np.ndarray], tol: float = 1e-6) -> list[np.ndarray]:
    kept: list[np.ndarray] = []
    for s in cands:
        if not np.all(np.isfinite(s)):
            continue
        if any(np.linalg.norm(s - k) < tol for k in kept):
            continue
        kept.append(s)
    return kept


def _select(
    system: QuadraticSystem,
    tau_map: np.ndarray,
    polished: list[np.ndarray],
    sigma_min: float,
    scale: float,
) -> list[tuple]:
    """Score the distinct polished roots and check the winner.

    Returns the ``(residual, |s|, s, tau)`` candidates sorted by
    ``(residual, |s|)``; the first is the winner: the smallest
    ``||A r + B tau||_2``, with exact ties broken by the smaller ``|s|``.
    Raises NoRealSolution when there is no candidate or the winner fails
    the sanity floor.
    """
    candidates = _dedupe(polished)
    if not candidates:
        raise NoRealSolution("no stationary point found")

    scored = []
    for s in candidates:
        r = monomial_vector(s)
        tau = tau_map @ r
        scored.append((system.residual(s, tau), float(np.linalg.norm(s)), s, tau))
    scored.sort(key=lambda item: (item[0], item[1]))
    best_res, _, s_best, _ = scored[0]

    # Sanity floor: sigma_min bounds the best achievable residual of any
    # unit vector, so a root orders of magnitude above it means the
    # polynomial search failed rather than the data being noisy.
    r_norm = float(np.linalg.norm(monomial_vector(s_best)))
    floor = sigma_min * r_norm
    allowance = 1e3 * floor + 1e-9 * scale * r_norm
    if best_res > max(allowance, 1e-12):
        raise NoRealSolution(
            f"best residual {best_res:.3e} exceeds sanity bound {allowance:.3e}"
        )
    return scored


def solve_quadratic_system(system: QuadraticSystem) -> PoseSolution:
    """Recover ``(R, t)`` from the merged system.

    Root candidates come from the trailing right-singular vectors of the
    reduced system: in the noise-free case the null vector is exactly the
    monomial vector of the true root, so ``s`` reads off its linear
    entries.  Every candidate is Gauss-Newton polished; the root with the
    smallest ``||A r + B tau||_2`` wins, with exact ties broken by the
    smaller ``|s|``, and must pass a sanity floor set by the smallest
    singular value, or NoRealSolution is raised.  The floor rejects the
    structurally underdetermined sets (e.g. two FULL3D and two PnL pairs),
    where no other start would help either.
    """
    G, tau_map = eliminate_translation(system)
    # Reduce to a square triangular factor: ||G r|| == ||R r||.
    G_reduced = np.linalg.qr(G, mode="r")

    _, sing, Vt = np.linalg.svd(G_reduced)
    scale = float(np.linalg.norm(G_reduced)) or 1.0
    polished = [
        _polish_root(G_reduced, v[6:9] / v[9])
        for v in Vt[-3:][::-1]
        if abs(v[9]) > 1e-6 * np.linalg.norm(v)
    ]
    scored = _select(system, tau_map, polished, sing[-1], scale)
    best_res, _, s_best, tau_best = scored[0]
    ss = float(s_best @ s_best)
    t = tau_best / (1.0 + ss)
    pose = Extrinsics(cgr_to_rotation(s_best), t)
    return PoseSolution(
        extrinsics=pose,
        s=CGRParams(s_best),
        algebraic_residual=best_res,
        all_candidates=tuple((s, tau) for _, _, s, tau in scored),
    )


def _stack_residuals(
    correspondences: list[Correspondence],
    K_t: CameraIntrinsics,
    R: np.ndarray,
    t: np.ndarray,
    weights: np.ndarray,
    with_jacobian: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Residual vector (and optionally its Jacobian) at ``(R, t)``.

    The pose is charted as ``R(delta) = R Exp(delta)``, ``t + dt``; Jacobians
    are taken at ``delta = 0``.  FULL3D residuals may carry a per-pair weight
    (used by the pipeline to express them in pixel-equivalent units).
    """
    P_line = None
    res: list[np.ndarray] = []
    jac: list[np.ndarray] = []
    for c, w in zip(correspondences, weights):
        if c.kind is CaseKind.FULL3D:
            d = c.target_line_3d.d
            P = np.eye(3) - np.outer(d, d)
            for j in range(2):
                X = c.source_endpoints[j]
                e = w * (P @ (R @ X + t - c.target_endpoints[j]))
                res.append(e)
                if with_jacobian:
                    J = np.empty((3, 6))
                    J[:, :3] = -w * (P @ R @ skew(X))
                    J[:, 3:] = w * P
                    jac.append(J)
        else:
            if P_line is None:
                P_line = line_projection_matrix(K_t)
            d_s, m_s = c.source_line.d, c.source_line.m
            Rd = R @ d_s
            m_hat = R @ m_s + cross3(t, Rd)
            l_hat = P_line @ m_hat
            nrm2 = l_hat[0] * l_hat[0] + l_hat[1] * l_hat[1]
            nrm = np.sqrt(nrm2)
            if with_jacobian:
                dm_ddelta = -R @ skew(m_s) - skew(t) @ R @ skew(d_s)
                dm_dt = -skew(Rd)
                dl = P_line @ np.hstack([dm_ddelta, dm_dt])  # (3, 6)
            for uv in c.target_line_2d.endpoints:
                x_h = np.array([uv[0], uv[1], 1.0])
                val = float(x_h @ l_hat)
                res.append(np.array([val / nrm]))
                if with_jacobian:
                    de_dl = x_h / nrm - (val / (nrm2 * nrm)) * np.array(
                        [l_hat[0], l_hat[1], 0.0]
                    )
                    jac.append((de_dl @ dl)[None, :])
    e = np.concatenate(res)
    J = np.vstack(jac) if with_jacobian else None
    return e, J


def refine(
    initial: PoseSolution,
    correspondences: list[Correspondence],
    K_t: CameraIntrinsics,
    cfg: SolverConfig,
    weights: np.ndarray | None = None,
) -> PoseSolution:
    """Levenberg-Marquardt polish of a pose against the geometric cost.

    Minimizes the summed squared 3D point-to-line residuals (FULL3D pairs)
    plus squared 2D reprojection residuals (PNL pairs).  Damping is scaled
    multiplicatively; the rotation update composes a small rotation onto the
    estimate and is re-orthonormalized after every accepted step.  With the
    iteration cap hit before the relative cost decrease drops below
    ``cost_tolerance``, the best iterate is returned with
    ``lm_converged=False``.
    """
    if not correspondences:
        raise EmptyInput("nothing to refine")
    w = np.ones(len(correspondences)) if weights is None else np.asarray(weights, float)
    if w.shape != (len(correspondences),):
        raise ValueError("weights must match the correspondence count")

    R = np.array(initial.extrinsics.rotation)
    t = np.array(initial.extrinsics.translation)
    lam = cfg.lm_initial_damping
    converged = False

    for k in range(cfg.max_lm_iterations):
        e, J = _stack_residuals(correspondences, K_t, R, t, w, with_jacobian=True)
        if k == 0:  # the start; later costs come from the accepted steps
            cost = float(e @ e)
        g = J.T @ e
        JtJ = J.T @ J
        accepted = False
        for _ in range(16):
            try:
                delta = np.linalg.solve(JtJ + lam * np.eye(6), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.isfinite(delta).all():
                break  # the damping overflowed or the residuals are not finite
            # The Cayley step Cay(delta / 2) equals Exp(delta) to first order,
            # so the Jacobian taken at delta = 0 holds for it too.
            R_new = R @ cgr_to_rotation(0.5 * delta[:3])
            R_new, _, _ = project_so3(R_new)
            t_new = t + delta[3:]
            e_new, _ = _stack_residuals(
                correspondences, K_t, R_new, t_new, w, with_jacobian=False
            )
            cost_new = float(e_new @ e_new)
            if cost_new < cost:
                rel = (cost - cost_new) / max(cost, 1e-300)
                R, t, cost = R_new, t_new, cost_new
                lam = max(lam * 0.1, 1e-14)
                accepted = True
                if rel < cfg.cost_tolerance:
                    converged = True
                break
            lam *= 10.0
        if not accepted:
            # No direction improves the cost: we are at a local minimum.
            converged = True
            break
        if converged:
            break

    pose = Extrinsics(R, t)
    return PoseSolution(
        extrinsics=pose,
        s=rotation_to_cgr(R),
        algebraic_residual=initial.algebraic_residual,
        refined_cost=cost,
        all_candidates=initial.all_candidates,
        lm_converged=converged,
    )
