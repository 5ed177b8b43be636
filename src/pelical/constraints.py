"""Line correspondences and the merged quadratic constraint system.

A matched line pair constrains the source-to-target extrinsics in one of two
ways: when both cameras observed reliable depth along the line ("full 3D"),
each 3D endpoint of the source line must lie on the target line; when only
the source side has depth ("PnL"), the transformed endpoints must project
onto the observed target image line.

With the rotation written in CGR form, both constraint families are linear
in the degree-two monomial vector

    r(s) = [s1^2, s2^2, s3^2, s1*s2, s1*s3, s2*s3, s1, s2, s3, 1]

and in the scaled translation ``tau = (1 + s.s) t``, which yields the merged
homogeneous system ``A r + B tau = 0`` assembled here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, WrongKind
from .geometry import CameraIntrinsics, Line2D, PluckerLine, skew

#: Monomial order shared by the assembled system, the solver and its oracle.
MONOMIALS = ("s1^2", "s2^2", "s3^2", "s1*s2", "s1*s3", "s2*s3", "s1", "s2", "s3", "1")

#: Coefficients of ``1 + s.s`` over MONOMIALS.
ONE_PLUS_STS = np.array([1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0, 1.0])


def monomial_vector(s: np.ndarray) -> np.ndarray:
    """Evaluate ``r(s)`` for a single parameter vector."""
    s1, s2, s3 = np.asarray(s, dtype=float).reshape(3)
    return np.array(
        [s1 * s1, s2 * s2, s3 * s3, s1 * s2, s1 * s3, s2 * s3, s1, s2, s3, 1.0]
    )


def monomial_jacobian(s: np.ndarray) -> np.ndarray:
    """d r / d s, shape (10, 3)."""
    s1, s2, s3 = np.asarray(s, dtype=float).reshape(3)
    return np.array(
        [
            [2 * s1, 0.0, 0.0],
            [0.0, 2 * s2, 0.0],
            [0.0, 0.0, 2 * s3],
            [s2, s1, 0.0],
            [s3, 0.0, s1],
            [0.0, s3, s2],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
        ]
    )


def rbar_coefficients(X: np.ndarray) -> np.ndarray:
    """Coefficient matrix Q with ``Q @ r(s) == Rbar(s) @ X`` for any s.

    ``Rbar = (1 - s.s) I + 2 [s]x + 2 s s^T`` is the unnormalized CGR
    rotation; its action on a fixed point is linear in the monomials.
    """
    x1, x2, x3 = np.asarray(X, dtype=float).reshape(3)
    return np.array(
        [
            [x1, -x1, -x1, 2 * x2, 2 * x3, 0.0, 0.0, 2 * x3, -2 * x2, x1],
            [-x2, x2, -x2, 2 * x1, 0.0, 2 * x3, -2 * x3, 0.0, 2 * x1, x2],
            [-x3, -x3, x3, 0.0, 2 * x1, 2 * x2, 2 * x2, -2 * x1, 0.0, x3],
        ]
    )


class CaseKind(enum.Enum):
    """Outcome of depth-quality classification for a matched line pair."""

    FULL3D = "full3d"
    PNL = "pnl"
    REJECT = "reject"


def classify(source_ratio: float, target_ratio: float, threshold: float) -> CaseKind:
    """Classify a pair from its RANSAC line-fit inlier ratios.

    Both ratios at or above the threshold means trustworthy depth on both
    sides (FULL3D).  A trustworthy source with an unreliable target keeps
    only the target's 2D observation (PNL).  Anything else is rejected.
    """
    if source_ratio >= threshold and target_ratio >= threshold:
        return CaseKind.FULL3D
    if source_ratio >= threshold:
        return CaseKind.PNL
    return CaseKind.REJECT


@dataclass(frozen=True)
class Correspondence:
    """One accepted line match between the source and target cameras.

    ``target_line_3d``/``target_endpoints`` are present only for FULL3D
    pairs; the 2D target line is always available.  Endpoints are the
    extreme inlier projections of the RANSAC fits.
    """

    kind: CaseKind
    source_line: PluckerLine
    source_endpoints: np.ndarray
    target_line_2d: Line2D
    target_line_3d: PluckerLine | None = None
    target_endpoints: np.ndarray | None = None
    obs_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (CaseKind.FULL3D, CaseKind.PNL):
            raise ValueError("correspondence kind must be FULL3D or PNL")
        ep = np.asarray(self.source_endpoints, dtype=float).reshape(2, 3)
        for p in ep:
            if self.source_line.distance_to_point(p) > 1e-6:
                raise ValueError("source endpoints must lie on the source line")
        object.__setattr__(self, "source_endpoints", ep)
        if self.kind is CaseKind.FULL3D:
            if self.target_line_3d is None or self.target_endpoints is None:
                raise ValueError("FULL3D pairs need a 3D target line and endpoints")
            tep = np.asarray(self.target_endpoints, dtype=float).reshape(2, 3)
            for p in tep:
                if self.target_line_3d.distance_to_point(p) > 1e-6:
                    raise ValueError("target endpoints must lie on the target line")
            object.__setattr__(self, "target_endpoints", tep)
        elif self.target_line_3d is not None:
            raise ValueError("PNL pairs must not carry a 3D target line")


@dataclass(frozen=True)
class QuadraticSystem:
    """Stacked system ``A r + B tau = 0`` in insertion order.

    FULL3D pairs contribute eight rows (four per endpoint), PNL pairs two.
    """

    A: np.ndarray
    B: np.ndarray
    n_full3d: int
    n_pnl: int

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[1] != len(MONOMIALS):
            raise ValueError("A must have one column per monomial")
        if B.shape != (A.shape[0], 3):
            raise ValueError("B must be rows x 3")
        expected = 8 * self.n_full3d + 2 * self.n_pnl
        if A.shape[0] != expected:
            raise ValueError(f"expected {expected} rows, got {A.shape[0]}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def rows(self) -> int:
        return self.A.shape[0]

    def residual(self, s: np.ndarray, tau: np.ndarray) -> float:
        """``||A r(s) + B tau||_2`` for a candidate root."""
        r = monomial_vector(s)
        return float(np.linalg.norm(self.A @ r + self.B @ np.asarray(tau, float)))


def full3d_rows(c: Correspondence) -> tuple[np.ndarray, np.ndarray]:
    """Eight constraint rows demanding both source endpoints lie on the target line.

    For an on-line point ``Y`` the target line satisfies ``d x Y + m = 0``
    and ``m . Y = 0``; substituting ``Y (1 + s.s) = Rbar X + tau`` makes the
    rows linear in ``r(s)`` and ``tau``.
    """
    if c.kind is not CaseKind.FULL3D:
        raise WrongKind("full3d_rows needs a FULL3D correspondence")
    d = c.target_line_3d.d
    m = c.target_line_3d.m
    dx = skew(d)
    A = np.zeros((8, len(MONOMIALS)))
    B = np.zeros((8, 3))
    for j, X in enumerate(c.source_endpoints):
        Q = rbar_coefficients(X)
        A[4 * j : 4 * j + 3] = -dx @ Q - np.outer(m, ONE_PLUS_STS)
        B[4 * j : 4 * j + 3] = -dx
        A[4 * j + 3] = -m @ Q
        B[4 * j + 3] = -m
    return A, B


def pnl_rows(c: Correspondence, K_t: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Two rows demanding the transformed endpoints project onto the 2D line.

    Each endpoint gives ``(K^T l)^T (Rbar X + tau) = 0`` where ``l`` is the
    observed target image line.
    """
    if c.kind is not CaseKind.PNL:
        raise WrongKind("pnl_rows needs a PNL correspondence")
    g = K_t.camera_matrix.T @ c.target_line_2d.coeffs
    A = np.zeros((2, len(MONOMIALS)))
    B = np.zeros((2, 3))
    for j, X in enumerate(c.source_endpoints):
        A[j] = g @ rbar_coefficients(X)
        B[j] = g
    return A, B


def assemble(
    correspondences: list[Correspondence], K_t: CameraIntrinsics
) -> QuadraticSystem:
    """Stack all constraint rows in correspondence order."""
    if not correspondences:
        raise EmptyInput("no correspondences to assemble")
    blocks_a: list[np.ndarray] = []
    blocks_b: list[np.ndarray] = []
    n_full = n_pnl = 0
    for c in correspondences:
        if c.kind is CaseKind.FULL3D:
            a, b = full3d_rows(c)
            n_full += 1
        else:
            a, b = pnl_rows(c, K_t)
            n_pnl += 1
        blocks_a.append(a)
        blocks_b.append(b)
    return QuadraticSystem(np.vstack(blocks_a), np.vstack(blocks_b), n_full, n_pnl)
