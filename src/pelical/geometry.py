"""Camera models, Pluecker line algebra and rotation parameterizations.

Conventions used throughout the package:

* 3D quantities are in meters, image quantities in pixels.
* A 3D line is stored as a unit direction ``d`` and a moment ``m = p x d``
  where ``p`` is any point on the line.  This makes ``|m|`` the distance of
  the line from the origin.
* Extrinsics map source-camera coordinates into the target camera frame,
  ``X_t = R @ X_s + t``.
* All values are treated as immutable once constructed; stored arrays are
  marked read-only so accidental in-place edits fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .checks import MAX_MAGNITUDE, _real
from .errors import DegenerateLine, NearSingularRotation, RankDeficient

_UNIT_TOL = 1e-9
#: Line2D's other bounds: the smallest norm of ``(a, b)`` that is not
#: degenerate, and how far (px) an endpoint may lie off the line.
_LINE_NORM_MIN = 1e-12
_ENDPOINT_TOL_PX = 0.5


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: ``skew(v) @ w == np.cross(v, w)``.  An
    ``(..., 3)`` array gives the ``(..., 3, 3)`` matrices of its rows."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, written out by components.

    Same products and differences, so the same bits, at a fraction of
    ``np.cross``'s fixed cost on single vectors.
    """
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of each row pair of two ``(k, 3)`` arrays, or of the
    3-vector ``a`` with each row of ``b``, written out by components like
    :func:`cross3`: the same bits at a third of the cost."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    out = np.empty((len(b), 3))
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def axis_norms(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` by its own formula, so the same bits,
    without its fixed cost."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics of one camera."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        """A bad value raises TypeError or ValueError naming its field."""
        for f in fields(self):
            value = _real(getattr(self, f.name), f.name, integer=f.type == "int")
            if not abs(value) <= MAX_MAGNITUDE:
                raise ValueError(f"{f.name} must be at most {MAX_MAGNITUDE:g} in magnitude")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("image size must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @property
    def camera_matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def project(self, points: np.ndarray) -> np.ndarray:
        """Project camera-frame points (n, 3) to pixel coordinates (n, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        z = pts[:, 2]
        uv = np.empty((len(pts), 2))
        uv[:, 0] = self.fx * pts[:, 0] / z + self.cx
        uv[:, 1] = self.fy * pts[:, 1] / z + self.cy
        return uv if np.asarray(points).ndim == 2 else uv[0]


@dataclass(frozen=True)
class PluckerLine:
    """Infinite 3D line in Pluecker form (unit direction, moment)."""

    d: np.ndarray
    m: np.ndarray

    def __post_init__(self) -> None:
        d = _readonly(self.d).reshape(3)
        m = _readonly(self.m).reshape(3)
        # The checks run on Python floats: numpy is slow on single 3-vectors.
        # Each is written so that NaN fails it.
        d0, d1, d2 = d.tolist()
        m0, m1, m2 = m.tolist()
        if not abs(math.sqrt(d0 * d0 + d1 * d1 + d2 * d2) - 1.0) <= _UNIT_TOL:
            raise ValueError("direction must be unit length")
        if not (math.isfinite(m0) and math.isfinite(m1) and math.isfinite(m2)):
            raise ValueError("moment must be finite")
        if not abs(d0 * m0 + d1 * m1 + d2 * m2) <= _UNIT_TOL:
            raise ValueError("moment must be orthogonal to direction")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)

    def distance_to_point(self, p: np.ndarray) -> float:
        """Orthogonal distance from a point to the line, ``|d x p + m|``, on
        Python floats like the checks above."""
        d0, d1, d2 = self.d.tolist()
        p0, p1, p2 = np.asarray(p, dtype=float).tolist()
        m0, m1, m2 = self.m.tolist()
        c0 = d1 * p2 - d2 * p1 + m0
        c1 = d2 * p0 - d0 * p2 + m1
        c2 = d0 * p1 - d1 * p0 + m2
        return math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)


@dataclass(frozen=True)
class Line2D:
    """Image line ``l = (a, b, c)`` with the matched segment endpoints (px).

    Coefficients are normalized so that ``sqrt(a^2 + b^2) == 1`` and
    ``l @ (u, v, 1)`` is the signed point-line distance in pixels.
    """

    coeffs: np.ndarray
    endpoints: np.ndarray

    def __post_init__(self) -> None:
        l = _readonly(self.coeffs).reshape(3)
        ep = _readonly(self.endpoints).reshape(2, 2)
        if (fault := line_2d_fault(l.tolist(), ep.tolist())) is not None:
            raise ValueError(fault)
        object.__setattr__(self, "coeffs", l)
        object.__setattr__(self, "endpoints", ep)

    @classmethod
    def from_endpoints(cls, p1: np.ndarray, p2: np.ndarray) -> "Line2D":
        """Build the normalized image line through two pixel points."""
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        l = cross3([p1[0], p1[1], 1.0], [p2[0], p2[1], 1.0])
        n = math.hypot(l[0], l[1])
        if n < 1e-12:
            raise ValueError("endpoints coincide; no unique image line")
        return cls(l / n, np.stack([p1, p2]))


def line_2d_fault(coeffs: list[float], endpoints: list[list[float]]) -> str | None:
    """Why ``Line2D(coeffs, endpoints)`` is refused, or None when it is not;
    ``coeffs`` is ``[a, b, c]`` and ``endpoints`` ``[[u, v], [u, v]]``.

    The checks run on Python floats: numpy is slow on single 3-vectors.
    Each is written so that NaN fails it.
    """
    a, b, c = coeffs
    n = math.hypot(a, b)
    if not n >= _LINE_NORM_MIN:
        return "line coefficients are degenerate"
    if not abs(n - 1.0) <= _UNIT_TOL:
        return "line coefficients must be normalized"
    for u, v in endpoints:
        if not abs(a * u + b * v + c) < _ENDPOINT_TOL_PX:
            return "endpoints must lie on the line (within 0.5 px)"
    return None


@dataclass(frozen=True)
class CGRParams:
    """Cayley-Gibbs-Rodrigues rotation parameters ``s = axis * tan(theta/2)``."""

    s: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float).reshape(3)
        if not np.all(np.isfinite(s)):
            raise ValueError("CGR parameters must be finite")
        object.__setattr__(self, "s", _readonly(s))


@dataclass(frozen=True)
class Extrinsics:
    """Rigid transform from the source camera frame to the target frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        # Each check is written so that NaN fails it.
        if not (np.isfinite(R).all() and np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-9):
            raise ValueError("rotation must be orthonormal")
        if not abs(np.linalg.det(R) - 1.0) <= 1e-9:
            raise ValueError("rotation must have determinant +1")
        if not np.isfinite(t).all():
            raise ValueError("translation must be finite")
        object.__setattr__(self, "rotation", _readonly(R))
        object.__setattr__(self, "translation", _readonly(t))

    def transform_point(self, p: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(p, dtype=float) + self.translation

    def transform_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "Extrinsics":
        R = self.rotation.T
        return Extrinsics(R, -R @ self.translation)

    @classmethod
    def identity(cls) -> "Extrinsics":
        return cls(np.eye(3), np.zeros(3))


def plucker_from_points(p1: np.ndarray, p2: np.ndarray) -> PluckerLine:
    """Line through two distinct 3D points.

    Raises DegenerateLine when the endpoints are closer than 1e-9 m.
    """
    p1 = np.asarray(p1, dtype=float).reshape(3)
    p2 = np.asarray(p2, dtype=float).reshape(3)
    diff = p2 - p1
    n = np.linalg.norm(diff)
    if n < 1e-9:
        raise DegenerateLine("endpoints are too close to define a line")
    d = diff / n
    return PluckerLine(d, cross3(p1, d))


def transform_line(line: PluckerLine, T: Extrinsics) -> PluckerLine:
    """Map a Pluecker line through a rigid transform.

    Direction maps as ``R d`` and the moment as ``R m + t x (R d)``.
    """
    d = T.rotation @ line.d
    m = T.rotation @ line.m + cross3(T.translation, d)
    # Clean up float drift so the type invariants keep holding under
    # repeated round trips.
    d = d / np.linalg.norm(d)
    m = m - (d @ m) * d
    return PluckerLine(d, m)


def cgr_to_rotation(s: CGRParams | np.ndarray) -> np.ndarray:
    """Rotation matrix from CGR parameters.

    ``R = ((1 - s.s) I + 2 [s]x + 2 s s^T) / (1 + s.s)``; exact for every
    finite ``s`` and singular only at 180 degrees (which no finite ``s``
    reaches).
    """
    v = s.s if isinstance(s, CGRParams) else np.asarray(s, dtype=float).reshape(3)
    ss = float(v @ v)
    rbar = (1.0 - ss) * np.eye(3) + 2.0 * skew(v) + 2.0 * np.outer(v, v)
    return rbar / (1.0 + ss)


def rotation_to_cgr(R: np.ndarray) -> CGRParams:
    """Invert :func:`cgr_to_rotation`: ``s = vee(R - R^T) / (1 + trace R)``.

    Raises NearSingularRotation when the rotation angle is within 1e-3 rad
    of 180 degrees, where ``tan(theta/2)`` blows up.
    """
    R = np.asarray(R, dtype=float)
    angle = rotation_angle(R)
    if angle >= math.pi - 1e-3:
        raise NearSingularRotation(
            f"rotation angle {math.degrees(angle):.4f} deg is too close to 180"
        )
    vee = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return CGRParams(vee / (1.0 + float(np.trace(R))))


def rotation_angle(R: np.ndarray) -> float:
    """Rotation angle of ``R`` in radians."""
    c = (float(np.trace(R)) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def line_projection_matrix(K: CameraIntrinsics) -> np.ndarray:
    """3x3 matrix mapping a camera-frame line moment to image line coefficients.

    For a line with moment ``m`` (convention ``m = p x d``), ``l = P @ m``
    contains the pixels of every projected point of the line:
    ``l @ (u, v, 1) == 0``.  Algebraically ``P = det(K) K^{-T}``.
    """
    return np.array(
        [
            [K.fy, 0.0, 0.0],
            [0.0, K.fx, 0.0],
            [-K.fy * K.cx, -K.fx * K.cy, K.fx * K.fy],
        ]
    )


#: The two spectra :func:`project_so3` projects onto, shared read-only.
_SO3_SPECTRUM = _readonly([1.0, 1.0, 1.0])
_REFLECTED_SPECTRUM = _readonly([1.0, 1.0, -1.0])


def project_so3(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonally project a 3x3 matrix onto SO(3).

    Returns ``(R, sigma, sigma_target)`` where ``sigma`` holds the singular
    values of ``M`` and ``sigma_target = (1, 1, det(U V^T))`` is the spectrum
    of the projection, a shared read-only array.  Raises RankDeficient when
    the two smallest singular values vanish (the projection is then not
    unique).
    """
    M = np.asarray(M, dtype=float).reshape(3, 3)
    U, sigma, Vt = np.linalg.svd(M)
    if sigma[1] <= 1e-12 and sigma[2] <= 1e-12:
        raise RankDeficient("two smallest singular values are zero")
    R = U @ Vt
    # U V^T is orthogonal, so its determinant is +-1 and the cofactor
    # expansion gets its sign right at a fraction of np.linalg.det's cost
    (a, b, c), (d, e, f), (g, h, i) = R.tolist()
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) > 0.0:
        return R, sigma, _SO3_SPECTRUM
    return (U * _REFLECTED_SPECTRUM) @ Vt, sigma, _REFLECTED_SPECTRUM


def so3_distance(sigma: np.ndarray, sigma_target: np.ndarray) -> float:
    """Frobenius-type distance between a matrix spectrum and its SO(3) projection.

    ``sqrt(x @ x)`` is the dot product ``np.linalg.norm`` takes of a 1-D
    array, so the bits are the same.
    """
    x = sigma - sigma_target
    return math.sqrt(x @ x)
