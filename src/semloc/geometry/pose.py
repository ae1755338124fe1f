"""Rigid camera poses, pinhole intrinsics and projection.

Conventions used throughout the package:

* a ``Pose`` maps world coordinates into the camera frame,
  ``x_cam = R @ x_world + t``;
* the camera looks along +z of its own frame, image x right, image y down;
* pixel coordinates follow ``u = fx * x/z + cx``, ``v = fy * y/z + cy``, in
  CameraIntrinsics.pixels alone; every projection goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateGeometryError

_ORTHONORMAL_TOL = 1e-9
_MIN_DEPTH = 1e-9
_EYE = np.eye(3)
# flat positions of -v and of v in the row-major cross-product matrix
_SKEW_NEGATED, _SKEW_KEPT = np.array([5, 6, 1]), np.array([7, 2, 3])


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, each bitwise equal to 1-D ``np.dot``.

    A stacked (..., 1, n) @ (..., n, 1) matmul goes through the same BLAS dot
    as ``np.dot``; einsum or an elementwise sum round differently. Both
    operands are made contiguous, since numpy bypasses BLAS for other strides.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def repeated(owner: np.ndarray, close) -> np.ndarray:
    """Whether each candidate repeats an earlier kept candidate of its owner
    (M,), sorted; close(later, earlier) says, for two index arrays, which of
    those candidate pairs are the same."""
    _, starts, sizes = np.unique(owner, return_index=True, return_counts=True)
    rank = np.arange(len(owner)) - np.repeat(starts, sizes)
    duplicate = np.zeros(len(owner), dtype=bool)
    # rank by rank, so every earlier verdict is final when it is read
    for r in range(1, sizes.max(initial=1)):
        later = np.flatnonzero(rank == r)
        for earlier in later[None] - np.arange(1, r + 1)[:, None]:
            duplicate[later] |= close(later, earlier) & ~duplicate[earlier]
    return duplicate


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix such that skew(a) @ b == cross(a, b); (..., 3) -> (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (9,))
    out[..., _SKEW_NEGATED] = -v
    out[..., _SKEW_KEPT] = v
    return out.reshape(v.shape + (3,))


def rotation_from_axis_angle(axis_angle: np.ndarray) -> np.ndarray:
    """Rodrigues' formula; the vector's norm is the rotation angle in radians.

    Takes one vector (3,) or a stack (..., 3); each matrix is bitwise equal
    to the one-vector call.
    """
    axis_angle = np.asarray(axis_angle, dtype=float)
    angle = np.sqrt(rowdot(axis_angle, axis_angle))[..., None, None]
    k = skew(axis_angle / np.maximum(angle[..., 0], 1e-15))
    rotation = _EYE + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    small = angle < 1e-15
    if small.any():
        # second-order series keeps derivatives smooth near zero
        k = skew(axis_angle)
        rotation = np.where(small, _EYE + k + 0.5 * (k @ k), rotation)
    return rotation


def quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (qw, qx, qy, qz) with qw >= 0 for a rotation matrix.

    Uses Shepperd's branch selection for numerical stability.
    """
    r = np.asarray(r, dtype=float)
    t = np.trace(r)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif r[1, 1] >= r[2, 2]:
        s = np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Rotation matrix for a (qw, qx, qy, qz) quaternion; normalizes its input."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_defects(rotation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max |R R^T - I| of each (..., 3, 3) rotation, and whether Pose rejects
    it; a rotation with a NaN entry fails every comparison, so it is rejected."""
    deviation = np.abs(rotation @ np.swapaxes(rotation, -1, -2) - _EYE)
    err = deviation.reshape(deviation.shape[:-2] + (9,)).max(axis=-1)
    return err, ~((err <= _ORTHONORMAL_TOL) & (np.linalg.det(rotation) >= 0.0))


def kabsch(world: np.ndarray, camera: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transforms with camera_i ~= R @ world_i + t, one per (n, 3) pair
    of the (M, n, 3) stacks (rows are points): centre both sets, take the SVD
    of the cross-covariance and fix its reflection; returns (R, t)."""
    wc = world.mean(axis=1)
    cc = camera.mean(axis=1)
    h = np.swapaxes(world - wc[:, None], 1, 2) @ (camera - cc[:, None])
    u, _, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
    reflect = np.zeros_like(h)
    reflect[:, 0, 0] = reflect[:, 1, 1] = 1.0
    reflect[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    r = v @ reflect @ ut
    return r, cc - (r @ wc[..., None])[..., 0]


@dataclass
class Pose:
    """World-to-camera rigid transform: x_cam = rotation @ x_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        err, rejected = rotation_defects(self.rotation)
        if rejected:
            raise DegenerateGeometryError(
                f"rotation is not orthonormal (max deviation {err:.3e})"
            )
        if not np.isfinite(self.translation).all():
            raise DegenerateGeometryError("translation is not finite")

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map world points (3,) or (n, 3) into the camera frame."""
        pts = np.asarray(points, dtype=float)
        return camera_points(self.rotation, self.translation, pts.reshape(-1, 3)).reshape(pts.shape)

    def camera_center(self) -> np.ndarray:
        """Camera position expressed in world coordinates."""
        return -self.rotation.T @ self.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths positive and finite, principal point in-frame."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0.0 < self.fx < np.inf and 0.0 < self.fy < np.inf):
            raise DegenerateGeometryError("focal lengths must be positive and finite")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise DegenerateGeometryError("principal point lies outside the image")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def normalize(self, pixels: np.ndarray) -> np.ndarray:
        """Pixel coordinates (..., 2) -> normalized image-plane coordinates (K^-1 applied)."""
        return (np.asarray(pixels, dtype=float) - (self.cx, self.cy)) / (self.fx, self.fy)

    def pixels(self, camera: np.ndarray) -> np.ndarray:
        """Camera-frame points (..., 3) -> pixel coordinates (..., 2), the
        inverse of normalize; a point at depth <= 0 gets inf or NaN."""
        camera = np.asarray(camera, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.fx, self.fy) * camera[..., :2] / camera[..., 2:] + (self.cx, self.cy)


def camera_points(
    rotations: np.ndarray, translations: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """R @ x + t of world points (..., n, 3) under poses (..., 3, 3), (..., 3)
    that broadcast against them; returns (..., n, 3).  Formed elementwise, so
    a row's bits do not depend on what is stacked with it, as a matmul's may.
    """
    r = np.asarray(rotations, dtype=float)[..., None, :, :]
    x = np.asarray(points, dtype=float)
    return (x[..., 0:1] * r[..., 0] + x[..., 1:2] * r[..., 1] + x[..., 2:3] * r[..., 2]) + (
        np.asarray(translations, dtype=float)[..., None, :]
    )


def reprojection_errors(
    rotations: np.ndarray,
    translations: np.ndarray,
    intrinsics: CameraIntrinsics,
    points: np.ndarray,
    pixels: np.ndarray,
) -> np.ndarray:
    """Pixel distance from each point's projection to its pixel; inf where the
    point is not in front of the camera (depth <= 1e-9).

    Poses (..., 3, 3), (..., 3) broadcast against points (..., n, 3) and
    pixels (..., n, 2); returns (..., n), each row bitwise the same alone
    and in any stack.  The one inlier measure of every estimator and gate.
    """
    cam = camera_points(rotations, translations, points)
    offset = intrinsics.pixels(cam) - pixels
    return np.where(cam[..., 2] > _MIN_DEPTH, np.hypot(offset[..., 0], offset[..., 1]), np.inf)


def project_points(
    pose: Pose, intrinsics: CameraIntrinsics, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of (n, 3) world points, each row bitwise equal
    to intrinsics.pixels(pose.transform(point)) of its point alone.

    Returns (pixels (n, 2), valid (n,) bool); rows with depth <= 1e-9 are
    flagged invalid and contain NaN.
    """
    cam = pose.transform(np.asarray(points, dtype=float).reshape(-1, 3))
    valid = cam[:, 2] > _MIN_DEPTH
    pixels = intrinsics.pixels(cam)
    pixels[~valid] = np.nan
    return pixels, valid
