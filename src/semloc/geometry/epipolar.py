"""Essential-matrix utilities: construction, Sampson distance, decomposition.

All image coordinates entering these functions are normalized (K^-1 applied);
the epipolar constraint used is ``x_b^T E x_a = 0`` with ``E = [t]x R`` for the
relative motion ``x_b = R x_a + t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateGeometryError
from .pose import Pose, camera_points, skew
from .triangulate import solve_dlt

_DEGENERATE_DENOM = 1e-30
_PURE_ROTATION_TOL = 1e-8  # median angular residual (rad) of a rotation-only fit


@dataclass
class RelativePose:
    """Relative motion up to scale: rotation plus a unit translation direction."""

    rotation: np.ndarray
    translation_direction: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation_direction = np.asarray(self.translation_direction, dtype=float).reshape(3)
        n = np.linalg.norm(self.translation_direction)
        if n > 0:
            self.translation_direction = self.translation_direction / n


def relative_motion(pose_a: Pose, pose_b: Pose) -> tuple[np.ndarray, np.ndarray]:
    """(R, t) with x_b = R x_a + t between two world-to-camera poses."""
    r = pose_b.rotation @ pose_a.rotation.T
    t = pose_b.translation - r @ pose_a.translation
    return r, t


def essential_from_pose(pose_a: Pose, pose_b: Pose) -> np.ndarray:
    """Ground-truth essential matrix [t]x R of the motion from view a to view b."""
    r, t = relative_motion(pose_a, pose_b)
    return skew(t) @ r


def _homogeneous(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.array([x[0], x[1], 1.0])
    return np.hstack([x, np.ones((x.shape[0], 1))])


def sampson_error(e: np.ndarray, x_a: np.ndarray, x_b: np.ndarray) -> np.ndarray | float:
    """First-order geometric (Sampson) distance in normalized coordinates.

    Accepts single points (2,) or stacked points (n, 2) and returns a float
    or an (n,) array accordingly.  A stack of matrices (M, 3, 3) with n >= 2
    points gives (M, n) rows, each bitwise equal to its one-matrix call.
    Where the epipolar-line gradients vanish (points at the epipoles) the
    algebraic residual is returned instead.
    """
    e = np.asarray(e, dtype=float)
    scalar = np.asarray(x_a).ndim == 1
    ha = np.atleast_2d(_homogeneous(x_a))
    hb = np.atleast_2d(_homogeneous(x_b))

    line_b = ha @ np.swapaxes(e, -1, -2)  # E @ x_a, rows
    line_a = hb @ e  # E^T @ x_b, rows
    # (n, 3) rows per matrix, summed as the one-matrix call sums them
    rows = np.broadcast_to(hb, line_b.shape).reshape(-1, 3)
    algebraic = np.einsum("ij,ij->i", rows, line_b.reshape(-1, 3)).reshape(line_b.shape[:-1])
    denom = line_b[..., 0] ** 2 + line_b[..., 1] ** 2 + line_a[..., 0] ** 2 + line_a[..., 1] ** 2
    # dividing by one keeps the algebraic residual's bits where the gradients vanish
    value = np.abs(algebraic) / np.sqrt(np.where(denom < _DEGENERATE_DENOM, 1.0, denom))
    return float(value[0]) if scalar else value


def _triangulate_normalized(rotation: np.ndarray, translation: np.ndarray,
                            xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """DLT triangulation with cameras [I|0] and [R|t]; returns (n, 3) points in frame a."""
    p_b = np.hstack([rotation, translation[:, None]])
    n = xa.shape[0]
    systems = np.zeros((n, 4, 4))
    systems[:, 0, 0] = systems[:, 1, 1] = -1.0
    systems[:, 0, 2] = xa[:, 0]
    systems[:, 1, 2] = xa[:, 1]
    systems[:, 2] = xb[:, 0:1] * p_b[2] - p_b[0]
    systems[:, 3] = xb[:, 1:2] * p_b[2] - p_b[1]
    hom = solve_dlt(systems)
    w = np.where(np.abs(hom[:, 3]) > 1e-15, hom[:, 3], 1e-15)
    return hom[:, :3] / w[:, None]


def _best_fit_rotation(bearings_a: np.ndarray, bearings_b: np.ndarray) -> np.ndarray:
    """Kabsch fit of b ~ R a over unit bearing vectors."""
    h = bearings_b.T @ bearings_a
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def decompose_essential(e: np.ndarray, x_a: np.ndarray, x_b: np.ndarray) -> RelativePose:
    """Recover (R, unit t) from an essential matrix by cheirality voting.

    x_a, x_b: (n, 2) normalized correspondences used for the vote.

    Raises DegenerateGeometryError with "pure rotation suspected" when a
    rotation alone already explains the correspondences (median angular
    residual below _PURE_ROTATION_TOL), and with "ambiguous decomposition"
    when two factorizations tie on cheirality votes.
    """
    xa = np.atleast_2d(np.asarray(x_a, dtype=float))
    xb = np.atleast_2d(np.asarray(x_b, dtype=float))
    if xa.shape[0] == 0:
        raise DegenerateGeometryError("no correspondences to vote with")

    ha = _homogeneous(xa)
    hb = _homogeneous(xb)
    ba = ha / np.linalg.norm(ha, axis=1, keepdims=True)
    bb = hb / np.linalg.norm(hb, axis=1, keepdims=True)
    # a rotation can align any one or two bearing pairs exactly, so the
    # pure-rotation test is only meaningful from three correspondences up
    if xa.shape[0] >= 3:
        r_fit = _best_fit_rotation(ba, bb)
        # angle via the chord length: stable where arccos loses precision near 0
        chord = np.linalg.norm(bb - ba @ r_fit.T, axis=1)
        residual = 2.0 * np.arcsin(np.clip(chord / 2.0, -1.0, 1.0))
        if float(np.median(residual)) < _PURE_ROTATION_TOL:
            raise DegenerateGeometryError("pure rotation suspected")

    u, _, vt = np.linalg.svd(np.asarray(e, dtype=float))
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1 = u @ w @ vt
    r1 = r1 * np.sign(np.linalg.det(r1))
    r2 = u @ w.T @ vt
    r2 = r2 * np.sign(np.linalg.det(r2))
    t = u[:, 2]

    votes = []
    candidates = [(r1, t), (r1, -t), (r2, t), (r2, -t)]
    for rot, trans in candidates:
        pts = _triangulate_normalized(rot, trans, xa, xb)
        depth_a = pts[:, 2]
        depth_b = camera_points(rot, trans, pts)[:, 2]
        votes.append(int(np.sum((depth_a > 0) & (depth_b > 0))))

    order = np.argsort(votes)
    if votes[order[-1]] == votes[order[-2]]:
        raise DegenerateGeometryError("ambiguous decomposition")
    rot, trans = candidates[int(order[-1])]
    return RelativePose(rotation=rot, translation_direction=trans)
