"""Two-view triangulation of pixel correspondences with known poses."""

from __future__ import annotations

import numpy as np

from .pose import CameraIntrinsics, Pose, reprojection_errors

_MIN_BASELINE = 1e-6


def solve_dlt(systems: np.ndarray) -> np.ndarray:
    """Homogeneous least-squares solutions of stacked (n, r, 4) DLT systems.

    Returns (n, 4): per system, the right singular vector of its smallest
    singular value, all from one stacked SVD. Row i is bitwise equal to
    solving system i alone.
    """
    _, _, vt = np.linalg.svd(systems)
    return vt[:, -1]


def triangulate_two_view(
    pose_a: Pose,
    pose_b: Pose,
    pixels_a: np.ndarray,
    pixels_b: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear (DLT) triangulation of correspondences between two posed views.

    pixels_a, pixels_b: n row-aligned correspondences, (n, 2) each; any other
    shape is a ValueError. The projection matrices are built once and all n
    systems are solved by one stacked SVD, so row i is bitwise equal to the
    one-row call on row i.

    Returns (world points (n, 3), residuals (n,)), where a residual is the
    larger of the two views' reprojection errors in px. A row whose point
    lies at infinity or not in front of both cameras (cheirality) is
    invalid: its residual is inf and its point NaN. Every row is invalid
    when the baseline is below 1e-6 m.
    """
    pixels_a = np.asarray(pixels_a, dtype=float)
    pixels_b = np.asarray(pixels_b, dtype=float)
    if pixels_a.ndim != 2 or pixels_a.shape[1] != 2 or pixels_b.shape != pixels_a.shape:
        raise ValueError("triangulate_two_view takes row-aligned (n, 2) pixel stacks")

    k = intrinsics.matrix()
    p_a = k @ np.hstack([pose_a.rotation, pose_a.translation[:, None]])
    p_b = k @ np.hstack([pose_b.rotation, pose_b.translation[:, None]])
    systems = np.stack(
        [
            pixels_a[:, 0:1] * p_a[2] - p_a[0],
            pixels_a[:, 1:2] * p_a[2] - p_a[1],
            pixels_b[:, 0:1] * p_b[2] - p_b[0],
            pixels_b[:, 1:2] * p_b[2] - p_b[1],
        ],
        axis=1,
    )
    hom = solve_dlt(systems)
    finite = np.abs(hom[:, 3]) >= 1e-15
    points = hom[:, :3] / np.where(finite, hom[:, 3], 1.0)[:, None]

    residuals = np.maximum(
        reprojection_errors(pose_a.rotation, pose_a.translation, intrinsics, points, pixels_a),
        reprojection_errors(pose_b.rotation, pose_b.translation, intrinsics, points, pixels_b),
    )
    valid = finite & (residuals < np.inf)  # inf: behind a camera
    baseline = np.linalg.norm(pose_a.camera_center() - pose_b.camera_center())
    valid &= baseline >= _MIN_BASELINE
    points[~valid] = np.nan
    residuals[~valid] = np.inf
    return points, residuals
