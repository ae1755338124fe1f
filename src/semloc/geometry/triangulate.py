"""Two-view triangulation of pixel correspondences with known poses."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateGeometryError
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
    pixel_a: np.ndarray,
    pixel_b: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray | float]:
    """Linear (DLT) triangulation of correspondences between two posed views.

    pixel_a, pixel_b: one correspondence (2,) or n row-aligned ones (n, 2).
    The projection matrices are built once and all n systems are solved by
    one stacked SVD; row i of an (n, 2) call is bitwise equal to the (2,)
    call on row i.

    Returns (world points (n, 3), residuals (n,)) for (n, 2) input, where a
    residual is the larger of the two views' reprojection errors in px. A
    row whose point lies at infinity or not in front of both cameras
    (cheirality) is invalid: its residual is inf and its point NaN.
    For (2,) input returns (point (3,), residual float) and raises
    DegenerateGeometryError ("cheirality failure") for an invalid row.

    Raises DegenerateGeometryError for a baseline below 1e-6 m, whatever the
    number of rows.
    """
    baseline = np.linalg.norm(pose_a.camera_center() - pose_b.camera_center())
    if baseline < _MIN_BASELINE:
        raise DegenerateGeometryError(f"degenerate baseline ({baseline:.3e} m)")

    single = np.ndim(pixel_a) == 1
    pixels_a = np.asarray(pixel_a, dtype=float).reshape(-1, 2)
    pixels_b = np.asarray(pixel_b, dtype=float).reshape(-1, 2)

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
    points[~valid] = np.nan
    residuals[~valid] = np.inf

    if single:
        if not valid[0]:
            raise DegenerateGeometryError("cheirality failure")
        return points[0], float(residuals[0])
    return points, residuals
