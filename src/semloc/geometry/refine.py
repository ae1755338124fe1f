"""Gauss-Newton pose refinement over reprojection residuals.

The local parameterization is a 6-vector (rotation axis-angle, translation)
composed on the left of the current pose: x_cam' = exp(dtheta) x_cam + dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pose import CameraIntrinsics, Pose, project_points, rotation_from_axis_angle, skew

_SINGULAR_COND = 1e12
_MAX_ITERATIONS = 20
_STEP_TOL = 1e-10  # a step shorter than this ends the iteration


@dataclass
class RefineResult:
    pose: Pose
    failed: bool
    iterations: int
    initial_cost: float
    final_cost: float


def apply_increment(pose: Pose, delta: np.ndarray) -> Pose:
    """Left-compose a (dtheta, dt) 6-vector increment onto a pose."""
    delta = np.asarray(delta, dtype=float).reshape(6)
    rot = rotation_from_axis_angle(delta[:3])
    return Pose(rot @ pose.rotation, rot @ pose.translation + delta[3:])


def reprojection_residuals(
    pose: Pose, intrinsics: CameraIntrinsics, points: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Stacked (2n,) pixel residuals; points behind the camera contribute huge values."""
    projected, front = project_points(pose, intrinsics, points)
    residuals = projected - pixels
    residuals[~front] = 1e6
    return residuals.reshape(-1)


def _jacobian(pose: Pose, intrinsics: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """(2n, 6) Jacobian of reprojection_residuals: per point the projection
    derivative (2, 3) times the camera-point derivative (3, 6), all points in
    one stacked matmul.  Rows of points with depth <= 1e-9 are zero."""
    cam = pose.transform(points)
    x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]
    d_proj = np.zeros((len(cam), 2, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        d_proj[:, 0, 0] = intrinsics.fx / z
        d_proj[:, 0, 2] = -intrinsics.fx * x / (z * z)
        d_proj[:, 1, 1] = intrinsics.fy / z
        d_proj[:, 1, 2] = -intrinsics.fy * y / (z * z)
    d_cam = np.empty((len(cam), 3, 6))
    d_cam[:, :, :3] = -skew(cam)
    d_cam[:, :, 3:] = np.eye(3)
    jac = d_proj @ d_cam
    jac[z <= 1e-9] = 0.0
    return jac.reshape(-1, 6)


def refine_pose(
    pose0: Pose,
    pixels: np.ndarray,
    points: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> RefineResult:
    """Minimize total squared reprojection error starting from pose0.

    The accepted-step cost sequence is non-increasing (rejected steps are
    halved up to 8 times, then iteration stops).  A singular normal-equation
    system returns pose0 with failed=True.
    """
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    points = np.asarray(points, dtype=float).reshape(-1, 3)

    pose = pose0
    residual = reprojection_residuals(pose, intrinsics, points, pixels)
    cost = float(residual @ residual)
    initial_cost = cost

    for iteration in range(_MAX_ITERATIONS):
        jac = _jacobian(pose, intrinsics, points)
        normal = jac.T @ jac
        rhs = -jac.T @ residual
        if not np.all(np.isfinite(normal)) or np.linalg.cond(normal) > _SINGULAR_COND:
            return RefineResult(pose0, True, iteration, initial_cost, initial_cost)
        delta = np.linalg.solve(normal, rhs)

        step = delta
        accepted = False
        for _ in range(9):
            trial = apply_increment(pose, step)
            trial_res = reprojection_residuals(trial, intrinsics, points, pixels)
            trial_cost = float(trial_res @ trial_res)
            if trial_cost <= cost:
                pose, residual, cost = trial, trial_res, trial_cost
                accepted = True
                break
            step = step / 2.0
        if not accepted:
            return RefineResult(pose, False, iteration + 1, initial_cost, cost)
        if np.linalg.norm(delta) < _STEP_TOL:
            return RefineResult(pose, False, iteration + 1, initial_cost, cost)

    return RefineResult(pose, False, _MAX_ITERATIONS, initial_cost, cost)
