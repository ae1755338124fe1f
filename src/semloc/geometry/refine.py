"""Gauss-Newton pose refinement over reprojection residuals.

The local parameterization is a 6-vector (rotation axis-angle, translation)
composed on the left of the current pose: x_cam' = exp(dtheta) x_cam + dt.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .pose import (
    _MIN_DEPTH,
    CameraIntrinsics,
    Pose,
    camera_points,
    rotation_defects,
    rotation_from_axis_angle,
    rowdot,
    skew,
)

_SINGULAR_COND = 1e12
_MAX_ITERATIONS = 20
_MAX_TRIALS = 9  # a rejected step is halved and retried up to 8 times
_STEP_TOL = 1e-10  # a step shorter than this ends the iteration


@dataclass
class RefineResult:
    pose: Pose
    failed: bool
    iterations: int
    initial_cost: float
    final_cost: float


def _increment(rotations: np.ndarray, translations: np.ndarray, deltas: np.ndarray):
    """Left-compose (..., 6) increments onto poses (..., 3, 3), (..., 3); each
    pose's bits are those of the one-pose call."""
    rot = rotation_from_axis_angle(deltas[..., :3])
    return rot @ rotations, (rot @ translations[..., None])[..., 0] + deltas[..., 3:]


def _residuals(cam: np.ndarray, pixels: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """(n, 2) pixel residuals of camera points (n, 3); 1e6 per coordinate
    where the depth is <= 1e-9."""
    return np.where(cam[:, 2:] > _MIN_DEPTH, intrinsics.pixels(cam) - pixels, 1e6)


def _camera_jacobian(cam: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """(2n, 6) Jacobian of the residuals at camera points (n, 3): per point
    the projection derivative (2, 3) times the camera-point derivative
    (3, 6), all points in one stacked matmul.  Rows of points with depth
    <= 1e-9 are zero."""
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
    jac[z <= _MIN_DEPTH] = 0.0
    return jac.reshape(-1, 6)


def _spans(sizes: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of the given sizes."""
    stops = np.cumsum(sizes).tolist()
    return list(zip([0, *stops[:-1]], stops))


def _costs(residuals: np.ndarray, spans: list[tuple[int, int]]) -> np.ndarray:
    """Each problem's squared residual norm: one BLAS dot over its span of
    the flattened residuals, as the one-problem loop takes it."""
    flat = residuals.reshape(-1)
    return np.array([r.dot(r) for r in (flat[a:b] for a, b in spans)])


def refine_poses(
    problems: Sequence[tuple[Pose, np.ndarray, np.ndarray]],
    intrinsics: CameraIntrinsics,
) -> list[RefineResult]:
    """Minimize each (pose0, pixels, points) problem's total squared
    reprojection error starting from pose0, all problems in lockstep.

    Each problem's accepted-step cost sequence is non-increasing: a rejected
    step is halved up to 8 times, then its iteration stops, as it does after
    _MAX_ITERATIONS steps or a step shorter than _STEP_TOL.  A singular
    normal-equation system returns pose0 with failed=True.  Every trial pose
    is checked as Pose checks it, and a DegenerateGeometryError is raised
    where Pose would raise one.

    Poses stay stacked arrays inside the loop.  Every round builds the normal
    equations of the problems that took a step, solves them in one stacked
    call and tries one step of each running problem: camera points,
    residuals, the Jacobian and the step are formed elementwise over all
    rows, and each problem's J^T J, J^T r and r.r are taken on its own
    contiguous rows through the BLAS calls a one-problem loop makes.  So a
    problem's result is bitwise the same alone and in any batch.  One Pose
    is built per problem at the end.
    """
    if not problems:
        return []
    count = len(problems)
    pixels = [np.asarray(p, dtype=float).reshape(-1, 2) for _, p, _ in problems]
    points = [np.asarray(p, dtype=float).reshape(-1, 3) for _, _, p in problems]
    sizes = np.array([len(p) for p in pixels])
    rotations = np.array([pose0.rotation for pose0, _, _ in problems])
    translations = np.array([pose0.translation for pose0, _, _ in problems])

    # the rows of the running problems, in problem order: points, pixels, and
    # the camera points and residuals at each problem's current pose
    live = np.arange(count)
    points, pixels = np.concatenate(points)[:, None], np.concatenate(pixels)
    cam = camera_points(
        np.repeat(rotations, sizes, axis=0), np.repeat(translations, sizes, axis=0), points
    )[:, 0]
    residual = _residuals(cam, pixels, intrinsics)
    spans = _spans(2 * sizes)  # of each live problem's flattened residuals
    initial_cost = _costs(residual, spans)
    cost = initial_cost.copy()
    step = np.zeros((count, 6))
    short = np.zeros(count, dtype=bool)  # the iteration's full step is below _STEP_TOL
    trials = np.zeros(count, dtype=int)
    iterations = np.zeros(count, dtype=int)
    failed = np.zeros(count, dtype=bool)
    running = np.ones(count, dtype=bool)
    stepped = np.ones(count, dtype=bool)  # needs the normal equations at its new pose

    while True:
        solving = np.flatnonzero(stepped[live])  # places in `live`
        if len(solving):
            frames = live[solving]
            jac = _camera_jacobian(cam[np.repeat(stepped[live], sizes[live])], intrinsics)
            flat = residual.reshape(-1)
            blocks = zip(_spans(2 * sizes[frames]), [spans[k] for k in solving.tolist()])
            pairs = [(jac[a:b], flat[c:d]) for (a, b), (c, d) in blocks]
            normal = np.array([j.T @ j for j, _ in pairs])
            rhs = np.array([-j.T @ r for j, r in pairs])
            singular = ~np.isfinite(normal).all(axis=(1, 2))
            singular[~singular] = np.linalg.cond(normal[~singular]) > _SINGULAR_COND
            failed[frames[singular]] = True
            running[frames[singular]] = False
            solved = frames[~singular]
            delta = np.linalg.solve(normal[~singular], rhs[~singular, :, None])[..., 0]
            step[solved] = delta
            short[solved] = np.sqrt(rowdot(delta, delta)) < _STEP_TOL
            trials[solved] = 0
            stepped[frames] = False

        keep = running[live]
        if not keep.all():
            rows = np.repeat(keep, sizes[live])
            live = live[keep]
            points, pixels, cam, residual = points[rows], pixels[rows], cam[rows], residual[rows]
            spans = _spans(2 * sizes[live])
        if not len(live):
            break

        trial_r, trial_t = _increment(rotations[live], translations[live], step[live])
        bad = rotation_defects(trial_r)[1] | ~np.isfinite(trial_t).all(axis=1)
        if bad.any():
            first = int(np.argmax(bad))
            Pose(trial_r[first], trial_t[first])  # raises the error Pose gives this trial
        live_sizes = sizes[live]
        trial_cam = camera_points(
            np.repeat(trial_r, live_sizes, axis=0), np.repeat(trial_t, live_sizes, axis=0), points
        )[:, 0]
        trial_res = _residuals(trial_cam, pixels, intrinsics)
        trial_cost = _costs(trial_res, spans)

        accepted = trial_cost <= cost[live]
        moved = np.repeat(accepted, live_sizes)[:, None]
        np.copyto(cam, trial_cam, where=moved)
        np.copyto(residual, trial_res, where=moved)
        taken = live[accepted]
        rotations[taken], translations[taken] = trial_r[accepted], trial_t[accepted]
        cost[taken] = trial_cost[accepted]
        iterations[taken] += 1
        done = short[taken] | (iterations[taken] == _MAX_ITERATIONS)
        running[taken[done]] = False
        stepped[taken[~done]] = True

        halved = live[~accepted]
        step[halved] /= 2.0
        trials[halved] += 1
        exhausted = halved[trials[halved] == _MAX_TRIALS]
        iterations[exhausted] += 1
        running[exhausted] = False

    # a failed problem keeps pose0 and its initial cost
    final_cost = np.where(failed, initial_cost, cost)
    return [
        RefineResult(
            pose0 if failed[k] else Pose(rotations[k], translations[k]),
            bool(failed[k]),
            int(iterations[k]),
            float(initial_cost[k]),
            float(final_cost[k]),
        )
        for k, (pose0, _, _) in enumerate(problems)
    ]


def refine_pose(
    pose0: Pose,
    pixels: np.ndarray,
    points: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> RefineResult:
    """Minimize total squared reprojection error starting from pose0:
    refine_poses on a batch of one."""
    (result,) = refine_poses([(pose0, pixels, points)], intrinsics)
    return result
