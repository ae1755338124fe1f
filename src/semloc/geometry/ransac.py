"""Seeded RANSAC loops around the minimal pose and essential solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EstimationFailedError, InsufficientDataError, SemlocError
from .five_point import five_point_essential
from .p3p import p3p_solve
from .pose import CameraIntrinsics, Pose, project_points
from .epipolar import sampson_error

_CONFIDENCE = 0.999


@dataclass
class RansacParams:
    """Knobs shared by the robust estimators; rng_seed fixes the sample stream."""

    max_iterations: int = 500
    inlier_threshold: float = 3.0
    min_inliers: int = 12
    rng_seed: int = 0


def _iterations_needed(inlier_ratio: float, sample_size: int) -> float:
    if inlier_ratio <= 0.0:
        return np.inf
    if inlier_ratio >= 1.0:
        return 1.0
    denom = np.log1p(-(inlier_ratio**sample_size))
    if denom >= 0.0:
        return np.inf
    return np.log(1.0 - _CONFIDENCE) / denom


def _bearings(pixels: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    norm = intrinsics.normalize(pixels)
    hom = np.hstack([norm, np.ones((norm.shape[0], 1))])
    return hom / np.linalg.norm(hom, axis=1, keepdims=True)


def _reprojection_errors(
    pose: Pose, intrinsics: CameraIntrinsics, points: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Pixel distance per match; inf for points behind the camera."""
    projected, front = project_points(pose, intrinsics, points)
    errors = np.full(len(projected), np.inf)
    errors[front] = np.hypot(*(projected[front] - pixels[front]).T)
    return errors


def ransac_pnp(
    pixels: np.ndarray,
    points: np.ndarray,
    intrinsics: CameraIntrinsics,
    params: RansacParams | None = None,
) -> tuple[Pose, np.ndarray]:
    """Robust absolute pose from 2d-3d matches.

    Each iteration samples four matches: the minimal solver runs on three and
    the fourth disambiguates among its candidate poses by reprojection error.
    Returns (pose, sorted inlier index array); the reported inliers all
    reproject below params.inlier_threshold px under the returned pose.

    Raises InsufficientDataError for fewer than 4 matches and
    EstimationFailedError ("localization failed") when no model reaches
    params.min_inliers.
    """
    params = params or RansacParams()
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pixels.shape[0]
    if n < 4:
        raise InsufficientDataError("PnP needs at least 4 matches")

    bearings = _bearings(pixels, intrinsics)
    rng = np.random.default_rng(params.rng_seed)
    best_pose: Pose | None = None
    best_count = 0

    for iteration in range(params.max_iterations):
        idx = rng.choice(n, size=4, replace=False)
        try:
            solutions = p3p_solve(bearings[idx[:3]], points[idx[:3]])
        except SemlocError:
            continue
        if not solutions:
            continue
        probe_err = [
            _reprojection_errors(s, intrinsics, points[idx[3:4]], pixels[idx[3:4]])[0]
            for s in solutions
        ]
        pose = solutions[int(np.argmin(probe_err))]
        count = int(np.sum(
            _reprojection_errors(pose, intrinsics, points, pixels) < params.inlier_threshold
        ))
        if count > best_count:
            best_count = count
            best_pose = pose
            if iteration + 1 >= _iterations_needed(count / n, 4):
                break

    if best_pose is None or best_count < params.min_inliers:
        raise EstimationFailedError("localization failed")
    errors = _reprojection_errors(best_pose, intrinsics, points, pixels)
    inliers = np.flatnonzero(errors < params.inlier_threshold)
    return best_pose, inliers


def ransac_essential(
    x_a: np.ndarray,
    x_b: np.ndarray,
    params: RansacParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Robust essential matrix from normalized correspondences.

    Samples five pairs per iteration, scores candidates by their Sampson
    inlier count at params.inlier_threshold, and returns (E, inlier indices)
    for the best model found.

    Raises InsufficientDataError for fewer than 5 pairs and
    EstimationFailedError ("estimation failed") when no model reaches
    params.min_inliers.
    """
    params = params or RansacParams(max_iterations=1000, inlier_threshold=5e-4, min_inliers=15)
    xa = np.asarray(x_a, dtype=float).reshape(-1, 2)
    xb = np.asarray(x_b, dtype=float).reshape(-1, 2)
    n = xa.shape[0]
    if n < 5:
        raise InsufficientDataError("essential estimation needs at least 5 pairs")

    rng = np.random.default_rng(params.rng_seed)
    best_e: np.ndarray | None = None
    best_count = 0

    for iteration in range(params.max_iterations):
        idx = rng.choice(n, size=5, replace=False)
        try:
            candidates = five_point_essential(xa[idx], xb[idx])
        except SemlocError:
            continue
        for e in candidates:
            count = int(np.sum(sampson_error(e, xa, xb) < params.inlier_threshold))
            if count > best_count:
                best_count = count
                best_e = e
        if best_e is not None and iteration + 1 >= _iterations_needed(best_count / n, 5):
            break

    if best_e is None or best_count < params.min_inliers:
        raise EstimationFailedError("estimation failed")
    inliers = np.flatnonzero(sampson_error(best_e, xa, xb) < params.inlier_threshold)
    return best_e, inliers
