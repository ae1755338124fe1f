"""RANSAC estimators and Gauss-Newton refinement."""

import numpy as np
import pytest

from semloc.errors import EstimationFailedError, InsufficientDataError
from semloc.geometry import (
    Pose,
    RansacParams,
    apply_increment,
    essential_from_pose,
    ransac_essential,
    ransac_pnp,
    refine_pose,
    reprojection_residuals,
    rotation_error_deg,
    rotation_from_axis_angle,
    sampson_error,
)
from semloc.geometry.refine import _jacobian

from conftest import points_in_front, random_pose


def _pnp_scene(rng, n=60, outlier_fraction=0.3, noise=0.0):
    pose = random_pose(rng)
    points = points_in_front(rng, pose, n, depth=(1.5, 5.0), spread=1.5)
    cam = pose.transform(points)
    pixels = np.column_stack(
        [400.0 * cam[:, 0] / cam[:, 2] + 320.0, 400.0 * cam[:, 1] / cam[:, 2] + 240.0]
    )
    if noise > 0:
        pixels += rng.normal(0.0, noise, size=pixels.shape)
    n_out = int(outlier_fraction * n)
    out_idx = rng.choice(n, size=n_out, replace=False)
    pixels[out_idx] += rng.uniform(30.0, 200.0, size=(n_out, 2)) * rng.choice([-1, 1], size=(n_out, 2))
    return pose, points, pixels, np.setdiff1d(np.arange(n), out_idx)


def test_ransac_pnp_recovers_pose_with_outliers(intrinsics):
    rng = np.random.default_rng(51)
    for trial in range(10):
        pose, points, pixels, clean = _pnp_scene(rng)
        est, inliers = ransac_pnp(pixels, points, intrinsics, RansacParams(rng_seed=trial))
        assert rotation_error_deg(est.rotation, pose.rotation) < 1e-4
        assert np.linalg.norm(est.translation - pose.translation) < 1e-4
        assert set(inliers) == set(clean)


def test_ransac_pnp_deterministic(intrinsics):
    rng = np.random.default_rng(52)
    pose, points, pixels, _ = _pnp_scene(rng, noise=0.5)
    p = RansacParams(rng_seed=99)
    pose1, in1 = ransac_pnp(pixels, points, intrinsics, p)
    pose2, in2 = ransac_pnp(pixels, points, intrinsics, p)
    assert np.array_equal(pose1.rotation, pose2.rotation)
    assert np.array_equal(pose1.translation, pose2.translation)
    assert np.array_equal(in1, in2)


def test_ransac_pnp_inliers_below_threshold(intrinsics):
    rng = np.random.default_rng(53)
    pose, points, pixels, _ = _pnp_scene(rng, noise=1.0)
    params = RansacParams(rng_seed=1)
    est, inliers = ransac_pnp(pixels, points, intrinsics, params)
    cam = est.transform(points[inliers])
    proj = np.column_stack(
        [400.0 * cam[:, 0] / cam[:, 2] + 320.0, 400.0 * cam[:, 1] / cam[:, 2] + 240.0]
    )
    err = np.linalg.norm(proj - pixels[inliers], axis=1)
    assert np.all(err < params.inlier_threshold)


def test_ransac_pnp_too_few_matches(intrinsics):
    with pytest.raises(InsufficientDataError):
        ransac_pnp(np.zeros((3, 2)), np.zeros((3, 3)), intrinsics)


def test_ransac_pnp_all_outliers_fails(intrinsics):
    rng = np.random.default_rng(54)
    pixels = rng.uniform(0, 640, size=(30, 2))
    points = rng.uniform(-5, 5, size=(30, 3))
    with pytest.raises(EstimationFailedError, match="localization failed"):
        ransac_pnp(pixels, points, intrinsics, RansacParams(max_iterations=100, rng_seed=2))


def _essential_scene(rng, n=60, outlier_fraction=0.25):
    pose_a = random_pose(rng)
    rel_r = rotation_from_axis_angle(rng.normal(size=3) * 0.2)
    rel_t = rng.normal(size=3)
    rel_t /= np.linalg.norm(rel_t)
    pose_b = Pose(rel_r @ pose_a.rotation, rel_r @ pose_a.translation + rel_t)
    points = points_in_front(rng, pose_a, n, depth=(2.0, 6.0), spread=2.0)
    cam_a = pose_a.transform(points)
    cam_b = pose_b.transform(points)
    good = cam_b[:, 2] > 0.2
    xa = (cam_a[:, :2] / cam_a[:, 2:3])[good]
    xb = (cam_b[:, :2] / cam_b[:, 2:3])[good]
    m = xa.shape[0]
    n_out = int(outlier_fraction * m)
    out_idx = np.arange(m - n_out, m)
    xb[out_idx] = rng.uniform(-0.8, 0.8, size=(n_out, 2))
    e_true = essential_from_pose(pose_a, pose_b)
    return xa, xb, e_true / np.linalg.norm(e_true), np.arange(m - n_out)


def test_ransac_essential_recovers_model():
    rng = np.random.default_rng(55)
    xa, xb, e_true, clean = _essential_scene(rng)
    e, inliers = ransac_essential(xa, xb, RansacParams(1000, 5e-4, 15, rng_seed=3))
    assert abs(float(np.sum(e * e_true))) > 1.0 - 1e-6
    assert set(clean).issubset(set(inliers))
    assert np.all(sampson_error(e, xa[inliers], xb[inliers]) < 5e-4)


def test_ransac_essential_deterministic():
    rng = np.random.default_rng(56)
    xa, xb, _, _ = _essential_scene(rng)
    p = RansacParams(1000, 5e-4, 15, rng_seed=7)
    e1, in1 = ransac_essential(xa, xb, p)
    e2, in2 = ransac_essential(xa, xb, p)
    assert np.array_equal(e1, e2)
    assert np.array_equal(in1, in2)


def test_ransac_essential_failure_paths():
    with pytest.raises(InsufficientDataError):
        ransac_essential(np.zeros((4, 2)), np.zeros((4, 2)))
    rng = np.random.default_rng(57)
    xa = rng.uniform(-1, 1, size=(20, 2))
    xb = rng.uniform(-1, 1, size=(20, 2))
    with pytest.raises(EstimationFailedError, match="estimation failed"):
        ransac_essential(xa, xb, RansacParams(50, 1e-9, 15, rng_seed=4))


# ------------------------------------------------------------------ refine

def test_refine_converges_from_perturbed_pose(intrinsics):
    rng = np.random.default_rng(61)
    for _ in range(10):
        pose = random_pose(rng)
        points = points_in_front(rng, pose, 30, depth=(1.5, 4.0))
        cam = pose.transform(points)
        pixels = np.column_stack(
            [400 * cam[:, 0] / cam[:, 2] + 320, 400 * cam[:, 1] / cam[:, 2] + 240]
        )
        nudge = np.concatenate([rng.normal(0, 0.01, 3), rng.normal(0, 0.02, 3)])
        start = apply_increment(pose, nudge)
        result = refine_pose(start, pixels, points, intrinsics)
        assert not result.failed
        assert result.final_cost <= result.initial_cost
        assert rotation_error_deg(result.pose.rotation, pose.rotation) < 1e-6
        assert np.linalg.norm(result.pose.translation - pose.translation) < 1e-7


def test_refine_cost_non_increasing(intrinsics):
    rng = np.random.default_rng(62)
    pose = random_pose(rng)
    points = points_in_front(rng, pose, 20)
    cam = pose.transform(points)
    pixels = np.column_stack(
        [400 * cam[:, 0] / cam[:, 2] + 320, 400 * cam[:, 1] / cam[:, 2] + 240]
    )
    pixels += rng.normal(0, 2.0, size=pixels.shape)
    start = apply_increment(pose, np.array([0.05, -0.02, 0.01, 0.1, -0.05, 0.02]))
    result = refine_pose(start, pixels, points, intrinsics)
    assert result.final_cost <= result.initial_cost


def test_refine_degenerate_returns_pose0_with_flag(intrinsics):
    # four copies of one point: rank-deficient normal equations
    pose = Pose.identity()
    points = np.tile([0.1, 0.2, 2.0], (4, 1))
    cam = pose.transform(points)
    pixels = np.column_stack(
        [400 * cam[:, 0] / cam[:, 2] + 320, 400 * cam[:, 1] / cam[:, 2] + 240]
    )
    result = refine_pose(pose, pixels, points, intrinsics)
    assert result.failed
    assert np.array_equal(result.pose.rotation, pose.rotation)
    assert np.array_equal(result.pose.translation, pose.translation)


def test_refine_jacobian_matches_finite_differences(intrinsics):
    rng = np.random.default_rng(63)
    pose = random_pose(rng)
    points = points_in_front(rng, pose, 8)
    cam = pose.transform(points)
    pixels = np.column_stack(
        [400 * cam[:, 0] / cam[:, 2] + 320, 400 * cam[:, 1] / cam[:, 2] + 240]
    )
    pixels += rng.normal(0, 1.0, size=pixels.shape)
    analytic = _jacobian(pose, intrinsics, points)
    eps = 1e-6
    fd = np.zeros_like(analytic)
    for k in range(6):
        dp = np.zeros(6)
        dp[k] = eps
        plus = reprojection_residuals(apply_increment(pose, dp), intrinsics, points, pixels)
        minus = reprojection_residuals(apply_increment(pose, -dp), intrinsics, points, pixels)
        fd[:, k] = (plus - minus) / (2 * eps)
    denom = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(analytic - fd) / denom) < 1e-5


def test_reprojection_helpers_equal_the_per_point_formula(intrinsics):
    """Both residual helpers give the one-point formula's bits; points behind
    the camera read 1e6 per coordinate (refinement) and inf (RANSAC)."""
    from semloc.geometry.ransac import _reprojection_errors

    rng = np.random.default_rng(71)
    for _ in range(20):
        pose = random_pose(rng)
        points = np.vstack([
            points_in_front(rng, pose, 30, depth=(0.5, 6.0)),
            points_in_front(rng, pose, 5, depth=(-3.0, -0.1)),
        ])
        pixels = rng.uniform(0.0, 640.0, size=(len(points), 2))
        expected = np.full(2 * len(points), 1e6)
        distances = np.full(len(points), np.inf)
        for i, c in enumerate(pose.transform(points)):
            if c[2] <= 1e-9:
                continue
            du = intrinsics.fx * c[0] / c[2] + intrinsics.cx - pixels[i, 0]
            dv = intrinsics.fy * c[1] / c[2] + intrinsics.cy - pixels[i, 1]
            expected[2 * i : 2 * i + 2] = du, dv
            distances[i] = np.hypot(du, dv)
        residuals = reprojection_residuals(pose, intrinsics, points, pixels)
        assert np.array_equal(residuals, expected)
        assert np.array_equal(_reprojection_errors(pose, intrinsics, points, pixels), distances)
