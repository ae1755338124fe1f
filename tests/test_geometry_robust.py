"""RANSAC estimators and Gauss-Newton refinement."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semloc.geometry import (
    Pose,
    RansacParams,
    essential_from_pose,
    ransac_essential,
    ransac_pnp,
    refine_pose,
    rotation_error_deg,
    rotation_from_axis_angle,
    sampson_error,
)
from semloc.geometry.refine import _camera_jacobian, _increment, _residuals
from semloc.pipelines.relative import _ESSENTIAL
from semloc.pipelines.relocalize import _PNP

from conftest import identity_pose, points_in_front, random_pose


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
        params = replace(_PNP, rng_seed=trial)
        est, inliers, reason, *_ = ransac_pnp(pixels, points, intrinsics, params)
        assert reason is None
        assert rotation_error_deg(est.rotation, pose.rotation) < 1e-4
        assert np.linalg.norm(est.translation - pose.translation) < 1e-4
        assert set(inliers) == set(clean)


def test_ransac_pnp_deterministic(intrinsics):
    rng = np.random.default_rng(52)
    pose, points, pixels, _ = _pnp_scene(rng, noise=0.5)
    p = replace(_PNP, rng_seed=99)
    pose1, in1, *_ = ransac_pnp(pixels, points, intrinsics, p)
    pose2, in2, *_ = ransac_pnp(pixels, points, intrinsics, p)
    assert np.array_equal(pose1.rotation, pose2.rotation)
    assert np.array_equal(pose1.translation, pose2.translation)
    assert np.array_equal(in1, in2)


def test_ransac_pnp_inliers_below_threshold(intrinsics):
    rng = np.random.default_rng(53)
    pose, points, pixels, _ = _pnp_scene(rng, noise=1.0)
    params = replace(_PNP, rng_seed=1)
    est, inliers, *_ = ransac_pnp(pixels, points, intrinsics, params)
    cam = est.transform(points[inliers])
    proj = np.column_stack(
        [400.0 * cam[:, 0] / cam[:, 2] + 320.0, 400.0 * cam[:, 1] / cam[:, 2] + 240.0]
    )
    err = np.linalg.norm(proj - pixels[inliers], axis=1)
    assert np.all(err < params.inlier_threshold)


def test_ransac_pnp_too_few_matches(intrinsics):
    result = ransac_pnp(np.zeros((3, 2)), np.zeros((3, 3)), intrinsics, _PNP)
    assert result.failure_reason == "insufficient matches"
    assert result.model is None and len(result.inliers) == 0


def test_ransac_pnp_all_outliers_fails(intrinsics):
    rng = np.random.default_rng(54)
    pixels = rng.uniform(0, 640, size=(30, 2))
    points = rng.uniform(-5, 5, size=(30, 3))
    result = ransac_pnp(pixels, points, intrinsics, replace(_PNP, max_iterations=100, rng_seed=2))
    assert result.failure_reason == "localization failed"
    assert result.model is None and len(result.inliers) == 0


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
    e, inliers, reason, *_ = ransac_essential(xa, xb, replace(_ESSENTIAL, rng_seed=3))
    assert reason is None
    assert abs(float(np.sum(e * e_true))) > 1.0 - 1e-6
    assert set(clean).issubset(set(inliers))
    assert np.all(sampson_error(e, xa[inliers], xb[inliers]) < 5e-4)


def test_ransac_essential_deterministic():
    rng = np.random.default_rng(56)
    xa, xb, _, _ = _essential_scene(rng)
    p = replace(_ESSENTIAL, rng_seed=7)
    e1, in1, *_ = ransac_essential(xa, xb, p)
    e2, in2, *_ = ransac_essential(xa, xb, p)
    assert np.array_equal(e1, e2)
    assert np.array_equal(in1, in2)


def test_ransac_essential_failure_paths():
    result = ransac_essential(np.zeros((4, 2)), np.zeros((4, 2)), _ESSENTIAL)
    assert result.failure_reason == "insufficient matches"
    assert result.model is None and len(result.inliers) == 0
    rng = np.random.default_rng(57)
    xa = rng.uniform(-1, 1, size=(20, 2))
    xb = rng.uniform(-1, 1, size=(20, 2))
    result = ransac_essential(xa, xb, RansacParams(50, 1e-9, 15, rng_seed=4))
    assert result.failure_reason == "estimation failed"
    assert result.model is None and len(result.inliers) == 0


def _reference_ransac_essential(x_a, x_b, params):
    """(E, inliers, failure reason, best inlier count, iterations run,
    coincident samples) of the one-sample-per-iteration loop, calling
    five_point_essential on a stack of one per sample and skipping a sample
    whose five pairs coincide in both views, which five-point cannot solve;
    E and inliers are None where it fails."""
    from semloc.geometry import five_point_essential
    from semloc.geometry.ransac import _iterations_needed

    xa = np.asarray(x_a, dtype=float).reshape(-1, 2)
    xb = np.asarray(x_b, dtype=float).reshape(-1, 2)
    n = xa.shape[0]
    if n < 5:
        return None, None, "insufficient matches", 0, 0, 0

    rng = np.random.default_rng(params.rng_seed)
    best_e = None
    best_count = coincident = 0
    iteration = -1
    for iteration in range(params.max_iterations):
        idx = rng.choice(n, size=5, replace=False)
        if np.ptp(xa[idx], axis=0).max() < 1e-12 and np.ptp(xb[idx], axis=0).max() < 1e-12:
            coincident += 1
            continue
        _, candidates = five_point_essential(xa[idx][None], xb[idx][None])
        for e in candidates:
            count = int(np.sum(sampson_error(e, xa, xb) < params.inlier_threshold))
            if count > best_count:
                best_count = count
                best_e = e
        if best_e is not None and iteration + 1 >= _iterations_needed(best_count / n, 5):
            break

    if best_e is None or best_count < params.min_inliers:
        return None, None, "estimation failed", best_count, iteration + 1, coincident
    inliers = np.flatnonzero(sampson_error(best_e, xa, xb) < params.inlier_threshold)
    return best_e, inliers, None, best_count, iteration + 1, coincident


def test_chunked_ransac_essential_equals_the_reference_loop():
    """E bits, inliers and failures of the chunked driver equal the
    per-iteration loop's on problems with outliers, the 1000-iteration cap, a
    min_inliers failure, fewer than 5 pairs and duplicate pairs whose samples
    coincide."""
    rng = np.random.default_rng(58)
    seen = {"cap": 0, "coincident": 0, "too few inliers": 0, "too few pairs": 0, "solved": 0}
    problems = [(60, 0.25), (24, 0.5), (40, 0.75), (30, 0.2), (8, 0.0), (50, 0.4)]
    for trial, (n, outliers) in enumerate(problems):
        xa, xb, _, _ = _essential_scene(rng, n=n, outlier_fraction=outliers)
        if trial % 2:
            xa[: len(xa) // 2], xb[: len(xb) // 2] = xa[0], xb[0]  # duplicate pairs
        for rows in (len(xa), 4):
            params = replace(_ESSENTIAL, rng_seed=trial)
            e_ref, in_ref, reason_ref, best_count, iterations, coincident = (
                _reference_ransac_essential(xa[:rows], xb[:rows], params)
            )
            seen["cap"] += iterations == params.max_iterations
            seen["coincident"] += coincident > 0
            seen["too few pairs"] += reason_ref == "insufficient matches"
            seen["too few inliers"] += reason_ref == "estimation failed" and best_count > 0
            seen["solved"] += reason_ref is None
            e, inliers, reason, *_ = ransac_essential(xa[:rows], xb[:rows], params)
            assert reason == reason_ref
            if reason is None:
                assert np.array_equal(e, e_ref)
                assert np.array_equal(inliers, in_ref)
            else:
                assert e is None and len(inliers) == 0
    assert all(seen.values()), seen


def _five_point_stack(rng, count):
    """Samples from exact ones to pure outliers, with noisy, coincident,
    partly repeated and axis-aligned ones (whose elimination is singular)
    mixed in."""
    x_a, x_b = [], []
    while len(x_a) < count:
        xa, xb, _, _ = _essential_scene(rng, n=8, outlier_fraction=0.0)
        if len(xa) < 5:
            continue
        xa, xb = xa[:5], xb[:5]
        kind = len(x_a) % 6
        if kind == 1:
            xb = xb + rng.normal(scale=0.01, size=(5, 2))
        elif kind == 2:
            xb = rng.uniform(-0.8, 0.8, size=(5, 2))
        elif kind == 3:
            xa[:], xb[:] = xa[0], xb[0]
        elif kind == 4:
            xa[3:], xb[3:] = xa[0], xb[0]
        elif kind == 5:
            xa[:, 1] = xb[:, 1] = 0.0
        x_a.append(xa)
        x_b.append(xb)
    return np.array(x_a), np.array(x_b)


def _essentials_by_sample(solution, count):
    owner, essentials = solution
    assert np.all(np.diff(owner) >= 0)
    return [essentials[owner == k] for k in range(count)]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_five_point_rows_are_the_same_alone_and_in_any_stack(data):
    """A sample's candidates are bitwise the same alone and anywhere in a
    random stack of exact, noisy, outlier and degenerate samples, repeats
    included."""
    from semloc.geometry import five_point_essential

    x_a, x_b = _five_point_stack(
        np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
        data.draw(st.integers(1, 30)),
    )
    order = data.draw(st.lists(st.integers(0, len(x_a) - 1), min_size=1, max_size=60))
    stacked = _essentials_by_sample(five_point_essential(x_a[order], x_b[order]), len(order))
    alone = _essentials_by_sample(five_point_essential(x_a, x_b), len(x_a))
    for k, rows in zip(order, stacked):
        single = five_point_essential(x_a[k : k + 1], x_b[k : k + 1])[1]
        assert np.array_equal(rows, single)
        assert np.array_equal(rows, alone[k])


def test_an_essential_round_counts_as_sampson_error_does_per_candidate():
    """One round's stacked Sampson scoring gives each sample the count and
    the model of a loop that calls sampson_error on each candidate alone
    and keeps the first of the highest; a coincident sample is left out and
    one without candidates counts 0."""
    from semloc.geometry import five_point_essential
    from semloc.geometry.ransac import _EssentialSearch

    rng = np.random.default_rng(59)
    seen = {"coincident": 0, "no candidate": 0, "scored": 0}
    for trial, outliers in enumerate([0.0, 0.3, 0.6, 0.9]):
        xa, xb, _, _ = _essential_scene(rng, n=30, outlier_fraction=outliers)
        xa[:12], xb[:12] = xa[0], xb[0]  # repeated pairs make coincident samples
        # five pairs at the principal point in view a and on the x axis in
        # view b leave five-point a singular elimination: no candidate
        xa[12:17], xb[12:17] = 0.0, [[-0.4, 0.0], [-0.1, 0.0], [0.0, 0.0], [0.2, 0.0], [0.5, 0.0]]
        search = _EssentialSearch(xa, xb, replace(_ESSENTIAL, rng_seed=trial))
        samples = np.array([rng.choice(len(xa), size=5, replace=False) for _ in range(300)])
        samples = np.vstack([samples, np.arange(12, 17)])
        owner, essentials = five_point_essential(xa[samples], xb[samples])
        stacked = sampson_error(essentials, xa, xb)
        expected = []
        for i, idx in enumerate(samples):
            if np.ptp(xa[idx], axis=0).max() < 1e-12 and np.ptp(xb[idx], axis=0).max() < 1e-12:
                seen["coincident"] += 1
                continue
            candidates = essentials[owner == i]
            errors = [sampson_error(e, xa, xb) for e in candidates]
            for single, row in zip(errors, stacked[owner == i]):
                assert np.array_equal(single, row)
            counts = [int(np.sum(err < _ESSENTIAL.inlier_threshold)) for err in errors]
            if not counts:
                seen["no candidate"] += 1
                expected.append((i, 0, None))
                continue
            seen["scored"] += 1
            k = int(np.argmax(counts))
            expected.append((i, counts[k], candidates[k]))
        scored = search.score(samples, owner, essentials)
        assert [(i, count) for i, count, _ in scored] == [(i, count) for i, count, _ in expected]
        for (_, _, model), (_, _, reference) in zip(scored, expected):
            assert (model is None and reference is None) or np.array_equal(model, reference)
    assert all(seen.values()), seen


def _assert_counters(result, rows: int, sample_size: int, params: RansacParams):
    """A result's counters: it walks no more samples than it draws, and draws
    none exactly when too few rows for a sample or for min_inliers stop it
    (no_model); at the cap it has drawn and walked max_iterations."""
    drawn, walked, stop = result[3:]
    assert 0 <= walked <= drawn <= params.max_iterations
    assert stop in ("converged", "cap", "no_model")
    assert (stop == "no_model") == (drawn == 0) == (rows < max(sample_size, params.min_inliers))
    if stop == "cap":
        assert walked == drawn == params.max_iterations


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_estimators_return_a_result_and_never_raise(data):
    """On finite inputs of 0-40 rows, scenes with outliers or pure noise, with
    duplicated rows, both estimators return a result: a named failure with
    no model and no inliers, or a model whose inliers all lie below the
    threshold under it, and counters that agree with each other."""
    from semloc.geometry import CameraIntrinsics

    intrinsics = CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(0, 40), label="rows")
    duplicates = data.draw(st.integers(0, n), label="duplicates")
    outliers = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]), label="outliers")
    params = replace(
        _PNP,
        max_iterations=data.draw(st.integers(1, 60), label="max_iterations"),
        min_inliers=data.draw(st.integers(0, 15), label="min_inliers"),
        rng_seed=int(rng.integers(1000)),
    )

    _, points, pixels, _ = _pnp_scene(rng, n=n, outlier_fraction=outliers, noise=0.5)
    points[:duplicates], pixels[:duplicates] = points[-1:], pixels[-1:]
    result = ransac_pnp(pixels, points, intrinsics, params)
    _assert_counters(result, n, 4, params)
    pose, inliers, reason = result[:3]
    assert reason in (None, "insufficient matches", "localization failed")
    assert (reason == "insufficient matches") == (n < 4)
    if reason is None:
        cam = pose.transform(points[inliers])
        assert np.all(cam[:, 2] > 1e-9)
        errors = np.hypot(
            intrinsics.fx * cam[:, 0] / cam[:, 2] + intrinsics.cx - pixels[inliers, 0],
            intrinsics.fy * cam[:, 1] / cam[:, 2] + intrinsics.cy - pixels[inliers, 1],
        )
        assert np.all(errors < params.inlier_threshold)
    else:
        assert pose is None and len(inliers) == 0

    xa, xb, _, _ = _essential_scene(rng, n=n, outlier_fraction=outliers)
    rows = len(xa)
    xa[: min(duplicates, rows)], xb[: min(duplicates, rows)] = xa[-1:], xb[-1:]
    params = RansacParams(params.max_iterations, 5e-4, params.min_inliers, params.rng_seed)
    result = ransac_essential(xa, xb, params)
    _assert_counters(result, rows, 5, params)
    e, inliers, reason = result[:3]
    assert reason in (None, "insufficient matches", "estimation failed")
    assert (reason == "insufficient matches") == (rows < 5)
    if reason is None:
        assert np.all(sampson_error(e, xa, xb)[inliers] < params.inlier_threshold)
    else:
        assert e is None and len(inliers) == 0


# ------------------------------------------------------------------ refine

# the kernels refine_poses runs, on one pose


def _stepped(pose, delta):
    """pose with a (dtheta, dt) increment composed on its left."""
    return Pose(*_increment(pose.rotation, pose.translation, delta))


def _residual_vector(pose, intrinsics, points, pixels):
    """Stacked (2n,) pixel residuals at a pose; 1e6 behind the camera."""
    return _residuals(pose.transform(points), pixels, intrinsics).reshape(-1)


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
        start = _stepped(pose, nudge)
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
    start = _stepped(pose, np.array([0.05, -0.02, 0.01, 0.1, -0.05, 0.02]))
    result = refine_pose(start, pixels, points, intrinsics)
    assert result.final_cost <= result.initial_cost


def test_refine_degenerate_returns_pose0_with_flag(intrinsics):
    # four copies of one point: rank-deficient normal equations
    pose = identity_pose()
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
    analytic = _camera_jacobian(pose.transform(points), intrinsics)
    eps = 1e-6
    fd = np.zeros_like(analytic)
    for k in range(6):
        dp = np.zeros(6)
        dp[k] = eps
        plus = _residual_vector(_stepped(pose, dp), intrinsics, points, pixels)
        minus = _residual_vector(_stepped(pose, -dp), intrinsics, points, pixels)
        fd[:, k] = (plus - minus) / (2 * eps)
    denom = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(analytic - fd) / denom) < 1e-5


def test_reprojection_helpers_equal_the_per_point_formula(intrinsics):
    """Both residual helpers give the one-point formula's bits; points behind
    the camera read 1e6 per coordinate (refinement) and inf (every inlier
    count)."""
    from semloc.geometry import reprojection_errors

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
        residuals = _residual_vector(pose, intrinsics, points, pixels)
        assert np.array_equal(residuals, expected)
        assert np.array_equal(
            reprojection_errors(pose.rotation, pose.translation, intrinsics, points, pixels),
            distances,
        )


def test_refine_jacobian_equals_the_per_point_formula(intrinsics):
    """The stacked Jacobian gives the per-point product's bits; rows of
    points behind the camera stay zero."""
    from semloc.geometry.pose import skew

    rng = np.random.default_rng(72)
    for _ in range(20):
        pose = random_pose(rng)
        points = np.vstack([
            points_in_front(rng, pose, 30, depth=(0.5, 6.0)),
            points_in_front(rng, pose, 5, depth=(-3.0, -0.1)),
        ])
        expected = np.zeros((2 * len(points), 6))
        for i, c in enumerate(pose.transform(points)):
            if c[2] <= 1e-9:
                continue
            x, y, z = c
            d_proj = np.array(
                [
                    [intrinsics.fx / z, 0.0, -intrinsics.fx * x / (z * z)],
                    [0.0, intrinsics.fy / z, -intrinsics.fy * y / (z * z)],
                ]
            )
            expected[2 * i : 2 * i + 2] = d_proj @ np.hstack([-skew(c), np.eye(3)])
        assert np.array_equal(_camera_jacobian(pose.transform(points), intrinsics), expected)


# ---------------------------------------------- lockstep refinement, reference loop
#
# The one-problem Gauss-Newton loop, written out plainly as the reference:
# refine_poses must give its bits for every problem, alone and in any batch.

def _reference_refine_pose(pose0, pixels, points, intrinsics):
    """(RefineResult, why it stopped) of the one-problem loop, at the
    module's singular-system bound."""
    from semloc.geometry import RefineResult
    from semloc.geometry import refine as refine_module

    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    singular_cond = refine_module._SINGULAR_COND
    pose = pose0
    residual = _residual_vector(pose, intrinsics, points, pixels)
    cost = float(residual @ residual)
    initial_cost = cost
    for iteration in range(20):
        jac = _camera_jacobian(pose.transform(points), intrinsics)
        normal = jac.T @ jac
        rhs = -jac.T @ residual
        if not np.all(np.isfinite(normal)) or np.linalg.cond(normal) > singular_cond:
            return RefineResult(pose0, True, iteration, initial_cost, initial_cost), "singular"
        delta = np.linalg.solve(normal, rhs)
        step = delta
        accepted = False
        for _ in range(9):
            trial = _stepped(pose, step)
            trial_res = _residual_vector(trial, intrinsics, points, pixels)
            trial_cost = float(trial_res @ trial_res)
            if trial_cost <= cost:
                pose, residual, cost = trial, trial_res, trial_cost
                accepted = True
                break
            step = step / 2.0
        if not accepted:
            return RefineResult(pose, False, iteration + 1, initial_cost, cost), "halved out"
        if np.linalg.norm(delta) < 1e-10:
            return RefineResult(pose, False, iteration + 1, initial_cost, cost), "short step"
    return RefineResult(pose, False, 20, initial_cost, cost), "iteration cap"


def _refine_problem(rng, intrinsics, kind):
    """(pose0, pixels, points) of one kind: 'four copies' of one point (a
    rank-deficient system), 'exact' pixels, or 'noisy' pixels with outliers
    and points behind the camera; the start is a perturbed true pose."""
    pose = random_pose(rng)
    if kind == "four copies":
        points = np.tile(points_in_front(rng, pose, 1), (4, 1))
    else:
        points = np.vstack([
            points_in_front(rng, pose, int(rng.integers(6, 50)), depth=(0.5, 6.0)),
            points_in_front(rng, pose, int(rng.integers(0, 4)), depth=(-3.0, -0.1)),
        ])
    cam = pose.transform(points)
    with np.errstate(divide="ignore", invalid="ignore"):
        pixels = intrinsics.pixels(cam)
    behind = cam[:, 2] <= 0.0
    pixels[behind] = rng.uniform(0.0, 480.0, size=(int(behind.sum()), 2))
    if kind == "noisy":
        pixels += rng.normal(0.0, rng.uniform(0.1, 3.0), size=pixels.shape)
        outliers = rng.random(len(points)) < 0.2
        pixels[outliers] += rng.uniform(-150.0, 150.0, size=(int(outliers.sum()), 2))
    scale = rng.choice([0.0, 0.01, 0.1, 0.5])
    start = _stepped(pose, rng.normal(0.0, scale, 6))
    return start, pixels, points


def _same_refinement(result, reference):
    return (
        np.array_equal(result.pose.rotation, reference.pose.rotation)
        and np.array_equal(result.pose.translation, reference.pose.translation)
        and (result.failed, result.iterations) == (reference.failed, reference.iterations)
        and (result.initial_cost, result.final_cost)
        == (reference.initial_cost, reference.final_cost)
    )


@pytest.mark.parametrize("singular_cond", [1e12, 150.0], ids=["module-bound", "tight-bound"])
def test_refine_poses_equals_the_reference_loop(intrinsics, monkeypatch, singular_cond):
    """A batch's results are the reference loop's bits.  At the module's
    singular-system bound the problems reach each of the loop's four stops;
    with the bound cut to 150, some fail after accepted steps and keep pose0
    and their initial cost."""
    from semloc.geometry import refine as refine_module
    from semloc.geometry import refine_poses

    monkeypatch.setattr(refine_module, "_SINGULAR_COND", singular_cond)
    rng = np.random.default_rng(77)
    kinds = ["exact", "noisy", "noisy", "four copies"] * 30
    problems = [_refine_problem(rng, intrinsics, kind) for kind in kinds]
    references = [_reference_refine_pose(*problem, intrinsics) for problem in problems]
    for result, (reference, _) in zip(refine_poses(problems, intrinsics), references):
        assert _same_refinement(result, reference)
    stops = {stop for _, stop in references}
    if singular_cond == 1e12:
        assert stops == {"singular", "halved out", "short step", "iteration cap"}, stops
    else:
        assert any(r.failed and r.iterations > 0 for r, _ in references)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_refine_poses_gives_each_problem_its_reference_bits_in_any_batch(data):
    """Each problem's refinement is bitwise the reference loop's alone and
    anywhere in a batch of 1-6 drawn problems, repeats included."""
    from semloc.geometry import CameraIntrinsics, refine_poses

    intrinsics = CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = data.draw(
        st.lists(st.sampled_from(["exact", "noisy", "four copies"]), min_size=1, max_size=6)
    )
    problems = [_refine_problem(rng, intrinsics, kind) for kind in kinds]
    references = [_reference_refine_pose(*problem, intrinsics)[0] for problem in problems]
    order = data.draw(st.lists(st.integers(0, len(problems) - 1), min_size=1, max_size=6))
    batch = refine_poses([problems[k] for k in order], intrinsics)
    for k, result in zip(order, batch):
        assert _same_refinement(result, references[k])
    for problem, reference in zip(problems, references):
        (alone,) = refine_poses([problem], intrinsics)
        assert _same_refinement(alone, reference)


def test_refine_poses_raises_where_pose_rejects_a_trial(intrinsics, monkeypatch):
    """With Pose's orthonormality tolerance cut to zero, a trial rotation fails
    it, and the batch raises the error the reference's Pose raises."""
    import pytest

    from semloc.errors import DegenerateGeometryError
    from semloc.geometry import pose as pose_module
    from semloc.geometry import refine_poses

    rng = np.random.default_rng(78)
    problems = [_refine_problem(rng, intrinsics, "noisy") for _ in range(4)]
    monkeypatch.setattr(pose_module, "_ORTHONORMAL_TOL", 0.0)
    with pytest.raises(DegenerateGeometryError) as expected:
        _reference_refine_pose(*problems[0], intrinsics)
    with pytest.raises(DegenerateGeometryError) as raised:
        refine_poses(problems, intrinsics)
    assert str(raised.value) == str(expected.value)


# ------------------------------------------------- batched P3P, reference loops
#
# A single-instance Grunert P3P solver and a one-sample-per-iteration RANSAC
# loop, written out plainly as references.  The Lambda Twist kernel must find
# the reference's poses to within _REFERENCE_TOL, and its rows for one
# instance must be bitwise the same alone and in any stack; the chunked loop
# must reproduce the reference loop, which solves one sample at a time with
# the same kernel, bit for bit.

# The kernel and the reference both align every bearing to within 1e-6 rad,
# and solver soundness bounds the pose error at 1e-6; the two solvers agree
# to about 1e-10 on the stacks below.
_REFERENCE_TOL = 1e-6


def _reference_kabsch(world, camera):
    wc = world.mean(axis=0)
    cc = camera.mean(axis=0)
    h = (world - wc).T @ (camera - cc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return Pose(r, cc - r @ wc)


def _reference_polish_pose(pose, bearings, points, steps=2):
    from semloc.geometry.pose import skew

    for _ in range(steps):
        cam = pose.transform(points)
        norms = np.linalg.norm(cam, axis=1)
        unit = cam / norms[:, None]
        residual = np.cross(bearings, unit).reshape(-1)
        jac = np.empty((3 * len(points), 6))
        for i in range(len(points)):
            d_unit = (np.eye(3) - np.outer(unit[i], unit[i])) / norms[i]
            d_cam = np.hstack([-skew(cam[i]), np.eye(3)])
            jac[3 * i : 3 * i + 3] = skew(bearings[i]) @ d_unit @ d_cam
        delta, *_ = np.linalg.lstsq(jac, -residual, rcond=None)
        if not np.all(np.isfinite(delta)):
            break
        rot = rotation_from_axis_angle(delta[:3])
        pose = Pose(rot @ pose.rotation, rot @ pose.translation + delta[3:])
        if np.linalg.norm(delta) < 1e-14:
            break
    return pose


def _reference_max_bearing_angle(pose, bearings, points):
    cam = pose.transform(points)
    unit = cam / np.linalg.norm(cam, axis=1)[:, None]
    if np.any(np.einsum("ij,ij->i", bearings, unit) <= 0.0):
        return np.pi
    sines = np.linalg.norm(np.cross(bearings, unit), axis=1)
    return float(np.max(np.arcsin(np.clip(sines, 0.0, 1.0))))


def _reference_real_roots(coeffs):
    from numpy.polynomial import polynomial as npoly

    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return []
    c = coeffs / scale
    while len(c) > 1 and abs(c[-1]) < 1e-13:
        c = c[:-1]
    if len(c) <= 1:
        return []
    deriv = npoly.polyder(c)
    out = []
    for root in npoly.polyroots(c):
        if abs(root.imag) > 1e-6 * max(1.0, abs(root.real)):
            continue
        v = float(root.real)
        for _ in range(3):
            dv = npoly.polyval(v, deriv)
            if abs(dv) < 1e-14:
                break
            v = v - npoly.polyval(v, c) / dv
        if not any(abs(v - prev) < 1e-10 * max(1.0, abs(v)) for prev in out):
            out.append(v)
    return out


def _reference_degenerate(points):
    """Whether the three world points are collinear or duplicate."""
    area = 0.5 * np.linalg.norm(np.cross(points[1] - points[0], points[2] - points[0]))
    return area <= 1e-9 or float(np.dot(points[0] - points[2], points[0] - points[2])) < 1e-18


def _reference_p3p_solve(bearings, points):
    from numpy.polynomial import polynomial as npoly

    from semloc.errors import DegenerateGeometryError

    if _reference_degenerate(points):
        raise DegenerateGeometryError("world points are collinear or duplicate")
    f1, f2, f3 = bearings / np.linalg.norm(bearings, axis=1, keepdims=True)
    p1, p2, p3 = points
    a2 = float(np.dot(p2 - p3, p2 - p3))
    b2 = float(np.dot(p1 - p3, p1 - p3))
    c2 = float(np.dot(p1 - p2, p1 - p2))
    cos_a, cos_b, cos_c = float(np.dot(f2, f3)), float(np.dot(f1, f3)), float(np.dot(f1, f2))
    a_r, c_r, d_r = a2 / b2, c2 / b2, (a2 - c2) / b2
    q = np.array([1.0, -2.0 * cos_b, 1.0])
    n = np.array([d_r + 1.0, -2.0 * d_r * cos_b, d_r - 1.0])
    d = np.array([2.0 * cos_c, -2.0 * cos_a])
    dd = npoly.polymul(d, d)
    quartic = npoly.polyadd(dd, npoly.polymul(n, n))
    quartic = npoly.polyadd(quartic, -2.0 * cos_c * npoly.polymul(n, d))
    quartic = npoly.polyadd(quartic, -c_r * npoly.polymul(q, dd))

    def residuals(u, v, qv):
        return (
            u * u + v * v - 2.0 * u * v * cos_a - a_r * qv,
            1.0 + u * u - 2.0 * u * cos_c - c_r * qv,
        )

    def violated(u, v, qv):
        res1, res2 = residuals(u, v, qv)
        return abs(res1) > 1e-6 * (1.0 + a_r) or abs(res2) > 1e-6 * (1.0 + c_r)

    def newton(u, v):
        for _ in range(3):
            dq = 2.0 * v - 2.0 * cos_b
            jac = np.array(
                [
                    [2.0 * u - 2.0 * v * cos_a, 2.0 * v - 2.0 * u * cos_a - a_r * dq],
                    [2.0 * u - 2.0 * cos_c, -c_r * dq],
                ]
            )
            try:
                du, dv = np.linalg.solve(
                    jac, -np.array(residuals(u, v, float(npoly.polyval(v, q))))
                )
            except np.linalg.LinAlgError:
                break
            u, v = u + float(du), v + float(dv)
        return u, v

    bearing_rows = np.vstack([f1, f2, f3])
    poses = []
    for root in _reference_real_roots(np.asarray(quartic, dtype=float)):
        if root <= 0.0:
            continue
        qv = float(npoly.polyval(root, q))
        if qv <= 1e-15:
            continue
        dv = float(npoly.polyval(root, d))
        if abs(dv) > 1e-10:
            u_candidates = [float(npoly.polyval(root, n)) / dv]
        else:
            disc = cos_c * cos_c - (1.0 - c_r * qv)
            if disc < 0.0:
                continue
            u_candidates = [cos_c + np.sqrt(disc), cos_c - np.sqrt(disc)]
        for u in u_candidates:
            if u <= 0.0:
                continue
            v, q_v = root, qv
            if violated(u, v, q_v):
                u, v = newton(u, v)
                q_v = float(npoly.polyval(v, q))
                if not (u > 0.0 and v > 0.0 and q_v > 1e-15) or violated(u, v, q_v):
                    continue
            s1 = np.sqrt(b2 / q_v)
            cam = np.vstack([s1 * f1, (u * s1) * f2, (v * s1) * f3])
            pose = _reference_polish_pose(_reference_kabsch(points, cam), bearing_rows, points)
            if _reference_max_bearing_angle(pose, bearing_rows, points) > 1e-6:
                continue
            duplicate = any(
                np.abs(pose.rotation - p.rotation).max() < 1e-6
                and np.abs(pose.translation - p.translation).max()
                < 1e-6 * (1.0 + np.abs(p.translation).max())
                for p in poses
            )
            if not duplicate:
                poses.append(pose)
    return poses


def _reference_ransac_pnp(pixels, points, intrinsics, params, every_sample=True):
    """The one-sample-per-iteration loop, solving each sample alone with
    p3p_solve.  Returns (pose, inliers, best inlier count, iterations run,
    degenerate samples, whether the stop held at a sample that did not raise
    the best); pose and inliers are None where ransac_pnp fails with
    "localization failed".  It draws nothing below params.min_inliers
    matches.  The stop is tested when the best count rises and, with
    every_sample, after every solved sample once the best count reaches
    params.min_inliers; without it, only when the best count rises."""
    from semloc.geometry import p3p_solve, reprojection_errors
    from semloc.geometry.ransac import _bearings, _iterations_needed

    def errors(pose, points, pixels):
        return reprojection_errors(pose.rotation, pose.translation, intrinsics, points, pixels)

    n = len(pixels)
    if n < params.min_inliers:
        return None, None, 0, 0, 0, False
    bearings = _bearings(pixels, intrinsics)
    rng = np.random.default_rng(params.rng_seed)
    best_pose, best_count, degenerate, still = None, 0, 0, False
    iteration = -1
    for iteration in range(params.max_iterations):
        idx = rng.choice(n, size=4, replace=False)
        if _reference_degenerate(points[idx[:3]]):
            degenerate += 1
            continue
        _, rotations, translations = p3p_solve(bearings[idx[:3]][None], points[idx[:3]][None])
        solutions = [Pose(r, t) for r, t in zip(rotations, translations)]
        if not solutions:
            continue
        probe_err = [
            errors(s, points[idx[3:4]], pixels[idx[3:4]])[0]
            for s in solutions
        ]
        pose = solutions[int(np.argmin(probe_err))]
        count = int(np.sum(errors(pose, points, pixels) < params.inlier_threshold))
        still = count <= best_count
        if not still:
            best_count, best_pose = count, pose
        elif not every_sample or best_count < params.min_inliers:
            continue
        if iteration + 1 >= _iterations_needed(best_count / n, 4):
            break
    else:
        still = False
    if best_pose is None or best_count < params.min_inliers:
        return None, None, best_count, iteration + 1, degenerate, still
    inliers = np.flatnonzero(errors(best_pose, points, pixels) < params.inlier_threshold)
    return best_pose, inliers, best_count, iteration + 1, degenerate, still


def _rows_by_instance(solution, count):
    """p3p_solve's (owner, rotations, translations) as one list of
    (rotation, translation) rows per instance."""
    owner, rotations, translations = solution
    assert np.all(np.diff(owner) >= 0)
    return [list(zip(rotations[owner == k], translations[owner == k])) for k in range(count)]


def _same_rows(rows, other):
    return len(rows) == len(other) and all(
        np.array_equal(r, r2) and np.array_equal(t, t2) for (r, t), (r2, t2) in zip(rows, other)
    )


def _close_to_reference(rows, reference):
    """The same number of poses, each reference pose within _REFERENCE_TOL of
    a row (rotation entries, and translation relative to its size)."""
    return len(rows) == len(reference) and all(
        any(
            np.abs(r - p.rotation).max() < _REFERENCE_TOL
            and np.abs(t - p.translation).max()
            < _REFERENCE_TOL * (1.0 + np.abs(p.translation).max())
            for r, t in rows
        )
        for p in reference
    )


def _p3p_stack(rng, count):
    """Instances from exact ones to pure outliers, with collinear and
    duplicate world points mixed in."""
    bearings, points = [], []
    for i in range(count):
        pose = random_pose(rng)
        world = points_in_front(rng, pose, 3, depth=(1.0, 4.0))
        cam = pose.transform(world)
        if i % 5 == 1:
            cam = cam + rng.normal(scale=0.3, size=(3, 3))
        elif i % 5 == 2:
            cam = np.column_stack([rng.normal(size=(3, 2)), rng.uniform(0.5, 2.0, 3)])
        elif i % 5 == 3:
            world[2] = world[0] if i % 2 else world[0] + 2.0 * (world[1] - world[0])
        bearings.append(cam / np.linalg.norm(cam, axis=1, keepdims=True))
        points.append(world)
    return np.array(bearings), np.array(points)


def test_stacked_p3p_rows_equal_single_and_reference_solves():
    from semloc.errors import DegenerateGeometryError
    from semloc.geometry import p3p_solve

    rng = np.random.default_rng(73)
    bearings, points = _p3p_stack(rng, 400)
    # instance 7107 of the solver-soundness sweep, next to a near-double root
    near_double = Pose(
        np.array(
            [
                [0.6130440545188336, 0.33358735456209965, 0.7161679021677593],
                [0.44067798647363976, 0.6079868885527644, -0.6604202113695998],
                [-0.655728525730464, 0.7204661131685435, 0.2257181435311827],
            ]
        ),
        np.array([0.2998812072851287, 0.4129646000371896, -0.782161213774792]),
    )
    world = np.array(
        [
            [-1.6884455265367453, 1.7927781295134562, 0.8561827394301129],
            [-2.3076603562919518, 0.33136373028639676, 0.4604584490134804],
            [-1.6473504492266977, 2.347308533710959, 0.8245151283681007],
        ]
    )
    cam = near_double.transform(world)
    bearings = np.concatenate([bearings, (cam / np.linalg.norm(cam, axis=1, keepdims=True))[None]])
    points = np.concatenate([points, world[None]])

    stacked = _rows_by_instance(p3p_solve(bearings, points), len(bearings))
    skipped = 0
    for rows, b, p in zip(stacked, bearings, points):
        assert _same_rows(_rows_by_instance(p3p_solve(b[None], p[None]), 1)[0], rows)
        try:
            reference = _reference_p3p_solve(b, p)
        except DegenerateGeometryError:
            skipped += 1
            assert rows == []
            continue
        assert _close_to_reference(rows, reference)
    assert skipped > 0 and len(stacked[-1]) > 0


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_p3p_rows_are_the_same_alone_and_in_any_stack(data):
    """An instance's rows are bitwise the same alone and anywhere in a
    random stack of exact, noisy, outlier and degenerate instances, repeats
    included."""
    from semloc.geometry import p3p_solve

    bearings, points = _p3p_stack(
        np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
        data.draw(st.integers(1, 30)),
    )
    order = data.draw(st.lists(st.integers(0, len(bearings) - 1), min_size=1, max_size=60))
    stacked = _rows_by_instance(p3p_solve(bearings[order], points[order]), len(order))
    alone = _rows_by_instance(p3p_solve(bearings, points), len(bearings))
    for k, rows in zip(order, stacked):
        single = p3p_solve(bearings[k : k + 1], points[k : k + 1])
        assert _same_rows(rows, _rows_by_instance(single, 1)[0])
        assert _same_rows(rows, alone[k])


def test_a_rotation_pose_rejects_aborts_its_instance(monkeypatch):
    """With Pose's orthonormality tolerance cut to a few ulps, some candidate
    rotations fail it: their instances own no rows, the others keep every
    row bitwise, alone or stacked, and agree with the reference solve."""
    from semloc.errors import DegenerateGeometryError
    from semloc.geometry import p3p_solve
    from semloc.geometry import pose as pose_module

    bearings, points = _p3p_stack(np.random.default_rng(75), 200)
    loose = _rows_by_instance(p3p_solve(bearings, points), len(bearings))
    monkeypatch.setattr(pose_module, "_ORTHONORMAL_TOL", 6.7e-16)
    stacked = _rows_by_instance(p3p_solve(bearings, points), len(bearings))
    outcomes = {"aborted": 0, "solved": 0, "reference agrees": 0}
    for rows, loose_rows, b, p in zip(stacked, loose, bearings, points):
        assert _same_rows(_rows_by_instance(p3p_solve(b[None], p[None]), 1)[0], rows)
        if loose_rows and not rows:
            outcomes["aborted"] += 1
            continue
        assert _same_rows(rows, loose_rows)
        # a row Pose rejects would have aborted its instance
        assert not any(pose_module.rotation_defects(r)[1] for r, _ in rows)
        if rows:
            outcomes["solved"] += 1
            try:
                reference = _reference_p3p_solve(b, p)
            except DegenerateGeometryError:
                continue
            assert _close_to_reference(rows, reference)
            outcomes["reference agrees"] += 1
    assert all(outcomes.values()), outcomes


def _samples_drawn(walked: int, cap: int) -> int:
    """The samples a problem draws to walk `walked` of them: its chunks of 4,
    6, 9, 13, ... through the one that holds the last, up to the cap."""
    drawn, chunk = 0, 4
    while drawn < walked:
        drawn, chunk = min(cap, drawn + chunk), chunk + chunk // 2
    return drawn


def test_chunked_ransac_pnp_equals_the_reference_loop(intrinsics):
    """Pose bits, inliers, failures, samples walked and drawn of the chunked
    loop equal the per-iteration loop's on problems with outliers, collinear
    and duplicate samples, the 500-iteration cap, a min_inliers failure and a
    stop at a sample that does not raise the best."""
    rng = np.random.default_rng(74)
    seen = {"cap": 0, "degenerate": 0, "too few inliers": 0, "solved": 0, "still stop": 0}
    problems = [(60, 0.3), (40, 0.6), (25, 0.85), (12, 0.0), (30, 0.97), (80, 0.5)]
    for trial, (n, outliers) in enumerate(problems * 2):
        _, points, pixels, _ = _pnp_scene(rng, n=n, outlier_fraction=outliers, noise=0.5)
        if trial % 3 == 0:
            points[: n // 4] = points[0]  # duplicate world points
        if trial % 3 == 1:
            points[: n // 3] = points[0] + np.outer(np.arange(n // 3), [0.1, -0.2, 0.05])
        params = replace(_PNP, min_inliers=20 if trial % 4 == 3 else 12, rng_seed=trial)
        ref_pose, ref_inliers, best_count, iterations, degenerate, still = (
            _reference_ransac_pnp(pixels, points, intrinsics, params)
        )
        seen["cap"] += iterations == params.max_iterations
        seen["degenerate"] += degenerate > 0
        seen["still stop"] += still
        result = ransac_pnp(pixels, points, intrinsics, params)
        assert result.samples_walked == iterations
        assert result.samples_drawn == _samples_drawn(iterations, params.max_iterations)
        if ref_pose is None:
            seen["too few inliers"] += best_count > 0
            assert result.failure_reason == "localization failed"
            continue
        seen["solved"] += 1
        pose, inliers, reason, *_ = result
        assert reason is None
        assert np.array_equal(pose.rotation, ref_pose.rotation)
        assert np.array_equal(pose.translation, ref_pose.translation)
        assert np.array_equal(inliers, ref_inliers)
    assert all(seen.values()), seen


def test_a_returnable_pnp_best_stops_at_the_first_walked_sample_past_its_bound(
    intrinsics, monkeypatch
):
    """A noiseless problem finds its best early and no later sample raises
    it.  Once that best reaches min_inliers, the stop is tested after every
    sample, so the problem stops at the first walked sample whose draw count
    reaches _iterations_needed(best / n, 4), where testing only on a rise
    runs to the cap.  Alone and in a batch it has the reference loop's bits
    and solves only the chunks drawn through that sample."""
    from semloc.geometry import ransac as ransac_module
    from semloc.geometry.ransac import _iterations_needed

    rng = np.random.default_rng(77)
    _, points, pixels, clean = _pnp_scene(rng, n=40, outlier_fraction=0.5)
    params = replace(_PNP, rng_seed=3)
    ref_pose, ref_inliers, best_count, iterations, _, still = _reference_ransac_pnp(
        pixels, points, intrinsics, params
    )
    assert best_count == len(clean) and still
    assert iterations == np.ceil(_iterations_needed(best_count / len(pixels), 4))
    assert iterations < params.max_iterations
    rise_only = _reference_ransac_pnp(pixels, points, intrinsics, params, every_sample=False)
    assert rise_only[3] == params.max_iterations

    solve, rows = ransac_module.p3p_solve, []

    def counted(bearings, points):
        rows.append(len(bearings))
        return solve(bearings, points)

    monkeypatch.setattr(ransac_module, "p3p_solve", counted)
    (alone,) = ransac_module.ransac_pnp_batch([(pixels, points, params)], intrinsics)
    assert sum(rows) == alone.samples_drawn == _samples_drawn(iterations, params.max_iterations)
    others = [
        _pnp_scene(rng, n=50, outlier_fraction=outliers, noise=0.5)[2:0:-1]
        for outliers in (0.2, 0.7)
    ]
    batch = ransac_module.ransac_pnp_batch(
        [(*others[0], params), (pixels, points, params), (*others[1], params)], intrinsics
    )
    for result in (alone, batch[1]):
        assert result.failure_reason is None and result.stop_reason == "converged"
        assert result.samples_walked == iterations
        assert result.samples_drawn == alone.samples_drawn
        assert np.array_equal(result.model.rotation, ref_pose.rotation)
        assert np.array_equal(result.model.translation, ref_pose.translation)
        assert np.array_equal(result.inliers, ref_inliers)


def test_a_pnp_problem_below_min_inliers_matches_draws_nothing(intrinsics, monkeypatch):
    """No model can reach min_inliers with fewer matches than that, so such a
    problem makes no rng.choice or p3p_solve call, alone or in a batch, and
    fails with "localization failed" (below 4 matches, "insufficient
    matches") and the stop reason "no_model"; at min_inliers matches it
    draws."""
    from semloc.geometry import ransac as ransac_module

    solve, make_rng, choices, rows = ransac_module.p3p_solve, np.random.default_rng, [], []

    class CountedRng:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def choice(self, *args, **kwargs):
            choices.append(args)
            return self.rng.choice(*args, **kwargs)

    def counted(bearings, points):
        rows.append(len(bearings))
        return solve(bearings, points)

    monkeypatch.setattr(ransac_module, "p3p_solve", counted)
    monkeypatch.setattr(np.random, "default_rng", CountedRng)
    _, points, pixels, _ = _pnp_scene(make_rng(79), n=_PNP.min_inliers, outlier_fraction=0.0)
    few = [(pixels[:n], points[:n], _PNP) for n in (3, 4, 8, _PNP.min_inliers - 1)]
    for problems in [[problem] for problem in few] + [few]:
        results = ransac_module.ransac_pnp_batch(problems, intrinsics)
        assert choices == [] and rows == []
        for (pixels_n, _, _), result in zip(problems, results):
            reason = "insufficient matches" if len(pixels_n) < 4 else "localization failed"
            assert result.failure_reason == reason
            assert result.model is None and len(result.inliers) == 0
            assert result[3:] == (0, 0, "no_model")
    (result,) = ransac_module.ransac_pnp_batch([(pixels, points, _PNP)], intrinsics)
    assert result.failure_reason is None and result.stop_reason == "converged"
    assert len(choices) == sum(rows) == result.samples_drawn > 0


def test_a_pnp_best_below_min_inliers_stops_where_the_rise_rule_does(intrinsics):
    """While its best count stays below min_inliers, a problem tests the stop
    only when that count rises, so it fails at the sample where the loop
    that tests only on a rise stops: converged on a rise or at the cap."""
    rng = np.random.default_rng(78)
    stops = {"converged": 0, "cap": 0}
    for trial, (n, outliers, noise, min_inliers) in enumerate(
        [(30, 1 / 3, 0.0, 25), (40, 0.25, 0.0, 35), (30, 0.0, 1.5, 30), (40, 0.1, 1.0, 40)] * 2
    ):
        _, points, pixels, _ = _pnp_scene(rng, n=n, outlier_fraction=outliers, noise=noise)
        params = replace(_PNP, min_inliers=min_inliers, rng_seed=trial)
        _, _, best_count, iterations, _, _ = _reference_ransac_pnp(
            pixels, points, intrinsics, params, every_sample=False
        )
        assert 0 < best_count < min_inliers
        result = ransac_pnp(pixels, points, intrinsics, params)
        assert result.failure_reason == "localization failed"
        assert result.samples_walked == iterations
        assert result.samples_drawn == _samples_drawn(iterations, params.max_iterations)
        stops[result.stop_reason] += 1
    assert all(stops.values()), stops


def test_a_ransac_batch_solves_each_round_in_one_call(intrinsics, monkeypatch):
    """A batch of problems makes one p3p_solve call per round, as many as
    its longest-running problem makes alone, and each problem's pose and
    inliers are bitwise those it gets alone."""
    from semloc.geometry import ransac as ransac_module

    solve = ransac_module.p3p_solve
    calls = []

    def counted(bearings, points):
        calls.append(len(bearings))
        return solve(bearings, points)

    monkeypatch.setattr(ransac_module, "p3p_solve", counted)
    rng = np.random.default_rng(76)
    problems = []
    for trial, outliers in enumerate([0.0, 0.2, 0.5, 0.7, 0.97, 0.3, 0.6, 0.1]):
        _, points, pixels, _ = _pnp_scene(rng, n=50, outlier_fraction=outliers, noise=0.5)
        problems.append((pixels, points, replace(_PNP, rng_seed=trial)))

    alone_calls, alone = [], []
    for problem in problems:
        calls.clear()
        alone.extend(ransac_module.ransac_pnp_batch([problem], intrinsics))
        alone_calls.append(len(calls))
    calls.clear()
    batch = ransac_module.ransac_pnp_batch(problems, intrinsics)
    assert len(calls) == max(alone_calls) < sum(alone_calls)
    assert any(r.failure_reason for r in batch) and any(r.failure_reason is None for r in batch)
    for result, reference in zip(batch, alone):
        assert result.failure_reason == reference.failure_reason
        if result.failure_reason is None:
            assert np.array_equal(result[0].rotation, reference[0].rotation)
            assert np.array_equal(result[0].translation, reference[0].translation)
            assert np.array_equal(result[1], reference[1])
