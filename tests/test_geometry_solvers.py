"""Minimal solvers (triangulation, P3P, five-point) against forward oracles.

Every instance is generated forward: a known pose projects known geometry,
then the solver must recover what generated the observations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semloc.errors import DegenerateGeometryError, InsufficientDataError
from semloc.geometry import (
    Pose,
    essential_from_pose,
    five_point_essential,
    p3p_solve,
    rotation_error_deg,
    triangulate_two_view,
)

from conftest import identity_pose, points_in_front, random_pose


# ---------------------------------------------------------------- triangulate

def test_triangulate_recovers_known_point(intrinsics):
    pose_a = identity_pose()
    pose_b = Pose(np.eye(3), np.array([-0.5, 0.0, 0.0]))  # camera at x=+0.5
    point = np.array([0.2, -0.1, 3.0])
    pa = intrinsics.pixels(pose_a.transform(point))
    pb = intrinsics.pixels(pose_b.transform(point))
    est, residual = triangulate_two_view(pose_a, pose_b, pa, pb, intrinsics)
    assert np.allclose(est, point, atol=1e-8)
    assert residual < 1e-8


def test_triangulate_random_instances(intrinsics):
    rng = np.random.default_rng(21)
    for _ in range(100):
        pose_a = random_pose(rng)
        offset = rng.normal(size=3)
        offset *= rng.uniform(0.2, 1.0) / np.linalg.norm(offset)
        pose_b = Pose(pose_a.rotation, pose_a.translation + pose_a.rotation @ offset)
        point = points_in_front(rng, pose_a, 1)[0]
        if pose_b.transform(point)[2] <= 0.1:
            continue
        pa = intrinsics.pixels(pose_a.transform(point))
        pb = intrinsics.pixels(pose_b.transform(point))
        est, residual = triangulate_two_view(pose_a, pose_b, pa, pb, intrinsics)
        assert np.linalg.norm(est - point) < 1e-6
        assert residual < 1e-6


def test_triangulate_zero_baseline_rejected(intrinsics):
    pose = identity_pose()
    with pytest.raises(DegenerateGeometryError, match="baseline"):
        triangulate_two_view(pose, identity_pose(), np.array([320.0, 240.0]),
                             np.array([321.0, 240.0]), intrinsics)


def test_triangulate_cheirality_failure(intrinsics):
    # parallel-ish rays meeting behind the cameras
    pose_a = identity_pose()
    pose_b = Pose(np.eye(3), np.array([-0.5, 0.0, 0.0]))
    point = np.array([0.0, 0.0, 5.0])
    pa = intrinsics.pixels(pose_a.transform(point))
    pb = intrinsics.pixels(pose_b.transform(point))
    # swapping the observations flips the disparity sign -> intersection behind
    with pytest.raises(DegenerateGeometryError, match="cheirality"):
        triangulate_two_view(pose_a, pose_b, pb, pa, intrinsics)


def test_triangulate_residual_reports_max_of_views(intrinsics):
    pose_a = identity_pose()
    pose_b = Pose(np.eye(3), np.array([-0.5, 0.0, 0.0]))
    point = np.array([0.1, 0.05, 2.0])
    pa = intrinsics.pixels(pose_a.transform(point))
    # off-epipolar perturbation (v direction, baseline is along x) cannot be
    # explained by any 3d point, so a nonzero residual must be reported
    pb = intrinsics.pixels(pose_b.transform(point)) + np.array([0.0, 2.0])
    _, residual = triangulate_two_view(pose_a, pose_b, pa, pb, intrinsics)
    assert 0.5 < residual < 2.0


def _random_triangulation_instances(intrinsics):
    """The instances of test_triangulate_random_instances, as
    (pose_a, pose_b, pixel_a, pixel_b) tuples."""
    rng = np.random.default_rng(21)
    instances = []
    for _ in range(100):
        pose_a = random_pose(rng)
        offset = rng.normal(size=3)
        offset *= rng.uniform(0.2, 1.0) / np.linalg.norm(offset)
        pose_b = Pose(pose_a.rotation, pose_a.translation + pose_a.rotation @ offset)
        point = points_in_front(rng, pose_a, 1)[0]
        if pose_b.transform(point)[2] <= 0.1:
            continue
        instances.append(
            (pose_a, pose_b, intrinsics.pixels(pose_a.transform(point)), intrinsics.pixels(pose_b.transform(point)))
        )
    return instances


def test_triangulate_batch_rows_equal_single_calls(intrinsics):
    # every instance's pose pair triangulates every instance's pixels: its own
    # row is consistent, the others mostly are not and some fail cheirality
    instances = _random_triangulation_instances(intrinsics)
    pixels_a = np.array([inst[2] for inst in instances])
    pixels_b = np.array([inst[3] for inst in instances])
    invalid = 0
    for k, (pose_a, pose_b, _, _) in enumerate(instances):
        points, residuals = triangulate_two_view(pose_a, pose_b, pixels_a, pixels_b, intrinsics)
        assert points.shape == (len(instances), 3) and residuals.shape == (len(instances),)
        assert residuals[k] < 1e-6
        for i in range(len(instances)):
            try:
                point, residual = triangulate_two_view(
                    pose_a, pose_b, pixels_a[i], pixels_b[i], intrinsics
                )
            except DegenerateGeometryError:
                assert residuals[i] == np.inf and np.isnan(points[i]).all()
                invalid += 1
                continue
            assert np.array_equal(point, points[i]) and residual == residuals[i]
    assert invalid > 0


def test_triangulate_batch_marks_behind_camera_rows_invalid(intrinsics):
    pose_a = identity_pose()
    pose_b = Pose(np.eye(3), np.array([-0.5, 0.0, 0.0]))
    point = np.array([0.0, 0.0, 5.0])
    pa = intrinsics.pixels(pose_a.transform(point))
    pb = intrinsics.pixels(pose_b.transform(point))
    # the second row swaps the observations: its rays meet behind the cameras
    points, residuals = triangulate_two_view(
        pose_a, pose_b, np.array([pa, pb]), np.array([pb, pa]), intrinsics
    )
    assert np.allclose(points[0], point, atol=1e-8) and residuals[0] < 1e-8
    assert residuals[1] == np.inf and np.isnan(points[1]).all()


def test_triangulate_batch_zero_baseline_rejected(intrinsics):
    pixels = np.array([[320.0, 240.0], [100.0, 50.0]])
    with pytest.raises(DegenerateGeometryError, match="baseline"):
        triangulate_two_view(identity_pose(), identity_pose(), pixels, pixels + 1.0, intrinsics)


# ----------------------------------------------------------------------- p3p

def _p3p_instance(rng):
    pose = random_pose(rng)
    points = points_in_front(rng, pose, 3, depth=(1.0, 3.0))
    cam = pose.transform(points)
    bearings = cam / np.linalg.norm(cam, axis=1, keepdims=True)
    return pose, bearings, points


def _p3p_instances(rng, count):
    poses, bearings, points = zip(*(_p3p_instance(rng) for _ in range(count)))
    return poses, np.array(bearings), np.array(points)


def _max_bearing_angles(owner, rotations, translations, bearings, points):
    """Per candidate, its largest angle between a bearing and its point's ray."""
    cam = points[owner] @ np.swapaxes(rotations, 1, 2) + translations[:, None]
    unit = cam / np.linalg.norm(cam, axis=2, keepdims=True)
    return np.arccos(np.clip(np.einsum("kij,kij->ki", bearings[owner], unit), -1, 1)).max(axis=1)


def test_p3p_recovers_generating_pose():
    poses, bearings, points = _p3p_instances(np.random.default_rng(42), 200)
    owner, rotations, translations = p3p_solve(bearings, points)
    assert np.all(np.diff(owner) >= 0)
    per_instance = np.bincount(owner, minlength=200)
    assert per_instance.min() >= 1 and per_instance.max() <= 4
    for k, pose in enumerate(poses):
        rows = owner == k
        best_rot = min(rotation_error_deg(r, pose.rotation) for r in rotations[rows])
        best_t = np.linalg.norm(translations[rows] - pose.translation, axis=1).min()
        assert np.radians(best_rot) < 1e-6
        assert best_t < 1e-6


@given(seed=st.integers(0, 2**64 - 1))
@settings(max_examples=300, deadline=None)
def test_p3p_recovers_the_generating_pose_of_any_instance(seed):
    """On instances drawn as the solver-soundness sweep draws them, one
    candidate is within its bounds, 1e-6 rad and 1e-6 m, of the generator."""
    pose, bearings, points = _p3p_instance(np.random.default_rng(seed))
    owner, rotations, translations = p3p_solve(bearings[None], points[None])
    assert 1 <= len(owner) <= 4
    errors = [
        max(np.radians(rotation_error_deg(r, pose.rotation)), np.linalg.norm(t - pose.translation))
        for r, t in zip(rotations, translations)
    ]
    assert min(errors) < 1e-6


def test_p3p_solutions_all_align_bearings():
    _, bearings, points = _p3p_instances(np.random.default_rng(43), 50)
    solution = p3p_solve(bearings, points)
    assert len(solution[0]) >= 50
    assert np.max(_max_bearing_angles(*solution, bearings, points)) <= 1e-6


def test_p3p_keeps_a_root_next_to_a_near_double_root():
    # instance 7107 of the default_rng(1) sweep in the acceptance module: the
    # Grunert quartic has real roots 1.2461413 (true) and 1.2461697, and
    # d(v) ~ -6.4e-5 at the true root magnifies its error in u = n(v) / d(v)
    pose = Pose(
        np.array(
            [
                [0.6130440545188336, 0.33358735456209965, 0.7161679021677593],
                [0.44067798647363976, 0.6079868885527644, -0.6604202113695998],
                [-0.655728525730464, 0.7204661131685435, 0.2257181435311827],
            ]
        ),
        np.array([0.2998812072851287, 0.4129646000371896, -0.782161213774792]),
    )
    points = np.array(
        [
            [-1.6884455265367453, 1.7927781295134562, 0.8561827394301129],
            [-2.3076603562919518, 0.33136373028639676, 0.4604584490134804],
            [-1.6473504492266977, 2.347308533710959, 0.8245151283681007],
        ]
    )
    cam = pose.transform(points)
    bearings = (cam / np.linalg.norm(cam, axis=1, keepdims=True))[None]
    owner, rotations, translations = p3p_solve(bearings, points[None])
    assert any(
        np.radians(rotation_error_deg(r, pose.rotation)) < 1e-6
        and np.linalg.norm(t - pose.translation) < 1e-6
        for r, t in zip(rotations, translations)
    )
    angles = _max_bearing_angles(owner, rotations, translations, bearings, points[None])
    assert np.max(angles) <= 1e-6


def test_p3p_collinear_points_rejected():
    rng = np.random.default_rng(44)
    _, bearings, points = _p3p_instances(rng, 3)
    points[1] = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    bearings[1] = np.eye(3)
    owner, rotations, translations = p3p_solve(bearings, points)
    assert 1 not in owner
    assert set(owner.tolist()) == {0, 2}
    assert len(rotations) == len(translations) == len(owner)


def test_p3p_duplicate_points_rejected():
    _, bearings, points = _p3p_instances(np.random.default_rng(46), 3)
    points[1, 2] = points[1, 0]
    owner, rotations, translations = p3p_solve(bearings, points)
    assert set(owner.tolist()) == {0, 2}
    assert len(rotations) == len(translations) == len(owner)


def test_p3p_takes_only_stacks():
    _, bearings, points = _p3p_instances(np.random.default_rng(45), 1)
    with pytest.raises(ValueError, match="stacks"):
        p3p_solve(bearings[0], points[0])


def _reference_cubic_root(b, c, d):
    """p3p._cubic_root as a loop that takes all 50 Newton steps over every
    row, masking the updates of the roots that have stopped, then puts the
    closed-form root where the stationary points coincide."""
    v = np.sqrt(b * b - 3.0 * c)
    t1, t2 = (-b - v) / 3.0, (-b + v) / 3.0
    k1 = ((t1 + b) * t1 + c) * t1 + d
    k2 = ((t2 + b) * t2 + c) * t2 + d
    root = np.where(
        k1 > 0.0, t1 - np.sqrt(-k1 / (3.0 * t1 + b)), t2 + np.sqrt(-k2 / (3.0 * t2 + b))
    )
    flat = -b / 3.0
    flat = np.where(np.abs((3.0 * flat + 2.0 * b) * flat + c) < 1e-4, flat + 1.0, flat)
    root = np.where(b * b >= 3.0 * c, root, flat)
    live = np.ones(root.shape, dtype=bool)
    for step in range(50):
        f = ((root + b) * root + c) * root + d
        if step >= 7:
            live &= np.abs(f) > 1e-13
        root = np.where(live, root - f / ((3.0 * root + 2.0 * b) * root + c), root)
    t = -b / 3.0  # where b^2 = 3c, (x - t)^3 + f(t) has the one root t + cbrt(-f(t))
    return np.where(b * b - 3.0 * c == 0.0, t + np.cbrt(-(((t + b) * t + c) * t + d)), root)


def test_cubic_root_is_bitwise_the_loop_over_every_row():
    """Newton steps on the live roots only, each stopped once a step leaves
    it in place or returns it to its last value, give the bits of stepping
    every row with a mask, for cubics of three real roots, of one, of a double
    root, of roots so large that |f| mostly stays above 1e-13 (all 50
    steps), with NaN or infinite coefficients, with b = c = 0 (closed form),
    and for a stack of none; each row is the same alone."""
    from semloc.geometry.p3p import _cubic_root

    rng = np.random.default_rng(46)
    rows = []
    for kind in range(6):
        roots = rng.normal(scale=3.0, size=(40, 3))
        if kind == 1:  # one real root and a complex pair
            roots[:, 2] = roots[:, 1]
            b, c, d = -roots[:, 0] * 2.0, rng.uniform(1.0, 9.0, 40), rng.normal(size=40)
        else:
            if kind == 2:
                roots[:, 1] = roots[:, 0]  # a double root
            if kind == 3:
                roots *= 1e6  # |f| stays above 1e-13 at every step
            r1, r2, r3 = roots.T
            b, c, d = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        if kind == 4:
            b[::3], c[1::3], d[2::3] = np.nan, np.inf, -np.inf
        if kind == 5:
            b, c, d = np.zeros(40), np.zeros(40), rng.normal(size=40)
        rows.append(np.stack([b, c, d], axis=1))
    coefficients = np.concatenate(rows)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = _cubic_root(*coefficients.T)
        reference = _reference_cubic_root(*coefficients.T)
        alone = [_cubic_root(*row[:, None]) for row in coefficients]
        empty = _cubic_root(*np.empty((3, 0)))
    assert root.view(np.int64).tolist() == reference.view(np.int64).tolist()
    assert np.concatenate(alone).view(np.int64).tolist() == root.view(np.int64).tolist()
    assert empty.shape == (0,)
    assert np.isnan(root[160:200]).all() and np.isfinite(np.delete(root, range(160, 200))).all()
    b, c, d = coefficients[120:160].T
    large = root[120:160]
    assert (np.abs(((large + b) * large + c) * large + d) > 1e-13).sum() > 10


def test_cubic_root_where_the_stationary_points_coincide():
    """Where b^2 = 3c the start divided by 3t + b = 0 and gave NaN; such a
    cubic is (x + b/3)^3 + f(-b/3), and its real root is returned exactly
    where the cube root is exact, within rounding elsewhere, triple roots too."""
    from semloc.geometry.p3p import _cubic_root

    # x^3 + 1, x^3 - 8, x^3, x^3 + 3x^2 + 3x + 2, (x + 1)^3, (x - 2)^3 - 27
    b = np.array([0.0, 0.0, 0.0, 3.0, 3.0, -6.0])
    c = np.array([0.0, 0.0, 0.0, 3.0, 3.0, 12.0])
    d = np.array([1.0, -8.0, 0.0, 2.0, 1.0, -35.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert _cubic_root(b, c, d).tolist() == [-1.0, 2.0, 0.0, -2.0, -1.0, 5.0]

    rng = np.random.default_rng(47)
    b = 3.0 * rng.integers(-20, 21, 200)  # so that b^2 = 3c holds exactly
    c = b * b / 3.0
    d = rng.normal(scale=50.0, size=200)
    assert (b * b == 3.0 * c).all()
    with np.errstate(divide="ignore", invalid="ignore"):
        root = _cubic_root(b, c, d)
    residual = ((root + b) * root + c) * root + d
    scale = np.abs(root) ** 3 + np.abs(b) * root**2 + np.abs(c * root) + np.abs(d)
    assert np.isfinite(root).all() and (np.abs(residual) <= 1e-12 * scale).all()


# ---------------------------------------------------------------- five-point

def _five_point_instance(rng, n=5):
    pose_a = random_pose(rng)
    r = conftest_random_relative(rng)
    t = rng.normal(size=3)
    t /= np.linalg.norm(t)
    t *= rng.uniform(0.3, 1.0)
    pose_b = Pose(r @ pose_a.rotation, r @ pose_a.translation + t)
    points = points_in_front(rng, pose_a, n, depth=(2.0, 6.0), spread=2.0)
    cam_b = pose_b.transform(points)
    keep = cam_b[:, 2] > 0.2
    if keep.sum() < n:
        return None
    cam_a = pose_a.transform(points)
    xa = cam_a[:, :2] / cam_a[:, 2:3]
    xb = cam_b[:, :2] / cam_b[:, 2:3]
    e_true = essential_from_pose(pose_a, pose_b)
    return xa, xb, e_true


def conftest_random_relative(rng):
    from conftest import random_rotation

    return random_rotation(rng)


def test_five_point_contains_true_essential():
    rng = np.random.default_rng(17)
    found = 0
    trials = 0
    while trials < 100:
        inst = _five_point_instance(rng)
        if inst is None:
            continue
        trials += 1
        xa, xb, e_true = inst
        e_true = e_true / np.linalg.norm(e_true)
        _, candidates = five_point_essential(xa[None], xb[None])
        assert len(candidates), "solver returned no candidates on a generic instance"
        sims = [abs(float(np.sum(e * e_true))) for e in candidates]
        if max(sims) > 1.0 - 1e-9:
            found += 1
    assert found == trials


def test_five_point_candidates_satisfy_constraints():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 50:
        inst = _five_point_instance(rng)
        if inst is None:
            continue
        checked += 1
        xa, xb, _ = inst
        ha = np.hstack([xa, np.ones((5, 1))])
        hb = np.hstack([xb, np.ones((5, 1))])
        for e in five_point_essential(xa[None], xb[None])[1]:
            assert np.isclose(np.linalg.norm(e), 1.0, atol=1e-12)
            assert abs(np.linalg.det(e)) < 1e-8
            trace_c = 2 * e @ e.T @ e - np.trace(e @ e.T) * e
            assert np.linalg.norm(trace_c) < 1e-8
            assert np.max(np.abs(np.einsum("ij,jk,ik->i", hb, e, ha))) < 1e-8


def test_five_point_insufficient_and_degenerate():
    with pytest.raises(InsufficientDataError):
        five_point_essential(np.zeros((1, 4, 2)), np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match="stacks"):
        five_point_essential(np.zeros((5, 2)), np.zeros((5, 2)))
    # a coincident sample owns no rows, alone or between two generic ones
    xa, xb, _ = _five_point_instance(np.random.default_rng(18))
    same = np.tile([0.1, 0.2], (5, 1))
    owner, essentials = five_point_essential(same[None], same[None])
    assert len(owner) == len(essentials) == 0
    owner, essentials = five_point_essential(np.stack([xa, same, xa]), np.stack([xb, same, xb]))
    assert set(owner.tolist()) == {0, 2} and len(essentials) == len(owner)
