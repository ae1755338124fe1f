"""Sampson distance, essential decomposition, and error metrics."""

import numpy as np
import pytest

from semloc.errors import DegenerateGeometryError
from semloc.geometry import (
    Pose,
    decompose_essential,
    essential_from_pose,
    relative_motion,
    rotation_error_deg,
    rotation_from_axis_angle,
    sampson_error,
    skew,
    translation_heading_error_deg,
)
from semloc.geometry.epipolar import _triangulate_normalized

from conftest import identity_pose, inverse_pose, random_pose


def essential_from_motion(rotation, translation):
    """E = [t]x R for the relative motion x_b = R x_a + t."""
    return skew(np.asarray(translation, dtype=float)) @ np.asarray(rotation, dtype=float)


def _normalized_views(pose_a, pose_b, points):
    cam_a = pose_a.transform(points)
    cam_b = pose_b.transform(points)
    return cam_a[:, :2] / cam_a[:, 2:3], cam_b[:, :2] / cam_b[:, 2:3]


def test_sampson_zero_on_exact_correspondences():
    rng = np.random.default_rng(31)
    pose_a = identity_pose()
    pose_b = Pose(rotation_from_axis_angle([0.0, 0.2, 0.0]), np.array([0.4, 0.1, 0.05]))
    e = essential_from_pose(pose_a, pose_b)
    points = np.column_stack([rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40), rng.uniform(2, 5, 40)])
    xa, xb = _normalized_views(pose_a, pose_b, points)
    assert np.max(sampson_error(e, xa, xb)) < 1e-12


def test_sampson_matches_point_line_distance_near_epipole():
    # with x_b near the left epipole the E^T x_b gradient vanishes and the
    # Sampson distance reduces to the point-to-epipolar-line distance
    rot = rotation_from_axis_angle([0.05, -0.1, 0.02])
    t = np.array([0.6, 0.2, 1.0])
    e = essential_from_motion(rot, t)
    epipole = t / t[2]  # left epipole in normalized coords of view b

    xa = np.array([0.3, -0.2])
    line = e @ np.array([xa[0], xa[1], 1.0])
    # point on the epipolar line close to the epipole
    direction = np.array([line[1], -line[0]]) / np.hypot(line[0], line[1])
    xb_exact = epipole[:2] + 1e-4 * direction
    algebraic = np.dot(np.array([*xb_exact, 1.0]), line)
    # step back onto the line exactly
    normal = line[:2] / np.hypot(line[0], line[1])
    xb_on = xb_exact - normal * algebraic / np.hypot(line[0], line[1])

    delta = 1e-3
    xb = xb_on + normal * delta
    err = sampson_error(e, xa, xb)
    # oracle: geometric point-line distance of the perturbed point
    geo = abs(np.dot(np.array([*xb, 1.0]), line)) / np.hypot(line[0], line[1])
    assert abs(geo - delta) < 1e-9
    assert abs(err - delta) / delta < 0.1


def test_sampson_generic_pairs_exceed_threshold():
    # unrelated random pairs should essentially never sit below 5e-4
    rng = np.random.default_rng(33)
    pose_a = random_pose(rng)
    pose_b = random_pose(rng)
    e = essential_from_pose(pose_a, pose_b)
    e /= np.linalg.norm(e)
    xa = rng.uniform(-0.8, 0.8, size=(5000, 2))
    xb = rng.uniform(-0.8, 0.8, size=(5000, 2))
    err = sampson_error(e, xa, xb)
    assert np.mean(err > 5e-4) > 0.99


def test_sampson_falls_back_to_the_algebraic_residual_at_the_epipoles():
    """Where all four epipolar-line gradients vanish the distance is the
    algebraic residual |x_b^T E x_a|, not 0/0 or r/0; elsewhere it is the
    Sampson quotient, in a stack as alone."""
    e = essential_from_motion(np.eye(3), np.array([0.0, 0.0, 1.0]))
    # both points at the epipole (origin for t = z): all four gradients vanish
    assert sampson_error(e, np.zeros(2), np.zeros(2)) == 0.0
    # the gradients vanish at the origin here too, but the residual is 2.5
    corner = np.diag([0.0, 0.0, 2.5])
    assert sampson_error(corner, np.zeros(2), np.zeros(2)) == 2.5
    xa, xb = np.array([0.1, 0.2]), np.array([0.3, -0.1])
    line_b, line_a = e @ np.array([*xa, 1.0]), e.T @ np.array([*xb, 1.0])
    quotient = abs(np.array([*xb, 1.0]) @ line_b) / np.sqrt(
        line_b[0] ** 2 + line_b[1] ** 2 + line_a[0] ** 2 + line_a[1] ** 2
    )
    assert sampson_error(e, xa, xb) == pytest.approx(quotient, rel=1e-12)
    stacked = sampson_error(e, np.array([np.zeros(2), xa]), np.array([np.zeros(2), xb]))
    assert stacked.tolist() == [0.0, sampson_error(e, xa, xb)]


def test_decompose_essential_recovers_motion():
    rng = np.random.default_rng(35)
    for _ in range(30):
        pose_a = random_pose(rng)
        rel_r = rotation_from_axis_angle(rng.normal(size=3) * 0.3)
        rel_t = rng.normal(size=3)
        rel_t /= np.linalg.norm(rel_t)
        pose_b = Pose(rel_r @ pose_a.rotation, rel_r @ pose_a.translation + rel_t)
        points = np.column_stack(
            [rng.uniform(-1.5, 1.5, 30), rng.uniform(-1.5, 1.5, 30), rng.uniform(2, 6, 30)]
        )
        world = inverse_pose(pose_a).transform(points)
        cam_b = pose_b.transform(world)
        if np.any(cam_b[:, 2] < 0.2):
            continue
        xa, xb = _normalized_views(pose_a, pose_b, world)
        e = essential_from_pose(pose_a, pose_b)
        rel = decompose_essential(e, xa, xb)
        r_true, t_true = relative_motion(pose_a, pose_b)
        assert rotation_error_deg(rel.rotation, r_true) < 1e-6
        assert translation_heading_error_deg(rel.translation_direction, t_true) < 1e-6


def test_decompose_single_point_selects_by_cheirality():
    pose_a = identity_pose()
    pose_b = Pose(np.eye(3), np.array([-0.5, 0.0, 0.0]))
    point = np.array([[0.1, -0.05, 3.0]])
    xa, xb = _normalized_views(pose_a, pose_b, point)
    e = essential_from_pose(pose_a, pose_b)
    rel = decompose_essential(e, xa, xb)
    r_true, t_true = relative_motion(pose_a, pose_b)
    assert rotation_error_deg(rel.rotation, r_true) < 1e-6
    assert translation_heading_error_deg(rel.translation_direction, t_true) < 1e-6


def test_decompose_pure_rotation_flagged():
    rng = np.random.default_rng(37)
    rot = rotation_from_axis_angle([0.0, 0.3, 0.0])
    points = np.column_stack([rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20), rng.uniform(2, 5, 20)])
    xa = points[:, :2] / points[:, 2:3]
    rotated = points @ rot.T
    xb = rotated[:, :2] / rotated[:, 2:3]
    # any essential matrix handed in: correspondences alone reveal the rotation
    e = essential_from_motion(rot, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DegenerateGeometryError, match="pure rotation"):
        decompose_essential(e, xa, xb)


def test_decompose_identical_frames_flagged():
    rng = np.random.default_rng(38)
    xa = rng.uniform(-0.5, 0.5, size=(15, 2))
    e = essential_from_motion(np.eye(3), np.array([0.3, 0.2, 0.9]))
    with pytest.raises(DegenerateGeometryError, match="pure rotation"):
        decompose_essential(e, xa, xa.copy())


# --------------------------------------------------------------------- metrics

def test_rotation_error_known_values():
    r0 = np.eye(3)
    r1 = rotation_from_axis_angle([0.0, 0.0, np.radians(30.0)])
    assert np.isclose(rotation_error_deg(r0, r1), 30.0, atol=1e-10)
    assert rotation_error_deg(r1, r1) == 0.0
    r180 = rotation_from_axis_angle([np.pi, 0.0, 0.0])
    assert np.isclose(rotation_error_deg(r0, r180), 180.0, atol=1e-7)


def test_rotation_error_symmetry_and_convention_invariance():
    rng = np.random.default_rng(39)
    for _ in range(20):
        ra = random_pose(rng).rotation
        rb = random_pose(rng).rotation
        assert np.isclose(rotation_error_deg(ra, rb), rotation_error_deg(rb, ra), atol=1e-9)
        assert np.isclose(rotation_error_deg(ra, rb), rotation_error_deg(ra.T, rb.T), atol=1e-9)


def test_heading_error_known_values():
    assert np.isclose(
        translation_heading_error_deg([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), 90.0, atol=1e-10
    )
    assert np.isclose(
        translation_heading_error_deg([1.0, 0.0, 0.0], [5.0, 0.0, 0.0]), 0.0, atol=1e-10
    )
    assert np.isclose(
        translation_heading_error_deg([1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]), 180.0, atol=1e-7
    )


def test_heading_error_zero_norm_rejected():
    with pytest.raises(DegenerateGeometryError, match="undefined"):
        translation_heading_error_deg([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def _triangulate_normalized_per_row(rotation, translation, xa, xb):
    """One SVD per correspondence: the reference for the stacked solve."""
    p_b = np.hstack([rotation, translation[:, None]])
    points = np.empty((xa.shape[0], 3))
    for i in range(xa.shape[0]):
        a = np.array(
            [
                [-1.0, 0.0, xa[i, 0], 0.0],
                [0.0, -1.0, xa[i, 1], 0.0],
                xb[i, 0] * p_b[2] - p_b[0],
                xb[i, 1] * p_b[2] - p_b[1],
            ]
        )
        _, _, vt = np.linalg.svd(a)
        hom = vt[-1]
        w = hom[3] if abs(hom[3]) > 1e-15 else 1e-15
        points[i] = hom[:3] / w
    return points


def test_stacked_normalized_triangulation_equals_per_row_loop():
    rng = np.random.default_rng(31)
    for _ in range(50):
        pose = random_pose(rng)
        xa = rng.normal(scale=0.5, size=(40, 2))
        xb = rng.normal(scale=0.5, size=(40, 2))
        xb[:10] = xa[:10]  # rows that meet at infinity under a pure translation
        for translation in (pose.translation, np.zeros(3)):
            stacked = _triangulate_normalized(pose.rotation, translation, xa, xb)
            reference = _triangulate_normalized_per_row(pose.rotation, translation, xa, xb)
            assert np.array_equal(stacked, reference)
