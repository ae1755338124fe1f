"""Pose, intrinsics and projection basics against hand-computed values."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semloc.errors import DegenerateGeometryError
from semloc.geometry import (
    CameraIntrinsics,
    Pose,
    camera_points,
    project_points,
    quaternion_from_rotation,
    reprojection_errors,
    rotation_from_axis_angle,
    rotation_from_quaternion,
)

from conftest import identity_pose, inverse_pose, random_pose


def test_identity_projection_hits_principal_point(intrinsics):
    pose = identity_pose()
    px = intrinsics.pixels(pose.transform(np.array([0.0, 0.0, 2.0])))
    assert np.allclose(px, [320.0, 240.0])


def test_projection_oracle_matrix_form(intrinsics):
    # oracle: homogeneous K [R|t] evaluation, done independently of CameraIntrinsics.pixels
    rng = np.random.default_rng(7)
    for _ in range(50):
        pose = random_pose(rng)
        point = inverse_pose(pose).transform(np.array([0.3, -0.2, 2.5]))
        k = intrinsics.matrix()
        h = k @ (pose.rotation @ point + pose.translation)
        expected = h[:2] / h[2]
        assert np.allclose(intrinsics.pixels(pose.transform(point)), expected, atol=1e-10)


def test_project_points_flags_invalid(intrinsics):
    """Points behind the camera or at its centre (depth <= 1e-9) are invalid."""
    pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1e-9]])
    pixels, valid = project_points(identity_pose(), intrinsics, pts)
    assert valid.tolist() == [True, False, False, False]
    assert np.allclose(pixels[0], [320.0, 240.0])
    assert np.isnan(pixels[1:]).all()


def test_compose_inverse_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_pose(rng)
        x = rng.normal(size=3)
        inverse = inverse_pose(a)
        assert np.allclose(inverse.transform(a.transform(x)), x, atol=1e-12)
        assert np.allclose(a.rotation @ inverse.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(inverse.camera_center(), a.translation, atol=1e-12)


def test_camera_center():
    rot = rotation_from_axis_angle(np.array([0.0, 0.0, np.pi / 2]))
    center = np.array([1.0, 2.0, 3.0])
    pose = Pose(rot, -rot @ center)
    assert np.allclose(pose.camera_center(), center, atol=1e-12)
    assert np.allclose(pose.transform(center), 0.0, atol=1e-12)


def test_pose_rejects_non_orthonormal():
    with pytest.raises(DegenerateGeometryError):
        Pose(np.eye(3) * 1.01, np.zeros(3))
    # reflections are not rotations
    with pytest.raises(DegenerateGeometryError):
        Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


@pytest.mark.parametrize(
    "rotation, translation",
    [
        (np.full((3, 3), np.nan), np.zeros(3)),
        (np.where(np.eye(3) == 1.0, np.nan, 0.0), np.zeros(3)),
        (np.eye(3), np.array([0.0, np.nan, 0.0])),
        (np.eye(3), np.array([np.inf, 0.0, 0.0])),
    ],
    ids=["nan-rotation", "nan-diagonal", "nan-translation", "inf-translation"],
)
def test_pose_rejects_non_finite_input(rotation, translation):
    with pytest.raises(DegenerateGeometryError):
        Pose(rotation, translation)


def test_quaternion_roundtrip_and_sign():
    rng = np.random.default_rng(11)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = rotation_from_axis_angle(axis * rng.uniform(0, np.pi))
        q = quaternion_from_rotation(r)
        assert q[0] >= 0.0
        assert np.isclose(np.linalg.norm(q), 1.0, atol=1e-12)
        assert np.allclose(rotation_from_quaternion(q), r, atol=1e-9)


def test_quaternion_known_value():
    # 90 deg about z: q = (cos45, 0, 0, sin45)
    r = rotation_from_axis_angle(np.array([0.0, 0.0, np.pi / 2]))
    q = quaternion_from_rotation(r)
    s = np.sqrt(0.5)
    assert np.allclose(q, [s, 0.0, 0.0, s], atol=1e-12)


def test_intrinsics_validation():
    with pytest.raises(DegenerateGeometryError):
        CameraIntrinsics(fx=-1.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    with pytest.raises(DegenerateGeometryError):
        CameraIntrinsics(fx=400.0, fy=400.0, cx=700.0, cy=240.0, width=640, height=480)


@pytest.mark.parametrize("fx", [float("nan"), float("inf")])
def test_intrinsics_reject_a_non_finite_focal_length(fx):
    """NaN passed the old check, since NaN <= 0 is false."""
    with pytest.raises(DegenerateGeometryError, match="positive and finite"):
        CameraIntrinsics(fx=fx, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    with pytest.raises(DegenerateGeometryError, match="positive and finite"):
        CameraIntrinsics(fx=400.0, fy=fx, cx=320.0, cy=240.0, width=640, height=480)


def test_intrinsics_are_immutable_and_hashable(intrinsics):
    # shared as a dataclass default (SceneConfig), so it must be frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        intrinsics.fx = 500.0
    twin = CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    assert hash(intrinsics) == hash(twin)


def test_normalize_denormalize_roundtrip(intrinsics):
    rng = np.random.default_rng(5)
    px = rng.uniform(0, 640, size=(30, 2))
    normalized = np.column_stack([intrinsics.normalize(px), np.ones(len(px))])
    assert np.allclose((normalized @ intrinsics.matrix().T)[:, :2], px, atol=1e-10)



def test_stacked_numpy_ops_match_single_instance_calls():
    """The batched P3P kernel relies on these stacked operations giving each
    instance the bits of its single-instance call.  A numpy or BLAS change
    that breaks one fails here with the operation's name."""
    from semloc.geometry.pose import rowdot

    rng = np.random.default_rng(91)
    a = rng.normal(size=(200, 3, 3))
    b = rng.normal(size=(200, 3, 3))
    v = rng.normal(size=(200, 3))
    a_t = np.swapaxes(a, 1, 2)
    checks = {
        "matmul": (a @ b, lambda i: a[i] @ b[i]),
        "matmul of transposes": (a_t @ np.swapaxes(b, 1, 2), lambda i: a[i].T @ b[i].T),
        "matrix-vector matmul": ((a @ v[:, :, None])[:, :, 0], lambda i: a[i] @ v[i]),
        "one-row matmul": ((v[:, None] @ a_t)[:, 0], lambda i: (v[i : i + 1] @ a[i].T)[0]),
        "svd": (np.linalg.svd(a)[0], lambda i: np.linalg.svd(a[i])[0]),
        "svd right vectors": (np.linalg.svd(a)[2], lambda i: np.linalg.svd(a[i])[2]),
        "det": (np.linalg.det(a), lambda i: np.linalg.det(a[i])),
        "eigvals": (np.linalg.eigvals(a), lambda i: np.linalg.eigvals(a[i])),
        "vecdot (rowdot)": (rowdot(a, b), lambda i: np.array(list(map(np.dot, a[i], b[i])))),
        "row norm": (np.linalg.norm(a, axis=2), lambda i: np.linalg.norm(a[i], axis=1)),
        "mean": (a.mean(axis=1), lambda i: a[i].mean(axis=0)),
        "sin": (np.sin(v), lambda i: np.array([np.sin(x) for x in v[i]])),
        "cos": (np.cos(v), lambda i: np.array([np.cos(x) for x in v[i]])),
        "arcsin": (np.arcsin(v / 4.0), lambda i: np.array([np.arcsin(x / 4.0) for x in v[i]])),
    }
    for name, (stacked, single) in checks.items():
        for i in range(len(a)):
            assert np.array_equal(stacked[i], single(i)), f"stacked {name} changed bits"


def test_stacked_rotation_helpers_equal_the_one_vector_call():
    from semloc.geometry import skew
    from semloc.geometry.pose import rotation_defects

    rng = np.random.default_rng(92)
    vectors = np.vstack([rng.normal(size=(50, 3)) * s for s in (1e-17, 1e-6, 1.0, 3.0)])
    rotations = rotation_from_axis_angle(vectors)
    skews = skew(vectors)
    noisy = rotations + rng.normal(scale=1e-9, size=rotations.shape)
    errors, rejected = rotation_defects(noisy)
    for i, vector in enumerate(vectors):
        assert np.array_equal(rotations[i], rotation_from_axis_angle(vector))
        assert np.array_equal(skews[i], skew(vector))
        one_error, one_rejected = rotation_defects(noisy[i])
        assert errors[i] == one_error and rejected[i] == one_rejected
    assert 0 < rejected.sum() < len(vectors)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_each_kernel_row_is_the_same_alone_and_in_any_stack(data):
    """camera_points and reprojection_errors give each (pose, point) row the
    bits it has alone, in any stack of poses and in any stack of points;
    Pose.transform and CameraIntrinsics.pixels give the bits of the matching
    rows, so a point counts as an inlier or not whatever it is stacked with."""
    intrinsics = CameraIntrinsics(fx=400.0, fy=410.0, cx=320.0, cy=240.0, width=640, height=480)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    poses = [random_pose(rng, t_scale=3.0) for _ in range(data.draw(st.integers(1, 5), label="M"))]
    n = data.draw(st.integers(1, 30), label="n")
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
    points = rng.normal(scale=scale, size=(n, 3))  # in front of and behind the cameras
    pixels = rng.uniform(0.0, 640.0, size=(n, 2))
    rotations = np.stack([pose.rotation for pose in poses])
    translations = np.stack([pose.translation for pose in poses])

    cam = camera_points(rotations, translations, points)
    errors = reprojection_errors(rotations, translations, intrinsics, points, pixels)
    assert cam.shape == (len(poses), n, 3) and errors.shape == (len(poses), n)
    for m, pose in enumerate(poses):
        assert np.array_equal(pose.transform(points), cam[m])
        projected, valid = project_points(pose, intrinsics, points)
        assert np.array_equal(valid, errors[m] < np.inf)
        for i in range(n):
            one = (pose.rotation, pose.translation)
            assert np.array_equal(camera_points(*one, points[i : i + 1])[0], cam[m, i])
            assert np.array_equal(pose.transform(points[i]), cam[m, i])
            alone = reprojection_errors(*one, intrinsics, points[i : i + 1], pixels[i : i + 1])
            assert alone[0] == errors[m, i]
            if valid[i]:
                assert np.array_equal(intrinsics.pixels(pose.transform(points[i])), projected[i])

    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n), label="rows")
    some = reprojection_errors(rotations, translations, intrinsics, points[rows], pixels[rows])
    assert np.array_equal(some, errors[:, rows])
    # one point per pose, as RANSAC probes each candidate at its own match
    probe = rng.integers(0, n, size=len(poses))
    probed = reprojection_errors(
        rotations, translations, intrinsics, points[probe][:, None], pixels[probe][:, None]
    )
    assert np.array_equal(probed[:, 0], errors[np.arange(len(poses)), probe])
