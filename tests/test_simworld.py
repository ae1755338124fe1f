"""Synthetic world generation, perturbation, trajectories, and observation."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semloc.errors import MapFormatError, WorldGenerationError
from semloc.features.distance import _BLOCK_PRODUCTS
from semloc.geometry import Pose, project_points, rotation_error_deg
from semloc.geometry.epipolar import relative_motion
from semloc.geometry.pose import quaternion_from_rotation, rotation_from_axis_angle
from semloc.semantics import (
    BoundingBox,
    ClassRegistry,
    DetectionSet,
    FeatureObservation,
    extract_frame_features,
)
from semloc.simworld import (
    BODY_TO_CAMERA,
    DEFAULT_INTRINSICS,
    NO_OBJECT,
    PerturbationSpec,
    SyntheticFrame,
    TrajectoryParams,
    World,
    WorldConfig,
    WorldObject,
    generate_trajectory,
    generate_world,
    load_dataset_frames,
    load_intrinsics,
    load_scene_config,
    make_walls,
    perturb_world,
    synthesize_frame,
    write_dataset,
)
from semloc.simworld import world as world_module
from semloc.simworld.config import _KEYS, BENCHMARK_MODES, SceneConfig
from semloc.simworld.synthesize import (
    _NEAR_PLANE,
    _clip_polygon_to_near_plane,
    _ground_truth_boxes,
)
from semloc.simworld.world import _place_objects, _sample_descriptors
from semloc.trajectory_io import TrajectoryEntry, read_trajectory, write_trajectory

from conftest import corrupted_json, random_rotation


# --------------------------------------------------------------------------
# world generation


def _labeled(world) -> np.ndarray:
    """Whether each landmark row belongs to an object of a registered class."""
    registered = [obj.id for obj in world.objects if obj.class_id is not None]
    return np.isin(world.object_ids, registered)


def test_world_landmark_counts():
    world = generate_world(WorldConfig(), seed=0)
    labeled = _labeled(world)
    background = world.object_ids == NO_OBJECT
    assert labeled.sum() == 8 * 2 * 20  # classes x objects x landmarks
    assert (~labeled & ~background).sum() == 2 * 40  # clutter
    assert background.sum() == 80


def test_world_generation_deterministic():
    a = generate_world(WorldConfig(), seed=5)
    b = generate_world(WorldConfig(), seed=5)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.descriptors, b.descriptors)
    assert [(o.id, o.wall_index, o.rotation) for o in a.objects] == [
        (o.id, o.wall_index, o.rotation) for o in b.objects
    ]
    c = generate_world(WorldConfig(), seed=6)
    assert not np.array_equal(a.positions, c.positions)


def test_descriptors_separated_no_nearest_neighbor_confusion():
    world = generate_world(WorldConfig(), seed=1)
    descriptors = world.descriptors
    norms = np.linalg.norm(descriptors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    from scipy.spatial.distance import pdist

    distances = pdist(descriptors)
    assert distances.min() >= 0.8  # construction guarantee delta_desc
    # noisy copies stay closest to their source: confusion rate < 1%
    rng = np.random.default_rng(2)
    noisy = descriptors + rng.normal(scale=0.05, size=descriptors.shape)
    noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
    from scipy.spatial.distance import cdist

    nearest = cdist(noisy, descriptors).argmin(axis=1)
    confusions = np.mean(nearest != np.arange(len(descriptors)))
    assert confusions < 0.01


def test_labeled_landmarks_belong_to_exactly_one_object():
    world = generate_world(WorldConfig(), seed=3)
    n = len(world.landmark_ids)
    assert world.positions.shape == (n, 3) and world.descriptors.shape == (n, 64)
    assert np.array_equal(world.landmark_ids, np.arange(n))
    # each row names one owner: an object of the world, or none
    owners = [obj.id for obj in world.objects]
    assert len(set(owners)) == len(owners)
    assert np.isin(world.object_ids, owners + [NO_OBJECT]).all()
    assert {obj.id: int((world.object_ids == obj.id).sum()) for obj in world.objects} == {
        obj.id: 40 if obj.class_id is None else 20 for obj in world.objects
    }
    for column in (world.landmark_ids, world.positions, world.descriptors, world.object_ids):
        assert not column.flags.writeable


def test_landmarks_inside_footprint_and_wall():
    world = generate_world(WorldConfig(), seed=4)
    walls = world.walls()
    for obj in world.objects:
        wall = walls[obj.wall_index]
        corners = obj.footprint_corners_uv()
        assert corners[:, 0].min() >= -1e-9 and corners[:, 0].max() <= wall.width + 1e-9
        assert corners[:, 1].min() >= -1e-9 and corners[:, 1].max() <= wall.height + 1e-9
        # landmark uv offsets, rotated back, lie within the extent rectangle
        c, s = math.cos(-obj.rotation), math.sin(-obj.rotation)
        unrot = np.array([[c, -s], [s, c]])
        for position in world.positions[world.object_ids == obj.id]:
            uv = np.array(
                [
                    np.dot(position - wall.origin, wall.u_axis),
                    np.dot(position - wall.origin, wall.v_axis),
                ]
            )
            offset = unrot @ (uv - obj.center_uv)
            assert abs(offset[0]) <= obj.extent[0] / 2 + 1e-9
            assert abs(offset[1]) <= obj.extent[1] / 2 + 1e-9


def _reference_sample_descriptors(n, dim, delta, rng):
    """Rejection sampling one candidate at a time."""
    accepted = np.empty((n, dim))
    count = 0
    attempts = 0
    while count < n:
        if attempts > 200 * n:
            raise WorldGenerationError(
                f"could not sample {n} descriptors {delta} apart in {dim} dims"
            )
        attempts += 1
        candidate = rng.normal(size=dim)
        candidate /= np.linalg.norm(candidate)
        if count and np.min(np.linalg.norm(accepted[:count] - candidate, axis=1)) < delta:
            continue
        accepted[count] = candidate
        count += 1
    return accepted


def test_sampled_descriptors_equal_the_one_at_a_time_loop(monkeypatch):
    """Drawn at once and screened, or rewound and drawn one at a time: the
    descriptors and the generator's next draw are the loop's."""
    config = WorldConfig()
    cases = []
    for seed in range(10):
        # the generator as generate_world hands it over
        rng = np.random.default_rng(seed)
        _place_objects(config, make_walls(config.dimensions), rng, ClassRegistry.default())
        world = generate_world(config, seed)
        n = len(world.landmark_ids)
        cases.append((rng, n, config.descriptor_dim, config.delta_desc, world))
    cases.append((np.random.default_rng(5), 8, 3, 1.0, None))  # rejects candidates
    screened, products = [], []
    all_apart = world_module._all_apart

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(self.shape[0] * self.shape[1] * other.shape[1])
            return np.asarray(self) @ np.asarray(other)

    def recorded(rows, delta):
        screened.append(all_apart(rows.view(Counted), delta))
        return screened[-1]

    monkeypatch.setattr(world_module, "_all_apart", recorded)
    for rng, n, dim, delta, world in cases:
        state = rng.bit_generator.state
        expected = _reference_sample_descriptors(n, dim, delta, rng)
        expected_next = rng.normal()
        rng.bit_generator.state = state
        descriptors = _sample_descriptors(n, dim, delta, rng)
        assert descriptors.tobytes() == expected.tobytes()
        assert rng.normal() == expected_next
        if world is not None:
            assert world.descriptors.tobytes() == expected.tobytes()
    assert screened == [True] * 10 + [False]
    # the pairwise screen runs in blocks, never as one n x n product
    assert len(products) > 10 and max(products) <= _BLOCK_PRODUCTS


def test_infeasible_placement_raises():
    tiny = WorldConfig(dimensions=(1.5, 1.5, 1.5), objects_per_class=6)
    with pytest.raises(WorldGenerationError, match="could not place"):
        generate_world(tiny, seed=0)


# --------------------------------------------------------------------------
# perturbation


def _grid_world():
    """Hand-built world: a movable unlabeled 'flag', a movable labeled panel,
    an immovable object, and two background landmarks."""
    rng = np.random.default_rng(7)

    def desc():
        d = rng.normal(size=16)
        return d / np.linalg.norm(d)

    walls = make_walls((8.0, 4.0, 3.0))
    positions, descriptors, object_ids = [], [], []

    def add(wall_index, uv, object_id):
        positions.append(walls[wall_index].to_world(uv))
        descriptors.append(desc())
        object_ids.append(object_id)

    flag = WorldObject(
        id=0,
        class_id=None,
        wall_index=0,
        center_uv=np.array([4.0, 1.5]),
        rotation=0.0,
        extent=np.array([1.6, 1.2]),
        movable=True,
    )
    # symmetric 4x4 grid: landmark centroid coincides with the footprint centre
    for du in np.linspace(-0.6, 0.6, 4):
        for dv in np.linspace(-0.45, 0.45, 4):
            add(0, flag.center_uv + np.array([du, dv]), 0)

    panel = WorldObject(
        id=1,
        class_id=3,
        wall_index=1,
        center_uv=np.array([2.0, 1.5]),
        rotation=0.0,
        extent=np.array([1.0, 0.8]),
        movable=True,
    )
    for _ in range(5):
        add(1, panel.center_uv + rng.uniform(-0.4, 0.4, size=2) * np.array([1.0, 0.8]), 1)

    fixed = WorldObject(
        id=2,
        class_id=0,
        wall_index=2,
        center_uv=np.array([3.0, 1.0]),
        rotation=0.2,
        extent=np.array([0.5, 0.5]),
        movable=False,
    )
    for _ in range(3):
        add(2, fixed.center_uv + rng.uniform(-0.2, 0.2, size=2), 2)

    for _ in range(2):
        add(3, np.array([rng.uniform(0, 4), rng.uniform(0, 3)]), NO_OBJECT)
    return World(
        dimensions=np.array([8.0, 4.0, 3.0]),
        objects=[flag, panel, fixed],
        landmark_ids=np.arange(len(positions)),
        positions=np.array(positions),
        descriptors=np.array(descriptors),
        object_ids=np.array(object_ids),
        seed=0,
    )


def _same_rows(a: World, b: World, rows) -> bool:
    """Whether rows of the two worlds hold the same bits in every column."""
    return all(
        getattr(a, name)[rows].tobytes() == getattr(b, name)[rows].tobytes()
        for name in ("landmark_ids", "positions", "descriptors", "object_ids")
    )


def test_rotate_180_maps_grid_onto_itself_centroid_fixed():
    world = _grid_world()
    flag = world.objects[0]
    rows = world.object_ids == flag.id
    before = world.positions[rows]
    rotated = perturb_world(world, PerturbationSpec(magnitude_deg=180.0, target="0"))
    after = rotated.positions[rows]

    assert np.linalg.norm(before.mean(axis=0) - after.mean(axis=0)) < 1e-12
    # each landmark lands on the point diametrically opposite the centre
    wall = world.walls()[0]
    centre = wall.to_world(flag.center_uv)
    assert np.allclose(after, 2 * centre - before, atol=1e-12)
    # descriptors unchanged, original world untouched
    assert rotated.descriptors is world.descriptors
    assert np.array_equal(world.positions[rows], before)


def test_untargeted_landmarks_bitwise_identical():
    world = _grid_world()
    rotated = perturb_world(world, PerturbationSpec(magnitude_deg=90.0, target="0"))
    # the unmoved columns are shared, hence bitwise equal
    for name in ("landmark_ids", "descriptors", "object_ids"):
        assert getattr(rotated, name) is getattr(world, name)
    assert _same_rows(world, rotated, world.object_ids != 0)
    assert not rotated.positions.flags.writeable


def test_translate_object_displaces_exactly():
    world = _grid_world()
    moved = perturb_world(world, PerturbationSpec("translate_object", magnitude_m=0.3, target="1"))
    rows = world.object_ids == 1
    shift = moved.positions[rows] - world.positions[rows]
    assert len(shift) == 5 and np.all(np.abs(np.linalg.norm(shift, axis=1) - 0.3) < 1e-12)
    # along the u axis of the object's wall
    u_axis = world.walls()[world.object_by_id(1).wall_index].u_axis
    assert np.allclose(shift, 0.3 * u_axis, atol=1e-12)
    assert _same_rows(world, moved, ~rows)


def test_remove_object_drops_its_landmarks():
    world = _grid_world()
    labeled_before = _labeled(world).sum()
    removed = perturb_world(world, PerturbationSpec("remove_object", target="1"))
    labeled_after = _labeled(removed).sum()
    assert labeled_before - labeled_after == 5
    assert np.all(removed.object_ids != 1)
    assert len(world.landmark_ids) - len(removed.landmark_ids) == 5
    assert [obj.id for obj in removed.objects] == [0, 2]
    # the other rows keep their ids, which are no longer row numbers
    kept = world.object_ids != 1
    assert all(
        getattr(removed, name).tobytes() == getattr(world, name)[kept].tobytes()
        for name in ("landmark_ids", "positions", "descriptors", "object_ids")
    )
    assert not np.array_equal(removed.landmark_ids, np.arange(len(removed.landmark_ids)))


def test_immovable_target_rejected():
    world = _grid_world()
    with pytest.raises(WorldGenerationError, match="not movable"):
        perturb_world(world, PerturbationSpec(magnitude_deg=10.0, target="2"))
    with pytest.raises(WorldGenerationError, match="unknown perturbation kind"):
        PerturbationSpec("explode_object")


def test_densest_movable_selector():
    world = _grid_world()
    spec = PerturbationSpec(kind="rotate_object", magnitude_deg=180.0)
    assert spec.target_id(world) == 0  # 16 landmarks vs the panel's 5


# the worlds of the default config and of the benchmark's scene_change and
# mapping_dense scenes
_BITS_CONFIGS = {
    "default": WorldConfig(),
    "scene_change": WorldConfig(
        landmarks_per_object=12,
        background_landmarks=40,
        clutter_landmarks=70,
        clutter_extent=(2.0, 1.4),
    ),
    "mapping_dense": WorldConfig(landmarks_per_object=40, background_landmarks=200),
}


def _reference_footprint(obj, wall):
    """An object's (4, 3) footprint corners, rotated by their own matrix."""
    half = np.asarray(obj.extent, dtype=float) / 2.0
    corners = np.array(
        [[-half[0], -half[1]], [half[0], -half[1]], [half[0], half[1]], [-half[0], half[1]]]
    )
    c, s = math.cos(obj.rotation), math.sin(obj.rotation)
    uv = obj.center_uv + corners @ np.array([[c, -s], [s, c]]).T
    return np.array([wall.to_world(corner) for corner in uv])


def _reference_world(config, seed):
    """generate_world's landmarks placed one at a time, each offset turned by
    its own 2x2 matvec."""
    rng = np.random.default_rng(seed)
    walls = make_walls(config.dimensions)
    objects = _place_objects(config, walls, rng, ClassRegistry.default())
    counts = [
        config.clutter_landmarks if obj.class_id is None else config.landmarks_per_object
        for obj in objects
    ]
    total = sum(counts) + config.background_landmarks
    descriptors = _sample_descriptors(total, config.descriptor_dim, config.delta_desc, rng)
    positions, object_ids = [], []
    for obj, n in zip(objects, counts):
        wall = walls[obj.wall_index]
        c, s = math.cos(obj.rotation), math.sin(obj.rotation)
        rot = np.array([[c, -s], [s, c]])
        for offset in rng.uniform(-0.5, 0.5, size=(n, 2)) * obj.extent:
            positions.append(wall.to_world(obj.center_uv + rot @ offset))
            object_ids.append(obj.id)
    areas = np.array([w.width * w.height for w in walls])
    for _ in range(config.background_landmarks):
        wall = walls[rng.choice(len(walls), p=areas / areas.sum())]
        uv = np.array([rng.uniform(0, wall.width), rng.uniform(0, wall.height)])
        positions.append(wall.to_world(uv))
        object_ids.append(NO_OBJECT)
    return objects, np.arange(total), np.array(positions), descriptors, np.array(object_ids)


def _reference_perturbed(world, spec):
    """(objects, ids, positions, descriptors, object ids) of the perturbed
    world, every targeted landmark moved alone: two 1-D np.dot calls into
    its wall's chart and one 2x2 matvec."""
    columns = (world.landmark_ids, world.positions, world.descriptors, world.object_ids)
    target = world.object_by_id(spec.target_id(world))
    if spec.kind == "remove_object":
        keep = [i for i, object_id in enumerate(world.object_ids) if object_id != target.id]
        objects = [obj for obj in world.objects if obj.id != target.id]
        return (objects, *(np.array([column[i] for i in keep]) for column in columns))
    if spec.kind == "rotate_object":
        targets = {target.id: (target.center_uv.copy(), math.radians(spec.magnitude_deg))}
    else:  # translate_object, along the wall's u axis
        targets = {target.id: (target.center_uv + np.array([spec.magnitude_m, 0.0]), 0.0)}
    walls = world.walls()
    positions = []
    for position, object_id in zip(world.positions, world.object_ids):
        if object_id not in targets:
            positions.append(position)
            continue
        obj = world.object_by_id(object_id)
        wall = walls[obj.wall_index]
        new_center, angle = targets[object_id]
        uv = np.array(
            [
                np.dot(position - wall.origin, wall.u_axis),
                np.dot(position - wall.origin, wall.v_axis),
            ]
        )
        c, s = math.cos(angle), math.sin(angle)
        uv = new_center + np.array([[c, -s], [s, c]]) @ (uv - obj.center_uv)
        positions.append(wall.to_world(uv))
    objects = []
    for obj in world.objects:
        if obj.id in targets:
            center, angle = targets[obj.id]
            obj = WorldObject(obj.id, obj.class_id, obj.wall_index, center,
                              obj.rotation + angle, obj.extent, obj.movable)
        objects.append(obj)
    return (objects, world.landmark_ids, np.array(positions), world.descriptors,
            world.object_ids)


def _frame_bits(world, seed):
    trajectory = generate_trajectory(
        "yaw", TrajectoryParams(center=(4.1, 2.05, 1.5), steps=4, radius=0.35)
    )
    frames = []
    for i, (_, pose) in enumerate(trajectory):
        frame = synthesize_frame(
            world, pose, DEFAULT_INTRINSICS, rng=np.random.default_rng(seed), frame_id=i
        )
        frames.append(
            (
                frame.keypoints.tobytes(),
                frame.descriptors.tobytes(),
                frame.landmark_ids.tobytes(),
                _box_rows(frame.boxes),
            )
        )
    return frames


def _assert_world_bits(world, reference, seed):
    """The world's columns, footprints and frames against the reference's
    (objects, columns), whose frames come from a World built on them."""
    objects, *columns = reference
    names = ("landmark_ids", "positions", "descriptors", "object_ids")
    for name, expected in zip(names, columns):
        assert _same_bits(getattr(world, name), np.asarray(expected)), name
    walls = world.walls()
    footprints = np.array(
        [_reference_footprint(obj, walls[obj.wall_index]) for obj in objects]
    ).reshape(-1, 4, 3)
    assert _same_bits(world.footprints, footprints)
    expected = World(world.dimensions, objects, *columns, seed=world.seed)
    assert _frame_bits(world, seed) == _frame_bits(expected, seed)


@pytest.mark.parametrize("config_name", sorted(_BITS_CONFIGS))
def test_columns_equal_the_one_landmark_at_a_time_reference(config_name):
    """generate_world and perturb_world move whole columns at once; every
    column, footprint and synthesized frame keeps the bits of placing and
    moving each landmark alone."""
    config = _BITS_CONFIGS[config_name]
    for seed in range(10):
        world = generate_world(config, seed)
        _assert_world_bits(world, _reference_world(config, seed), seed)
        second = [obj for obj in world.objects if obj.movable][1]
        specs = [
            PerturbationSpec(magnitude_deg=180.0),
            PerturbationSpec(magnitude_deg=37.0, target=str(second.id)),
            PerturbationSpec("translate_object", magnitude_m=0.3),
            PerturbationSpec("remove_object"),
        ]
        for spec in specs:
            perturbed = perturb_world(world, spec)
            _assert_world_bits(perturbed, _reference_perturbed(world, spec), seed)


# --------------------------------------------------------------------------
# trajectories


def test_yaw_sweep_steps_and_relative_rotation():
    params = TrajectoryParams(center=(4, 2, 1.5), steps=36, sweep_deg=360.0)
    samples = generate_trajectory("yaw", params)
    assert len(samples) == 36
    expected_body = rotation_from_axis_angle(np.array([0.0, 0.0, math.radians(-10.0)]))
    for (_, pose_a), (_, pose_b) in zip(samples, samples[1:]):
        rel_rot, _ = relative_motion(pose_a, pose_b)
        assert abs(rotation_error_deg(rel_rot, np.eye(3)) - 10.0) < 1e-9
        in_body = BODY_TO_CAMERA.T @ rel_rot @ BODY_TO_CAMERA
        assert np.allclose(in_body, expected_body, atol=1e-12)
        assert np.linalg.norm(pose_a.camera_center() - pose_b.camera_center()) < 1e-12


def test_yaw_with_radius_orbits_the_center():
    params = TrajectoryParams(center=(4, 2, 1.5), steps=12, sweep_deg=360.0, radius=0.5)
    samples = generate_trajectory("yaw", params)
    for _, pose in samples:
        center_offset = pose.camera_center() - np.array([4.0, 2.0, 1.5])
        assert abs(np.linalg.norm(center_offset) - 0.5) < 1e-12
        assert abs(center_offset[2]) < 1e-12


def test_translate_forward_constant_steps():
    params = TrajectoryParams(center=(2, 2, 1.5), steps=20, step_m=0.1, heading_deg=0.0)
    samples = generate_trajectory("translate_forward", params)
    assert len(samples) == 20
    for (_, pose_a), (_, pose_b) in zip(samples, samples[1:]):
        rel_rot, _ = relative_motion(pose_a, pose_b)
        assert rotation_error_deg(rel_rot, np.eye(3)) < 1e-9
        step = pose_b.camera_center() - pose_a.camera_center()
        assert np.allclose(step, [0.1, 0.0, 0.0], atol=1e-12)


def test_trajectory_chain_composition_reproduces_final_pose():
    for kind in ("yaw", "roll", "pitch", "translate_lateral"):
        params = TrajectoryParams(steps=15, sweep_deg=120.0, step_m=0.07, radius=0.3)
        samples = generate_trajectory(kind, params)
        current = samples[0][1]
        for (_, pose_a), (_, pose_b) in zip(samples, samples[1:]):
            rel_rot, rel_t = relative_motion(pose_a, pose_b)
            current = Pose(
                rel_rot @ current.rotation,
                rel_rot @ current.translation + rel_t,
            )
        final = samples[-1][1]
        assert rotation_error_deg(current.rotation, final.rotation) < 1e-9
        assert np.linalg.norm(current.translation - final.translation) < 1e-9


def test_unknown_trajectory_kind():
    with pytest.raises(ValueError, match="unknown trajectory kind"):
        generate_trajectory("teleport", TrajectoryParams())


# --------------------------------------------------------------------------
# frame synthesis


def _looking_at_wall_pose(world):
    """Camera at the module centre looking at wall 0 (y=0 plane)."""
    # body x must point along -y (toward wall 0): heading -90 degrees
    samples = generate_trajectory(
        "yaw", TrajectoryParams(center=(4.0, 2.0, 1.5), steps=1, heading_deg=-90.0)
    )
    return samples[0][1]


def test_zero_noise_keypoints_equal_exact_projections():
    world = generate_world(WorldConfig(), seed=8)
    pose = _looking_at_wall_pose(world)
    frame = synthesize_frame(
        world, pose, DEFAULT_INTRINSICS, noise=(0.0, 0.0), rng=np.random.default_rng(0)
    )
    assert len(frame.keypoints) > 30
    pixels, valid = project_points(pose, DEFAULT_INTRINSICS, world.positions)
    for kp, lm_id in zip(frame.keypoints, frame.landmark_ids):
        assert valid[lm_id]
        assert np.allclose(kp, pixels[lm_id], atol=1e-12)
    assert np.array_equal(
        frame.descriptors, world.descriptors[frame.landmark_ids]
    )


def test_camera_facing_no_landmarks_gives_empty_frame():
    world = generate_world(WorldConfig(), seed=8)
    # outside the prism, looking away from it
    away = generate_trajectory(
        "yaw", TrajectoryParams(center=(50.0, 50.0, 1.5), steps=1, heading_deg=45.0)
    )[0][1]
    frame = synthesize_frame(world, away, DEFAULT_INTRINSICS, noise=(0.5, 0.05),
                             rng=np.random.default_rng(0))
    assert frame.keypoints.shape == (0, 2)
    assert len(frame.landmark_ids) == 0


def test_pixel_noise_matches_half_normal_mean():
    world = generate_world(WorldConfig(), seed=9)
    pose = _looking_at_wall_pose(world)
    exact = synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(0.0, 0.0),
                             rng=np.random.default_rng(0))
    # keep samples away from the border so clamping cannot bias the statistic
    interior = (
        (exact.keypoints[:, 0] > 5)
        & (exact.keypoints[:, 0] < 634)
        & (exact.keypoints[:, 1] > 5)
        & (exact.keypoints[:, 1] < 474)
    )
    deviations = []
    trial = 0
    while len(deviations) < 10000:
        trial += 1
        noisy = synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(0.5, 0.0),
                                 rng=np.random.default_rng(1000 + trial))
        assert np.array_equal(noisy.landmark_ids, exact.landmark_ids)
        deviations.extend(
            np.abs(noisy.keypoints[interior] - exact.keypoints[interior]).ravel()
        )
    mean_abs = float(np.mean(deviations))
    expected = 0.5 * math.sqrt(2.0 / math.pi)
    assert abs(mean_abs - expected) / expected < 0.05


def test_keypoints_within_three_sigma_of_projection():
    world = generate_world(WorldConfig(), seed=10)
    pose = _looking_at_wall_pose(world)
    sigma = 0.5
    exact = synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(0.0, 0.0),
                             rng=np.random.default_rng(0))
    total, close = 0, 0
    for trial in range(30):
        noisy = synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(sigma, 0.0),
                                 rng=np.random.default_rng(2000 + trial))
        distance = np.linalg.norm(noisy.keypoints - exact.keypoints, axis=1)
        close += int(np.sum(distance < 3.0 * sigma * math.sqrt(2.0)))
        total += len(distance)
    assert close / total >= 0.99


def test_ground_truth_boxes_contain_object_keypoints():
    world = generate_world(WorldConfig(), seed=11)
    class_of = {obj.id: obj.class_id for obj in world.objects}
    trajectory = generate_trajectory(
        "yaw", TrajectoryParams(center=(4.0, 2.0, 1.5), steps=12, sweep_deg=360.0)
    )
    total, contained_noisy = 0, 0
    for i, (t, pose) in enumerate(trajectory):
        exact = synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(0.0, 0.0),
                                 rng=np.random.default_rng(0), frame_id=i)
        noisy = synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(0.5, 0.0),
                                 rng=np.random.default_rng(3000 + i), frame_id=i)
        boxes_by_class = {}
        for box in exact.boxes.boxes:
            boxes_by_class.setdefault(box.semantic_class.id, []).append(box)
        for frame, counter in ((exact, None), (noisy, "noisy")):
            for kp, lm_id in zip(frame.keypoints, frame.landmark_ids):
                class_id = class_of.get(world.object_ids[lm_id])
                if class_id is None:
                    continue
                inside = any(
                    b.contains(kp[0], kp[1]) for b in boxes_by_class.get(class_id, [])
                )
                if counter is None:
                    assert inside, "zero-noise keypoint escaped its object box"
                else:
                    total += 1
                    contained_noisy += int(inside)
    assert total > 500
    assert contained_noisy / total >= 0.99


def test_clutter_objects_produce_no_boxes():
    world = generate_world(WorldConfig(), seed=12)
    class_object_count = sum(1 for o in world.objects if o.class_id is not None)
    clutter_count = sum(1 for o in world.objects if o.class_id is None)
    assert clutter_count == 2
    trajectory = generate_trajectory("yaw", TrajectoryParams(steps=8))
    for i, (_, pose) in enumerate(trajectory):
        frame = synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(0.0, 0.0),
                                 rng=np.random.default_rng(0), frame_id=i)
        assert len(frame.boxes.boxes) <= class_object_count
        for box in frame.boxes.boxes:
            assert box.semantic_class.name in world.registry


def test_near_plane_clipped_box_stays_finite():
    grid = _grid_world()
    # give the flag a class so it gets a box
    flag = dataclasses.replace(grid.objects[0], class_id=5)
    world = dataclasses.replace(grid, objects=[flag, *grid.objects[1:]])
    # camera 20 cm in front of the flag's wall, looking along the wall:
    # part of the footprint is behind the camera, the rest must clip cleanly
    pose = generate_trajectory(
        "yaw", TrajectoryParams(center=(4.0, 0.2, 1.5), steps=1, heading_deg=0.0)
    )[0][1]
    frame = synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(0.0, 0.0),
                             rng=np.random.default_rng(0))
    for box in frame.boxes.boxes:
        assert 0 <= box.x_min <= box.x_max <= 639
        assert 0 <= box.y_min <= box.y_max <= 479


def _reference_ground_truth_boxes(world, pose, intrinsics, margin_px, frame_id):
    """Each registered object's footprint built, moved and projected alone."""
    walls = world.walls()
    boxes = []
    for obj in world.objects:
        if obj.class_id is None:
            continue
        corners = obj.footprint_corners_3d(walls[obj.wall_index])
        camera = pose.transform(corners)
        polygon = _clip_polygon_to_near_plane(camera)
        if len(polygon) < 3:
            continue
        pixels = intrinsics.pixels(polygon)
        x0 = max(0.0, float(pixels[:, 0].min()) - margin_px)
        y0 = max(0.0, float(pixels[:, 1].min()) - margin_px)
        x1 = min(float(intrinsics.width - 1), float(pixels[:, 0].max()) + margin_px)
        y1 = min(float(intrinsics.height - 1), float(pixels[:, 1].max()) + margin_px)
        if x1 <= x0 or y1 <= y0:
            continue
        boxes.append(
            BoundingBox(world.registry.by_id(obj.class_id), x0, y0, x1, y1, confidence=1.0)
        )
    return DetectionSet(frame_id, boxes)


def _box_rows(detections):
    return [
        (b.semantic_class.id, b.x_min, b.y_min, b.x_max, b.y_max, b.confidence)
        for b in detections.boxes
    ]


def test_ground_truth_boxes_equal_the_per_object_projection():
    """One projection of every stacked footprint gives each box the bits of
    projecting its object alone, for objects cut by the near plane, off the
    image and in view."""
    rng = np.random.default_rng(21)
    seen = {"clipped": 0, "off image": 0, "boxed": 0}
    for seed in range(3):
        world = generate_world(WorldConfig(), seed=seed)
        walls = world.walls()
        for i in range(40):
            center = rng.uniform((0.1, 0.1, 0.2), (7.9, 3.9, 2.8))
            rotation = rotation_from_axis_angle(rng.normal(size=3))
            pose = Pose(rotation, -rotation @ center)
            margin = (0.0, 2.0, 8.0)[i % 3]
            boxes = _ground_truth_boxes(world, pose, DEFAULT_INTRINSICS, margin, i)
            expected = _reference_ground_truth_boxes(world, pose, DEFAULT_INTRINSICS, margin, i)
            assert boxes.frame_id == expected.frame_id
            assert _box_rows(boxes) == _box_rows(expected)
            polygons = 0
            for obj in world.objects:
                if obj.class_id is None:
                    continue
                camera = pose.transform(obj.footprint_corners_3d(walls[obj.wall_index]))
                in_front = camera[:, 2] >= _NEAR_PLANE
                seen["clipped"] += int(in_front.any() and not in_front.all())
                polygons += int(len(_clip_polygon_to_near_plane(camera)) >= 3)
            seen["off image"] += polygons - len(expected.boxes)
            seen["boxed"] += len(expected.boxes)
    assert min(seen.values()) > 0, seen


def test_frames_read_the_footprints_stacked_at_construction(monkeypatch):
    world = generate_world(WorldConfig(), seed=3)
    calls = []
    corners = WorldObject.footprint_corners_3d

    def counted(obj, wall):
        calls.append(obj.id)
        return corners(obj, wall)

    monkeypatch.setattr(WorldObject, "footprint_corners_3d", counted)
    trajectory = generate_trajectory("yaw", TrajectoryParams(steps=6))
    frames = [
        synthesize_frame(world, pose, DEFAULT_INTRINSICS, rng=np.random.default_rng(i))
        for i, (_, pose) in enumerate(trajectory)
    ]
    assert sum(len(frame.boxes.boxes) for frame in frames) > 0
    assert calls == []


def test_negative_noise_rejected():
    world = _grid_world()
    pose = _looking_at_wall_pose(world)
    with pytest.raises(ValueError, match="non-negative"):
        synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(-0.1, 0.0))


# --------------------------------------------------------------------------
# serialization and config


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _arrays(path) -> dict:
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def _tree(root) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*")) if path.is_file()
    }


def _assert_split_round_trip(world, frames, tmp_path):
    """write -> load -> write: the same bytes, every array bit for bit, the
    quaternion included: a read frame keeps the quaternion it was read with."""
    first, again = tmp_path / "first", tmp_path / "again"
    write_dataset(str(first), world, frames, DEFAULT_INTRINSICS)
    loaded = load_dataset_frames(str(first / "frames"), ClassRegistry.default())
    write_dataset(str(again), world, loaded, DEFAULT_INTRINSICS)
    assert sorted(p.name for p in (first / "frames").iterdir()) == ["observations.npz"]
    assert list(_arrays(first / "frames" / "observations.npz")) == [
        "id", "timestamp", "q", "t", "offsets", "keypoints", "descriptors", "landmark_ids"
    ]
    assert _tree(again) == _tree(first)

    assert len(loaded) == len(frames)
    for frame, read in zip(frames, loaded):
        assert read.frame_id == frame.frame_id and read.timestamp == frame.timestamp
        for name in ("keypoints", "descriptors", "landmark_ids", "quaternion"):
            assert _same_bits(getattr(read, name), getattr(frame, name)), name
        assert _same_bits(read.pose.translation, frame.pose.translation)
        assert rotation_error_deg(read.pose.rotation, frame.pose.rotation) < 1e-12
        assert read.boxes == frame.boxes  # read back from the annotation files
    write_dataset(str(again), world, frames, DEFAULT_INTRINSICS)
    assert _tree(again) == _tree(first)  # the same frames, the same bytes
    return loaded


def test_load_intrinsics_rejects_a_nan_focal_length(tmp_path):
    path = tmp_path / "intrinsics.json"
    path.write_text(
        '{"fx": NaN, "fy": 400.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480}'
    )
    with pytest.raises(WorldGenerationError, match=f"{path}: .*positive and finite"):
        load_intrinsics(str(path))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("width", "640.9", "width must be an integer, not 640.9"),
        ("height", '"480"', "height must be an integer, not '480'"),
        ("width", "true", "width must be an integer, not True"),
        ("fx", '"400"', "fx must be a number, not '400'"),
        ("cy", None, "cy must be a number, not None"),
    ],
    ids=["fractional-width", "string-height", "boolean-width", "string-fx", "missing-cy"],
)
def test_load_intrinsics_takes_json_types_as_they_are(tmp_path, field, value, message):
    fields = {"fx": "400.0", "fy": "400.0", "cx": "320.0", "cy": "240.0",
              "width": "640", "height": "480"}
    fields[field] = value
    path = tmp_path / "intrinsics.json"
    path.write_text(
        "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items() if v is not None) + "}"
    )
    expected = re.escape(f"{path}: malformed intrinsics ({message})")
    with pytest.raises(WorldGenerationError, match=expected):
        load_intrinsics(str(path))


@pytest.mark.parametrize(
    "field, value",
    [("width", "1" + "0" * 400), ("height", "0"), ("width", "-640"), ("height", "65537")],
    ids=["401-digit-width", "zero-height", "negative-width", "height-past-the-bound"],
)
def test_load_intrinsics_bounds_the_image_size(tmp_path, field, value):
    """A width or height outside 1..65536 pixels is refused at load, naming
    the file; a 401-digit width once loaded, and load_detections then failed
    on float(width - 1) with a bare OverflowError."""
    fields = {"fx": "400.0", "fy": "400.0", "cx": "320.0", "cy": "240.0",
              "width": "640", "height": "480"}
    fields[field] = value
    path = tmp_path / "intrinsics.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
    expected = re.escape(
        f"{path}: malformed intrinsics ({field} must lie in 1..65536 pixels, not {value})"
    )
    with pytest.raises(WorldGenerationError, match=expected):
        load_intrinsics(str(path))


_FRESH_INTRINSICS = {
    "fx": 400.0, "fy": 400.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480,
}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_corrupted_intrinsics_file_loads_a_valid_camera_or_names_the_file(
    tmp_path_factory, data
):
    """A fresh file with one field replaced by NaN, an infinity, a negative or
    a wrong type, or with bytes flipped, loads into a camera that passes a
    fresh file's checks, or raises a WorldGenerationError naming the file."""
    path = tmp_path_factory.mktemp("camera") / "intrinsics.json"
    path.write_bytes(corrupted_json(data, _FRESH_INTRINSICS))
    try:
        camera = load_intrinsics(str(path))
    except WorldGenerationError as exc:
        assert str(path) in str(exc)
        return
    focal, centre = (camera.fx, camera.fy), (camera.cx, camera.cy)
    assert all(type(v) is float and math.isfinite(v) for v in focal + centre)
    assert type(camera.width) is int and type(camera.height) is int
    assert 0 < camera.width <= 1 << 16 and 0 < camera.height <= 1 << 16
    assert min(focal) > 0.0
    assert 0.0 <= camera.cx < camera.width and 0.0 <= camera.cy < camera.height


def test_frame_round_trip_bitwise(tmp_path):
    world = generate_world(WorldConfig(), seed=14)
    pose = _looking_at_wall_pose(world)
    frame = synthesize_frame(world, pose, DEFAULT_INTRINSICS, noise=(0.5, 0.05),
                             rng=np.random.default_rng(4), frame_id=9, timestamp=0.9)
    assert len(frame.keypoints) > 0 and frame.boxes.boxes
    (loaded,) = _assert_split_round_trip(world, [frame], tmp_path)
    assert loaded.frame_id == 9 and loaded.timestamp == 0.9


def test_empty_frame_survives_round_trip(tmp_path):
    world = generate_world(WorldConfig(), seed=8)
    away = generate_trajectory(
        "yaw", TrajectoryParams(center=(50.0, 50.0, 1.5), steps=1, heading_deg=45.0)
    )[0][1]
    frame = synthesize_frame(world, away, DEFAULT_INTRINSICS, noise=(0.5, 0.05),
                             rng=np.random.default_rng(0))
    assert frame.descriptors.shape == (0, 64)
    (loaded,) = _assert_split_round_trip(world, [frame], tmp_path)
    assert loaded.keypoints.shape == (0, 2)
    assert loaded.descriptors.shape == (0, 64)  # the width survives an empty frame
    features = extract_frame_features(
        FeatureObservation(loaded.keypoints, loaded.descriptors), loaded.boxes, masked=False
    )
    assert len(features.coordinates) == len(features.descriptors) == 0


def _random_frame(rng, frame_id: int, rows: int) -> SyntheticFrame:
    """A frame at a random pose with random observations and no boxes."""
    pose = Pose(random_rotation(rng), rng.uniform(-5.0, 5.0, size=3))
    descriptors = rng.normal(size=(rows, 8))
    return SyntheticFrame(
        frame_id=frame_id,
        timestamp=0.1 * frame_id,
        pose=pose,
        quaternion=quaternion_from_rotation(pose.rotation),
        keypoints=rng.uniform(0.0, 639.0, size=(rows, 2)),
        descriptors=descriptors / np.linalg.norm(descriptors, axis=1, keepdims=True),
        landmark_ids=rng.integers(0, 1000, size=rows),
        boxes=DetectionSet(frame_id),
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_a_split_of_random_rotations_writes_back_to_the_same_bytes(tmp_path_factory, seed):
    """A split read and written again gives the same bytes, whatever the
    rotations: re-deriving q from a read rotation would move its last bits
    in about half of them."""
    rng = np.random.default_rng(seed)
    frames = [_random_frame(rng, i, int(rng.integers(0, 4))) for i in range(16)]
    loaded = _assert_split_round_trip(None, frames, tmp_path_factory.mktemp("split"))
    moved = [
        not _same_bits(quaternion_from_rotation(read.pose.rotation), read.quaternion)
        for read in loaded
    ]
    assert any(moved)  # the stored quaternion is what keeps these bytes


def _split_arrays(tmp_path) -> tuple[Path, dict]:
    """A written two-frame split's archive path, and its arrays."""
    world = generate_world(WorldConfig(), seed=14)
    rng = np.random.default_rng(4)
    frames = [
        synthesize_frame(world, _looking_at_wall_pose(world), DEFAULT_INTRINSICS,
                         noise=(0.5, 0.05), rng=rng, frame_id=frame_id)
        for frame_id in (3, 4)
    ]
    write_dataset(str(tmp_path / "split"), world, frames, DEFAULT_INTRINSICS)
    path = tmp_path / "split" / "frames" / "observations.npz"
    return path, _arrays(path)


def _write_frame_arrays(path, arrays: dict) -> str:
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return str(path)


def _load_split(path) -> list:
    return load_dataset_frames(str(Path(path).parent), ClassRegistry.default())


def test_frame_with_disagreeing_counts_names_the_file(tmp_path):
    path, raw = _split_arrays(tmp_path)
    raw["descriptors"] = raw["descriptors"][1:]
    _write_frame_arrays(path, raw)
    with pytest.raises(
        WorldGenerationError, match=r"observations\.npz: .*keypoints but descriptors"
    ):
        _load_split(path)


def _falling_offsets(raw):
    raw["offsets"][1] = raw["offsets"][2] + 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda raw: raw.pop("keypoints"), "missing array 'keypoints'"),
        (lambda raw: raw.update(id=raw["id"] + 0.5), "'id' has dtype float64"),
        (lambda raw: raw.update(t=raw["t"][:, :2]), "'t' has shape"),
        (lambda raw: raw.update(keypoints=raw["keypoints"][:, :1]), "'keypoints' has shape"),
        (lambda raw: raw["keypoints"].__setitem__((0, 0), np.inf), "'keypoints' holds a non-finite"),
        (lambda raw: raw.update(landmark_ids=raw["landmark_ids"][1:]), "'landmark_ids' has shape"),
        (lambda raw: raw["landmark_ids"].__setitem__(-1, -3), "frame 4: negative landmark id"),
        (lambda raw: raw["q"].__setitem__(1, 0.0), "frame 4: quaternion .* has no direction"),
        (lambda raw: raw["q"].__setitem__(0, [1e-160, 1e-160, 0.0, 0.0]), "frame 3: rotation is"),
        (_falling_offsets, "'offsets' must rise from 0 to"),
        (lambda raw: raw["offsets"].__setitem__(0, 1), "'offsets' must rise from 0 to"),
        (lambda raw: raw["offsets"].__setitem__(-1, raw["offsets"][-1] + 1), "'offsets' must rise"),
        (lambda raw: raw.update(id=np.array([3, 3])), "frame 3 appears more than once"),
    ],
    ids=[
        "missing-keypoints", "float-id", "short-translation", "one-column-keypoints",
        "infinite-keypoint", "short-landmark-ids", "negative-landmark-id", "zero-quaternion",
        "tiny-quaternion", "falling-offsets", "offsets-from-one", "offsets-past-the-rows", "repeated-id",
    ],
)
def test_malformed_frame_files_name_the_file(tmp_path, corrupt, message):
    path, raw = _split_arrays(tmp_path)
    corrupt(raw)
    _write_frame_arrays(path, raw)
    expected = rf"observations\.npz: malformed observations content .*{message}"
    with pytest.raises(WorldGenerationError, match=expected):
        _load_split(path)


def test_unreadable_frame_files_name_the_file(tmp_path):
    path, _ = _split_arrays(tmp_path)
    data = path.read_bytes()
    cases = {
        "empty": b"",
        "cut": data[: len(data) // 2],
        "text": b"not an archive",
    }
    for name, content in cases.items():
        path.write_bytes(content)
        with pytest.raises(
            WorldGenerationError, match=r"observations\.npz: not a valid observations file"
        ):
            _load_split(path)
    path.write_text('{"id": [0], "keypoints": []}\n')
    with pytest.raises(WorldGenerationError, match=r"observations\.npz: unsupported format"):
        _load_split(path)
    # a frames directory of the older per-frame files: simulate again
    path.unlink()
    (path.parent / "000003.npz").write_bytes(data)
    with pytest.raises(
        WorldGenerationError,
        match=rf"{re.escape(str(path.parent))}: no observations\.npz.*simulate the dataset again",
    ):
        _load_split(path)


_FLOAT_ARRAYS = ("timestamp", "q", "t", "keypoints", "descriptors")
_INT_ARRAYS = ("id", "offsets", "landmark_ids")


def _corrupt_observations(data, raw: dict) -> str:
    """Draw a corruption of a valid split archive and return its kind: one
    array of `raw` changed in place so that no valid archive holds it, or
    "truncated", for the caller to cut the archive's bytes short."""
    kind = data.draw(st.sampled_from(
        ["truncated", "non-finite", "dtype", "shape", "offsets", "negative id", "quaternion"]
    ), label="corruption")
    if kind == "non-finite":
        name = data.draw(st.sampled_from(_FLOAT_ARRAYS), label="array")
        flat = raw[name].reshape(-1)
        flat[data.draw(st.integers(0, len(flat) - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
    elif kind == "dtype":
        name = data.draw(st.sampled_from(_FLOAT_ARRAYS + _INT_ARRAYS), label="array")
        wrong = [str, np.int64 if name in _FLOAT_ARRAYS else np.float64]
        raw[name] = raw[name].astype(data.draw(st.sampled_from(wrong)))
    elif kind == "shape":
        name = data.draw(st.sampled_from(_FLOAT_ARRAYS + _INT_ARRAYS), label="array")
        reshape = data.draw(st.sampled_from(["drop a row", "add an axis", "flatten"]))
        array = raw[name]
        if reshape == "drop a row":
            raw[name] = array[:-1]
        elif reshape == "add an axis":
            raw[name] = array[..., None]
        else:
            raw[name] = array.reshape(-1) if array.ndim > 1 else array[None]
    elif kind == "offsets":
        offsets, rows = raw["offsets"], len(raw["keypoints"])
        i = data.draw(st.integers(0, len(offsets) - 1), label="cut")
        step = data.draw(st.integers(1, rows + 3), label="step")
        if i == 0:
            offsets[0] = data.draw(st.sampled_from([-step, step]))  # does not start at 0
        elif i == len(offsets) - 1:
            offsets[i] = rows + data.draw(st.sampled_from([-step, step]))  # misses the end
        else:
            offsets[i] = offsets[i - 1] - step  # falls
    elif kind == "negative id":
        ids = raw["landmark_ids"]
        ids[data.draw(st.integers(0, len(ids) - 1))] = -data.draw(st.integers(1, 2**40))
    elif kind == "quaternion":  # zero, or too small to normalize to a rotation
        raw["q"][data.draw(st.integers(0, len(raw["q"]) - 1))] = data.draw(
            st.sampled_from([0.0, [1e-160, 1e-160, 0.0, 0.0]])
        )
    return kind


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_corrupted_observations_archive_names_the_file(tmp_path_factory, data):
    """A valid split archive with one array corrupted (a NaN or infinity, a
    wrong dtype or shape, offsets that fall or leave the rows, a negative
    landmark id, a zero or tiny quaternion) or with its bytes cut short raises a
    WorldGenerationError naming the archive."""
    path, raw = _split_arrays(tmp_path_factory.mktemp("split"))
    assert len(_load_split(path)) == 2
    content = path.read_bytes()
    if _corrupt_observations(data, raw) == "truncated":
        path.write_bytes(content[: data.draw(st.integers(0, len(content) - 1), label="length")])
    else:
        _write_frame_arrays(path, raw)
    with pytest.raises(WorldGenerationError) as error:
        _load_split(path)
    assert str(path) in str(error.value)


def test_trajectory_file_round_trip(tmp_path):
    world = generate_world(WorldConfig(), seed=15)
    samples = generate_trajectory("yaw", TrajectoryParams(steps=5, radius=0.5))
    entries = [TrajectoryEntry(t, pose) for t, pose in samples]
    entries.insert(2, TrajectoryEntry(0.15, None, "localization failed"))
    path = tmp_path / "traj.txt"
    write_trajectory(str(path), entries)
    loaded = read_trajectory(str(path))
    assert len(loaded) == 6
    assert loaded[2].pose is None and loaded[2].failure_reason == "localization failed"
    for original, parsed in zip(entries, loaded):
        assert abs(original.timestamp - parsed.timestamp) < 1e-9
        if original.pose is None:
            continue
        assert rotation_error_deg(original.pose.rotation, parsed.pose.rotation) < 1e-5
        assert np.linalg.norm(original.pose.translation - parsed.pose.translation) < 1e-6


_GOOD_LINE = "0.100000 1.0 2.0 1.5 0.0 0.0 0.0 1.0"


@pytest.mark.parametrize(
    "line, message",
    [
        ("0.100000 nan 2.0 1.5 0.0 0.0 0.0 1.0", "non-finite field"),
        ("0.100000 1.0 2.0 1.5 0.0 inf 0.0 1.0", "non-finite field"),
        ("nan 1.0 2.0 1.5 0.0 0.0 0.0 1.0", "non-finite field"),
        ("0.100000 1.0 2.0 1.5 0.0 zero 0.0 1.0", "non-numeric field"),
        ("# nan FAILED localization failed", "non-finite field"),
        ("# soon FAILED localization failed", "non-numeric field"),
        ("0.100000 1.0 2.0 1.5 0.0 0.0 0.0 0.0", "zero quaternion"),
    ],
    ids=[
        "nan-tx", "inf-qy", "nan-time", "word-qy", "nan-failed-time", "word-failed-time",
        "zero-quaternion",
    ],
)
def test_trajectory_reader_names_the_line_of_a_bad_field(tmp_path, line, message):
    path = tmp_path / "traj.txt"
    path.write_text(f"# timestamp tx ty tz qx qy qz qw\n{_GOOD_LINE}\n{line}\n")
    with pytest.raises(MapFormatError, match=rf"traj\.txt:3: {message}"):
        read_trajectory(str(path))


def test_scene_config_box_margin_reaches_the_boxes(tmp_path):
    from semloc.evaluation import synthesize_scene

    def mapping_boxes(margin_line: str):
        path = tmp_path / "scene.ini"
        path.write_text(
            "[world]\nseed = 4\n[noise]\n" + margin_line
            + "[mapping]\nsteps = 6\nradius = 0.5\n[evaluation]\nsteps = 1\n"
            "[perturbation]\nenabled = false\n"
        )
        config = load_scene_config(str(path))
        return [frame.boxes.boxes for frame in synthesize_scene(config, config.seed).mapping_frames]

    def inflated(a, b) -> bool:
        sides = (a.x_min - b.x_min, a.y_min - b.y_min, b.x_max - a.x_max, b.y_max - a.y_max)
        return a.semantic_class == b.semantic_class and sides == pytest.approx((6.0,) * 4)

    unclamped = 0
    # a wider margin can only add boxes that are clamped (an object just off
    # the image), so each unclamped wide box has its default-margin box
    for narrow, wide in zip(mapping_boxes(""), mapping_boxes("box_margin_px = 8\n")):
        for b in wide:
            if 0.0 < b.x_min and 0.0 < b.y_min and b.x_max < 639.0 and b.y_max < 479.0:
                unclamped += 1
                assert any(inflated(a, b) for a in narrow)
    assert unclamped >= 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("[world]\ndim_x = abc\n", "[world] dim_x: could not convert string to float: 'abc'"),
        ("[world]\nseed = 1\n[world]\nseed = 2\n", "[world] is repeated (line 3)"),
        ("[world]\nseed = 1\nseed = 2\n", "[world] seed is repeated (line 3)"),
        ("[noise]\nsigma_px = nan\n", "[noise] sigma_px: 'nan' is not finite"),
        ("[mapping]\nradius = -inf\n", "[mapping] radius: '-inf' is not finite"),
        ("[world]\nlandmarks_per_object = -5\n", "[world] landmarks_per_object: -5 is negative"),
        ("[mapping]\ncenter = 1, 2\n", "[mapping] center: needs three comma-separated values"),
        ("[perturbation]\nenabled = maybe\n", "[perturbation] enabled: 'maybe' is not a boolean"),
        ("[camera]\nwidth = 10\n", "[camera]: principal point lies outside the image"),
        ("[benchmark]\nseeds = 0,0\n", "[benchmark] seeds: 0 is listed twice"),
        ("[benchmark]\nmodes = pre, pre\n", "[benchmark] modes: 'pre' is listed twice"),
        (
            "[benchmark]\nmodes = baseline,semantic\n",
            "[benchmark] modes: 'semantic' is not one of baseline, pre, post",
        ),
        (
            "[world]\nlandmark_per_object = 5\n",
            "[world] landmark_per_object: unknown key; [world] holds dim_x, dim_y, dim_z,",
        ),
        ("[wrld]\nseed = 7\n", "[wrld]: unknown section; a scene holds [world], [camera],"),
        ("[DEFAULT]\nseed = 7\n[world]\n", "[DEFAULT]: unknown section"),
        (
            "[perturbation]\nkind = rotat_object\n",
            "[perturbation] kind: 'rotat_object' is not one of rotate_object, translate_object,"
            " remove_object",
        ),
        (
            "[perturbation]\nkind = swap_objects\n",
            "[perturbation] kind: 'swap_objects' is not one of rotate_object,",
        ),
        (
            "[perturbation]\ntarget = densest\n",
            "[perturbation] target: 'densest' is neither densest_movable nor an object id",
        ),
        (
            "[perturbation]\ntarget = 3,4\n",
            "[perturbation] target: '3,4' is neither densest_movable nor an object id",
        ),
        ("[world]\ndim_y = 0\n", "[world] dim_y: 0.0 is not positive"),
        ("[noise]\nsigma_px = -0.5\n", "[noise] sigma_px: -0.5 is negative"),
        ("[evaluation]\ndt = -0.1\n", "[evaluation] dt: -0.1 is not positive"),
        ("[camera]\nheight = 65537\n", "[camera] height: 65537 is not in 1..65536"),
        ("[benchmark]\nvocabulary_k = 1\n", "[benchmark] vocabulary_k: 1 is not in 2..inf"),
        (
            "[perturbation]\nkind = translate_object\n",
            "[perturbation] magnitude_m: a translate_object by 0 moves nothing",
        ),
        (
            "[perturbation]\nkind = translate_object\nmagnitude_m = 0\n",
            "[perturbation] magnitude_m: a translate_object by 0 moves nothing",
        ),
        (
            "[perturbation]\nmagnitude_deg = -0.0\n",
            "[perturbation] magnitude_deg: a rotate_object by 0 moves nothing",
        ),
    ],
    ids=[
        "word-float", "repeated-section", "repeated-key", "nan-float", "infinite-float",
        "negative-count", "short-center", "word-boolean", "principal-point-outside",
        "repeated-seed", "repeated-mode", "unknown-mode", "misspelt-key", "unknown-section",
        "default-section", "misspelt-kind", "two-target-kind", "unknown-target", "two-targets",
        "zero-side", "negative-noise", "negative-time-step", "tall-image", "one-word",
        "translate-without-magnitude", "translate-by-zero", "rotate-by-zero",
    ],
)
def test_scene_config_names_the_file_and_key_of_a_bad_value(tmp_path, text, message):
    path = tmp_path / "scene.ini"
    path.write_text(text)
    with pytest.raises(WorldGenerationError, match=re.escape(f"{path}: {message}")):
        load_scene_config(str(path))


def test_scene_config_that_is_not_utf_8_names_the_file(tmp_path):
    path = tmp_path / "scene.ini"
    path.write_bytes(b"[world]\nseed = \x80\n")
    with pytest.raises(WorldGenerationError, match=re.escape(f"{path}: not a valid scene config")):
        load_scene_config(str(path))


def _trajectory_keys(section: str) -> dict:
    return {
        (section, "kind"): ("roll", f"{section}_kind", "roll"),
        (section, "center"): ("1, 2, 3", f"{section}.center", (1.0, 2.0, 3.0)),
        (section, "steps"): ("7", f"{section}.steps", 7),
        (section, "sweep_deg"): ("90", f"{section}.sweep_deg", 90.0),
        (section, "step_m"): ("0.2", f"{section}.step_m", 0.2),
        (section, "radius"): ("0.25", f"{section}.radius", 0.25),
        (section, "heading_deg"): ("15", f"{section}.heading_deg", 15.0),
        (section, "dt"): ("0.5", f"{section}.dt", 0.5),
        (section, "t0"): ("50", f"{section}.t0", 50.0),
    }


# (section, key) -> (non-default value, the SceneConfig field it sets, parsed value)
_ONE_KEY = {
    ("world", "dim_x"): ("9.5", "world.dimensions", (9.5, 4.0, 3.0)),
    ("world", "dim_y"): ("5", "world.dimensions", (8.0, 5.0, 3.0)),
    ("world", "dim_z"): ("2.5", "world.dimensions", (8.0, 4.0, 2.5)),
    ("world", "objects_per_class"): ("3", "world.objects_per_class", 3),
    ("world", "landmarks_per_object"): ("7", "world.landmarks_per_object", 7),
    ("world", "background_landmarks"): ("9", "world.background_landmarks", 9),
    ("world", "clutter_objects"): ("4", "world.clutter_objects", 4),
    ("world", "clutter_landmarks"): ("11", "world.clutter_landmarks", 11),
    ("world", "delta_desc"): ("0.6", "world.delta_desc", 0.6),
    ("world", "seed"): ("5", "seed", 5),
    ("camera", "fx"): ("410", "intrinsics.fx", 410.0),
    ("camera", "fy"): ("390", "intrinsics.fy", 390.0),
    ("camera", "cx"): ("300", "intrinsics.cx", 300.0),
    ("camera", "cy"): ("200", "intrinsics.cy", 200.0),
    ("camera", "width"): ("700", "intrinsics.width", 700),
    ("camera", "height"): ("500", "intrinsics.height", 500),
    ("noise", "sigma_px"): ("0.25", "sigma_px", 0.25),
    ("noise", "sigma_desc"): ("0.1", "sigma_desc", 0.1),
    ("noise", "box_margin_px"): ("4", "box_margin_px", 4.0),
    **_trajectory_keys("mapping"),
    **_trajectory_keys("evaluation"),
    ("perturbation", "enabled"): ("false", "perturbation", None),
    ("perturbation", "kind"): ("remove_object", "perturbation.kind", "remove_object"),
    ("perturbation", "magnitude_deg"): ("90", "perturbation.magnitude_deg", 90.0),
    ("perturbation", "magnitude_m"): ("0.3", "perturbation.magnitude_m", 0.3),
    ("perturbation", "target"): ("3", "perturbation.target", "3"),
    ("benchmark", "seeds"): ("4,2", "seeds", [4, 2]),
    ("benchmark", "modes"): ("post", "modes", ["post"]),
    ("benchmark", "vocabulary_k"): ("32", "vocabulary_k", 32),
}


def _replaced(obj, field: str, value):
    """A copy of obj with the dotted field set to value."""
    head, _, rest = field.partition(".")
    return dataclasses.replace(
        obj, **{head: _replaced(getattr(obj, head), rest, value) if rest else value}
    )


@pytest.mark.parametrize(
    "section, key",
    [
        pytest.param(section, key, id=f"{section}-{key}")
        for section, keys in _KEYS.items()
        for key in keys
    ],
)
def test_scene_config_key_sets_only_its_field(tmp_path, section, key):
    raw, field, value = _ONE_KEY[section, key]
    path = tmp_path / "scene.ini"
    path.write_text(f"[{section}]\n")
    # a written section starts from the default scene's values
    baseline = load_scene_config(str(path))
    assert baseline == SceneConfig()
    expected = _replaced(baseline, field, value)
    assert expected != baseline
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    assert load_scene_config(str(path)) == expected


def test_readme_scene_config_is_the_default_scene(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Scene configuration.*?```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "scene.ini"
    path.write_text(block)
    assert load_scene_config(str(path)) == SceneConfig()


def test_a_partial_trajectory_section_keeps_the_default_scenes_trajectory(tmp_path):
    path = tmp_path / "scene.ini"
    path.write_text("[mapping]\nsteps = 36\n[evaluation]\nkind = yaw\nsteps = 24\n")
    config = load_scene_config(str(path))
    assert config.mapping == SceneConfig().mapping
    assert config.mapping.radius == 0.5
    assert config.evaluation == dataclasses.replace(SceneConfig().evaluation, steps=24)
    assert config.evaluation.center == (4.1, 2.05, 1.5)


def test_scene_config_keeps_a_zero_magnitude_it_does_not_apply(tmp_path):
    path = tmp_path / "scene.ini"
    path.write_text("[perturbation]\nenabled = false\nkind = translate_object\n")
    assert load_scene_config(str(path)).perturbation is None
    path.write_text("[perturbation]\nkind = remove_object\nmagnitude_deg = 0\n")
    assert load_scene_config(str(path)).perturbation.kind == "remove_object"


def test_scene_config_parsing(tmp_path):
    path = tmp_path / "scene.ini"
    path.write_text(
        """
[world]
dim_x = 6.0
objects_per_class = 1
seed = 42

[noise]
sigma_px = 0.25

[mapping]
kind = yaw
steps = 18
radius = 0.4

[evaluation]
kind = translate_forward
steps = 10
step_m = 0.05

[perturbation]
kind = rotate_object
magnitude_deg = 90

[benchmark]
seeds = 1,2,3
modes = baseline,post
"""
    )
    config = load_scene_config(str(path))
    assert config.world.dimensions[0] == 6.0
    assert config.world.objects_per_class == 1
    assert config.world.landmarks_per_object == 20  # default preserved
    assert config.seed == 42
    assert config.sigma_px == 0.25 and config.sigma_desc == 0.05
    assert config.mapping_kind == "yaw" and config.mapping.steps == 18
    assert config.evaluation_kind == "translate_forward"
    assert config.evaluation.step_m == 0.05
    assert config.perturbation.magnitude_deg == 90.0
    assert config.seeds == [1, 2, 3]
    assert config.modes == ["baseline", "post"]
    with pytest.raises(WorldGenerationError, match="cannot read"):
        load_scene_config(str(tmp_path / "missing.ini"))


_TRAJECTORY_INI = {
    "kind": "yaw", "center": "4.0, 2.0, 1.5", "steps": "36", "sweep_deg": "360.0",
    "step_m": "0.1", "radius": "0.5", "heading_deg": "0.0", "dt": "0.1", "t0": "0.0",
}
# a fresh scene file that writes every key
_FRESH_SCENE_INI = {
    "world": {
        "dim_x": "8.0", "dim_y": "4.0", "dim_z": "3.0", "objects_per_class": "2",
        "landmarks_per_object": "20", "background_landmarks": "80", "clutter_objects": "2",
        "clutter_landmarks": "40", "delta_desc": "0.8", "seed": "0",
    },
    "camera": {
        "fx": "400.0", "fy": "400.0", "cx": "320.0", "cy": "240.0",
        "width": "640", "height": "480",
    },
    "noise": {"sigma_px": "0.5", "sigma_desc": "0.05", "box_margin_px": "2.0"},
    "mapping": _TRAJECTORY_INI,
    "evaluation": {**_TRAJECTORY_INI, "steps": "12", "t0": "100.0"},
    "perturbation": {
        "enabled": "true", "kind": "rotate_object", "magnitude_deg": "180.0",
        "magnitude_m": "0.0", "target": "densest_movable",
    },
    "benchmark": {"seeds": "0,1,2", "modes": "baseline,pre,post", "vocabulary_k": "48"},
}
# INI values no key of a fresh file holds: non-finite, negative, overflowing,
# zero, of a wrong type or empty
_BAD_INI_VALUES = (
    "nan", "NaN", "inf", "-inf", "+Infinity", "-1", "-0.5", "-1e9", "1e400", "-1e400",
    "1" + "0" * 400, "0", "0.0", "1.5", "abc", "true", "", "1, 2", "1,2,3,4", "7", "-0",
)


def _scene_ini(section=None, key=None, value=b"") -> bytes:
    """The fresh scene file, with the value of [section] key replaced by the
    raw bytes `value`."""
    lines = []
    for name, keys in _FRESH_SCENE_INI.items():
        lines.append(f"[{name}]".encode())
        for k, raw in keys.items():
            lines.append(f"{k} = ".encode() + (value if (name, k) == (section, key) else raw.encode()))
    return b"\n".join(lines) + b"\n"


def _assert_a_valid_scene(config: SceneConfig):
    """The checks every scene that simulates and benchmarks passes: finite
    floats and non-negative integer counts, a positive room size, noise and
    margins of at least zero, a camera load_intrinsics reads back,
    increasing timestamps, known kinds and modes, distinct seeds and a
    vocabulary of at least two words."""
    from semloc.simworld.trajectory import TRAJECTORY_KINDS

    def number(value, low=-math.inf):
        assert type(value) is float and math.isfinite(value) and value >= low

    def count(value, low=0):
        assert type(value) is int and value >= low

    world = config.world
    for side in world.dimensions:
        number(side)
        assert side > 0.0
    number(world.delta_desc, 0.0)
    for name in ("objects_per_class", "landmarks_per_object", "background_landmarks",
                 "clutter_objects", "clutter_landmarks"):
        count(getattr(world, name))
    count(config.seed)
    camera = config.intrinsics
    for value in (camera.fx, camera.fy, camera.cx, camera.cy):
        number(value)
    count(camera.width, 1)
    count(camera.height, 1)
    assert camera.width <= 1 << 16 and camera.height <= 1 << 16
    assert min(camera.fx, camera.fy) > 0.0
    assert 0.0 <= camera.cx < camera.width and 0.0 <= camera.cy < camera.height
    for value in (config.sigma_px, config.sigma_desc, config.box_margin_px):
        number(value, 0.0)
    for kind, params in ((config.mapping_kind, config.mapping),
                         (config.evaluation_kind, config.evaluation)):
        assert kind in TRAJECTORY_KINDS
        assert len(params.center) == 3
        for value in (*params.center, params.sweep_deg, params.step_m, params.radius,
                      params.heading_deg, params.dt, params.t0):
            number(value)
        assert params.dt > 0.0
        count(params.steps)
    spec = config.perturbation
    if spec is not None:
        assert spec.kind in PerturbationSpec.KINDS
        number(spec.magnitude_deg)
        number(spec.magnitude_m)
        assert spec.target == "densest_movable" or spec.target.isdecimal()
    for seed in config.seeds:
        count(seed)
    assert len(set(config.seeds)) == len(config.seeds)
    assert len(set(config.modes)) == len(config.modes) and set(config.modes) <= set(BENCHMARK_MODES)
    count(config.vocabulary_k, 2)


def test_the_fresh_scene_file_is_a_valid_scene(tmp_path):
    path = tmp_path / "scene.ini"
    path.write_bytes(_scene_ini())
    _assert_a_valid_scene(load_scene_config(str(path)))
    assert set(_FRESH_SCENE_INI) == set(_KEYS)
    assert all(set(_FRESH_SCENE_INI[name]) == set(keys) for name, keys in _KEYS.items())


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_corrupted_scene_config_loads_a_valid_scene_or_names_the_file(tmp_path_factory, data):
    """A fresh scene file with one value replaced by NaN, an infinity, a
    negative, zero, an overflowing literal, a wrong type or garbage bytes
    loads into a scene that passes a fresh file's checks, or raises a
    WorldGenerationError naming the file."""
    section = data.draw(st.sampled_from(list(_FRESH_SCENE_INI)), label="section")
    key = data.draw(st.sampled_from(list(_FRESH_SCENE_INI[section])), label="key")
    if data.draw(st.booleans(), label="garbage bytes"):
        value = data.draw(st.binary(min_size=1, max_size=12), label="value")
    else:
        value = data.draw(st.sampled_from(_BAD_INI_VALUES), label="value").encode()
    path = tmp_path_factory.mktemp("scene") / "scene.ini"
    path.write_bytes(_scene_ini(section, key, value))
    try:
        config = load_scene_config(str(path))
    except WorldGenerationError as exc:
        assert str(path) in str(exc)
        return
    _assert_a_valid_scene(config)
