"""Relocalization, relative pose, and pairing over synthetic scenes."""

import math

import numpy as np
import pytest

from semloc.cli import main
from semloc.errors import InsufficientDataError
from semloc.features import match_record
from semloc.geometry import rotation_error_deg, translation_heading_error_deg
from semloc.geometry.epipolar import relative_motion
from semloc.mapping import MapBuildConfig, MapFrameInput, build_map
from semloc.mapping.vocabulary import bow_vector
from semloc.pipelines import (
    SemanticMode,
    candidate_matches,
    dedup_matches,
    extract_frame_features,
    frame_features,
    match_frames,
    mode_features,
    pair_selection,
    relative_pose,
    relocalize,
    relocalize_frames,
)
from semloc.pipelines.frames import FeatureObservation
from semloc.pipelines.relocalize import _PNP
from semloc.semantics import UNLABELED, ClassRegistry, DetectionSet
from semloc.simworld import (
    DEFAULT_INTRINSICS,
    PerturbationSpec,
    TrajectoryParams,
    World,
    WorldConfig,
    WorldObject,
    generate_trajectory,
    generate_world,
    load_dataset_frames,
    load_intrinsics,
    make_walls,
    perturb_world,
    synthesize_frame,
)

from conftest import dense_bow, reference_cosine_similarity

INTRINSICS = DEFAULT_INTRINSICS


def _synthesize_run(world, kind, params, *, seed, sigma_px=0.5, sigma_desc=0.02):
    frames = []
    for i, (t, pose) in enumerate(generate_trajectory(kind, params)):
        frames.append(
            synthesize_frame(
                world,
                pose,
                INTRINSICS,
                noise=(sigma_px, sigma_desc),
                rng=np.random.default_rng(seed + i),
                frame_id=i,
                timestamp=t,
            )
        )
    return frames


def _features(keypoints, descriptors, detections):
    """A frame's labeled, unmasked features from its raw parts."""
    observation = FeatureObservation(keypoints, descriptors)
    return extract_frame_features(observation, detections, masked=False)


def _build_maps(frames, vocabulary_k=48):
    inputs = [MapFrameInput(frame_features(f), f.pose, f.frame_id) for f in frames]
    semantic = build_map(
        inputs, INTRINSICS, MapBuildConfig(semantic=True, vocabulary_k=vocabulary_k)
    )
    baseline = build_map(
        inputs, INTRINSICS, MapBuildConfig(semantic=False, vocabulary_k=vocabulary_k)
    )
    return semantic, baseline


def _map_for_mode(mode, semantic_map, baseline_map):
    return semantic_map if SemanticMode.parse(mode) is SemanticMode.PRE else baseline_map


def _position_error(pose, truth):
    return float(np.linalg.norm(pose.camera_center() - truth.camera_center()))


@pytest.fixture(scope="module")
def scene():
    world = generate_world(WorldConfig(), seed=0)
    mapping_frames = _synthesize_run(
        world,
        "yaw",
        TrajectoryParams(center=(4.0, 2.0, 1.5), steps=36, sweep_deg=360.0, radius=0.5),
        seed=100,
    )
    semantic_map, baseline_map = _build_maps(mapping_frames)
    eval_frames = _synthesize_run(
        world,
        "yaw",
        TrajectoryParams(
            center=(4.1, 2.05, 1.5), steps=12, sweep_deg=360.0, radius=0.35,
            heading_deg=5.0,
        ),
        seed=200,
    )
    return world, semantic_map, baseline_map, eval_frames


def test_mode_features_masks_only_pre(scene):
    _, _, _, eval_frames = scene
    features = frame_features(eval_frames[0])
    assert UNLABELED in features.labels and np.any(features.labels != UNLABELED)
    for mode in (SemanticMode.BASELINE, SemanticMode.POST):
        assert mode_features(features, mode) is features
    pre = mode_features(features, SemanticMode.PRE)
    keep = features.labels != UNLABELED
    assert np.array_equal(pre.coordinates, features.coordinates[keep])
    assert np.array_equal(pre.descriptors, features.descriptors[keep])
    assert np.array_equal(pre.labels, features.labels[keep])


# --------------------------------------------------------------------------
# relocalization


def test_relocalize_unperturbed_accurate_all_modes(scene):
    world, semantic_map, baseline_map, eval_frames = scene
    attempted = 0
    for frame in eval_frames[::3]:
        features = frame_features(frame)
        for mode in SemanticMode:
            result = relocalize(
                _map_for_mode(mode, semantic_map, baseline_map),
                frame.frame_id,
                features,
                INTRINSICS,
                mode,
            )
            if result.pose is None:
                continue
            attempted += 1
            assert _position_error(result.pose, frame.pose) < 0.05
            assert rotation_error_deg(result.pose.rotation, frame.pose.rotation) < 2.0
            assert result.inlier_count >= _PNP.min_inliers
            assert result.failure_reason is None
    assert attempted >= 9  # nearly every (frame, mode) attempt must localize


def test_relocalize_pre_without_detections_fails(scene):
    _, semantic_map, _, eval_frames = scene
    frame = eval_frames[0]
    features = _features(
        frame.keypoints, frame.descriptors, DetectionSet(frame_id=frame.frame_id, boxes=[])
    )
    result = relocalize(semantic_map, frame.frame_id, features, INTRINSICS, "pre")
    assert result.pose is None
    assert result.failure_reason == "no semantic features"


def test_relocalize_empty_frame_has_no_candidates(scene):
    _, _, baseline_map, _ = scene
    features = _features(np.empty((0, 2)), np.empty((0, 64)), DetectionSet(frame_id=77, boxes=[]))
    result = relocalize(baseline_map, 77, features, INTRINSICS, "baseline")
    assert result.pose is None
    assert result.failure_reason == "no candidates"


def test_relocalize_unmatchable_descriptors(scene):
    _, _, baseline_map, eval_frames = scene
    frame = eval_frames[0]
    rng = np.random.default_rng(3)
    noise = rng.normal(size=frame.descriptors.shape)
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    features = _features(frame.keypoints, noise, frame.boxes)
    result = relocalize(baseline_map, frame.frame_id, features, INTRINSICS, "baseline")
    assert result.pose is None
    assert result.failure_reason == "insufficient matches"
    assert len(result.matches) < 4


def test_relocalize_scrambled_geometry_fails(scene):
    _, _, baseline_map, eval_frames = scene
    frame = eval_frames[0]
    rng = np.random.default_rng(9)
    scrambled = frame.keypoints[rng.permutation(len(frame.keypoints))]
    features = _features(scrambled, frame.descriptors, frame.boxes)
    result = relocalize(baseline_map, frame.frame_id, features, INTRINSICS, "baseline")
    assert result.pose is None
    assert result.failure_reason == "localization failed"
    assert result.inlier_count == 0
    assert len(result.matches) > 12  # matching worked; geometry did not


def test_relocalize_deterministic(scene):
    _, semantic_map, baseline_map, eval_frames = scene
    frame = eval_frames[1]
    features = frame_features(frame)
    for mode in SemanticMode:
        sparse_map = _map_for_mode(mode, semantic_map, baseline_map)
        first = relocalize(sparse_map, frame.frame_id, features, INTRINSICS, mode)
        second = relocalize(sparse_map, frame.frame_id, features, INTRINSICS, mode)
        assert first.candidate_ids == second.candidate_ids
        assert np.array_equal(first.matches, second.matches)
        assert first.inlier_indices == second.inlier_indices
        assert (first.pose is None) == (second.pose is None)
        if first.pose is not None:
            assert np.array_equal(first.pose.rotation, second.pose.rotation)
            assert np.array_equal(first.pose.translation, second.pose.translation)


def test_relocalize_inliers_reproject_below_threshold(scene):
    from semloc.geometry import reprojection_errors

    _, semantic_map, baseline_map, eval_frames = scene
    checked = 0
    for frame in eval_frames[::4]:
        all_features = frame_features(frame)
        for mode in SemanticMode:
            sparse_map = _map_for_mode(mode, semantic_map, baseline_map)
            result = relocalize(sparse_map, frame.frame_id, all_features, INTRINSICS, mode)
            if result.pose is None:
                continue
            features = mode_features(all_features, mode)
            pixels = features.coordinates[result.matches.query_index]
            points = sparse_map.positions[result.matches.train_index]
            errors = reprojection_errors(
                result.pose.rotation, result.pose.translation, INTRINSICS, points, pixels
            )
            assert (errors[list(result.inlier_indices)] < _PNP.inlier_threshold).all()
            checked += 1
    assert checked >= 6


def _same_localization(a, b):
    assert (a.frame_id, a.mode, a.failure_reason) == (b.frame_id, b.mode, b.failure_reason)
    assert a.candidate_ids == b.candidate_ids
    assert np.array_equal(a.matches, b.matches)
    assert (a.inlier_count, a.inlier_indices) == (b.inlier_count, b.inlier_indices)
    assert (a.pose is None) == (b.pose is None)
    if a.pose is not None:
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.translation, b.pose.translation)


def test_relocalize_frames_equals_per_frame_relocalize(scene):
    """A batch's results are bitwise those of relocalizing each frame alone,
    in every mode and for every failure reason."""
    _, semantic_map, baseline_map, eval_frames = scene
    frame = eval_frames[0]
    rng = np.random.default_rng(9)
    noise = rng.normal(size=frame.descriptors.shape)
    scrambled = frame.keypoints[rng.permutation(len(frame.keypoints))]
    frames = [(f.frame_id, frame_features(f)) for f in eval_frames] + [
        (90, _features(frame.keypoints, frame.descriptors, DetectionSet(frame_id=90, boxes=[]))),
        (91, _features(np.empty((0, 2)), np.empty((0, 64)), DetectionSet(frame_id=91, boxes=[]))),
        (92, _features(frame.keypoints, noise / np.linalg.norm(noise, axis=1)[:, None],
                       frame.boxes)),
        (93, _features(scrambled, frame.descriptors, frame.boxes)),
    ]
    reasons = set()
    for mode in SemanticMode:
        sparse_map = _map_for_mode(mode, semantic_map, baseline_map)
        batch = relocalize_frames(sparse_map, frames, INTRINSICS, mode)
        assert len(batch) == len(frames)
        for (frame_id, features), result in zip(frames, batch):
            _same_localization(
                result, relocalize(sparse_map, frame_id, features, INTRINSICS, mode)
            )
            reasons.add(result.failure_reason)
    assert reasons == {
        None, "no semantic features", "no candidates", "insufficient matches",
        "localization failed",
    }


def test_post_matches_are_subset_of_baseline(scene):
    world, _, baseline_map, eval_frames = scene
    features = frame_features(eval_frames[2])
    bow = bow_vector(features.descriptors, baseline_map.vocabulary)
    from semloc.mapping.sparse_map import query_candidates

    candidates = query_candidates(baseline_map, bow, 3)
    baseline_pairs = candidate_matches(
        baseline_map, features, SemanticMode.BASELINE, candidates
    )
    post_pairs = candidate_matches(
        baseline_map, features, SemanticMode.POST, candidates
    )
    baseline_set = {(p.query_index, p.train_index) for p in baseline_pairs}
    post_set = {(p.query_index, p.train_index) for p in post_pairs}
    assert post_set and post_set <= baseline_set
    # deduplicated landmark ids survive the filter as a subset too
    assert set(dedup_matches(post_pairs).train_index) <= set(
        dedup_matches(baseline_pairs).train_index
    )
    # and baseline found strictly more raw matches (clutter/background present)
    assert len(baseline_set) > len(post_set)


def test_dedup_keeps_the_first_pooled_of_equal_ratios():
    # (query feature, landmark, ratio) in pooling order; landmarks 3 and 7
    # each get two candidates with exactly equal best ratios
    pooled = [(5, 7, 0.4), (2, 3, 0.5), (6, 0, 0.6), (1, 3, 0.3), (9, 7, 0.4), (8, 3, 0.3)]

    def dedup(entries):
        query, landmark, ratio = zip(*entries) if entries else ((), (), ())
        kept = dedup_matches(match_record(query, landmark, ratio))
        return [(m.query_index, m.train_index, m.ratio) for m in kept]

    assert dedup(pooled) == [(6, 0, 0.6), (1, 3, 0.3), (5, 7, 0.4)]
    assert dedup(pooled[::-1]) == [(6, 0, 0.6), (8, 3, 0.3), (9, 7, 0.4)]

    # reference: one pass in pooling order, replacing an entry only on a
    # strictly better ratio; ratios from a small set make ties common
    rng = np.random.default_rng(5)
    for _ in range(50):
        size = int(rng.integers(0, 40))
        entries = list(zip(
            rng.integers(0, 30, size).tolist(),
            rng.integers(0, 12, size).tolist(),
            rng.choice([0.2, 0.4, 0.6], size).tolist(),
        ))
        best = {}
        for entry in entries:
            if entry[1] not in best or entry[2] < best[entry[1]][2]:
                best[entry[1]] = entry
        assert dedup(entries) == [best[k] for k in sorted(best)]


def test_semantic_mode_matches_are_class_consistent(scene):
    _, semantic_map, baseline_map, eval_frames = scene
    for frame in eval_frames[::4]:
        all_features = frame_features(frame)
        for mode in (SemanticMode.PRE, SemanticMode.POST):
            sparse_map = _map_for_mode(mode, semantic_map, baseline_map)
            result = relocalize(sparse_map, frame.frame_id, all_features, INTRINSICS, mode)
            features = mode_features(all_features, mode)
            for match in result.matches:
                label = features.labels[match.query_index]
                assert label != UNLABELED
                assert label == sparse_map.class_ids[match.train_index]


def test_relocalize_rejects_empty_map(scene):
    from semloc.mapping import SparseMap

    _, semantic_map, _, eval_frames = scene
    empty = SparseMap(
        positions=np.empty((0, 3)),
        descriptors=np.empty((0, semantic_map.descriptors.shape[1])),
        class_ids=np.empty(0, dtype=int),
        observation_counts=np.empty(0, dtype=int),
        keyframes=[],
        vocabulary=semantic_map.vocabulary,
        registry=semantic_map.registry,
    )
    with pytest.raises(InsufficientDataError, match="non-empty map"):
        relocalize(empty, eval_frames[0].frame_id, frame_features(eval_frames[0]), INTRINSICS)


def test_unperturbed_success_rate_at_least_95_percent(scene):
    world, semantic_map, baseline_map, eval_frames = scene
    registered = [obj.id for obj in world.objects if obj.class_id is not None]
    labeled = set(world.landmark_ids[np.isin(world.object_ids, registered)].tolist())
    qualifying = 0
    successes = {mode: 0 for mode in SemanticMode}
    for frame in eval_frames:
        visible_labeled = sum(1 for i in frame.landmark_ids if i in labeled)
        if visible_labeled < 30:
            continue
        qualifying += 1
        features = frame_features(frame)
        for mode in SemanticMode:
            result = relocalize(
                _map_for_mode(mode, semantic_map, baseline_map),
                frame.frame_id,
                features,
                INTRINSICS,
                mode,
            )
            if result.pose is None:
                continue
            ok = (
                _position_error(result.pose, frame.pose) < 0.3
                and rotation_error_deg(result.pose.rotation, frame.pose.rotation) < 5.0
            )
            successes[mode] += int(ok)
    assert qualifying >= 6
    for mode in SemanticMode:
        assert successes[mode] / qualifying >= 0.95, (mode, successes, qualifying)


# --------------------------------------------------------------------------
# relative pose


def test_relative_pose_translation_pair(scene):
    world, _, _, _ = scene
    params = TrajectoryParams(
        center=(4.0, 2.0, 1.5), steps=2, step_m=0.4, heading_deg=180.0
    )
    frames = _synthesize_run(world, "translate_lateral", params, seed=300)
    result = relative_pose(
        frames[0].frame_id,
        frame_features(frames[0]),
        frames[1].frame_id,
        frame_features(frames[1]),
        INTRINSICS,
        "baseline",
    )
    assert result.relative is not None
    gt_rotation, gt_translation = relative_motion(frames[0].pose, frames[1].pose)
    assert rotation_error_deg(result.relative.rotation, gt_rotation) < 1.0
    heading = translation_heading_error_deg(
        result.relative.translation_direction, gt_translation
    )
    assert heading < 5.0
    assert result.inlier_count >= 15
    assert len(result.matches) >= result.inlier_count


def test_relative_pose_identical_frames_degenerate(scene):
    world, _, _, eval_frames = scene
    frame = eval_frames[0]
    features = frame_features(frame)
    result = relative_pose(
        frame.frame_id, features, frame.frame_id, features, INTRINSICS, "baseline"
    )
    assert result.relative is None
    assert result.pure_rotation
    assert result.failure_reason is not None


# perfbench's CLI scene at world seed 0, whose mapping frames 17 and 18 tie
# on cheirality votes in pre mode
TIED_PAIR_SCENE = """\
[world]
landmarks_per_object = 12
background_landmarks = 40
clutter_landmarks = 70
seed = 0

[evaluation]
kind = yaw
center = 4.1, 2.05, 1.5
steps = 24
radius = 0.35
heading_deg = 5
t0 = 100

[perturbation]
kind = rotate_object
magnitude_deg = 180
target = densest_movable
"""


def test_relative_pose_tied_decomposition_flags_planar(tmp_path):
    config = tmp_path / "scene.ini"
    config.write_text(TIED_PAIR_SCENE)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
    mapping = tmp_path / "data" / "mapping"
    intrinsics = load_intrinsics(str(mapping / "intrinsics.json"))
    frames = {
        frame.frame_id: frame
        for frame in load_dataset_frames(
            str(mapping / "frames"), ClassRegistry.default(), intrinsics=intrinsics
        )
    }
    result = relative_pose(
        17, frame_features(frames[17]), 18, frame_features(frames[18]), intrinsics, "pre",
        seed=0,
    )
    assert result.relative is None
    assert result.planar_suspected and not result.pure_rotation
    assert result.failure_reason == "ambiguous decomposition"
    assert result.inlier_count == 24 and len(result.matches) == 49


def test_relative_pose_insufficient_matches():
    rng = np.random.default_rng(4)
    keypoints = rng.uniform(50, 400, size=(3, 2))
    descriptors = rng.normal(size=(3, 64))
    descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
    features = _features(keypoints, descriptors, DetectionSet(frame_id=0, boxes=[]))
    result = relative_pose(0, features, 0, features, INTRINSICS, "baseline")
    assert result.relative is None
    assert result.failure_reason == "insufficient matches"
    assert len(result.matches) < 5


def test_relative_pose_pre_requires_semantic_features(scene):
    _, _, _, eval_frames = scene
    frame = eval_frames[0]
    bare = _features(
        frame.keypoints, frame.descriptors, DetectionSet(frame_id=frame.frame_id, boxes=[])
    )
    result = relative_pose(frame.frame_id, bare, frame.frame_id, bare, INTRINSICS, "pre")
    assert result.relative is None
    assert result.failure_reason == "no semantic features"


def test_relative_pose_mode_match_sets(scene):
    world, _, _, eval_frames = scene
    fa = frame_features(eval_frames[0])
    fb = frame_features(eval_frames[1])
    baseline = match_frames(fa, fb, SemanticMode.BASELINE)
    post = match_frames(fa, fb, SemanticMode.POST)
    post_pairs = {(m.query_index, m.train_index) for m in post}
    base_pairs = {(m.query_index, m.train_index) for m in baseline}
    assert post_pairs <= base_pairs
    for m in post:
        assert fa.labels[m.query_index] != UNLABELED
        assert fa.labels[m.query_index] == fb.labels[m.train_index]
    fa_masked = mode_features(fa, SemanticMode.PRE)
    fb_masked = mode_features(fb, SemanticMode.PRE)
    for m in match_frames(fa_masked, fb_masked, SemanticMode.PRE):
        assert fa_masked.labels[m.query_index] == fb_masked.labels[m.train_index]


def test_relative_pose_deterministic(scene):
    _, _, _, eval_frames = scene
    a, b = eval_frames[0], eval_frames[1]
    fa, fb = frame_features(a), frame_features(b)
    first = relative_pose(a.frame_id, fa, b.frame_id, fb, INTRINSICS, "post")
    second = relative_pose(a.frame_id, fa, b.frame_id, fb, INTRINSICS, "post")
    assert np.array_equal(first.matches, second.matches)
    assert first.inlier_indices == second.inlier_indices
    assert (first.relative is None) == (second.relative is None)
    if first.relative is not None:
        assert np.array_equal(first.relative.rotation, second.relative.rotation)
        assert np.array_equal(
            first.relative.translation_direction, second.relative.translation_direction
        )


# --------------------------------------------------------------------------
# pair selection


def _bow_frames(vectors, k=2):
    return [(i, dense_bow(bow, k)) for i, bow in enumerate(vectors)]


def test_pair_selection_two_frames_single_pair():
    frames = _bow_frames([{0: 1.0}, {0: 0.8, 1: 0.6}])
    assert pair_selection(frames) == [(0, 1)]


def test_pair_selection_duplicate_frame_selected():
    frames = _bow_frames([{0: 1.0}, {1: 1.0}, {0: 1.0}])
    pairs = pair_selection(frames)
    assert (0, 2) in pairs  # the duplicate pair (similarity 1.0)
    assert all(a != b for a, b in pairs)


def test_pair_selection_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    frames = []
    for i in range(50):
        words = rng.choice(64, size=6, replace=False)
        weights = rng.uniform(0.1, 1.0, size=6)
        weights /= np.linalg.norm(weights)
        frames.append((i, {int(w): float(v) for w, v in zip(words, weights)}))
    expected = set()
    for i, (fid, bow) in enumerate(frames):
        scored = sorted(
            (
                (-reference_cosine_similarity(bow, other_bow), other_id)
                for j, (other_id, other_bow) in enumerate(frames)
                if j != i
            )
        )
        partner = scored[0][1]
        expected.add((min(fid, partner), max(fid, partner)))
    assert pair_selection([(i, dense_bow(bow, 64)) for i, bow in frames]) == sorted(expected)


def test_pair_selection_validates_input():
    with pytest.raises(InsufficientDataError):
        pair_selection(_bow_frames([{0: 1.0}]))
    with pytest.raises(ValueError, match="unique"):
        pair_selection([(0, np.zeros(2)), (0, np.zeros(2))])


# --------------------------------------------------------------------------
# the moved-object scenario end to end


def _flag_world():
    """One big movable unlabeled object flanked by two smaller labeled ones."""
    rng = np.random.default_rng(21)
    walls = make_walls((8.0, 4.0, 3.0))
    positions, descriptors, object_ids = [], [], []

    def add_landmark(wall_index, uv, object_id):
        descriptor = rng.normal(size=64)
        descriptors.append(descriptor / np.linalg.norm(descriptor))
        positions.append(walls[wall_index].to_world(np.asarray(uv, dtype=float)))
        object_ids.append(object_id)

    clutter = WorldObject(
        id=0, class_id=None, wall_index=0, center_uv=np.array([4.0, 1.5]),
        rotation=0.0, extent=np.array([1.8, 1.2]), movable=True,
    )
    for _ in range(64):
        offset = rng.uniform(-0.5, 0.5, size=2) * clutter.extent
        add_landmark(0, clutter.center_uv + offset, 0)
    objects = [clutter]
    for object_id, (u, class_id) in enumerate([(2.5, 0), (5.5, 1)], start=1):
        stable = WorldObject(
            id=object_id, class_id=class_id, wall_index=0,
            center_uv=np.array([u, 1.5]), rotation=0.0,
            extent=np.array([0.8, 0.8]), movable=False,
        )
        for _ in range(12):
            offset = rng.uniform(-0.45, 0.45, size=2) * stable.extent
            add_landmark(0, stable.center_uv + offset, object_id)
        objects.append(stable)
    return World(
        dimensions=np.array([8.0, 4.0, 3.0]), objects=objects,
        landmark_ids=np.arange(len(positions)), positions=np.array(positions),
        descriptors=np.array(descriptors), object_ids=np.array(object_ids), seed=0,
    )


def test_moved_object_fools_baseline_but_not_semantic_modes():
    world = _flag_world()
    mapping_frames = _synthesize_run(
        world,
        "yaw",
        TrajectoryParams(center=(4.0, 2.0, 1.5), steps=36, sweep_deg=360.0, radius=0.5),
        seed=400,
    )
    semantic_map, baseline_map = _build_maps(mapping_frames, vocabulary_k=32)
    # the map must hold enough stable structure for the semantic modes
    stable_in_map = int(np.sum(baseline_map.class_ids != UNLABELED))
    clutter_in_map = int(np.sum(baseline_map.class_ids == UNLABELED))
    assert stable_in_map >= 16
    assert clutter_in_map >= 40
    assert np.all(semantic_map.class_ids != UNLABELED)

    moved = perturb_world(world, PerturbationSpec(magnitude_deg=180.0, target="0"))
    heading = math.degrees(math.atan2(-3.0, 0.8))
    pose = generate_trajectory(
        "yaw", TrajectoryParams(center=(3.2, 3.0, 1.3), steps=1, heading_deg=heading)
    )[0][1]
    frame = synthesize_frame(
        moved, pose, INTRINSICS, noise=(0.5, 0.02),
        rng=np.random.default_rng(77), frame_id=0,
    )
    features = frame_features(frame)

    baseline = relocalize(baseline_map, 0, features, INTRINSICS, "baseline")
    post = relocalize(baseline_map, 0, features, INTRINSICS, "post")
    pre = relocalize(semantic_map, 0, features, INTRINSICS, "pre")

    # baseline latches onto the moved object's stale geometry
    assert baseline.pose is not None
    assert rotation_error_deg(baseline.pose.rotation, pose.rotation) > 90.0
    # filtering or masking recovers the true pose
    for result in (post, pre):
        assert result.pose is not None, result.failure_reason
        assert _position_error(result.pose, pose) < 0.3
        assert rotation_error_deg(result.pose.rotation, pose.rotation) < 5.0
