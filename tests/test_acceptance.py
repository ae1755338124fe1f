"""End-to-end acceptance checks for solvers, filter semantics, and benchmark.

Each test prints one PASS/FAIL line with the measured magnitudes (surfaced in
the test summary by the -rP report option) and then asserts its bounds.  The
eight checks, in order: minimal-solver soundness on 10,000 random instances;
semantic-filter invariants on 1,000 randomized frames; unperturbed-benchmark
success rates; scene-change robustness of the post filter; correct-match-ratio
ordering across modes; the clustered-detections weakness of pre-masking;
a hand-computed metrics oracle with CSV round-trip; and benchmark determinism.
"""

import math
import os
import time

import numpy as np
import pytest

from semloc.evaluation import (
    BenchmarkRecord,
    absolute_errors,
    emit_report,
    parse_report,
    run_benchmark,
    success_rate,
)
from semloc.geometry import (
    CameraIntrinsics,
    Pose,
    five_point_essential,
    p3p_solve,
    relative_motion,
    rotation_error_deg,
    rotation_from_axis_angle,
    translation_heading_error_deg,
    triangulate_two_view,
)
from semloc.features.match import knn_ratio_match
from semloc.pipelines import frame_features, relative_pose
from semloc.pipelines.frames import FeatureObservation, extract_frame_features
from semloc.semantics.boxes import BoundingBox, DetectionSet
from semloc.semantics.classes import UNLABELED, ClassRegistry
from semloc.semantics.filtering import filter_matches_by_class
from semloc.semantics.labeling import label_keypoints
from semloc.simworld.config import PerturbationSpec, SceneConfig
from semloc.simworld.synthesize import synthesize_frame
from semloc.simworld.trajectory import TrajectoryParams, generate_trajectory
from semloc.simworld.world import (
    World,
    WorldConfig,
    WorldObject,
    generate_world,
    make_walls,
)
from semloc.trajectory_io import TrajectoryEntry

from conftest import points_in_front, random_pose, random_rotation

INTRINSICS = CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)


def _verdict(label: str, ok: bool, detail: str) -> str:
    line = f"[{label}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


# ------------------------------------------------------------ 1: solvers


def _five_point_worst_residual(rng, instances: int) -> float:
    """Over all instances, solved as one stack, the worst epipolar residual
    of any candidate; inf if an instance has none."""
    x_a, x_b = [], []
    while len(x_a) < instances:
        pose_a = random_pose(rng)
        r = random_rotation(rng)
        t = rng.normal(size=3)
        t *= rng.uniform(0.3, 1.0) / np.linalg.norm(t)
        pose_b = Pose(r @ pose_a.rotation, r @ pose_a.translation + t)
        points = points_in_front(rng, pose_a, 5, depth=(2.0, 6.0), spread=2.0)
        cam_b = pose_b.transform(points)
        if (cam_b[:, 2] <= 0.2).any():
            continue
        cam_a = pose_a.transform(points)
        x_a.append(cam_a[:, :2] / cam_a[:, 2:3])
        x_b.append(cam_b[:, :2] / cam_b[:, 2:3])
    x_a, x_b = np.array(x_a), np.array(x_b)
    owner, essentials = five_point_essential(x_a, x_b)
    if len(np.unique(owner)) < instances:
        return np.inf  # no candidates on a generic noise-free instance
    h_a = np.concatenate([x_a, np.ones((instances, 5, 1))], axis=2)[owner]
    h_b = np.concatenate([x_b, np.ones((instances, 5, 1))], axis=2)[owner]
    return float(np.max(np.abs(np.einsum("kij,kjl,kil->ki", h_b, essentials, h_a))))


def _p3p_worst_errors(rng, instances: int) -> tuple[float, float]:
    """Over all instances, solved as one stack, the worst error of the
    candidate closest to the generating pose; inf if an instance has none."""
    poses, bearings, points = [], [], []
    for _ in range(instances):
        pose = random_pose(rng)
        world = points_in_front(rng, pose, 3, depth=(1.0, 3.0))
        cam = pose.transform(world)
        poses.append(pose)
        bearings.append(cam / np.linalg.norm(cam, axis=1, keepdims=True))
        points.append(world)
    owner, rotations, translations = p3p_solve(np.array(bearings), np.array(points))
    rot_err = [
        math.radians(rotation_error_deg(r, poses[k].rotation))
        for k, r in zip(owner.tolist(), rotations)
    ]
    t_err = np.linalg.norm(translations - np.array([p.translation for p in poses])[owner], axis=1)
    best_rot, best_t = np.full(instances, np.inf), np.full(instances, np.inf)
    np.minimum.at(best_rot, owner, rot_err)
    np.minimum.at(best_t, owner, t_err)
    return float(best_rot.max()), float(best_t.max())


def _triangulation_worst_residual(rng, instances: int) -> float:
    worst = 0.0
    count = 0
    while count < instances:
        pose_a = random_pose(rng)
        offset = rng.normal(size=3)
        offset *= rng.uniform(0.2, 1.0) / np.linalg.norm(offset)
        pose_b = Pose(pose_a.rotation, pose_a.translation + pose_a.rotation @ offset)
        point = points_in_front(rng, pose_a, 1)[0]
        if pose_b.transform(point)[2] <= 0.1:
            continue
        count += 1
        pixel_a = INTRINSICS.pixels(pose_a.transform(point))
        pixel_b = INTRINSICS.pixels(pose_b.transform(point))
        _, residual = triangulate_two_view(pose_a, pose_b, pixel_a, pixel_b, INTRINSICS)
        worst = max(worst, float(residual))
    return worst


def test_minimal_solvers_recover_their_generators_on_random_instances():
    instances = 10_000
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    p3p_rot, p3p_t = _p3p_worst_errors(rng, instances)
    five_point = _five_point_worst_residual(rng, instances)
    triangulation = _triangulation_worst_residual(rng, instances)
    elapsed = time.perf_counter() - start

    ok = (
        p3p_rot < 1e-6
        and p3p_t < 1e-6
        and five_point < 1e-10
        and triangulation < 1e-6
        and elapsed < 60.0
    )
    line = _verdict(
        "solver soundness",
        ok,
        f"{instances} instances each: p3p worst {p3p_t:.2e} m / {p3p_rot:.2e} rad "
        f"(bound 1e-6), five-point worst epipolar residual {five_point:.2e} "
        f"(bound 1e-10), triangulation worst reprojection {triangulation:.2e} px "
        f"(bound 1e-6), {elapsed:.1f}s (bound 60s)",
    )
    assert ok, line


# -------------------------------------------------- 2: filter semantics


def _random_frame(rng, classes):
    n = int(rng.integers(10, 60))
    coordinates = np.column_stack(
        [rng.uniform(0, INTRINSICS.width, n), rng.uniform(0, INTRINSICS.height, n)]
    )
    descriptors = rng.normal(size=(n, 16))
    descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
    boxes = []
    for _ in range(int(rng.integers(0, 6))):
        cls = classes[int(rng.integers(0, len(classes)))]
        x = np.sort(rng.uniform(0, INTRINSICS.width, 2))
        y = np.sort(rng.uniform(0, INTRINSICS.height, 2))
        boxes.append(
            BoundingBox(cls, x[0], y[0], x[1], y[1], confidence=float(rng.uniform(0.5, 1.0)))
        )
    detections = DetectionSet(frame_id=0, boxes=boxes)
    return FeatureObservation(coordinates, descriptors), detections


def _check_premask_purity(observation, detections):
    masked = extract_frame_features(observation, detections, masked=True)
    assert len(masked.coordinates) == len(masked.descriptors) == len(masked.labels)
    assert np.all(masked.labels != UNLABELED)
    assert np.array_equal(masked.labels, label_keypoints(masked.coordinates, detections))
    # masking keeps exactly the labeled subset of the unrestricted extraction
    unmasked = extract_frame_features(observation, detections, masked=False)
    kept = [i for i, label in enumerate(unmasked.labels) if label != UNLABELED]
    assert np.array_equal(masked.coordinates, unmasked.coordinates[kept].reshape(-1, 2))
    return unmasked


def test_semantic_filter_invariants_hold_on_randomized_frames():
    frames = 1_000
    rng = np.random.default_rng(2)
    classes = list(ClassRegistry.default())
    pair_count = match_count = kept_count = 0
    for _ in range(frames // 2):
        observation_a, detections_a = _random_frame(rng, classes)
        observation_b, detections_b = _random_frame(rng, classes)
        features_a = _check_premask_purity(observation_a, detections_a)
        features_b = _check_premask_purity(observation_b, detections_b)

        matches = knn_ratio_match(features_a.descriptors, features_b.descriptors, 0.95)
        kept = filter_matches_by_class(matches, features_a.labels, features_b.labels)
        # subset, order preserved
        pairs = [(m.query_index, m.train_index) for m in matches]
        kept_pairs = [(m.query_index, m.train_index) for m in kept]
        positions = [pairs.index(p) for p in kept_pairs]
        assert positions == sorted(positions)
        assert set(kept_pairs) <= set(pairs)
        # idempotence
        again = filter_matches_by_class(kept, features_a.labels, features_b.labels)
        assert [(m.query_index, m.train_index) for m in again] == kept_pairs
        # class purity: both endpoints labeled and agreeing
        for m in kept:
            label_a = features_a.labels[m.query_index]
            label_b = features_b.labels[m.train_index]
            assert label_a != UNLABELED and label_a == label_b
        pair_count += 1
        match_count += len(matches)
        kept_count += len(kept)

    ok = pair_count == frames // 2
    line = _verdict(
        "filter semantics",
        ok,
        f"{frames} randomized frames: pre-mask purity on every frame; post filter "
        f"kept {kept_count}/{match_count} matches over {pair_count} pairs with "
        f"subset/idempotence/class-purity intact",
    )
    assert ok, line


# ------------------------------------------- 3: unperturbed benchmark


def test_unperturbed_benchmark_localizes_in_every_mode(tmp_path):
    world = generate_world(WorldConfig(), seed=0)
    class_of = {obj.id: obj.class_id for obj in world.objects if obj.class_id is not None}
    owners = [object_id for object_id in world.object_ids.tolist() if object_id in class_of]
    labeled = len(owners)
    classes = {class_of[object_id] for object_id in owners}
    assert labeled >= 300 and len(classes) == 8

    start = time.perf_counter()
    means = {}
    for kind, params in [
        ("yaw", TrajectoryParams(center=(4.1, 2.05, 1.5), steps=12, radius=0.35,
                                 heading_deg=5.0, t0=100.0)),
        ("translate_forward", TrajectoryParams(center=(4.1, 2.05, 1.5), steps=12,
                                               step_m=0.1, heading_deg=5.0, t0=100.0)),
    ]:
        config = SceneConfig(
            world=WorldConfig(),
            evaluation_kind=kind,
            evaluation=params,
            perturbation=None,
            seeds=list(range(10)),
        )
        outcomes = run_benchmark(config, str(tmp_path / kind))
        for outcome in outcomes:
            means.setdefault((kind, outcome.record.mode), []).append(
                outcome.record.success_rate
            )
    elapsed = time.perf_counter() - start

    summary = {key: float(np.mean(rates)) for key, rates in means.items()}
    ok = all(v >= 0.95 for v in summary.values()) and elapsed < 300.0
    detail = ", ".join(f"{kind}/{mode}={v:.4f}" for (kind, mode), v in sorted(summary.items()))
    line = _verdict(
        "benchmark sanity",
        ok,
        f"{labeled} labeled landmarks in {len(classes)} classes; mean success over "
        f"10 seeds (bound 0.95): {detail}; {elapsed:.0f}s (bound 300s)",
    )
    assert ok, line


# ------------------------- 4 & 5: perturbed benchmark (shared sweep)


@pytest.fixture(scope="module")
def scene_change_records(tmp_path_factory):
    """One 10-seed sweep with the densest movable object rotated 180 degrees."""
    config = SceneConfig(
        world=WorldConfig(
            landmarks_per_object=12,
            background_landmarks=40,
            clutter_landmarks=70,
            clutter_extent=(2.0, 1.4),
        ),
        perturbation=PerturbationSpec(),
        seeds=list(range(10)),
    )
    out = str(tmp_path_factory.mktemp("scene_change"))
    by_mode = {}
    for outcome in run_benchmark(config, out):
        by_mode.setdefault(outcome.record.mode, []).append(outcome.record)
    return by_mode


def test_scene_change_favors_the_post_filter(scene_change_records):
    success = {
        mode: float(np.mean([r.success_rate for r in records]))
        for mode, records in scene_change_records.items()
    }
    are_max = {
        mode: float(np.mean([r.are_max for r in records]))
        for mode, records in scene_change_records.items()
    }
    ok = (
        success["post"] >= success["baseline"]
        and are_max["post"] <= are_max["baseline"]
    )
    line = _verdict(
        "scene change",
        ok,
        "10 seeds, one dense object rotated 180°: mean success "
        f"post={success['post']:.4f} vs baseline={success['baseline']:.4f} "
        f"(pre={success['pre']:.4f}); mean worst-frame rotation error "
        f"post={are_max['post']:.2f}° vs baseline={are_max['baseline']:.2f}° "
        f"(pre={are_max['pre']:.2f}°)",
    )
    assert ok, line


def test_match_ratio_ordering_under_scene_change(scene_change_records):
    ratios = {
        mode: [r.correct_match_ratio for r in records]
        for mode, records in scene_change_records.items()
    }
    assert all(math.isfinite(v) for values in ratios.values() for v in values)
    means = {mode: float(np.mean(values)) for mode, values in ratios.items()}
    ok = means["pre"] >= means["baseline"] and means["post"] >= means["baseline"]
    line = _verdict(
        "match ratio ordering",
        ok,
        "mean correct-match ratio at the 5e-4 epipolar gate over 10 seeds: "
        f"pre={means['pre']:.4f} ≥ baseline={means['baseline']:.4f} and "
        f"post={means['post']:.4f} ≥ baseline={means['baseline']:.4f}",
    )
    assert ok, line


# --------------------------------------- 6: clustered-detections caveat


def _clustered_detections_world() -> World:
    """A scene whose class-2 detections are one tight cluster.

    A second class carries near-duplicate ("twin") descriptors of the cluster,
    so the unrestricted ratio test discards both classes (best and second-best
    distances nearly tie) while class-restricted matching keeps them.  The
    third class is sparse, spans the view, and varies in depth, so matches
    that survive the unrestricted pass constrain the epipolar geometry well.
    """
    rng = np.random.default_rng(11)
    walls = make_walls((8.0, 4.0, 3.0))
    positions, descriptors, object_ids = [], [], []

    def add(uv, object_id, descriptor, depth=0.0):
        position = walls[0].to_world(np.asarray(uv, dtype=float)) + depth * walls[0].normal
        positions.append(position)
        descriptors.append(descriptor / np.linalg.norm(descriptor))
        object_ids.append(object_id)

    cluster = WorldObject(id=0, class_id=2, wall_index=0, center_uv=np.array([2.0, 1.5]),
                          rotation=0.0, extent=np.array([0.3, 0.3]), movable=False)
    twins = WorldObject(id=1, class_id=3, wall_index=0, center_uv=np.array([2.8, 1.5]),
                        rotation=0.0, extent=np.array([0.3, 0.3]), movable=False)
    spread = WorldObject(id=2, class_id=5, wall_index=0, center_uv=np.array([3.8, 1.5]),
                         rotation=0.0, extent=np.array([5.2, 2.6]), movable=False)
    for _ in range(100):
        offset = rng.uniform(-0.5, 0.5, 2) * cluster.extent
        descriptor = rng.normal(size=64)
        descriptor /= np.linalg.norm(descriptor)
        add(cluster.center_uv + offset, 0, descriptor)
        twin_offset = rng.uniform(-0.5, 0.5, 2) * twins.extent
        direction = rng.normal(size=64)
        twin = descriptor + 0.25 * direction / np.linalg.norm(direction)
        add(twins.center_uv + twin_offset, 1, twin)
    for _ in range(70):
        offset = rng.uniform(-0.5, 0.5, 2) * spread.extent
        descriptor = rng.normal(size=64)
        add(spread.center_uv + offset, 2, descriptor, depth=rng.uniform(0.0, 1.2))
    return World(dimensions=np.array([8.0, 4.0, 3.0]), objects=[cluster, twins, spread],
                 landmark_ids=np.arange(len(positions)), positions=np.array(positions),
                 descriptors=np.array(descriptors), object_ids=np.array(object_ids), seed=0)


def test_clustered_detections_degrade_premask_epipolar_heading():
    pinned_seeds = list(range(10))
    world = _clustered_detections_world()
    pose_a = generate_trajectory(
        "yaw", TrajectoryParams(center=(3.6, 2.8, 1.5), steps=1, heading_deg=-90.0)
    )[0][1]
    pose_b = generate_trajectory(
        "yaw", TrajectoryParams(center=(4.0, 2.8, 1.5), steps=1, heading_deg=-90.0)
    )[0][1]
    _, gt_translation = relative_motion(pose_a, pose_b)

    headings = {"pre": [], "post": []}
    match_counts = {"pre": [], "post": []}
    for seed in pinned_seeds:
        frame_a = synthesize_frame(world, pose_a, INTRINSICS, noise=(0.5, 0.05),
                                   rng=np.random.default_rng(1000 + seed), frame_id=0)
        frame_b = synthesize_frame(world, pose_b, INTRINSICS, noise=(0.5, 0.05),
                                   rng=np.random.default_rng(2000 + seed), frame_id=1)
        features_a, features_b = frame_features(frame_a), frame_features(frame_b)
        for mode in ("pre", "post"):
            result = relative_pose(0, features_a, 1, features_b, INTRINSICS, mode,
                                   seed=seed)
            assert result.relative is not None, (
                f"seed {seed} {mode}: {result.failure_reason}"
            )
            headings[mode].append(
                translation_heading_error_deg(result.relative.translation_direction,
                                              gt_translation)
            )
            match_counts[mode].append(len(result.matches))

    # the cluster and its twins dominate the class-restricted match set while
    # the unrestricted ratio test keeps only the well-spread class
    assert min(match_counts["pre"]) > 2 * max(match_counts["post"])
    mean_pre = float(np.mean(headings["pre"]))
    mean_post = float(np.mean(headings["post"]))
    ok = mean_pre > mean_post
    line = _verdict(
        "clustered detections",
        ok,
        f"pinned seeds {pinned_seeds}: mean heading error pre={mean_pre:.2f}° > "
        f"post={mean_post:.2f}° (per-seed pre: "
        + ", ".join(f"{h:.1f}" for h in headings["pre"])
        + "; post: "
        + ", ".join(f"{h:.1f}" for h in headings["post"])
        + ")",
    )
    assert ok, line


# ------------------------------------------------- 7: metrics oracle


def test_three_pose_oracle_and_report_round_trip(tmp_path):
    def entry(ts, center, yaw_deg=0.0):
        rotation = rotation_from_axis_angle(np.array([0.0, 0.0, math.radians(yaw_deg)]))
        return TrajectoryEntry(timestamp=ts,
                               pose=Pose(rotation, -rotation @ np.asarray(center, float)))

    reference = [entry(0.0, (0.0, 0.0, 0.0)), entry(1.0, (1.0, 0.0, 0.0)),
                 entry(2.0, (2.0, 0.0, 0.0))]
    estimated = [entry(0.0, (0.0, 0.1, 0.0), yaw_deg=0.0),
                 entry(1.0, (1.0, 0.5, 0.0), yaw_deg=3.0),
                 entry(2.0, (2.0, 0.7, 0.0), yaw_deg=4.0)]
    series = absolute_errors(estimated, reference, alignment="none")

    expected = {
        "ape_max": 0.7,
        "ape_median": 0.5,
        "ape_rmse": math.sqrt((0.01 + 0.25 + 0.49) / 3.0),
        "are_max": 4.0,
        "are_median": 3.0,
        "are_rmse": math.sqrt((0.0 + 9.0 + 16.0) / 3.0),
    }
    for name, value in expected.items():
        assert getattr(series, name) == pytest.approx(value, abs=1e-9), name

    rate = success_rate(series, pos_tol=0.3, rot_tol=5.0)
    assert rate == pytest.approx(1.0 / 3.0, abs=1e-12)

    record = BenchmarkRecord(
        seq="oracle", mode="post",
        ape_max=series.ape_max, ape_median=series.ape_median, ape_rmse=series.ape_rmse,
        are_max=series.are_max, are_median=series.are_median, are_rmse=series.are_rmse,
        success_rate=rate, correct_match_ratio=0.5,
    )
    path = str(tmp_path / "report.csv")
    emit_report([record], path, format="csv")
    parsed = parse_report(path)
    assert len(parsed) == 1
    fields = ("ape_max", "ape_median", "ape_rmse", "are_max", "are_median",
              "are_rmse", "success_rate", "correct_match_ratio")
    identical = all(
        getattr(parsed[0], f) == float(f"{getattr(record, f):.6g}") for f in fields
    )

    ok = identical
    line = _verdict(
        "metrics oracle",
        ok,
        f"three-pose trajectory: ape max/median/rmse = {series.ape_max:.6g}/"
        f"{series.ape_median:.6g}/{series.ape_rmse:.6g}, are = {series.are_max:.6g}/"
        f"{series.are_median:.6g}/{series.are_rmse:.6g}, success {rate:.6g}; "
        f"CSV round-trip identical at emitted precision",
    )
    assert ok, line


# --------------------------------------------------- 8: determinism


def _tree_bytes(root):
    snapshot = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as handle:
                snapshot[os.path.relpath(full, root)] = handle.read()
    return snapshot


def test_benchmark_reruns_are_byte_identical(tmp_path):
    config = SceneConfig(
        world=WorldConfig(landmarks_per_object=8, background_landmarks=24,
                          clutter_landmarks=16),
        mapping=TrajectoryParams(radius=0.5, steps=10),
        evaluation=TrajectoryParams(center=(4.1, 2.05, 1.5), steps=3, radius=0.35,
                                    heading_deg=5.0, t0=100.0),
        perturbation=None,
        seeds=[0, 1],
        vocabulary_k=16,
    )
    run_benchmark(config, str(tmp_path / "first"))
    run_benchmark(config, str(tmp_path / "second"))
    first = _tree_bytes(tmp_path / "first")
    second = _tree_bytes(tmp_path / "second")

    ok = first == second and "report.csv" in first and len(first) > 4
    line = _verdict(
        "determinism",
        ok,
        f"two identical runs, {len(first)} files each: byte-identical "
        f"(report, per-sequence error CDFs, trajectories)",
    )
    assert ok, line
