"""Trajectory metrics, match scoring, report round-trips, benchmark runs."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semloc.errors import InsufficientDataError
from semloc.evaluation import (
    ALIGNMENTS,
    EMPTY_FLAG,
    REPORT_HEADER,
    UNDEFINED_FLAG,
    BenchmarkRecord,
    MatchRatio,
    TrajectoryErrorSeries,
    absolute_errors,
    correct_match_ratio,
    emit_report,
    evaluate_pair,
    parse_report,
    run_benchmark,
    success_rate,
)
from semloc.evaluation.benchmark import _mean_ratio
from semloc.geometry import CameraIntrinsics, Pose, project_points, rotation_from_axis_angle
from semloc.geometry.epipolar import RelativePose
from semloc.pipelines import SemanticMode, relative_pose
from semloc.simworld.config import PerturbationSpec, SceneConfig
from semloc.simworld.trajectory import TrajectoryParams
from semloc.simworld.world import WorldConfig
from semloc.trajectory_io import TrajectoryEntry

from conftest import points_in_front, random_pose

INTRINSICS = CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)


def pose_at(center, rotation=None) -> Pose:
    """World->camera pose of a camera whose center sits at `center`."""
    rotation = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    return Pose(rotation, -rotation @ np.asarray(center, dtype=float))


def entry(ts, center, rotation=None) -> TrajectoryEntry:
    return TrajectoryEntry(float(ts), pose_at(center, rotation))


# ---------------------------------------------------------------- trajectories


def test_absolute_errors_three_pose_oracle():
    reference = [entry(i, [i, 0.0, 0.0]) for i in range(3)]
    estimated = [
        entry(0.0, [0.0, 0.1, 0.0]),
        entry(1.0, [1.0, 0.0, 0.2]),
        entry(2.0, [2.6, 0.0, 0.0]),
    ]
    series = absolute_errors(estimated, reference, alignment="none")
    assert series.ape == pytest.approx([0.1, 0.2, 0.6])
    assert series.ape_max == pytest.approx(0.6)
    assert series.ape_median == pytest.approx(0.2)
    assert series.ape_rmse == pytest.approx(math.sqrt(0.41 / 3.0), abs=1e-12)
    assert series.are == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)


def test_absolute_rotation_error_in_degrees():
    reference = [entry(0.0, [0.0, 0.0, 0.0])]
    tilted = rotation_from_axis_angle(np.array([0.0, 0.0, np.radians(10.0)]))
    estimated = [entry(0.0, [0.0, 0.0, 0.0], tilted)]
    series = absolute_errors(estimated, reference, alignment="none")
    assert series.are == pytest.approx([10.0], abs=1e-9)
    assert series.ape == pytest.approx([0.0], abs=1e-12)


def test_association_window_drops_unmatched_estimates():
    reference = [entry(0.0, [0.0, 0.0, 0.0]), entry(1.0, [1.0, 0.0, 0.0])]
    estimated = [
        entry(0.04, [0.0, 0.0, 0.0]),  # associates with ts=0
        entry(0.5, [9.0, 9.0, 9.0]),  # no reference within 0.05 s
    ]
    series = absolute_errors(estimated, reference, alignment="none")
    assert series.total_count == 1
    assert len(series.ape) == 1
    assert series.ape[0] == pytest.approx(0.0, abs=1e-12)


def test_no_associable_timestamps_raises():
    reference = [entry(0.0, [0.0, 0.0, 0.0])]
    estimated = [entry(10.0, [0.0, 0.0, 0.0])]
    with pytest.raises(InsufficientDataError, match="no associable timestamps"):
        absolute_errors(estimated, reference)
    with pytest.raises(InsufficientDataError, match="no associable timestamps"):
        absolute_errors([], reference)


def _rigidly_offset(entries, rotation, translation):
    moved = []
    for e in entries:
        r_wc = e.pose.rotation.T
        center = e.pose.camera_center()
        new_r_wc = rotation @ r_wc
        new_center = rotation @ center + translation
        moved.append(TrajectoryEntry(e.timestamp, Pose(new_r_wc.T, -new_r_wc.T @ new_center)))
    return moved


def test_first_pose_alignment_removes_a_rigid_offset():
    rng = np.random.default_rng(7)
    reference = [
        TrajectoryEntry(float(i), random_pose(rng, t_scale=2.0)) for i in range(6)
    ]
    offset_r = rotation_from_axis_angle(np.array([0.2, -0.1, 0.4]))
    estimated = _rigidly_offset(reference, offset_r, np.array([1.0, -2.0, 0.5]))

    misaligned = absolute_errors(estimated, reference, alignment="none")
    assert misaligned.ape_max > 0.5

    aligned = absolute_errors(estimated, reference, alignment="first_pose")
    assert aligned.ape_max == pytest.approx(0.0, abs=1e-9)
    assert aligned.are_max == pytest.approx(0.0, abs=1e-7)


def test_umeyama_alignment_recovers_a_rigid_offset():
    rng = np.random.default_rng(8)
    reference = [
        TrajectoryEntry(float(i), random_pose(rng, t_scale=2.0)) for i in range(8)
    ]
    offset_r = rotation_from_axis_angle(np.array([-0.3, 0.2, 0.1]))
    estimated = _rigidly_offset(reference, offset_r, np.array([0.4, 1.5, -2.0]))
    aligned = absolute_errors(estimated, reference, alignment="umeyama_no_scale")
    assert aligned.ape_max == pytest.approx(0.0, abs=1e-9)
    assert aligned.are_max == pytest.approx(0.0, abs=1e-7)


def test_unknown_alignment_rejected():
    with pytest.raises(ValueError, match="unknown alignment"):
        absolute_errors([entry(0.0, [0, 0, 0])], [entry(0.0, [0, 0, 0])], alignment="scale")
    assert set(ALIGNMENTS) == {"none", "first_pose", "umeyama_no_scale"}


def test_failed_frames_stay_in_the_denominator():
    reference = [entry(float(i), [i, 0.0, 0.0]) for i in range(4)]
    estimated = [
        entry(0.0, [0.0, 0.0, 0.0]),
        TrajectoryEntry(1.0, None, "insufficient matches"),
        entry(2.0, [2.0, 0.0, 0.0]),
        TrajectoryEntry(3.0, None, "no candidates"),
    ]
    series = absolute_errors(estimated, reference, alignment="none")
    assert series.total_count == 4
    assert len(series.ape) == 2
    assert success_rate(series, 0.3, 5.0) == pytest.approx(0.5)


def test_success_rate_boundaries_are_strict():
    series = TrajectoryErrorSeries(
        timestamps=np.array([0.0, 1.0, 2.0]),
        ape=np.array([0.3, 0.29999, 0.1]),
        are=np.array([1.0, 1.0, 5.0]),
        total_count=3,
    )
    # ape == pos_tol fails; are == rot_tol fails; only the middle frame passes
    assert success_rate(series, pos_tol=0.3, rot_tol=5.0) == pytest.approx(1.0 / 3.0)


def test_success_rate_empty_raises():
    empty = TrajectoryErrorSeries(np.array([]), np.array([]), np.array([]), 0)
    with pytest.raises(InsufficientDataError, match="no frames to rate"):
        success_rate(empty, 0.3, 5.0)


def test_series_rejects_inconsistent_data():
    with pytest.raises(ValueError, match="total_count"):
        TrajectoryErrorSeries(np.zeros(2), np.zeros(2), np.zeros(2), 1)
    with pytest.raises(ValueError, match="same length"):
        TrajectoryErrorSeries(np.zeros(2), np.zeros(1), np.zeros(2), 2)
    with pytest.raises(ValueError, match="non-negative"):
        TrajectoryErrorSeries(np.zeros(1), np.array([-0.1]), np.zeros(1), 1)


@given(
    errors=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.floats(min_value=0.0, max_value=180.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
    extra_failures=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_series_aggregate_ordering_property(errors, extra_failures):
    ape = np.array([e[0] for e in errors])
    are = np.array([e[1] for e in errors])
    series = TrajectoryErrorSeries(
        np.arange(len(errors), dtype=float), ape, are, len(errors) + extra_failures
    )
    assert series.ape_max >= series.ape_median >= 0.0
    assert series.are_max >= series.are_median >= 0.0
    assert series.ape_max >= series.ape_rmse >= 0.0
    rate = success_rate(series, 0.5, 5.0)
    loose = success_rate(series, 1.0, 10.0)
    assert 0.0 <= rate <= loose <= 1.0


# --------------------------------------------------------------- match quality


def _two_view_scene(seed=0, n=60):
    rng = np.random.default_rng(seed)
    pose_a = pose_at([0.0, 0.0, 0.0])
    pose_b = pose_at([0.4, 0.1, 0.0])
    points = points_in_front(rng, pose_a, n, depth=(2.0, 5.0), spread=1.4)
    pixels_a, valid_a = project_points(pose_a, INTRINSICS, points)
    pixels_b, valid_b = project_points(pose_b, INTRINSICS, points)
    keep = valid_a & valid_b
    return pose_a, pose_b, pixels_a[keep], pixels_b[keep]


def test_correct_match_ratio_perfect_matches():
    pose_a, pose_b, pixels_a, pixels_b = _two_view_scene()
    result = correct_match_ratio(pixels_a, pixels_b, INTRINSICS, pose_a, pose_b)
    assert result.total == len(pixels_a) >= 40
    assert result.correct == result.total
    assert result.ratio == pytest.approx(1.0)
    assert result.flags == frozenset()


def test_correct_match_ratio_scrambled_matches_score_low():
    pose_a, pose_b, pixels_a, pixels_b = _two_view_scene(seed=1)
    scrambled = np.roll(pixels_b, 7, axis=0)
    result = correct_match_ratio(pixels_a, scrambled, INTRINSICS, pose_a, pose_b)
    assert result.correct <= result.total
    assert result.ratio < 0.2


def test_correct_match_ratio_empty_flag():
    pose_a, pose_b, *_ = _two_view_scene()
    result = correct_match_ratio(
        np.empty((0, 2)), np.empty((0, 2)), INTRINSICS, pose_a, pose_b
    )
    assert result.total == 0
    assert result.ratio == 0.0
    assert EMPTY_FLAG in result.flags


def test_correct_match_ratio_zero_baseline_undefined():
    pose = pose_at([1.0, 2.0, 0.5])
    pixels = np.array([[320.0, 240.0], [100.0, 50.0]])
    result = correct_match_ratio(pixels, pixels, INTRINSICS, pose, pose)
    assert UNDEFINED_FLAG in result.flags
    assert math.isnan(result.ratio)
    assert result.total == 2


def test_correct_match_ratio_monotone_in_threshold():
    pose_a, pose_b, pixels_a, pixels_b = _two_view_scene(seed=2)
    rng = np.random.default_rng(3)
    noisy_b = pixels_b + rng.normal(scale=1.5, size=pixels_b.shape)
    previous = -1
    for threshold in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1.0):
        result = correct_match_ratio(
            pixels_a, noisy_b, INTRINSICS, pose_a, pose_b, threshold=threshold
        )
        assert result.correct >= previous
        previous = result.correct
    assert previous == result.total  # the loosest gate admits everything


def test_match_ratio_validates_counts():
    with pytest.raises(ValueError, match=r"\[0, total\]"):
        MatchRatio(correct=2, total=1, ratio=2.0)


def test_mean_match_ratio_skips_undefined_pairs():
    # the rule behind report.csv's correct_match_ratio column
    def rec(ratio, flags=frozenset()):
        return MatchRatio(0, 0 if EMPTY_FLAG in flags else 1, ratio, flags)

    records = [
        rec(0.5),
        rec(float("nan"), frozenset({UNDEFINED_FLAG})),
        rec(0.0, frozenset({EMPTY_FLAG})),  # empty pairs count as zero
    ]
    assert _mean_ratio(records) == pytest.approx(0.25)
    assert math.isnan(_mean_ratio([rec(float("nan"), frozenset({UNDEFINED_FLAG}))]))


def _frame_pair_results(seed=0):
    """A genuine two-frame estimation problem routed through relative_pose."""
    from semloc.pipelines.frames import FeatureObservation, extract_frame_features
    from semloc.semantics import DetectionSet

    rng = np.random.default_rng(seed)
    pose_a = pose_at([0.0, 0.0, 0.0])
    pose_b = pose_at([0.5, 0.0, 0.0])
    points = points_in_front(rng, pose_a, 80, depth=(2.0, 6.0), spread=1.6)
    pixels_a, valid_a = project_points(pose_a, INTRINSICS, points)
    pixels_b, valid_b = project_points(pose_b, INTRINSICS, points)
    keep = valid_a & valid_b
    descriptors = rng.normal(size=(int(np.sum(keep)), 32))
    descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
    features_a = extract_frame_features(
        FeatureObservation(pixels_a[keep], descriptors), DetectionSet(frame_id=0), masked=False
    )
    features_b = extract_frame_features(
        FeatureObservation(pixels_b[keep], descriptors), DetectionSet(frame_id=1), masked=False
    )
    result = relative_pose(0, features_a, 1, features_b, INTRINSICS, SemanticMode.BASELINE,
                           seed=seed)
    return result, pose_a, pose_b


def test_evaluate_pair_success_and_errors():
    result, pose_a, pose_b = _frame_pair_results()
    record = evaluate_pair(result, pose_a, pose_b, INTRINSICS)
    assert record.localized
    assert record.rotation_error_deg < 1.0
    assert record.heading_error_deg < 5.0
    assert record.success
    assert record.match_ratio.ratio > 0.9  # noise-free pixels satisfy the gate


def test_evaluate_pair_failed_estimate():
    result, pose_a, pose_b = _frame_pair_results()
    failed = dataclasses.replace(
        result, relative=None, failure_reason="estimation failed"
    )
    record = evaluate_pair(failed, pose_a, pose_b, INTRINSICS)
    assert not record.localized
    assert not record.success
    assert math.isnan(record.rotation_error_deg)
    assert math.isnan(record.heading_error_deg)


def test_evaluate_pair_flags_an_undefined_heading():
    result, pose_a, pose_b = _frame_pair_results()
    unscaled = dataclasses.replace(
        result, relative=RelativePose(result.relative.rotation, np.zeros(3))
    )
    record = evaluate_pair(unscaled, pose_a, pose_b, INTRINSICS)
    assert record.localized and not record.success
    assert record.rotation_error_deg < 1.0
    assert math.isnan(record.heading_error_deg)
    assert UNDEFINED_FLAG in record.flags


# -------------------------------------------------------------------- reports


def _record(seq="yaw-s0", mode="baseline", **overrides):
    values = dict(
        ape_max=0.6, ape_median=0.2, ape_rmse=math.sqrt(0.41 / 3.0),
        are_max=2.0, are_median=0.5, are_rmse=1.1,
        success_rate=0.917, correct_match_ratio=0.4321,
        ape_series=(0.1, 0.2, 0.6), are_series=(0.4, 0.5, 2.0),
    )
    values.update(overrides)
    return BenchmarkRecord(seq=seq, mode=mode, **values)


def test_record_from_series_spells_out_every_field():
    series = TrajectoryErrorSeries(
        np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.6, 0.2]), np.array([0.4, 2.0, 0.5]), 4
    )
    record = BenchmarkRecord.from_series("yaw-s0", "post", series, 0.75, 0.5)
    assert record == BenchmarkRecord(
        seq="yaw-s0",
        mode="post",
        ape_max=series.ape_max,
        ape_median=series.ape_median,
        ape_rmse=series.ape_rmse,
        are_max=series.are_max,
        are_median=series.are_median,
        are_rmse=series.are_rmse,
        success_rate=0.75,
        correct_match_ratio=0.5,
        ape_series=(0.1, 0.6, 0.2),
        are_series=(0.4, 2.0, 0.5),
    )


def test_report_header_and_shape(tmp_path):
    path = str(tmp_path / "report.csv")
    emit_report([_record()], path)
    lines = open(path).read().splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[0] == (
        "seq,mode,ape_max,ape_median,ape_rmse,are_max,are_median,are_rmse,"
        "success_rate,correct_match_ratio"
    )
    assert len(lines) == 2  # header plus exactly one record row


def test_report_round_trip_preserves_six_significant_digits(tmp_path):
    path = str(tmp_path / "report.csv")
    records = [_record(), _record(seq="yaw-s1", mode="post", success_rate=1.0)]
    emit_report(records, path)
    parsed = parse_report(path)
    assert [(r.seq, r.mode) for r in parsed] == [("yaw-s0", "baseline"), ("yaw-s1", "post")]
    for original, rebuilt in zip(records, parsed):
        for name in (
            "ape_max", "ape_median", "ape_rmse", "are_max", "are_median",
            "are_rmse", "success_rate", "correct_match_ratio",
        ):
            assert getattr(rebuilt, name) == float(f"{getattr(original, name):.6g}")


def test_report_nan_round_trip(tmp_path):
    path = str(tmp_path / "report.csv")
    emit_report([_record(correct_match_ratio=float("nan"))], path)
    parsed = parse_report(path)
    assert math.isnan(parsed[0].correct_match_ratio)


def test_report_empty_raises(tmp_path):
    with pytest.raises(InsufficientDataError, match="no records"):
        emit_report([], str(tmp_path / "report.csv"))


def test_report_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report([_record()], str(tmp_path / "report.xml"), format="xml")


def test_report_cdf_files(tmp_path):
    path = str(tmp_path / "report.csv")
    emit_report([_record()], path)
    cdf_path = str(tmp_path / "report_cdf_yaw-s0_baseline_ape.csv")
    assert os.path.exists(cdf_path)
    lines = open(cdf_path).read().splitlines()
    assert lines[0] == "error,fraction"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    errors = [r[0] for r in rows]
    fractions = [r[1] for r in rows]
    assert errors == sorted(errors)
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)
    assert os.path.exists(str(tmp_path / "report_cdf_yaw-s0_baseline_are.csv"))


def test_report_json_embeds_series(tmp_path):
    path = str(tmp_path / "report.json")
    emit_report([_record()], path, format="json")
    payload = json.load(open(path))
    assert "notes" in payload
    record = payload["records"][0]
    assert record["seq"] == "yaw-s0"
    assert record["ape_series"] == [0.1, 0.2, 0.6]


def test_parse_report_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "other.csv")
    with open(path, "w") as fh:
        fh.write("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected report header"):
        parse_report(path)


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
        min_size=8,
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_report_round_trip_property(tmp_path_factory, values):
    path = str(tmp_path_factory.mktemp("reports") / "report.csv")
    names = (
        "ape_max", "ape_median", "ape_rmse", "are_max", "are_median",
        "are_rmse", "success_rate", "correct_match_ratio",
    )
    record = _record(**dict(zip(names, values)))
    emit_report([record], path)
    rebuilt = parse_report(path)[0]
    for name, value in zip(names, values):
        assert getattr(rebuilt, name) == float(f"{value:.6g}")


# ------------------------------------------------------------------ benchmark


def _tiny_config(seeds=(0,), perturbed=False):
    if perturbed:
        # dense movable clutter so some evaluation frames face the rotated
        # object and the unrestricted matcher can latch onto its stale twin
        world = WorldConfig(
            landmarks_per_object=6, background_landmarks=16,
            clutter_landmarks=40, clutter_extent=(2.0, 1.4),
        )
        evaluation = TrajectoryParams(
            center=(4.1, 2.05, 1.5), steps=8, radius=0.35, heading_deg=5.0, t0=100.0
        )
    else:
        world = WorldConfig(
            landmarks_per_object=8, background_landmarks=24, clutter_landmarks=16
        )
        evaluation = TrajectoryParams(
            center=(4.1, 2.05, 1.5), steps=3, radius=0.35, heading_deg=5.0, t0=100.0
        )
    return SceneConfig(
        world=world,
        mapping=TrajectoryParams(radius=0.5, steps=10),
        evaluation=evaluation,
        perturbation=PerturbationSpec() if perturbed else None,
        seeds=list(seeds),
        vocabulary_k=16,
    )


def _tree_bytes(root):
    snapshot = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                snapshot[os.path.relpath(full, root)] = fh.read()
    return snapshot


def test_benchmark_outputs_and_determinism(tmp_path):
    config = _tiny_config(seeds=(0, 1))
    out_a = str(tmp_path / "run_a")
    out_b = str(tmp_path / "run_b")
    outcomes = run_benchmark(config, out_a)
    run_benchmark(config, out_b)

    assert len(outcomes) == 2 * 3  # seeds x modes
    records = parse_report(os.path.join(out_a, "report.csv"))
    assert [(r.seq, r.mode) for r in records] == [
        (f"yaw-s{seed}", mode) for seed in (0, 1) for mode in ("baseline", "pre", "post")
    ]
    for record in records:
        assert 0.0 <= record.success_rate <= 1.0

    for seed in (0, 1):
        seq = f"yaw-s{seed}"
        for suffix in ("gt", "baseline", "pre", "post"):
            assert os.path.exists(
                os.path.join(out_a, "trajectories", f"{seq}_{suffix}.txt")
            )

    tree_a = _tree_bytes(out_a)
    tree_b = _tree_bytes(out_b)
    assert tree_a.keys() == tree_b.keys()
    for name in tree_a:
        assert tree_a[name] == tree_b[name], f"{name} differs between identical runs"


def test_benchmark_featurizes_each_frame_once(tmp_path, monkeypatch):
    """Both maps, every mode and the partner lookup share one labelling pass
    per mapping frame and per evaluation frame."""
    from semloc.semantics import labeling

    label_keypoints = labeling.label_keypoints
    labelled = []

    def counting_label_keypoints(coordinates, detections):
        labelled.append(detections.frame_id)
        return label_keypoints(coordinates, detections)

    monkeypatch.setattr(labeling, "label_keypoints", counting_label_keypoints)
    config = _tiny_config(seeds=(0,), perturbed=True)
    run_benchmark(config, str(tmp_path / "run"))
    mapping_ids = list(range(config.mapping.steps))
    evaluation_ids = [1000 + i for i in range(config.evaluation.steps)]
    assert sorted(labelled) == mapping_ids + evaluation_ids


def test_benchmark_computes_each_query_bow_vector_once(tmp_path, monkeypatch):
    """The partner lookup reuses relocalize's BoW ranking: a query's BoW
    vector is computed once per mode, in one quantization per mode's batch,
    and the benchmark computes none of its own."""
    import importlib

    from semloc.evaluation import benchmark

    relocalize_module = importlib.import_module("semloc.pipelines.relocalize")
    vocabulary_module = importlib.import_module("semloc.mapping.vocabulary")
    calls = {"relocalize": 0, "relocalize batches": 0, "one vector": 0}
    localizations = []

    bow_vectors = relocalize_module.bow_vectors
    bow_vector = vocabulary_module.bow_vector

    def counted_batch(frame_descriptors, vocabulary):
        calls["relocalize batches"] += 1
        calls["relocalize"] += len(frame_descriptors)
        return bow_vectors(frame_descriptors, vocabulary)

    def counted(descriptors, vocabulary):
        calls["one vector"] += 1
        return bow_vector(descriptors, vocabulary)

    monkeypatch.setattr(relocalize_module, "bow_vectors", counted_batch)
    monkeypatch.setattr(vocabulary_module, "bow_vector", counted)
    relocalize_frames = benchmark.relocalize_frames

    def recording_relocalize_frames(*args, **kwargs):
        batch = relocalize_frames(*args, **kwargs)
        localizations.extend(batch)
        return batch

    monkeypatch.setattr(benchmark, "relocalize_frames", recording_relocalize_frames)
    config = _tiny_config(seeds=(0,), perturbed=True)
    run_benchmark(config, str(tmp_path / "run"))
    assert len(localizations) == len(SemanticMode) * config.evaluation.steps
    assert calls["relocalize batches"] == len(SemanticMode)
    assert calls["relocalize"] == len(localizations)
    assert calls["one vector"] == 0
    assert not hasattr(benchmark, "bow_vector")


def test_a_frame_without_candidates_pairs_with_the_lowest_keyframe_id(tmp_path, monkeypatch):
    """relocalize retrieves no candidates only for an all-zero query BoW
    vector. Such a vector scores every keyframe 0, and most_similar then picks
    the lowest id, so the benchmark pairs the frame with the lowest mapping
    frame id without ranking anything."""
    from semloc.evaluation import benchmark
    from semloc.evaluation.benchmark import synthesize_scene
    from semloc.pipelines import most_similar

    rng = np.random.default_rng(5)
    keyframes = [(kf_id, rng.random(16)) for kf_id in (7, 3, 9, 5)]
    assert most_similar(np.zeros(16), keyframes) == 3

    relocalize_frames = benchmark.relocalize_frames
    correct_match_ratio = benchmark.correct_match_ratio
    partners = []

    def without_candidates(*args, **kwargs):
        batch = relocalize_frames(*args, **kwargs)
        return [dataclasses.replace(result, candidate_ids=()) for result in batch]

    def recording(query, train, intrinsics, pose_query, pose_train):
        partners.append(pose_train)
        return correct_match_ratio(query, train, intrinsics, pose_query, pose_train)

    monkeypatch.setattr(benchmark, "relocalize_frames", without_candidates)
    monkeypatch.setattr(benchmark, "correct_match_ratio", recording)
    config = _tiny_config(seeds=(0,))
    run_benchmark(config, str(tmp_path / "run"))
    lowest = min(synthesize_scene(config, 0).mapping_frames, key=lambda frame: frame.frame_id)
    assert len(partners) == len(SemanticMode) * config.evaluation.steps
    for pose in partners:
        assert np.array_equal(pose.rotation, lowest.pose.rotation)
        assert np.array_equal(pose.translation, lowest.pose.translation)


def test_benchmark_maps_come_from_the_unperturbed_world(tmp_path):
    """With a perturbation configured, ghost estimates must appear in the
    baseline trajectory relative to the *perturbed* ground truth; building the
    map from the perturbed world instead would make all modes agree."""
    config = _tiny_config(seeds=(0, 1, 2), perturbed=True)
    outcomes = run_benchmark(config, str(tmp_path / "run"))
    by_mode = {}
    for outcome in outcomes:
        by_mode.setdefault(outcome.record.mode, []).append(outcome.record)
    worst_baseline = max(r.are_max for r in by_mode["baseline"])
    worst_post = max(r.are_max for r in by_mode["post"])
    assert worst_baseline > 90.0  # some frame latched onto the rotated object
    assert worst_post < 90.0


def _assert_no_child_processes():
    import multiprocessing

    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_benchmark_seeds_run_in_workers_with_the_bytes_of_one_process(tmp_path, monkeypatch):
    """With two usable CPUs the seeds run in forked workers, and the tree and
    outcomes are those of one CPU, where every seed runs in this process, as
    they do while another thread runs."""
    import threading

    from semloc.evaluation import benchmark

    synthesize_scene = benchmark.synthesize_scene
    here = []

    def counted(config, seed):
        here.append(seed)  # reaches this list only when run in this process
        return synthesize_scene(config, seed)

    def run(name, cpus):
        monkeypatch.setattr(benchmark, "_usable_cpus", lambda: cpus)
        out = str(tmp_path / name)
        outcomes = run_benchmark(config, out)
        _assert_no_child_processes()
        return outcomes, _tree_bytes(out)

    monkeypatch.setattr(benchmark, "synthesize_scene", counted)
    config = _tiny_config(seeds=(2, 0, 1), perturbed=True)
    pooled, pooled_tree = run("pooled", cpus=2)
    assert here == []
    serial, serial_tree = run("serial", cpus=1)
    assert here == [2, 0, 1]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        threaded, threaded_tree = run("threaded", cpus=2)
    finally:
        release.set()
        other.join(timeout=10)
    assert here == [2, 0, 1] * 2 and not other.is_alive()

    assert pooled_tree == serial_tree == threaded_tree
    assert [(o.record.seq, o.record.mode) for o in pooled] == [
        (f"yaw-s{seed}", mode) for seed in (2, 0, 1) for mode in ("baseline", "pre", "post")
    ]
    # repr: a NaN error never compares equal
    assert repr(pooled) == repr(serial) == repr(threaded)


def test_a_seed_failing_in_a_worker_reaches_the_caller(tmp_path, monkeypatch):
    """A one-frame mapping pass builds no map; the worker's error arrives with
    its type and message, and no worker outlives the call."""
    from semloc.errors import InsufficientDataError
    from semloc.evaluation import benchmark

    monkeypatch.setattr(benchmark, "_usable_cpus", lambda: 2)
    config = dataclasses.replace(
        _tiny_config(seeds=(0, 1, 2)), mapping=TrajectoryParams(radius=0.5, steps=1)
    )
    with pytest.raises(InsufficientDataError, match="empty map: need at least two frames"):
        run_benchmark(config, str(tmp_path / "run"))
    _assert_no_child_processes()


def _run_seed_dying_on_seed_1(config, seed, trajectory_dir):
    """A seed run whose worker process dies, as one killed by the OS would,
    on seed 1; at module level, so the pool can send it to its workers."""
    if seed == 1:
        os._exit(3)
    return []


def test_a_worker_dying_names_its_seed(tmp_path, monkeypatch):
    """A seed's worker process that dies raises SemlocError naming that seed
    among those left without outcomes, and no worker outlives the call."""
    from semloc.errors import SemlocError
    from semloc.evaluation import benchmark

    monkeypatch.setattr(benchmark, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(benchmark, "_run_seed", _run_seed_dying_on_seed_1)
    lost = r"no outcomes for benchmark seed (\d+, )*1(, \d+)*: a worker process died"
    with pytest.raises(SemlocError, match=lost):
        run_benchmark(_tiny_config(seeds=(0, 1, 2)), str(tmp_path / "run"))
    _assert_no_child_processes()


@pytest.mark.parametrize(
    "field, values, message",
    [
        ("seeds", [0, 1, 0], "seed 0 is listed twice"),
        ("modes", ["baseline", "post", "post"], "mode 'post' is listed twice"),
        ("modes", ["baseline", "semantic"], "unknown semantic mode: 'semantic'"),
    ],
)
def test_benchmark_rejects_a_bad_grid_before_any_work(tmp_path, field, values, message):
    config = dataclasses.replace(_tiny_config(), **{field: values})
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=message):
        run_benchmark(config, str(out))
    assert not out.exists()
