"""Command-line interface: invocations, outputs, and exit codes."""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from semloc.cli import PAIRS_HEADER, main
from semloc.evaluation.report import REPORT_HEADER, parse_report
from semloc.mapping.sparse_map import load_map
from semloc.errors import AnnotationError
from semloc.semantics import (
    UNLABELED,
    ClassRegistry,
    DetectionSet,
    load_detections,
)
from semloc.simworld import load_dataset_frames, load_intrinsics, write_dataset
from semloc.trajectory_io import read_trajectory

SCENE_INI = """\
[world]
landmarks_per_object = 8
background_landmarks = 24
clutter_landmarks = 16
seed = 3

[mapping]
kind = yaw
steps = 10
radius = 0.5

[evaluation]
kind = yaw
steps = 4
sweep_deg = 60
radius = 0.35
heading_deg = 5
t0 = 100

[perturbation]
enabled = false

[benchmark]
seeds = 0
vocabulary_k = 16
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated dataset plus maps, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "scene.ini"
    config.write_text(SCENE_INI)
    data = root / "data"
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    for name in ("semantic", "full"):
        argv = [
            "build-map",
            "--frames", str(data / "mapping" / "frames"),
            "--annotations", str(data / "mapping" / "annotations"),
            "--intrinsics", str(data / "mapping" / "intrinsics.json"),
            "--out", str(root / f"map_{name}.npz"),
        ]
        if name == "semantic":
            argv.append("--semantic")
        assert main(argv) == 0
    return root


def test_usage_errors_exit_1():
    assert main([]) == 1  # a subcommand is required
    assert main(["frobnicate"]) == 1
    assert main(["relocalize"]) == 1  # missing required flags
    assert main([
        "relocalize", "--map", "m.json", "--frames", "f", "--mode", "semantic",
        "--out", "t.txt",
    ]) == 1  # invalid mode value


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_repeated_calls_keep_their_exit_codes_and_messages(tmp_path, capsys):
    """main builds its parser once per process, and a parse leaves no state
    in it: each call exits and prints as it does first, in any order."""
    from semloc.cli import _build_parser

    missing = str(tmp_path / "missing.txt")
    calls = [
        ["relocalize"],  # 1: missing required flags
        ["--help"],  # 0
        ["relpose", "--frames", "f", "--mode", "pre", "--seed", "x", "--out", "p.csv"],  # 1
        ["evaluate", "--est", missing, "--gt", missing, "--out", str(tmp_path / "m.csv")],  # 2
        ["evaluate", "--help"],  # 0
        ["frobnicate"],  # 1
    ]
    first = []
    for argv in calls:
        status = main(argv)
        first.append((status, *capsys.readouterr()))
    assert [status for status, _, _ in first] == [1, 0, 1, 2, 0, 1]
    for order in (calls, calls[::-1]):
        for argv in order:
            status = main(argv)
            assert (status, *capsys.readouterr()) == first[calls.index(argv)]
    assert _build_parser() is _build_parser()


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "semloc.cli", "--help"], capture_output=True
    )
    assert proc.returncode == 0


def test_the_package_runs_as_a_module_from_a_checkout():
    """python -m semloc runs the CLI with only the source tree on the path."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "semloc", "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: semloc")


def test_simulate_writes_both_datasets(workspace):
    for split in ("mapping", "evaluation"):
        base = workspace / "data" / split
        assert not (base / "world.json").exists()  # nothing reads the world back
        assert (base / "intrinsics.json").exists()
        assert (base / "gt_traj.txt").exists()
        assert sorted(p.name for p in (base / "frames").iterdir()) == ["observations.npz"]
        frames = load_dataset_frames(str(base / "frames"), ClassRegistry.default())
        annotations = sorted(p.name for p in (base / "annotations").iterdir())
        assert frames and annotations == [f"{frame.frame_id:06d}.json" for frame in frames]


def test_build_map_semantic_flag_controls_labeling(workspace):
    semantic = load_map(str(workspace / "map_semantic.npz"))
    full = load_map(str(workspace / "map_full.npz"))
    assert len(semantic.positions) > 0
    assert np.all(semantic.class_ids != UNLABELED)
    assert np.any(full.class_ids == UNLABELED)  # clutter kept
    assert len(full.positions) > len(semantic.positions)


def test_relocalize_writes_parseable_trajectory(workspace, tmp_path):
    out = tmp_path / "traj.txt"
    argv = [
        "relocalize",
        "--map", str(workspace / "map_full.npz"),
        "--frames", str(workspace / "data" / "evaluation" / "frames"),
        "--mode", "baseline",
        "--seed", "0",
        "--out", str(out),
    ]
    assert main(argv) == 0
    entries = read_trajectory(str(out))
    assert len(entries) == 4
    assert sum(1 for e in entries if e.pose is not None) >= 2

    again = tmp_path / "traj_again.txt"
    assert main(argv[:-1] + [str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()  # same seed, same bytes


def test_evaluate_emits_fixed_header_metrics(workspace, tmp_path):
    traj = tmp_path / "traj.txt"
    assert main([
        "relocalize",
        "--map", str(workspace / "map_semantic.npz"),
        "--frames", str(workspace / "data" / "evaluation" / "frames"),
        "--mode", "pre",
        "--seed", "0",
        "--out", str(traj),
    ]) == 0
    metrics = tmp_path / "metrics.csv"
    assert main([
        "evaluate",
        "--est", str(traj),
        "--gt", str(workspace / "data" / "evaluation" / "gt_traj.txt"),
        "--pos-tol", "0.3",
        "--rot-tol", "5",
        "--out", str(metrics),
    ]) == 0
    lines = metrics.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    record = parse_report(str(metrics))[0]
    assert 0.0 <= record.success_rate <= 1.0


# the failure column of a relpose row: empty, or a reason relative_pose names
_PAIR_FAILURES = {
    "",
    "no semantic features",
    "insufficient matches",
    "estimation failed",
    "pure rotation suspected",
    "ambiguous decomposition",
}


def test_relpose_writes_pair_rows(workspace, tmp_path):
    out = tmp_path / "pairs.csv"
    assert main([
        "relpose",
        "--frames", str(workspace / "data" / "evaluation" / "frames"),
        "--mode", "post",
        "--seed", "1",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == PAIRS_HEADER
    assert len(lines) >= 2
    failure = PAIRS_HEADER.split(",").index("failure")
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(PAIRS_HEADER.split(","))
        assert fields[failure] in _PAIR_FAILURES


def test_relpose_reruns_are_byte_identical(workspace, tmp_path):
    """Two relpose runs on the same frames, mode and seed write the same bytes."""
    outputs = []
    for run in range(2):
        out = tmp_path / f"pairs{run}.csv"
        assert main([
            "relpose",
            "--frames", str(workspace / "data" / "mapping" / "frames"),
            "--mode", "baseline",
            "--seed", "0",
            "--out", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") > 2


def test_benchmark_command(workspace, tmp_path):
    out = tmp_path / "bench"
    assert main([
        "benchmark", "--config", str(workspace / "scene.ini"), "--out", str(out)
    ]) == 0
    records = parse_report(str(out / "report.csv"))
    assert [(r.seq, r.mode) for r in records] == [
        ("yaw-s0", "baseline"), ("yaw-s0", "pre"), ("yaw-s0", "post")
    ]
    assert (out / "report.json").exists()
    assert (out / "trajectories" / "yaw-s0_gt.txt").exists()


def _with_empty_frame(source, target):
    """Copy a dataset split and write it again with one more frame, which
    observes no landmark."""
    shutil.copytree(source, target)
    frames = load_dataset_frames(str(target / "frames"), ClassRegistry.default())
    empty = replace(
        frames[0],
        frame_id=999,
        timestamp=frames[0].timestamp + 1000.0,
        keypoints=np.empty((0, 2)),
        descriptors=np.empty((0, 64)),
        landmark_ids=np.empty(0, dtype=int),
        boxes=DetectionSet(999, []),
    )
    intrinsics = load_intrinsics(str(target / "intrinsics.json"))
    # in id order, as the per-frame files were read
    frames = sorted(frames + [empty], key=lambda frame: frame.frame_id)
    write_dataset(str(target), None, frames, intrinsics)
    return empty.timestamp


def test_a_frame_without_features_does_not_fail_the_dataset(workspace, tmp_path):
    data = workspace / "data"
    _with_empty_frame(data / "mapping", tmp_path / "mapping")
    empty_timestamp = _with_empty_frame(data / "evaluation", tmp_path / "evaluation")
    assert main([
        "build-map",
        "--frames", str(tmp_path / "mapping" / "frames"),
        "--annotations", str(tmp_path / "mapping" / "annotations"),
        "--intrinsics", str(tmp_path / "mapping" / "intrinsics.json"),
        "--out", str(tmp_path / "map.npz"),
    ]) == 0
    evaluation = load_dataset_frames(
        str(tmp_path / "evaluation" / "frames"), ClassRegistry.default()
    )
    assert {f.frame_id: f for f in evaluation}[999].descriptors.shape == (0, 64)
    out = tmp_path / "traj.txt"
    assert main([
        "relocalize",
        "--map", str(tmp_path / "map.npz"),
        "--frames", str(tmp_path / "evaluation" / "frames"),
        "--mode", "baseline",
        "--out", str(out),
    ]) == 0
    entries = read_trajectory(str(out))
    assert len(entries) == 5
    failed = [(e.timestamp, e.failure_reason) for e in entries if e.pose is None]
    assert failed == [(empty_timestamp, "no candidates")]


def test_pipeline_failures_exit_2(workspace, tmp_path):
    assert main([
        "evaluate", "--est", str(tmp_path / "missing.txt"),
        "--gt", str(tmp_path / "missing_too.txt"),
        "--out", str(tmp_path / "m.csv"),
    ]) == 2
    assert main([
        "relocalize", "--map", str(tmp_path / "no_map.json"),
        "--frames", str(workspace / "data" / "evaluation" / "frames"),
        "--mode", "baseline", "--out", str(tmp_path / "t.txt"),
    ]) == 2
    assert main([
        "simulate", "--config", str(tmp_path / "no_scene.ini"),
        "--out", str(tmp_path / "d"),
    ]) == 2
    assert main([
        "benchmark", "--config", str(tmp_path / "no_scene.ini"),
        "--out", str(tmp_path / "b"),
    ]) == 2


def test_evaluate_rejects_a_non_finite_trajectory_field(workspace, tmp_path, capsys):
    est = tmp_path / "est.txt"
    est.write_text(
        "100.000000 4.0 2.0 1.5 0.0 0.0 0.0 1.0\n100.100000 nan 2.0 1.5 0.0 0.0 0.0 1.0\n"
    )
    assert main([
        "evaluate", "--est", str(est),
        "--gt", str(workspace / "data" / "evaluation" / "gt_traj.txt"),
        "--out", str(tmp_path / "m.csv"),
    ]) == 2
    assert "est.txt:2: non-finite field" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_log_level_env_is_honored(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEMLOC_LOG", "info")
    assert main([
        "evaluate",
        "--est", str(workspace / "data" / "evaluation" / "gt_traj.txt"),
        "--gt", str(workspace / "data" / "evaluation" / "gt_traj.txt"),
        "--out", str(tmp_path / "self.csv"),
    ]) == 0
    record = parse_report(str(tmp_path / "self.csv"))[0]
    assert record.ape_max == 0.0  # a trajectory scored against itself
    assert record.success_rate == 1.0


def _tree(root) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_simulate_and_build_map_bytes_do_not_depend_on_the_time(workspace, tmp_path):
    """The .npz writers stamp no clock time: runs made seconds apart match byte
    for byte."""
    elapsed = time.time() - (workspace / "map_full.npz").stat().st_mtime
    time.sleep(max(0.0, 2.1 - elapsed))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(workspace / "scene.ini"), "--out", str(data)]) == 0
    assert main([
        "build-map",
        "--frames", str(data / "mapping" / "frames"),
        "--annotations", str(data / "mapping" / "annotations"),
        "--intrinsics", str(data / "mapping" / "intrinsics.json"),
        "--out", str(tmp_path / "map_full.npz"),
    ]) == 0
    assert _tree(data) == _tree(workspace / "data")
    assert (tmp_path / "map_full.npz").read_bytes() == (workspace / "map_full.npz").read_bytes()


@pytest.mark.parametrize("command", ["relocalize", "relpose"])
def test_each_annotation_file_is_read_once(workspace, tmp_path, monkeypatch, command):
    from semloc.simworld import dataset

    reads = []

    def counting(path, *args, **kwargs):
        reads.append(os.path.basename(path))
        return load_detections(path, *args, **kwargs)

    monkeypatch.setattr(dataset, "load_detections", counting)
    frames = workspace / "data" / "evaluation" / "frames"
    argv = [command, "--frames", str(frames), "--mode", "post", "--out", str(tmp_path / "out")]
    if command == "relocalize":
        argv += ["--map", str(workspace / "map_full.npz")]
    assert main(argv) == 0
    assert reads == sorted(p.name for p in (frames.parent / "annotations").iterdir())


def test_query_detections_come_from_the_annotation_files(workspace, tmp_path):
    """Relocalization and pairing read the same validated boxes build-map
    does: clamped to the image, low-confidence ones dropped."""
    shutil.copytree(workspace / "data" / "evaluation", tmp_path / "evaluation")
    annotations = tmp_path / "evaluation" / "annotations"
    first = sorted(annotations.iterdir())[0]
    frame_id = int(first.stem)
    first.write_text(json.dumps({"frame": frame_id, "boxes": [
        {"class": "vent", "box": [600, -5, 700, 40], "confidence": 0.9},
        {"class": "hatch", "box": [5, 5, 20, 20], "confidence": 0.2},
    ]}))
    frames = load_dataset_frames(str(tmp_path / "evaluation" / "frames"), ClassRegistry.default())
    boxes = frames[0].boxes.boxes
    assert frames[0].frame_id == frame_id and len(boxes) == 1
    assert (boxes[0].x_min, boxes[0].y_min, boxes[0].x_max, boxes[0].y_max) == (600, 0, 639, 40)

    first.write_text(json.dumps({"frame": frame_id + 1, "boxes": []}))
    with pytest.raises(AnnotationError, match=f"{first.name}: annotates frame {frame_id + 1}"):
        load_dataset_frames(str(tmp_path / "evaluation" / "frames"), ClassRegistry.default())
    first.unlink()
    assert main([
        "relocalize", "--map", str(workspace / "map_full.npz"),
        "--frames", str(tmp_path / "evaluation" / "frames"),
        "--mode", "pre", "--out", str(tmp_path / "t.txt"),
    ]) == 2
