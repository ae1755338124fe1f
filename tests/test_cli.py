"""Command-line interface: invocations, outputs, and exit codes."""

import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from semloc.cli import PAIRS_HEADER, main
from semloc.evaluation.report import REPORT_HEADER, parse_report
from semloc.mapping.sparse_map import load_map
from semloc.semantics import UNLABELED, ClassRegistry, DetectionSet, save_detections
from semloc.simworld import load_frame, save_frame
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
            "--out", str(root / f"map_{name}.json"),
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


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "semloc.cli", "--help"], capture_output=True
    )
    assert proc.returncode == 0


def test_simulate_writes_both_datasets(workspace):
    for split in ("mapping", "evaluation"):
        base = workspace / "data" / split
        assert (base / "world.json").exists()
        assert (base / "intrinsics.json").exists()
        assert (base / "gt_traj.txt").exists()
        assert len(list((base / "frames").glob("*.json"))) > 0
        assert len(list((base / "annotations").glob("*.json"))) > 0


def test_build_map_semantic_flag_controls_labeling(workspace):
    semantic = load_map(str(workspace / "map_semantic.json"))
    full = load_map(str(workspace / "map_full.json"))
    assert len(semantic.positions) > 0
    assert np.all(semantic.class_ids != UNLABELED)
    assert np.any(full.class_ids == UNLABELED)  # clutter kept
    assert len(full.positions) > len(semantic.positions)


def test_relocalize_writes_parseable_trajectory(workspace, tmp_path):
    out = tmp_path / "traj.txt"
    argv = [
        "relocalize",
        "--map", str(workspace / "map_full.json"),
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
        "--map", str(workspace / "map_semantic.json"),
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
    """Copy a dataset split and add a frame that observes no landmark."""
    shutil.copytree(source, target)
    registry = ClassRegistry.default()
    frame = load_frame(str(next((target / "frames").iterdir())), registry)
    empty = replace(
        frame,
        frame_id=999,
        timestamp=frame.timestamp + 1000.0,
        keypoints=np.empty((0, 2)),
        descriptors=np.empty((0, 64)),
        landmark_ids=np.empty(0, dtype=int),
        boxes=DetectionSet(999, []),
    )
    save_frame(empty, str(target / "frames" / "000999.json"))
    save_detections(str(target / "annotations" / "000999.json"), empty.boxes)
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
        "--out", str(tmp_path / "map.json"),
    ]) == 0
    out = tmp_path / "traj.txt"
    assert main([
        "relocalize",
        "--map", str(tmp_path / "map.json"),
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
