"""The benchmark's workloads: one timed pass each, its checks and its scores.

A pass is one closed-loop call sequence from a single caller into semloc's
public entry points: ``run_benchmark`` for ``scene_change`` and
``mapping_dense``, ``semloc.cli.main`` for ``cli_relocalize``. Every pass of
a run repeats the same inputs in the same directory, so their output trees
must hash alike.

Import this module only after ``run.setup()`` has made semloc importable.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from semloc.cli import main as cli_main
from semloc.evaluation import parse_report, run_benchmark
from semloc.evaluation.match_metrics import UNDEFINED_FLAG, correct_match_ratio
from semloc.mapping import bow_vector, load_map
from semloc.pipelines import (
    QueryFrame,
    SemanticMode,
    extract_frame_features,
    match_frames,
    most_similar,
)
from semloc.semantics import ClassRegistry
from semloc.simworld import (
    PerturbationSpec,
    SceneConfig,
    TrajectoryParams,
    WorldConfig,
    load_dataset_frames,
    load_intrinsics,
)
from semloc.trajectory_io import read_trajectory

MODES = ("baseline", "pre", "post")

# The acceptance suite's scene-change scene.
SCENE_CHANGE_WORLD = WorldConfig(
    landmarks_per_object=12,
    background_landmarks=40,
    clutter_landmarks=70,
    clutter_extent=(2.0, 1.4),
)
EVALUATION_CENTER = (4.1, 2.05, 1.5)

# The INI format has no clutter_extent, so the CLI scene keeps the default
# (1.8, 1.2) footprint; everything else matches SCENE_CHANGE_WORLD.
CLI_SCENE_INI = """\
[world]
landmarks_per_object = 12
background_landmarks = 40
clutter_landmarks = 70
seed = {seed}

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


def tree_digest(root: str) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _fraction_localized(paths: list[str]) -> float:
    entries = [entry for path in paths for entry in read_trajectory(path)]
    return sum(entry.pose is not None for entry in entries) / len(entries)


class Checks:
    """Counts the correctness checks of a run; a failed one is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------- run_benchmark


def _sweep_config(seeds: list[int], dense: bool) -> SceneConfig:
    if dense:
        # map building dominates: a dense world, a long mapping sweep and a
        # token evaluation pass
        return SceneConfig(
            world=WorldConfig(landmarks_per_object=40, background_landmarks=200),
            mapping=TrajectoryParams(radius=0.5, steps=72),
            evaluation=TrajectoryParams(
                center=EVALUATION_CENTER, steps=2, radius=0.35, heading_deg=5.0, t0=100.0
            ),
            perturbation=None,
            seeds=seeds,
        )
    return SceneConfig(
        world=SCENE_CHANGE_WORLD,
        evaluation=TrajectoryParams(
            center=EVALUATION_CENTER, steps=12, radius=0.35, heading_deg=5.0, t0=100.0
        ),
        perturbation=PerturbationSpec(),
        seeds=seeds,
    )


class SweepWorkload:
    """``run_benchmark`` over every mode on one pass's worlds."""

    def __init__(self, dense: bool):
        self.dense = dense

    def world_seeds(self, seed: int) -> list[int]:
        """Two worlds a pass; distinct --seed values never share one."""
        return [2 * seed, 2 * seed + 1]

    def inputs(self, seed: int) -> str:
        return f"worlds={self.world_seeds(seed)}"

    def run(self, seed: int, out_dir: str, checks: Checks, span) -> None:
        run_benchmark(_sweep_config(self.world_seeds(seed), self.dense), out_dir)

    def _seqs(self, seed: int) -> list[str]:
        return [f"yaw-s{world}" for world in self.world_seeds(seed)]

    def check(self, seed: int, out_dir: str, checks: Checks) -> None:
        report = os.path.join(out_dir, "report.csv")
        rows = set()
        if checks.expect(os.path.isfile(report), "report.csv written"):
            rows = {(record.seq, record.mode) for record in parse_report(report)}
        trajectories = os.path.join(out_dir, "trajectories")
        for seq in self._seqs(seed):
            checks.expect(
                os.path.isfile(os.path.join(trajectories, f"{seq}_gt.txt")),
                f"{seq}_gt.txt written",
            )
            for mode in MODES:
                checks.expect((seq, mode) in rows, f"report.csv row {seq}/{mode}")
                checks.expect(
                    os.path.isfile(os.path.join(trajectories, f"{seq}_{mode}.txt")),
                    f"{seq}_{mode}.txt written",
                )

    def score(self, seed: int, out_dir: str) -> dict[str, float]:
        records = parse_report(os.path.join(out_dir, "report.csv"))
        scores = {}
        for mode in MODES:
            mine = [r for r in records if r.mode == mode]
            scores[f"success_rate_{mode}"] = float(np.mean([r.success_rate for r in mine]))
            scores[f"correct_match_ratio_{mode}"] = float(
                np.mean([r.correct_match_ratio for r in mine])
            )
        scores["localized_ratio"] = _fraction_localized([
            os.path.join(out_dir, "trajectories", f"{seq}_{mode}.txt")
            for seq in self._seqs(seed)
            for mode in MODES
        ])
        return scores


# ---------------------------------------------------------------- CLI chain


def _map_name(mode: str) -> str:
    return "map_semantic.json" if mode == "pre" else "map_full.json"


def _traj_name(mode: str, ransac_seed: int) -> str:
    return f"traj_{mode}_r{ransac_seed}.txt"


def _metrics_name(mode: str, ransac_seed: int) -> str:
    return f"metrics_{mode}_r{ransac_seed}.csv"


def _cli_steps(world_dir: str, ransac_seeds: list[int]) -> list[list[str]]:
    data = os.path.join(world_dir, "data")
    mapping = os.path.join(data, "mapping")
    steps = [["simulate", "--config", os.path.join(world_dir, "scene.ini"), "--out", data]]
    for name, extra in (("map_semantic.json", ["--semantic"]), ("map_full.json", [])):
        steps.append([
            "build-map",
            "--frames", os.path.join(mapping, "frames"),
            "--annotations", os.path.join(mapping, "annotations"),
            "--intrinsics", os.path.join(mapping, "intrinsics.json"),
            "--out", os.path.join(world_dir, name),
        ] + extra)
    for ransac_seed in ransac_seeds:
        for mode in MODES:
            steps.append([
                "relocalize",
                "--map", os.path.join(world_dir, _map_name(mode)),
                "--frames", os.path.join(data, "evaluation", "frames"),
                "--mode", mode,
                "--seed", str(ransac_seed),
                "--out", os.path.join(world_dir, _traj_name(mode, ransac_seed)),
            ])
    for ransac_seed in ransac_seeds:
        for mode in MODES:
            steps.append([
                "evaluate",
                "--est", os.path.join(world_dir, _traj_name(mode, ransac_seed)),
                "--gt", os.path.join(data, "evaluation", "gt_traj.txt"),
                "--out", os.path.join(world_dir, _metrics_name(mode, ransac_seed)),
            ])
    return steps


def match_ratio(sparse_map, eval_frames, mapping_frames, intrinsics, mode: str) -> float:
    """Mean correct-match ratio of the evaluation frames, scored as report.csv
    scores it: ratio-test matches, before RANSAC, against the mapping frame
    whose BoW vector is closest in the mode's map."""
    partners = {frame.frame_id: frame for frame in mapping_frames}
    keyframe_bows = [(kf.id, kf.bow) for kf in sparse_map.keyframes]
    semantic_mode = SemanticMode.parse(mode)
    masked = semantic_mode is SemanticMode.PRE

    def features_of(frame):
        query = QueryFrame.from_synthetic(frame)
        return extract_frame_features(query.observation, query.detections, masked)

    ratios = []
    for frame in eval_frames:
        features = features_of(frame)
        partner = partners[
            most_similar(bow_vector(features.descriptors, sparse_map.vocabulary), keyframe_bows)
        ]
        partner_features = features_of(partner)
        matches = match_frames(features, partner_features, semantic_mode)
        ratio = correct_match_ratio(
            features.coordinates[[m.query_index for m in matches]],
            partner_features.coordinates[[m.train_index for m in matches]],
            intrinsics,
            frame.pose,
            partner.pose,
        )
        if UNDEFINED_FLAG not in ratio.flags:
            ratios.append(ratio.ratio)
    return float(np.mean(ratios))


def _cli_match_ratio(world_dir: str, mode: str) -> float:
    registry = ClassRegistry.default()
    data = os.path.join(world_dir, "data")
    return match_ratio(
        load_map(os.path.join(world_dir, _map_name(mode))),
        load_dataset_frames(os.path.join(data, "evaluation", "frames"), registry),
        load_dataset_frames(os.path.join(data, "mapping", "frames"), registry),
        load_intrinsics(os.path.join(data, "evaluation", "intrinsics.json")),
        mode,
    )


class CliWorkload:
    """simulate, build-map twice, then relocalize and evaluate per mode with
    each of RANSAC_ROUNDS RANSAC seeds, in-process.

    The chain runs on a fixed world and --seed picks the RANSAC seeds. A
    relocalize step's cost hangs on a few frames whose adaptive RANSAC runs
    anywhere from a few dozen to 500 iterations, so one seed's cost varies
    by about a quarter from seed to seed; a pass sums RANSAC_ROUNDS seeds.
    """

    panel = (0,)
    RANSAC_ROUNDS = 5

    def inputs(self, seed: int) -> str:
        return f"worlds={list(self.panel)} ransac_seeds={self.ransac_seeds(seed)}"

    def ransac_seeds(self, seed: int) -> list[int]:
        """Distinct --seed values never share a RANSAC seed."""
        return [self.RANSAC_ROUNDS * seed + j for j in range(self.RANSAC_ROUNDS)]

    def run(self, seed: int, out_dir: str, checks: Checks, span) -> None:
        for world in self.panel:
            world_dir = os.path.join(out_dir, f"world{world}")
            os.makedirs(world_dir)
            with open(os.path.join(world_dir, "scene.ini"), "w") as fh:
                fh.write(CLI_SCENE_INI.format(seed=world))
            for argv in _cli_steps(world_dir, self.ransac_seeds(seed)):
                with span(f"cli.{argv[0]}"):
                    status = cli_main(argv)
                checks.expect(status == 0, f"semloc {argv[0]} (world {world}) exit 0")

    def check(self, seed: int, out_dir: str, checks: Checks) -> None:
        for world in self.panel:
            world_dir = os.path.join(out_dir, f"world{world}")
            for ransac_seed in self.ransac_seeds(seed):
                for mode in MODES:
                    traj = _traj_name(mode, ransac_seed)
                    checks.expect(
                        os.path.isfile(os.path.join(world_dir, traj)),
                        f"world {world} {traj} written",
                    )
                    metrics = _metrics_name(mode, ransac_seed)
                    path = os.path.join(world_dir, metrics)
                    checks.expect(
                        os.path.isfile(path) and len(parse_report(path)) == 1,
                        f"world {world} {metrics} has one row",
                    )

    def score(self, seed: int, out_dir: str) -> dict[str, float]:
        worlds = [os.path.join(out_dir, f"world{world}") for world in self.panel]
        ransac_seeds = self.ransac_seeds(seed)
        scores = {}
        for mode in MODES:
            scores[f"success_rate_{mode}"] = float(np.mean([
                parse_report(os.path.join(w, _metrics_name(mode, r)))[0].success_rate
                for w in worlds
                for r in ransac_seeds
            ]))
            # matches are taken before RANSAC, so the RANSAC seed cannot move them
            scores[f"correct_match_ratio_{mode}"] = float(
                np.mean([_cli_match_ratio(w, mode) for w in worlds])
            )
        scores["localized_ratio"] = _fraction_localized([
            os.path.join(w, _traj_name(mode, r))
            for w in worlds
            for r in ransac_seeds
            for mode in MODES
        ])
        return scores


WORKLOADS = {
    "scene_change": SweepWorkload(dense=False),
    "mapping_dense": SweepWorkload(dense=True),
    "cli_relocalize": CliWorkload(),
}
