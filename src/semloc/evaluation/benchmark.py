"""End-to-end synthetic benchmark: worlds, maps, relocalization, reports."""

from __future__ import annotations

import functools
import logging
import os
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import SemlocError
from ..geometry.pose import CameraIntrinsics
from ..mapping.build import MapBuildConfig, MapFrameInput, build_map
from ..mapping.sparse_map import SparseMap
from ..pipelines.frames import FrameFeatures, frame_features
from ..pipelines.modes import SemanticMode, derive_rng_seed, mode_features
from ..pipelines.relative import match_frames
from ..pipelines.relocalize import relocalize_frames
from ..simworld.config import SceneConfig
from ..simworld.perturb import perturb_world
from ..simworld.synthesize import SyntheticFrame, synthesize_frame
from ..simworld.trajectory import generate_trajectory
from ..simworld.world import World, generate_world
from ..trajectory_io import TrajectoryEntry, write_trajectory
from .match_metrics import UNDEFINED_FLAG, MatchRatio, correct_match_ratio
from .report import BenchmarkRecord, emit_report
from .trajectory_metrics import (
    DEFAULT_POS_TOL_M,
    DEFAULT_ROT_TOL_DEG,
    absolute_errors,
    success_rate,
)

logger = logging.getLogger(__name__)

_MAPPING_STREAM = 0  # rng stream ids keep mapping and evaluation noise disjoint
_EVALUATION_STREAM = 1
_EVALUATION_ID_BASE = 1000  # evaluation frame ids, disjoint from mapping ids


@dataclass(frozen=True)
class SeedOutcome:
    """Everything measured for one (seed, mode) benchmark cell."""

    record: BenchmarkRecord
    # MatchRatio per evaluation frame: its mode-specific descriptor matches
    # to the BoW-nearest mapping frame, scored against ground truth
    pair_records: tuple


def synthesize_sequence(
    world: World,
    kind: str,
    params,
    config: SceneConfig,
    seed: int,
    stream: int,
    id_base: int = 0,
) -> list[SyntheticFrame]:
    """Observe a trajectory with the config's camera, noise and box margin,
    and per-frame rng derived from (seed, stream, index)."""
    frames = []
    for index, (timestamp, pose) in enumerate(generate_trajectory(kind, params)):
        rng = np.random.default_rng(derive_rng_seed(seed, stream, index))
        frames.append(
            synthesize_frame(
                world,
                pose,
                config.intrinsics,
                noise=(config.sigma_px, config.sigma_desc),
                rng=rng,
                frame_id=id_base + index,
                timestamp=timestamp,
                box_margin_px=config.box_margin_px,
            )
        )
    return frames


class SyntheticScene(NamedTuple):
    """One seed's world and mapping frames, and the evaluation frames of its
    perturbed copy (the world itself when no perturbation is configured)."""

    world: World
    mapping_frames: list[SyntheticFrame]
    eval_world: World
    eval_frames: list[SyntheticFrame]


def synthesize_scene(config: SceneConfig, seed: int) -> SyntheticScene:
    """Generate a seed's worlds and observe both of its trajectories."""
    world = generate_world(config.world, seed=seed)
    mapping_frames = synthesize_sequence(
        world, config.mapping_kind, config.mapping, config, seed, _MAPPING_STREAM
    )
    eval_world = world
    if config.perturbation is not None:
        eval_world = perturb_world(world, config.perturbation)
    eval_frames = synthesize_sequence(
        eval_world, config.evaluation_kind, config.evaluation, config,
        seed, _EVALUATION_STREAM, id_base=_EVALUATION_ID_BASE,
    )
    return SyntheticScene(world, mapping_frames, eval_world, eval_frames)


def _map_for_mode(mode: SemanticMode, semantic_map: SparseMap, full_map: SparseMap):
    return semantic_map if mode is SemanticMode.PRE else full_map


def _mean_ratio(ratios: Iterable[MatchRatio]) -> float:
    """Mean correct-match ratio, skipping pairs with undefined ground truth."""
    defined = [r.ratio for r in ratios if UNDEFINED_FLAG not in r.flags]
    return float(np.mean(defined)) if defined else float("nan")


def _evaluate_mode(
    mode: SemanticMode,
    sparse_map: SparseMap,
    mapping: list[tuple[SyntheticFrame, FrameFeatures]],
    evaluation: list[tuple[SyntheticFrame, FrameFeatures]],
    intrinsics: CameraIntrinsics,
    seed: int,
    seq: str,
    trajectory_dir: str,
) -> SeedOutcome:
    """Relocalize and score every evaluation frame in one mode; `mapping` and
    `evaluation` pair each frame with its labeled, unmasked features."""
    partners = {
        frame.frame_id: (frame, mode_features(features, mode)) for frame, features in mapping
    }

    localizations = relocalize_frames(
        sparse_map,
        [(frame.frame_id, features) for frame, features in evaluation],
        intrinsics,
        mode,
        seed=seed,
    )
    entries = []
    pair_records = []
    for (frame, features), localization in zip(evaluation, localizations):
        entries.append(
            TrajectoryEntry(frame.timestamp, localization.pose, localization.failure_reason)
        )

        query = mode_features(features, mode)
        # relocalize ranked the keyframes by this query's BoW vector already,
        # so its best candidate is the most similar keyframe; it has none only
        # for an all-zero vector, which ties every keyframe at 0 (lowest id)
        candidates = localization.candidate_ids or (min(partners),)
        partner, partner_features = partners[candidates[0]]
        # the matches relative_pose would pool for this pair, before any
        # robust estimation, scored against the ground-truth geometry
        matches = match_frames(query, partner_features, mode)
        pair_records.append(
            correct_match_ratio(
                query.coordinates[matches.query_index],
                partner_features.coordinates[matches.train_index],
                intrinsics,
                frame.pose,
                partner.pose,
            )
        )

    write_trajectory(os.path.join(trajectory_dir, f"{seq}_{mode.value}.txt"), entries)
    gt_entries = [TrajectoryEntry(frame.timestamp, frame.pose) for frame, _ in evaluation]
    series = absolute_errors(entries, gt_entries, alignment="none")
    rate = success_rate(series, DEFAULT_POS_TOL_M, DEFAULT_ROT_TOL_DEG)
    record = BenchmarkRecord.from_series(seq, mode.value, series, rate, _mean_ratio(pair_records))
    return SeedOutcome(record=record, pair_records=tuple(pair_records))


def _run_seed(config: SceneConfig, seed: int, trajectory_dir: str) -> list[SeedOutcome]:
    """One seed's outcomes, one per mode: synthesize its scene, featurize,
    build both maps, write its ground-truth trajectory and run every mode.
    Depends on (config, seed) alone and writes only this seed's files."""
    scene = synthesize_scene(config, seed)
    # every frame is featurized once; each map and mode applies its own mask
    mapping = [(frame, frame_features(frame)) for frame in scene.mapping_frames]
    evaluation = [(frame, frame_features(frame)) for frame in scene.eval_frames]
    map_inputs = [
        MapFrameInput(features, frame.pose, frame.frame_id) for frame, features in mapping
    ]
    semantic_map, full_map = (
        build_map(
            map_inputs,
            config.intrinsics,
            MapBuildConfig(semantic=semantic, vocabulary_k=config.vocabulary_k),
            registry=scene.world.registry,
        )
        for semantic in (True, False)
    )

    seq = f"{config.evaluation_kind}-s{seed}"
    write_trajectory(
        os.path.join(trajectory_dir, f"{seq}_gt.txt"),
        [TrajectoryEntry(f.timestamp, f.pose) for f in scene.eval_frames],
    )
    outcomes = []
    for mode_name in config.modes:
        mode = SemanticMode.parse(mode_name)
        outcome = _evaluate_mode(
            mode,
            _map_for_mode(mode, semantic_map, full_map),
            mapping,
            evaluation,
            config.intrinsics,
            seed,
            seq,
            trajectory_dir,
        )
        logger.info(
            "seed %d mode %s: success %.3f, match ratio %.3f",
            seed, mode.value,
            outcome.record.success_rate, outcome.record.correct_match_ratio,
        )
        outcomes.append(outcome)
    return outcomes


def _check_grid(config: SceneConfig) -> None:
    """Reject a grid that names a seed or a mode twice, or an unknown mode,
    before any seed runs: a repeated seed would write its files twice."""
    for name, values in (("seed", config.seeds), ("mode", config.modes)):
        for index, value in enumerate(values):
            if value in values[:index]:
                raise ValueError(f"benchmark {name} {value!r} is listed twice")
    for mode_name in config.modes:
        SemanticMode.parse(mode_name)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_seeds(config: SceneConfig, trajectory_dir: str) -> list[list[SeedOutcome]]:
    """_run_seed over config.seeds, in seed order: in forked worker processes,
    one per usable CPU up to one per seed, or in this process when that is
    one worker, the platform cannot fork, or another thread runs (a lock it
    holds would stay held in a forked copy). The pool is shut down and its
    workers joined before this returns or raises; a worker that dies, say
    killed by the OS for memory, raises SemlocError naming the seeds left
    without outcomes."""
    # imported here, not at module level, so importing semloc stays cheap
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    run = functools.partial(_run_seed, config, trajectory_dir=trajectory_dir)
    workers = min(len(config.seeds), _usable_cpus())
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return [run(seed) for seed in config.seeds]

    # fork, not spawn: a spawned worker would import numpy and semloc again
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    futures = []
    try:
        for seed in config.seeds:
            futures.append(pool.submit(run, seed))
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        lost = [
            seed
            for i, seed in enumerate(config.seeds)
            if i >= len(futures) or isinstance(futures[i].exception(), BrokenProcessPool)
        ]
        raise SemlocError(
            f"no outcomes for benchmark seed {', '.join(map(str, lost))}: a worker process "
            f"died, perhaps killed by the OS for memory ({exc})"
        ) from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_benchmark(config: SceneConfig, out_dir: str) -> list[SeedOutcome]:
    """Run the full benchmark grid (seeds x modes) and write the reports.

    Maps are always built from the unperturbed world; evaluation frames come
    from the perturbed copy when a perturbation is configured.  Every random
    choice derives from the seed, so identical configs reproduce the output
    files byte for byte, and the seeds run in parallel on up to the usable
    CPUs with the same bytes as one after another.  A repeated seed or mode,
    or an unknown mode, raises ValueError before any seed runs.
    """
    _check_grid(config)
    trajectory_dir = os.path.join(out_dir, "trajectories")
    os.makedirs(trajectory_dir, exist_ok=True)

    outcomes = [outcome for seed in _map_seeds(config, trajectory_dir) for outcome in seed]
    records = [outcome.record for outcome in outcomes]
    emit_report(records, os.path.join(out_dir, "report.csv"), format="csv")
    emit_report(records, os.path.join(out_dir, "report.json"), format="json")
    return outcomes
