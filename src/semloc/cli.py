"""Command-line interface: simulate, build-map, relocalize, relpose,
evaluate, benchmark.

Exit codes: 0 on success, 1 on usage errors, 2 when a pipeline step fails.
The SEMLOC_LOG environment variable (error, info, debug) sets log verbosity.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

from .errors import SemlocError
from .evaluation.trajectory_metrics import DEFAULT_POS_TOL_M, DEFAULT_ROT_TOL_DEG
from .geometry.pose import quaternion_from_rotation
from .mapping.build import MapBuildConfig, MapFrameInput, build_map
from .mapping.sparse_map import load_map, save_map
from .mapping.vocabulary import bow_vectors, build_vocabulary
from .pipelines.frames import frame_features
from .pipelines.pairing import pair_selection
from .pipelines.relative import relative_pose
from .pipelines.relocalize import relocalize_frames
from .semantics.classes import ClassRegistry
from .semantics.filtering import SemanticMode, mode_features
from .simworld.config import load_scene_config
from .simworld.dataset import load_dataset_frames, load_intrinsics, write_dataset
from .trajectory_io import TrajectoryEntry, read_trajectory, write_trajectory

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

PAIRS_HEADER = (
    "frame_a,frame_b,matches,inliers,pure_rotation,planar_suspected,"
    "failure,qw,qx,qy,qz,tx,ty,tz"
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="semloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    simulate = sub.add_parser("simulate", help="synthesize mapping and evaluation datasets")
    simulate.add_argument("--config", required=True, help="scene configuration (INI)")
    simulate.add_argument("--out", required=True, help="output directory")

    build = sub.add_parser("build-map", help="triangulate a landmark map from posed frames")
    build.add_argument("--frames", required=True, help="a split's frames/ directory")
    build.add_argument("--annotations", required=True, help="directory of detection files")
    build.add_argument("--intrinsics", required=True, help="camera intrinsics (JSON)")
    build.add_argument("--out", required=True, help="output map file")
    build.add_argument(
        "--semantic",
        action="store_true",
        help="keep only labeled features inside detections",
    )

    reloc = sub.add_parser("relocalize", help="localize frames against a prebuilt map")
    reloc.add_argument("--map", required=True, dest="map_path", help="map file")
    reloc.add_argument("--frames", required=True, help="a split's frames/ directory")
    reloc.add_argument("--mode", required=True, choices=[m.value for m in SemanticMode])
    reloc.add_argument("--seed", type=int, default=0)
    reloc.add_argument("--out", required=True, help="output trajectory file")

    relpose = sub.add_parser("relpose", help="estimate relative poses of paired frames")
    relpose.add_argument("--frames", required=True, help="a split's frames/ directory")
    relpose.add_argument("--mode", required=True, choices=[m.value for m in SemanticMode])
    relpose.add_argument("--seed", type=int, default=0)
    relpose.add_argument("--out", required=True, help="output pairs CSV")

    evaluate = sub.add_parser("evaluate", help="score a trajectory against ground truth")
    evaluate.add_argument("--est", required=True, help="estimated trajectory file")
    evaluate.add_argument("--gt", required=True, help="ground-truth trajectory file")
    evaluate.add_argument(
        "--pos-tol", type=float, default=DEFAULT_POS_TOL_M, help="position tolerance (m)"
    )
    evaluate.add_argument(
        "--rot-tol", type=float, default=DEFAULT_ROT_TOL_DEG, help="rotation tolerance (deg)"
    )
    evaluate.add_argument("--alignment", default="none", help="trajectory alignment method")
    evaluate.add_argument("--out", required=True, help="output metrics CSV")

    bench = sub.add_parser("benchmark", help="run the full multi-seed benchmark")
    bench.add_argument("--config", required=True, help="scene configuration (INI)")
    bench.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_simulate(args) -> int:
    from .evaluation.benchmark import synthesize_scene

    config = load_scene_config(args.config)
    scene = synthesize_scene(config, config.seed)
    write_dataset(
        os.path.join(args.out, "mapping"), scene.world, scene.mapping_frames, config.intrinsics
    )
    write_dataset(
        os.path.join(args.out, "evaluation"),
        scene.eval_world,
        scene.eval_frames,
        config.intrinsics,
    )
    logger.info(
        "simulated %d mapping and %d evaluation frames",
        len(scene.mapping_frames), len(scene.eval_frames),
    )
    return 0


def _load_query_frames(frames_dir: str, registry: ClassRegistry, **dataset):
    frames = load_dataset_frames(frames_dir, registry, **dataset)
    if not frames:
        raise SemlocError(f"no frames in {frames_dir}")
    return frames


def _cmd_build_map(args) -> int:
    registry = ClassRegistry.default()
    intrinsics = load_intrinsics(args.intrinsics)
    frames = _load_query_frames(
        args.frames, registry, annotations_dir=args.annotations, intrinsics=intrinsics
    )
    inputs = [MapFrameInput(frame_features(frame), frame.pose, frame.frame_id) for frame in frames]
    sparse_map = build_map(
        inputs, intrinsics, MapBuildConfig(semantic=args.semantic), registry=registry
    )
    save_map(sparse_map, args.out)
    logger.info(
        "built map: %d landmarks, %d keyframes",
        len(sparse_map.positions), len(sparse_map.keyframes),
    )
    return 0


def _dataset_intrinsics(frames_dir: str):
    # intrinsics travel with the dataset next to the frame directory
    return load_intrinsics(
        os.path.join(os.path.dirname(os.path.abspath(frames_dir)), "intrinsics.json")
    )


def _cmd_relocalize(args) -> int:
    registry = ClassRegistry.default()
    sparse_map = load_map(args.map_path)
    intrinsics = _dataset_intrinsics(args.frames)
    # detections come from the annotations/ directory beside the frames
    frames = _load_query_frames(args.frames, registry, intrinsics=intrinsics)
    results = relocalize_frames(
        sparse_map,
        [(frame.frame_id, frame_features(frame)) for frame in frames],
        intrinsics,
        args.mode,
        seed=args.seed,
    )
    entries = [
        TrajectoryEntry(frame.timestamp, result.pose, result.failure_reason)
        for frame, result in zip(frames, results)
    ]
    write_trajectory(args.out, entries)
    localized = sum(1 for e in entries if e.pose is not None)
    logger.info("relocalized %d/%d frames", localized, len(entries))
    return 0


def _pair_row(result) -> str:
    if result.relative is None:
        pose_fields = ["nan"] * 7
        failure = result.failure_reason or ""
    else:
        qw, qx, qy, qz = quaternion_from_rotation(result.relative.rotation)
        tx, ty, tz = result.relative.translation_direction
        pose_fields = [f"{v:.9f}" for v in (qw, qx, qy, qz, tx, ty, tz)]
        failure = ""
    return ",".join(
        [
            str(result.frame_id_a),
            str(result.frame_id_b),
            str(len(result.matches)),
            str(result.inlier_count),
            str(int(result.pure_rotation)),
            str(int(result.planar_suspected)),
            failure,
        ]
        + pose_fields
    )


def _cmd_relpose(args) -> int:
    registry = ClassRegistry.default()
    intrinsics = _dataset_intrinsics(args.frames)
    frames = _load_query_frames(args.frames, registry, intrinsics=intrinsics)
    mode = SemanticMode.parse(args.mode)

    # one featurization per frame serves the vocabulary, pairing and relative_pose
    features = [frame_features(frame) for frame in frames]
    descriptor_sets = [mode_features(f, mode).descriptors for f in features]
    total = sum(len(d) for d in descriptor_sets)
    vocabulary = build_vocabulary(descriptor_sets, k=min(48, max(2, total)))
    bows = [
        (frame.frame_id, bow)
        for frame, bow in zip(frames, bow_vectors(descriptor_sets, vocabulary))
    ]
    features_by_id = {frame.frame_id: f for frame, f in zip(frames, features)}

    lines = [PAIRS_HEADER]
    for id_a, id_b in pair_selection(bows):
        result = relative_pose(
            id_a,
            features_by_id[id_a],
            id_b,
            features_by_id[id_b],
            intrinsics,
            mode,
            seed=args.seed,
        )
        lines.append(_pair_row(result))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    logger.info("estimated %d frame pairs", len(lines) - 1)
    return 0


def _cmd_evaluate(args) -> int:
    from .evaluation.report import BenchmarkRecord, emit_report
    from .evaluation.trajectory_metrics import absolute_errors, success_rate

    estimated = read_trajectory(args.est)
    reference = read_trajectory(args.gt)
    series = absolute_errors(estimated, reference, alignment=args.alignment)
    rate = success_rate(series, args.pos_tol, args.rot_tol)
    seq = os.path.splitext(os.path.basename(args.est))[0]
    record = BenchmarkRecord.from_series(seq, "-", series, rate, float("nan"))
    emit_report([record], args.out, format="csv")
    logger.info("success rate %.3f over %d frames", rate, series.total_count)
    return 0


def _cmd_benchmark(args) -> int:
    from .evaluation.benchmark import run_benchmark

    config = load_scene_config(args.config)
    outcomes = run_benchmark(config, args.out)
    logger.info("benchmark wrote %d records to %s", len(outcomes), args.out)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "build-map": _cmd_build_map,
    "relocalize": _cmd_relocalize,
    "relpose": _cmd_relpose,
    "evaluate": _cmd_evaluate,
    "benchmark": _cmd_benchmark,
}


def main(argv=None) -> int:
    level = os.environ.get("SEMLOC_LOG", "error").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.ERROR))

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; usage errors already carry status 1
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"semloc {args.command}: error: {exc}", file=sys.stderr)
        logger.debug("pipeline failure", exc_info=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
