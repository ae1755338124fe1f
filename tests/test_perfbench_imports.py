"""The benchmark harness under perfbench/ imports semloc names directly and
traces layer functions by (module, attribute); every one must resolve."""

import importlib
import importlib.util
import math
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    """Import perfbench/<name>.py by path, without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_import_every_semloc_name_they_use():
    workloads = _load("workloads")
    assert workloads.WORKLOADS


def test_every_traced_function_resolves():
    tracing = _load("tracing")
    assert tracing.TRACED
    for module_name, attr in tracing.TRACED:
        function = getattr(importlib.import_module(module_name), attr, None)
        assert callable(function), f"{module_name}.{attr} is not importable"


def test_match_ratio_scores_every_mode_on_a_small_scene():
    """match_ratio reads Keyframe.bow and ranks bow_vector's output with
    most_similar, so a change to either type breaks it: run it in every mode."""
    from semloc.evaluation.benchmark import synthesize_scene
    from semloc.mapping import MapBuildConfig, MapFrameInput, build_map
    from semloc.pipelines import frame_features
    from semloc.simworld import SceneConfig, TrajectoryParams, WorldConfig

    workloads = _load("workloads")
    config = SceneConfig(
        world=WorldConfig(landmarks_per_object=8, background_landmarks=24, clutter_landmarks=16),
        mapping=TrajectoryParams(radius=0.5, steps=10),
        evaluation=TrajectoryParams(
            center=(4.1, 2.05, 1.5), steps=3, radius=0.35, heading_deg=5.0, t0=100.0
        ),
        seeds=[0],
        vocabulary_k=16,
    )
    scene = synthesize_scene(config, 0)
    inputs = [
        MapFrameInput(frame_features(frame), frame.pose, frame.frame_id)
        for frame in scene.mapping_frames
    ]
    for mode in workloads.MODES:
        sparse_map = build_map(
            inputs, config.intrinsics, MapBuildConfig(semantic=mode == "pre", vocabulary_k=16)
        )
        ratio = workloads.match_ratio(
            sparse_map, scene.eval_frames, scene.mapping_frames, config.intrinsics, mode
        )
        assert math.isfinite(ratio), mode
