"""Deterministic synthetic benchmark world: scene, trajectories, observations."""

from .config import DEFAULT_INTRINSICS, SceneConfig, load_scene_config
from .dataset import (
    load_dataset_frames,
    load_intrinsics,
    write_dataset,
)
from .perturb import PerturbationSpec, perturb_world
from .synthesize import DEFAULT_BOX_MARGIN_PX, SyntheticFrame, synthesize_frame
from .trajectory import (
    BODY_TO_CAMERA,
    TRAJECTORY_KINDS,
    TrajectoryParams,
    generate_trajectory,
)
from .world import (
    NO_OBJECT,
    Wall,
    World,
    WorldConfig,
    WorldObject,
    generate_world,
    make_walls,
)

__all__ = [
    "BODY_TO_CAMERA",
    "DEFAULT_BOX_MARGIN_PX",
    "DEFAULT_INTRINSICS",
    "NO_OBJECT",
    "TRAJECTORY_KINDS",
    "PerturbationSpec",
    "SceneConfig",
    "SyntheticFrame",
    "TrajectoryParams",
    "Wall",
    "World",
    "WorldConfig",
    "WorldObject",
    "generate_trajectory",
    "generate_world",
    "load_dataset_frames",
    "load_intrinsics",
    "load_scene_config",
    "make_walls",
    "perturb_world",
    "synthesize_frame",
    "write_dataset",
]
