"""INI scene configuration: world, camera, noise, trajectories, perturbation."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from ..errors import WorldGenerationError
from ..geometry.pose import CameraIntrinsics
from .perturb import Perturbation
from .trajectory import TRAJECTORY_KINDS, TrajectoryParams
from .world import World, WorldConfig

DEFAULT_INTRINSICS = CameraIntrinsics(
    fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480
)


@dataclass
class PerturbationSpec:
    """A perturbation whose target is chosen per generated world."""

    kind: str = "rotate_object"
    magnitude_deg: float = 180.0
    magnitude_m: float = 0.0
    target: str = "densest_movable"  # or an explicit object id as digits

    def resolve(self, world: World) -> Perturbation:
        if self.target.isdigit():
            target_ids = [int(self.target)]
        elif self.target == "densest_movable":
            movable = [o for o in world.objects if o.movable]
            if not movable:
                raise WorldGenerationError("world has no movable objects to perturb")
            movable.sort(key=lambda o: (-(world.object_ids == o.id).sum(), o.id))
            target_ids = [movable[0].id]
        else:
            raise WorldGenerationError(f"unknown perturbation target '{self.target}'")
        return Perturbation(
            kind=self.kind,
            target_ids=target_ids,
            magnitude_deg=self.magnitude_deg,
            magnitude_m=self.magnitude_m,
        )


@dataclass
class SceneConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    sigma_px: float = 0.5
    sigma_desc: float = 0.05
    box_margin_px: float = 2.0
    seed: int = 0
    mapping_kind: str = "yaw"
    mapping: TrajectoryParams = field(
        default_factory=lambda: TrajectoryParams(radius=0.5)
    )
    evaluation_kind: str = "yaw"
    evaluation: TrajectoryParams = field(
        default_factory=lambda: TrajectoryParams(
            center=(4.1, 2.05, 1.5), steps=12, radius=0.35, heading_deg=5.0, t0=100.0
        )
    )
    perturbation: PerturbationSpec | None = field(default_factory=PerturbationSpec)
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    modes: list[str] = field(default_factory=lambda: ["baseline", "pre", "post"])
    vocabulary_k: int = 48


def _trajectory_from_section(section) -> tuple[str, TrajectoryParams]:
    kind = section.get("kind", "yaw")
    if kind not in TRAJECTORY_KINDS:
        raise WorldGenerationError(f"unknown trajectory kind '{kind}'")
    center = tuple(float(v) for v in section.get("center", "4.0, 2.0, 1.5").split(","))
    if len(center) != 3:
        raise WorldGenerationError("trajectory center needs three comma-separated values")
    params = TrajectoryParams(
        center=center,
        steps=section.getint("steps", 36),
        sweep_deg=section.getfloat("sweep_deg", 360.0),
        step_m=section.getfloat("step_m", 0.1),
        radius=section.getfloat("radius", 0.0),
        heading_deg=section.getfloat("heading_deg", 0.0),
        dt=section.getfloat("dt", 0.1),
        t0=section.getfloat("t0", 0.0),
    )
    return kind, params


def load_scene_config(path: str) -> SceneConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise WorldGenerationError(f"cannot read scene config {path}")
    config = SceneConfig()

    if parser.has_section("world"):
        section = parser["world"]
        config.world = WorldConfig(
            dimensions=(
                section.getfloat("dim_x", 8.0),
                section.getfloat("dim_y", 4.0),
                section.getfloat("dim_z", 3.0),
            ),
            objects_per_class=section.getint("objects_per_class", 2),
            landmarks_per_object=section.getint("landmarks_per_object", 20),
            background_landmarks=section.getint("background_landmarks", 80),
            clutter_objects=section.getint("clutter_objects", 2),
            clutter_landmarks=section.getint("clutter_landmarks", 40),
            delta_desc=section.getfloat("delta_desc", 0.8),
        )
        config.seed = section.getint("seed", 0)

    if parser.has_section("camera"):
        section = parser["camera"]
        config.intrinsics = CameraIntrinsics(
            fx=section.getfloat("fx", 400.0),
            fy=section.getfloat("fy", 400.0),
            cx=section.getfloat("cx", 320.0),
            cy=section.getfloat("cy", 240.0),
            width=section.getint("width", 640),
            height=section.getint("height", 480),
        )

    if parser.has_section("noise"):
        section = parser["noise"]
        config.sigma_px = section.getfloat("sigma_px", 0.5)
        config.sigma_desc = section.getfloat("sigma_desc", 0.05)
        config.box_margin_px = section.getfloat("box_margin_px", 2.0)

    if parser.has_section("mapping"):
        config.mapping_kind, config.mapping = _trajectory_from_section(parser["mapping"])
    if parser.has_section("evaluation"):
        config.evaluation_kind, config.evaluation = _trajectory_from_section(
            parser["evaluation"]
        )

    if parser.has_section("perturbation"):
        section = parser["perturbation"]
        if section.getboolean("enabled", True):
            config.perturbation = PerturbationSpec(
                kind=section.get("kind", "rotate_object"),
                magnitude_deg=section.getfloat("magnitude_deg", 180.0),
                magnitude_m=section.getfloat("magnitude_m", 0.0),
                target=section.get("target", "densest_movable"),
            )
        else:
            config.perturbation = None

    if parser.has_section("benchmark"):
        section = parser["benchmark"]
        config.seeds = [int(v) for v in section.get("seeds", "0,1,2,3,4,5,6,7,8,9").split(",")]
        config.modes = [m.strip() for m in section.get("modes", "baseline,pre,post").split(",")]
        config.vocabulary_k = section.getint("vocabulary_k", 48)

    return config
