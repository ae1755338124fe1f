"""INI scene configuration: world, camera, noise, trajectories, perturbation."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from ..errors import DegenerateGeometryError, WorldGenerationError
from ..geometry.pose import CameraIntrinsics
from .perturb import Perturbation
from .trajectory import TRAJECTORY_KINDS, TrajectoryParams
from .world import World, WorldConfig

DEFAULT_INTRINSICS = CameraIntrinsics(
    fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480
)
# the values of pipelines.SemanticMode, which sits above this layer
BENCHMARK_MODES = ("baseline", "pre", "post")


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
    modes: list[str] = field(default_factory=lambda: list(BENCHMARK_MODES))
    vocabulary_k: int = 48


def _number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not finite")
    return value


def _count(raw: str) -> int:
    """A non-negative integer: a count, a size or a seed."""
    value = int(raw)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _flag(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"{raw.strip()!r} is not a boolean") from None


def _point(raw: str) -> tuple:
    point = tuple(_number(v) for v in raw.split(","))
    if len(point) != 3:
        raise ValueError("needs three comma-separated values")
    return point


def _one_of(choices):
    def parse(raw: str) -> str:
        value = raw.strip()
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
        return value

    return parse


def _distinct(parse):
    """A parser of comma-separated values that rejects a repeated value."""

    def parse_list(raw: str) -> list:
        values = []
        for item in raw.split(","):
            value = parse(item)
            if value in values:
                raise ValueError(f"{value!r} is listed twice")
            values.append(value)
        return values

    return parse_list


class _Section:
    """One INI section whose every bad value raises WorldGenerationError
    naming the file and the [section] key."""

    def __init__(self, path: str, section: configparser.SectionProxy):
        self.path = path
        self.section = section

    def get(self, key: str, default, parse=str):
        try:
            raw = self.section.get(key)
            return default if raw is None else parse(raw)
        except (ValueError, configparser.Error) as exc:
            raise WorldGenerationError(
                f"{self.path}: [{self.section.name}] {key}: {exc}"
            ) from exc


def _trajectory_from_section(section: _Section) -> tuple[str, TrajectoryParams]:
    params = TrajectoryParams(
        center=section.get("center", (4.0, 2.0, 1.5), _point),
        steps=section.get("steps", 36, _count),
        sweep_deg=section.get("sweep_deg", 360.0, _number),
        step_m=section.get("step_m", 0.1, _number),
        radius=section.get("radius", 0.0, _number),
        heading_deg=section.get("heading_deg", 0.0, _number),
        dt=section.get("dt", 0.1, _number),
        t0=section.get("t0", 0.0, _number),
    )
    return section.get("kind", "yaw", _one_of(TRAJECTORY_KINDS)), params


def load_scene_config(path: str) -> SceneConfig:
    """The scene an INI file describes; every key has a default. A value that
    does not parse, a non-finite number, a negative count, an unknown or
    repeated benchmark mode, a repeated benchmark seed and a repeated section
    or key each raise WorldGenerationError naming the file and the key."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as exc:
        key = f"[{exc.section}] {getattr(exc, 'option', '')}".rstrip()
        raise WorldGenerationError(f"{path}: {key} is repeated (line {exc.lineno})") from exc
    except configparser.Error as exc:
        raise WorldGenerationError(f"{path}: not a valid scene config ({exc.message})") from exc
    if not read:
        raise WorldGenerationError(f"cannot read scene config {path}")
    sections = {name: _Section(path, parser[name]) for name in parser.sections()}
    config = SceneConfig()

    if "world" in sections:
        section = sections["world"]
        config.world = WorldConfig(
            dimensions=(
                section.get("dim_x", 8.0, _number),
                section.get("dim_y", 4.0, _number),
                section.get("dim_z", 3.0, _number),
            ),
            objects_per_class=section.get("objects_per_class", 2, _count),
            landmarks_per_object=section.get("landmarks_per_object", 20, _count),
            background_landmarks=section.get("background_landmarks", 80, _count),
            clutter_objects=section.get("clutter_objects", 2, _count),
            clutter_landmarks=section.get("clutter_landmarks", 40, _count),
            delta_desc=section.get("delta_desc", 0.8, _number),
        )
        config.seed = section.get("seed", 0, _count)

    if "camera" in sections:
        section = sections["camera"]
        try:
            config.intrinsics = CameraIntrinsics(
                fx=section.get("fx", 400.0, _number),
                fy=section.get("fy", 400.0, _number),
                cx=section.get("cx", 320.0, _number),
                cy=section.get("cy", 240.0, _number),
                width=section.get("width", 640, _count),
                height=section.get("height", 480, _count),
            )
        except DegenerateGeometryError as exc:
            raise WorldGenerationError(f"{path}: [camera]: {exc}") from exc

    if "noise" in sections:
        section = sections["noise"]
        config.sigma_px = section.get("sigma_px", 0.5, _number)
        config.sigma_desc = section.get("sigma_desc", 0.05, _number)
        config.box_margin_px = section.get("box_margin_px", 2.0, _number)

    if "mapping" in sections:
        config.mapping_kind, config.mapping = _trajectory_from_section(sections["mapping"])
    if "evaluation" in sections:
        config.evaluation_kind, config.evaluation = _trajectory_from_section(
            sections["evaluation"]
        )

    if "perturbation" in sections:
        section = sections["perturbation"]
        if section.get("enabled", True, _flag):
            config.perturbation = PerturbationSpec(
                kind=section.get("kind", "rotate_object"),
                magnitude_deg=section.get("magnitude_deg", 180.0, _number),
                magnitude_m=section.get("magnitude_m", 0.0, _number),
                target=section.get("target", "densest_movable"),
            )
        else:
            config.perturbation = None

    if "benchmark" in sections:
        section = sections["benchmark"]
        config.seeds = section.get("seeds", list(range(10)), _distinct(_count))
        config.modes = section.get(
            "modes", list(BENCHMARK_MODES), _distinct(_one_of(BENCHMARK_MODES))
        )
        config.vocabulary_k = section.get("vocabulary_k", 48, _count)

    return config
