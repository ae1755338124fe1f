"""INI scene configuration: world, camera, noise, trajectories, perturbation."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from ..errors import DegenerateGeometryError, WorldGenerationError
from ..geometry.pose import CameraIntrinsics
from ..semantics.filtering import SemanticMode
from .dataset import _MAX_IMAGE_SIDE
from .perturb import PerturbationSpec
from .synthesize import DEFAULT_BOX_MARGIN_PX, DEFAULT_SIGMA_DESC, DEFAULT_SIGMA_PX
from .trajectory import TRAJECTORY_KINDS, TrajectoryParams
from .world import WorldConfig

DEFAULT_INTRINSICS = CameraIntrinsics(
    fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480
)
BENCHMARK_MODES = tuple(mode.value for mode in SemanticMode)


@dataclass
class SceneConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    sigma_px: float = DEFAULT_SIGMA_PX
    sigma_desc: float = DEFAULT_SIGMA_DESC
    box_margin_px: float = DEFAULT_BOX_MARGIN_PX
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


def _positive(raw: str) -> float:
    """A finite number above zero: a room side or a time step."""
    value = _number(raw)
    if not value > 0.0:
        raise ValueError(f"{value} is not positive")
    return value


def _nonnegative(raw: str) -> float:
    """A finite number of at least zero: a noise scale or a margin."""
    value = _number(raw)
    if value < 0.0:
        raise ValueError(f"{value} is negative")
    return value


def _count(raw: str) -> int:
    """A non-negative integer: a count, a size or a seed."""
    value = int(raw)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _count_in(low: int, high: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if not low <= value <= high:
            raise ValueError(f"{value} is not in {low}..{high}")
        return value

    return parse


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


def _target(raw: str) -> str:
    """densest_movable, or an object id as digits."""
    value = raw.strip()
    if value != "densest_movable" and not value.isdecimal():
        raise ValueError(f"{value!r} is neither densest_movable nor an object id")
    return value


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


_TRAJECTORY = {
    "kind": _one_of(TRAJECTORY_KINDS), "center": _point, "steps": _count,
    "sweep_deg": _number, "step_m": _number, "radius": _number,
    "heading_deg": _number, "dt": _positive, "t0": _number,  # timestamps increase
}
# section -> key -> parser: every key a scene file may write
_KEYS = {
    "world": {
        "dim_x": _positive, "dim_y": _positive, "dim_z": _positive,
        "objects_per_class": _count, "landmarks_per_object": _count,
        "background_landmarks": _count, "clutter_objects": _count,
        "clutter_landmarks": _count, "delta_desc": _nonnegative, "seed": _count,
    },
    "camera": {
        "fx": _number, "fy": _number, "cx": _number, "cy": _number,
        # the sides load_intrinsics reads back
        "width": _count_in(1, _MAX_IMAGE_SIDE), "height": _count_in(1, _MAX_IMAGE_SIDE),
    },
    "noise": {
        "sigma_px": _nonnegative, "sigma_desc": _nonnegative, "box_margin_px": _nonnegative,
    },
    "mapping": _TRAJECTORY,
    "evaluation": _TRAJECTORY,
    "perturbation": {
        "enabled": _flag, "kind": _one_of(PerturbationSpec.KINDS), "magnitude_deg": _number,
        "magnitude_m": _number, "target": _target,
    },
    "benchmark": {
        "seeds": _distinct(_count),
        "modes": _distinct(_one_of(BENCHMARK_MODES)),
        "vocabulary_k": _count_in(2, math.inf),  # build_vocabulary needs two words
    },
}


def load_scene_config(path: str) -> SceneConfig:
    """The scene an INI file describes. A key the file omits keeps the default
    scene's value, also in a section the file writes. An unknown section or
    key, a value that does not parse, a non-finite number, a negative count, a
    room side or time step that is not positive, a negative noise scale, margin
    or descriptor distance, an image side outside 1.._MAX_IMAGE_SIDE, a
    vocabulary below two words, an unknown or repeated benchmark mode, a
    repeated benchmark seed, an unknown perturbation kind, a target that is
    neither densest_movable nor an object id, an enabled translate_object or
    rotate_object perturbation whose magnitude is zero and a repeated section
    or key each raise WorldGenerationError naming the file and the key; a file
    that is not UTF-8 raises it naming the file."""
    # no section is DEFAULT, so [DEFAULT] is refused as unknown
    parser = configparser.ConfigParser(default_section="", inline_comment_prefixes=(";",))
    try:
        read = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise WorldGenerationError(f"{path}: not a valid scene config (not UTF-8: {exc})") from exc
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as exc:
        key = f"[{exc.section}] {getattr(exc, 'option', '')}".rstrip()
        raise WorldGenerationError(f"{path}: {key} is repeated (line {exc.lineno})") from exc
    except configparser.Error as exc:
        raise WorldGenerationError(f"{path}: not a valid scene config ({exc.message})") from exc
    if not read:
        raise WorldGenerationError(f"cannot read scene config {path}")
    written = {}  # section -> key -> parsed value, for each key the file writes
    for name in parser.sections():
        if name not in _KEYS:
            known = ", ".join(f"[{section}]" for section in _KEYS)
            raise WorldGenerationError(f"{path}: [{name}]: unknown section; a scene holds {known}")
        keys, values = _KEYS[name], written.setdefault(name, {})
        for key in parser[name]:
            where = f"{path}: [{name}] {key}"
            if key not in keys:
                known = ", ".join(keys)
                raise WorldGenerationError(f"{where}: unknown key; [{name}] holds {known}")
            try:
                values[key] = keys[key](parser[name][key])
            except (ValueError, configparser.Error) as exc:
                raise WorldGenerationError(f"{where}: {exc}") from exc
    scene = {**written.get("noise", {}), **written.get("benchmark", {})}

    if "world" in written:
        world = written["world"]
        if "seed" in world:
            scene["seed"] = world.pop("seed")
        world["dimensions"] = tuple(
            world.pop(f"dim_{axis}", default)
            for axis, default in zip("xyz", WorldConfig().dimensions)
        )
        scene["world"] = WorldConfig(**world)

    if "camera" in written:
        try:
            scene["intrinsics"] = replace(DEFAULT_INTRINSICS, **written["camera"])
        except DegenerateGeometryError as exc:
            raise WorldGenerationError(f"{path}: [camera]: {exc}") from exc

    for name in ("mapping", "evaluation"):
        if name in written:
            params = written[name]
            if "kind" in params:
                scene[f"{name}_kind"] = params.pop("kind")
            scene[name] = replace(getattr(SceneConfig(), name), **params)

    if "perturbation" in written:
        spec = written["perturbation"]
        enabled = spec.pop("enabled", True)
        spec = PerturbationSpec(**spec)
        key = {"rotate_object": "magnitude_deg", "translate_object": "magnitude_m"}.get(spec.kind)
        if enabled and key and getattr(spec, key) == 0.0:  # a missing magnitude_m is 0 too
            raise WorldGenerationError(
                f"{path}: [perturbation] {key}: a {spec.kind} by 0 moves nothing"
            )
        scene["perturbation"] = spec if enabled else None

    return SceneConfig(**scene)
