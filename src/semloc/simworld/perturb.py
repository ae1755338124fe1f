"""Scene-change perturbations: move, rotate, remove, or swap movable objects."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import WorldGenerationError
from ..geometry.pose import rowdot
from .world import World, WorldObject, in_plane_rotation, rotate_rows


@dataclass
class Perturbation:
    kind: str  # rotate_object | translate_object | remove_object | swap_objects
    target_ids: list[int]
    magnitude_deg: float = 0.0
    magnitude_m: float = 0.0
    direction_uv: tuple = (1.0, 0.0)

    _KINDS = ("rotate_object", "translate_object", "remove_object", "swap_objects")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise WorldGenerationError(f"unknown perturbation kind '{self.kind}'")
        needed = 2 if self.kind == "swap_objects" else 1
        if len(self.target_ids) != needed:
            raise WorldGenerationError(
                f"{self.kind} needs exactly {needed} target(s), got {len(self.target_ids)}"
            )


def _require_movable(world: World, object_id: int) -> WorldObject:
    obj = world.object_by_id(object_id)
    if not obj.movable:
        raise WorldGenerationError(f"object {object_id} is not movable")
    return obj


def _transform_landmarks(
    world: World,
    targets: dict[int, tuple[np.ndarray, float]],  # object id -> (new center, angle delta)
) -> np.ndarray:
    """The positions with each targeted object's rows rigidly moved in its
    wall plane, row by row with the bits of one landmark moved alone; every
    other row keeps its bits."""
    walls = world.walls()
    positions = world.positions.copy()
    for obj in world.objects:
        if obj.id not in targets:
            continue
        rows = world.object_ids == obj.id
        wall = walls[obj.wall_index]
        new_center, angle = targets[obj.id]
        relative = world.positions[rows] - wall.origin
        uv = np.stack([rowdot(relative, wall.u_axis), rowdot(relative, wall.v_axis)], axis=1)
        uv = new_center + rotate_rows(in_plane_rotation(angle), uv - obj.center_uv)
        positions[rows] = wall.to_world(uv)
    return positions


def perturb_world(world: World, perturbation: Perturbation) -> World:
    """A new world with the perturbation applied; the input is unmodified and
    untargeted landmarks are bitwise identical.  Descriptors never change —
    moved objects look the same, they are merely elsewhere."""
    kind = perturbation.kind

    if kind == "remove_object":
        target = _require_movable(world, perturbation.target_ids[0])
        keep = world.object_ids != target.id
        return replace(
            world,
            objects=[o for o in world.objects if o.id != target.id],
            landmark_ids=world.landmark_ids[keep],
            positions=world.positions[keep],
            descriptors=world.descriptors[keep],
            object_ids=world.object_ids[keep],
        )

    if kind == "rotate_object":
        target = _require_movable(world, perturbation.target_ids[0])
        angle = math.radians(perturbation.magnitude_deg)
        targets = {target.id: (target.center_uv.copy(), angle)}
    elif kind == "translate_object":
        target = _require_movable(world, perturbation.target_ids[0])
        direction = np.asarray(perturbation.direction_uv, dtype=float)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            raise WorldGenerationError("translate_object needs a nonzero direction")
        shift = direction / norm * perturbation.magnitude_m
        targets = {target.id: (target.center_uv + shift, 0.0)}
    else:  # swap_objects
        first = _require_movable(world, perturbation.target_ids[0])
        second = _require_movable(world, perturbation.target_ids[1])
        if first.wall_index != second.wall_index:
            raise WorldGenerationError(
                "swap_objects currently requires both objects on the same wall"
            )
        targets = {
            first.id: (second.center_uv.copy(), 0.0),
            second.id: (first.center_uv.copy(), 0.0),
        }

    objects = [
        replace(o, center_uv=targets[o.id][0], rotation=o.rotation + targets[o.id][1])
        if o.id in targets
        else o
        for o in world.objects
    ]
    return replace(world, objects=objects, positions=_transform_landmarks(world, targets))
