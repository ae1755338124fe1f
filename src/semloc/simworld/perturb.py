"""Scene-change perturbations: rotate, translate or remove a movable object."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import WorldGenerationError
from ..geometry.pose import rowdot
from .world import World, WorldObject, in_plane_rotation, rotate_rows


@dataclass
class PerturbationSpec:
    """A scene change whose target is chosen per world: a rotation in the
    object's wall plane, a translation along its wall's u axis, or removal."""

    kind: str = "rotate_object"  # rotate_object | translate_object | remove_object
    magnitude_deg: float = 180.0
    magnitude_m: float = 0.0
    target: str = "densest_movable"  # or an explicit object id as digits

    KINDS = ("rotate_object", "translate_object", "remove_object")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise WorldGenerationError(f"unknown perturbation kind '{self.kind}'")

    def target_id(self, world: World) -> int:
        """The targeted object's id: the digits given, or the movable object
        with the most landmarks (ties: lowest id)."""
        if self.target.isdigit():
            return int(self.target)
        if self.target != "densest_movable":
            raise WorldGenerationError(f"unknown perturbation target '{self.target}'")
        movable = [o for o in world.objects if o.movable]
        if not movable:
            raise WorldGenerationError("world has no movable objects to perturb")
        return min(movable, key=lambda o: (-(world.object_ids == o.id).sum(), o.id)).id


def _require_movable(world: World, object_id: int) -> WorldObject:
    obj = world.object_by_id(object_id)
    if not obj.movable:
        raise WorldGenerationError(f"object {object_id} is not movable")
    return obj


def _moved_positions(world: World, obj: WorldObject, center: np.ndarray, angle: float):
    """The positions with obj's rows rigidly moved in its wall plane to a new
    center and turned by angle, row by row with the bits of one landmark
    moved alone; every other row keeps its bits."""
    wall = world.walls()[obj.wall_index]
    rows = world.object_ids == obj.id
    relative = world.positions[rows] - wall.origin
    uv = np.stack([rowdot(relative, wall.u_axis), rowdot(relative, wall.v_axis)], axis=1)
    uv = center + rotate_rows(in_plane_rotation(angle), uv - obj.center_uv)
    positions = world.positions.copy()
    positions[rows] = wall.to_world(uv)
    return positions


def perturb_world(world: World, spec: PerturbationSpec) -> World:
    """A new world with the spec applied to its target; the input is
    unmodified and untargeted landmarks are bitwise identical.  Descriptors
    never change — moved objects look the same, they are merely elsewhere."""
    target = _require_movable(world, spec.target_id(world))

    if spec.kind == "remove_object":
        keep = world.object_ids != target.id
        return replace(
            world,
            objects=[o for o in world.objects if o.id != target.id],
            landmark_ids=world.landmark_ids[keep],
            positions=world.positions[keep],
            descriptors=world.descriptors[keep],
            object_ids=world.object_ids[keep],
        )

    if spec.kind == "rotate_object":
        center, angle = target.center_uv.copy(), math.radians(spec.magnitude_deg)
    else:  # translate_object
        center, angle = target.center_uv + np.array([1.0, 0.0]) * spec.magnitude_m, 0.0
    objects = [
        replace(o, center_uv=center, rotation=o.rotation + angle) if o.id == target.id else o
        for o in world.objects
    ]
    return replace(
        world, objects=objects, positions=_moved_positions(world, target, center, angle)
    )
