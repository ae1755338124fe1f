"""Synthetic rectangular-prism world: labeled wall objects and feature landmarks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import WorldGenerationError
from ..features.distance import _AMBIGUOUS_REL, _BLOCK_PRODUCTS
from ..geometry.pose import rowdot
from ..semantics.classes import ClassRegistry

DESCRIPTOR_DIM = 64

# footprint extents (meters, u x v) for each registered class
_CLASS_EXTENTS = {
    "vent": (0.5, 0.5),
    "light": (0.35, 0.35),
    "handrail": (0.8, 0.2),
    "rack_panel": (1.2, 0.8),
    "hatch": (1.0, 1.0),
    "port": (0.3, 0.3),
    "strut": (0.25, 0.9),
    "screen": (0.6, 0.45),
}

_PLACEMENT_RETRIES = 200
_DESCRIPTOR_RETRIES = 200


@dataclass(frozen=True)
class Wall:
    """One interior face of the prism with an in-plane (u, v) chart."""

    index: int
    origin: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    normal: np.ndarray  # unit, pointing into the room
    width: float
    height: float

    def to_world(self, uv: np.ndarray) -> np.ndarray:
        uv = np.asarray(uv, dtype=float)
        return self.origin + uv[..., :1] * self.u_axis + uv[..., 1:2] * self.v_axis


def make_walls(dimensions) -> list[Wall]:
    """The four side walls of an axis-aligned prism with one corner at the
    origin; v runs along world z on every wall."""
    dx, dy, dz = (float(v) for v in dimensions)
    z = np.array([0.0, 0.0, 1.0])
    specs = [
        (np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), dx),
        (np.array([dx, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([-1.0, 0.0, 0.0]), dy),
        (np.array([dx, dy, 0.0]), np.array([-1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0]), dx),
        (np.array([0.0, dy, 0.0]), np.array([0.0, -1.0, 0.0]), np.array([1.0, 0.0, 0.0]), dy),
    ]
    return [
        Wall(i, origin, u, z, normal, width, dz)
        for i, (origin, u, normal, width) in enumerate(specs)
    ]


def in_plane_rotation(angle: float) -> np.ndarray:
    """(2, 2) rotation of a wall's (u, v) chart by `angle` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotate_rows(rotation: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rotation (..., 2, 2) @ each row of rows (n, 2), with the bits of one
    2-vector matvec per row."""
    return (rotation @ rows[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class WorldObject:
    """An object's placement, fixed once built (a World stacks its footprint
    at construction): its arrays are read-only copies, and a moved object is
    a new WorldObject, as dataclasses.replace builds one."""

    id: int
    class_id: int | None  # None: outside the detector's registry (clutter)
    wall_index: int
    center_uv: np.ndarray  # (2,)
    rotation: float  # in-plane angle, radians
    extent: np.ndarray  # (2,) meters
    movable: bool

    def __post_init__(self):
        for name in ("center_uv", "extent"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))

    def footprint_corners_uv(self) -> np.ndarray:
        """(4, 2) corners of the rotated footprint rectangle."""
        half = self.extent / 2.0
        corners = np.array(
            [[-half[0], -half[1]], [half[0], -half[1]], [half[0], half[1]], [-half[0], half[1]]]
        )
        return self.center_uv + corners @ in_plane_rotation(self.rotation).T

    def footprint_corners_3d(self, wall: Wall) -> np.ndarray:
        return np.array([wall.to_world(uv) for uv in self.footprint_corners_uv()])


NO_OBJECT = -1  # the object id of a background landmark


@dataclass
class World:
    """A generated scene. Its landmarks are read-only columns, one row per
    landmark: ids, positions, descriptors and owning object ids (NO_OBJECT
    for background); a landmark's class is its object's. Every object's
    footprint corners are stacked once, at construction. An object's
    placement changes only in a new World, as perturb_world builds one;
    class ids are read per frame."""

    dimensions: np.ndarray  # (3,) meters
    objects: list[WorldObject]
    landmark_ids: np.ndarray  # (n,) ids, not rows: frames store them
    positions: np.ndarray  # (n, 3)
    descriptors: np.ndarray  # (n, d) unit norm
    object_ids: np.ndarray  # (n,)
    seed: int
    registry: ClassRegistry = field(default_factory=ClassRegistry.default)
    # each object's footprint corners, (objects, 4, 3), in the order of objects
    footprints: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.landmark_ids = _frozen(np.asarray(self.landmark_ids, dtype=int))
        self.positions = _frozen(np.asarray(self.positions, dtype=float).reshape(-1, 3))
        self.descriptors = _frozen(np.asarray(self.descriptors, dtype=float))
        self.object_ids = _frozen(np.asarray(self.object_ids, dtype=int))
        walls = self.walls()
        self.footprints = _frozen(
            np.array(
                [obj.footprint_corners_3d(walls[obj.wall_index]) for obj in self.objects]
            ).reshape(-1, 4, 3)
        )

    def walls(self) -> list[Wall]:
        return make_walls(self.dimensions)

    def object_by_id(self, object_id: int) -> WorldObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise WorldGenerationError(f"no object with id {object_id}")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass
class WorldConfig:
    dimensions: tuple = (8.0, 4.0, 3.0)
    objects_per_class: int = 2
    landmarks_per_object: int = 20
    background_landmarks: int = 80
    clutter_objects: int = 2
    clutter_landmarks: int = 40  # per clutter object
    clutter_extent: tuple = (1.8, 1.2)
    delta_desc: float = 0.8  # minimum inter-landmark descriptor distance
    descriptor_dim: int = DESCRIPTOR_DIM


def _placement_radius(extent) -> float:
    return float(np.linalg.norm(np.asarray(extent, dtype=float)) / 2.0)


def _place_objects(config: WorldConfig, walls, rng, registry) -> list[WorldObject]:
    """Rejection-sample non-overlapping wall placements, biggest objects first
    (deterministic order; overlap test uses bounding circles)."""
    requests = []  # (class_id or None, extent, movable)
    for cls in registry:
        extent = _CLASS_EXTENTS[cls.name]
        for _ in range(config.objects_per_class):
            requests.append((cls.id, np.array(extent), False))
    for _ in range(config.clutter_objects):
        requests.append((None, np.array(config.clutter_extent, dtype=float), True))
    requests.sort(key=lambda r: (-float(r[1][0] * r[1][1]), r[0] if r[0] is not None else 99))

    placed: list[WorldObject] = []
    for class_id, extent, movable in requests:
        radius = _placement_radius(extent)
        for attempt in range(_PLACEMENT_RETRIES + 1):
            if attempt == _PLACEMENT_RETRIES:
                raise WorldGenerationError(
                    f"could not place object of extent {tuple(extent)} after "
                    f"{_PLACEMENT_RETRIES} attempts; reduce object counts or sizes"
                )
            wall = walls[rng.integers(len(walls))]
            if wall.width - 2 * radius <= 0 or wall.height - 2 * radius <= 0:
                continue
            center = np.array(
                [
                    rng.uniform(radius, wall.width - radius),
                    rng.uniform(radius, wall.height - radius),
                ]
            )
            rotation = float(rng.uniform(0.0, 2.0 * math.pi))
            clear = all(
                other.wall_index != wall.index
                or np.linalg.norm(other.center_uv - center)
                > radius + _placement_radius(other.extent)
                for other in placed
            )
            if clear:
                placed.append(
                    WorldObject(
                        id=len(placed),
                        class_id=class_id,
                        wall_index=wall.index,
                        center_uv=center,
                        rotation=rotation,
                        extent=extent,
                        movable=movable,
                    )
                )
                break
    return placed


def _sample_descriptors(n: int, dim: int, delta: float, rng) -> np.ndarray:
    """Unit descriptors with pairwise distance >= delta (rejection sampling).

    The n candidates are drawn at once and screened in blocks. When every
    pair clears delta by more than the _AMBIGUOUS_REL margin, the sequential
    loop would reject none of them, so they are its result; otherwise the
    generator is rewound and the loop runs.
    """
    state = rng.bit_generator.state
    candidates = rng.normal(size=(n, dim))
    squared = rowdot(candidates, candidates)  # the bits of 1-D np.linalg.norm
    candidates /= np.sqrt(squared)[:, None]
    if _all_apart(candidates, delta):
        return candidates
    rng.bit_generator.state = state
    accepted = np.empty((n, dim))
    count = 0
    attempts = 0
    while count < n:
        if attempts > _DESCRIPTOR_RETRIES * n:
            raise WorldGenerationError(
                f"could not sample {n} descriptors {delta} apart in {dim} dims"
            )
        attempts += 1
        candidate = rng.normal(size=dim)
        candidate /= np.linalg.norm(candidate)
        if count and np.min(np.linalg.norm(accepted[:count] - candidate, axis=1)) < delta:
            continue
        accepted[count] = candidate
        count += 1
    return accepted


def _all_apart(rows: np.ndarray, delta: float) -> bool:
    """Whether every pair of rows is surely >= delta apart, as np.linalg.norm
    measures it: |a|^2 + |b|^2 - 2 a.b errs by far less than the
    _AMBIGUOUS_REL * (|a| + |b|)^2 margin (see features.distance)."""
    squared = np.einsum("ij,ij->i", rows, rows)
    norms = np.sqrt(squared)
    block = max(1, _BLOCK_PRODUCTS // max(1, rows.size))
    for start in range(0, len(rows), block):
        # each row of the block against the rows before it
        stop = min(start + block, len(rows))
        products = rows[start:stop] @ rows[:stop].T
        screen = squared[start:stop, None] + squared[:stop] - 2.0 * products
        screen -= _AMBIGUOUS_REL * (norms[start:stop, None] + norms[:stop]) ** 2
        earlier = np.arange(stop) < np.arange(start, stop)[:, None]
        if not (screen[earlier] > delta * delta).all():
            return False
    return True


def generate_world(config: WorldConfig | None = None, seed: int = 0) -> World:
    """Deterministically generate the synthetic scene for a given seed.

    The prism's four side walls carry objects_per_class instances of each of
    the eight registered classes, plus movable unregistered clutter objects
    (the scene-change targets); landmarks are uniform within each footprint,
    with background landmarks scattered over the bare walls.  Descriptors are
    unit vectors at least delta_desc apart so matching is unambiguous.
    """
    config = config or WorldConfig()
    registry = ClassRegistry.default()
    rng = np.random.default_rng(seed)
    walls = make_walls(config.dimensions)
    objects = _place_objects(config, walls, rng, registry)

    counts = [
        config.clutter_landmarks if obj.class_id is None else config.landmarks_per_object
        for obj in objects
    ]
    total = sum(counts) + config.background_landmarks
    descriptors = _sample_descriptors(total, config.descriptor_dim, config.delta_desc, rng)

    positions, object_ids = [], []
    for obj, n in zip(objects, counts):
        offsets = rng.uniform(-0.5, 0.5, size=(n, 2)) * obj.extent
        uv = obj.center_uv + rotate_rows(in_plane_rotation(obj.rotation), offsets)
        positions.append(walls[obj.wall_index].to_world(uv))
        object_ids.append(np.full(n, obj.id))

    areas = np.array([w.width * w.height for w in walls])
    background = []
    for _ in range(config.background_landmarks):
        wall = walls[rng.choice(len(walls), p=areas / areas.sum())]
        uv = np.array([rng.uniform(0, wall.width), rng.uniform(0, wall.height)])
        background.append(wall.to_world(uv))
    positions.append(np.reshape(background, (-1, 3)))
    object_ids.append(np.full(config.background_landmarks, NO_OBJECT))

    return World(
        dimensions=np.asarray(config.dimensions, dtype=float),
        objects=objects,
        landmark_ids=np.arange(total),
        positions=np.concatenate(positions),
        descriptors=descriptors,
        object_ids=np.concatenate(object_ids),
        seed=seed,
        registry=registry,
    )
