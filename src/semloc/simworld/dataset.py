"""World and frame serialization plus the emitted dataset layout:
frames/<id>.json, annotations/<id>.json, gt_traj.txt, world.json."""

from __future__ import annotations

import json
import os

import numpy as np

from ..errors import WorldGenerationError
from ..geometry.pose import (
    CameraIntrinsics,
    Pose,
    quaternion_from_rotation,
    rotation_from_quaternion,
)
from ..semantics.boxes import DetectionSet, save_detections
from ..semantics.classes import ClassRegistry
from ..trajectory_io import TrajectoryEntry, write_json, write_trajectory
from .synthesize import SyntheticFrame
from .world import World


def save_world(world: World, path: str) -> None:
    payload = {
        "dimensions": world.dimensions.tolist(),
        "seed": world.seed,
        "classes": world.registry.to_list(),
        "objects": [
            {
                "id": o.id,
                "class": o.class_id,
                "wall": o.wall_index,
                "center": o.center_uv.tolist(),
                "rotation": o.rotation,
                "extent": o.extent.tolist(),
                "landmarks": o.landmark_ids,
                "movable": o.movable,
            }
            for o in world.objects
        ],
        "landmarks": [
            {
                "id": lm.id,
                "p": lm.position.tolist(),
                "desc": lm.descriptor.tolist(),
                "class": lm.class_id,
                "object": lm.object_id,
            }
            for lm in world.landmarks
        ],
    }
    write_json(payload, path)


def save_frame(frame: SyntheticFrame, path: str) -> None:
    qw, qx, qy, qz = quaternion_from_rotation(frame.pose.rotation)
    payload = {
        "id": frame.frame_id,
        "timestamp": frame.timestamp,
        "pose": {
            "q": [qw, qx, qy, qz],
            "t": frame.pose.translation.tolist(),
        },
        "keypoints": frame.keypoints.tolist(),
        "descriptors": frame.descriptors.tolist(),
        "landmark_ids": frame.landmark_ids.tolist(),
        "boxes": [
            {
                "class": b.semantic_class.name,
                "box": [b.x_min, b.y_min, b.x_max, b.y_max],
                "confidence": b.confidence,
            }
            for b in frame.boxes.boxes
        ],
    }
    with open(path, "w") as fh:
        # json.dump streams through the pure-Python encoder; dumps takes the
        # C one, and a frame is small enough to hold as one string
        fh.write(json.dumps(payload))
        fh.write("\n")


def load_frame(path: str, registry: ClassRegistry) -> SyntheticFrame:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WorldGenerationError(f"{path}: not a valid frame file ({exc.msg})") from exc
    try:
        from ..semantics.boxes import BoundingBox

        pose = Pose(
            rotation_from_quaternion(np.array(raw["pose"]["q"], dtype=float)),
            np.array(raw["pose"]["t"], dtype=float),
        )
        boxes = [
            BoundingBox(
                registry.by_name(str(b["class"])),
                *(float(v) for v in b["box"]),
                float(b["confidence"]),
            )
            for b in raw["boxes"]
        ]
        keypoints = np.array(raw["keypoints"], dtype=float).reshape(-1, 2)
        descriptors = np.array(raw["descriptors"], dtype=float)
        if descriptors.shape == (0,):
            descriptors = descriptors.reshape(0, 0)  # no row stores the width
        frame = SyntheticFrame(
            frame_id=int(raw["id"]),
            timestamp=float(raw["timestamp"]),
            pose=pose,
            keypoints=keypoints,
            descriptors=descriptors,
            landmark_ids=np.array(raw["landmark_ids"], dtype=int),
            boxes=DetectionSet(int(raw["id"]), boxes),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WorldGenerationError(f"{path}: malformed frame content ({exc})") from exc
    if descriptors.ndim != 2 or len(descriptors) != len(keypoints):
        raise WorldGenerationError(
            f"{path}: {len(keypoints)} keypoints but descriptors of shape {descriptors.shape}"
        )
    return frame


def write_dataset(
    out_dir: str,
    world: World,
    frames: list[SyntheticFrame],
    intrinsics: CameraIntrinsics,
) -> None:
    """Emit the full on-disk dataset for one synthesized sequence."""
    frames_dir = os.path.join(out_dir, "frames")
    annotations_dir = os.path.join(out_dir, "annotations")
    os.makedirs(frames_dir, exist_ok=True)
    os.makedirs(annotations_dir, exist_ok=True)

    save_world(world, os.path.join(out_dir, "world.json"))
    with open(os.path.join(out_dir, "intrinsics.json"), "w") as fh:
        json.dump(
            {
                "fx": intrinsics.fx,
                "fy": intrinsics.fy,
                "cx": intrinsics.cx,
                "cy": intrinsics.cy,
                "width": intrinsics.width,
                "height": intrinsics.height,
            },
            fh,
        )
        fh.write("\n")
    for frame in frames:
        save_frame(frame, os.path.join(frames_dir, f"{frame.frame_id:06d}.json"))
        save_detections(os.path.join(annotations_dir, f"{frame.frame_id:06d}.json"), frame.boxes)
    write_trajectory(
        os.path.join(out_dir, "gt_traj.txt"),
        [TrajectoryEntry(f.timestamp, f.pose) for f in frames],
    )


def load_intrinsics(path: str) -> CameraIntrinsics:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WorldGenerationError(f"{path}: not a valid intrinsics file ({exc.msg})") from exc
    try:
        return CameraIntrinsics(
            fx=float(raw["fx"]),
            fy=float(raw["fy"]),
            cx=float(raw["cx"]),
            cy=float(raw["cy"]),
            width=int(raw["width"]),
            height=int(raw["height"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WorldGenerationError(f"{path}: malformed intrinsics ({exc})") from exc


def load_dataset_frames(frames_dir: str, registry: ClassRegistry) -> list[SyntheticFrame]:
    frames = []
    for name in sorted(os.listdir(frames_dir)):
        if name.endswith(".json"):
            frames.append(load_frame(os.path.join(frames_dir, name), registry))
    return frames
