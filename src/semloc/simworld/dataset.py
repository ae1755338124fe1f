"""Frame serialization plus the emitted dataset layout: frames/<id>.npz,
annotations/<id>.json, intrinsics.json, gt_traj.txt."""

from __future__ import annotations

import json
import os

import numpy as np

from ..errors import AnnotationError, DegenerateGeometryError, WorldGenerationError
from ..geometry.pose import (
    CameraIntrinsics,
    Pose,
    quaternion_from_rotation,
    rotation_from_quaternion,
)
from ..semantics.boxes import DetectionSet, load_detections, save_detections
from ..semantics.classes import ClassRegistry
from ..trajectory_io import ArrayFile, TrajectoryEntry, write_arrays, write_trajectory
from .synthesize import SyntheticFrame
from .world import World


def save_frame(frame: SyntheticFrame, path: str) -> None:
    """Write the frame's id, timestamp, pose and observations to exactly
    `path` as one .npz; its detections go to the annotation files."""
    write_arrays(path, {
        "id": np.array(frame.frame_id),
        "timestamp": np.array(frame.timestamp),
        "q": quaternion_from_rotation(frame.pose.rotation),
        "t": frame.pose.translation,
        "keypoints": frame.keypoints,
        "descriptors": frame.descriptors,
        "landmark_ids": frame.landmark_ids,
    })


def load_frame(path: str) -> SyntheticFrame:
    """Read a frame file written by save_frame; a bad file raises
    WorldGenerationError naming it.

    A frame file holds no detections, so `boxes` is empty: load_dataset_frames
    fills it from the frame's annotation file.
    """
    file = ArrayFile(path, WorldGenerationError, "frame")
    frame_id = int(file.take("id", "i", ()))
    keypoints = file.take("keypoints", "f", (None, 2))
    n = len(keypoints)
    descriptors = file.take("descriptors", "f", (None, None))
    if len(descriptors) != n:
        file.fail(f"{n} keypoints but descriptors of shape {descriptors.shape}")
    landmark_ids = file.take("landmark_ids", "i", (n,))
    if (landmark_ids < 0).any():
        file.malformed("negative landmark id")
    q = file.take("q", "f", (4,))
    if not 0.0 < np.linalg.norm(q) < np.inf:  # any other q normalizes to a rotation
        file.malformed(f"quaternion {q.tolist()} has no direction")
    return SyntheticFrame(
        frame_id=frame_id,
        timestamp=float(file.take("timestamp", "f", ())),
        pose=Pose(rotation_from_quaternion(q), file.take("t", "f", (3,))),
        keypoints=keypoints,
        descriptors=descriptors,
        landmark_ids=landmark_ids,
        boxes=DetectionSet(frame_id),
    )


def write_dataset(
    out_dir: str,
    world: World,
    frames: list[SyntheticFrame],
    intrinsics: CameraIntrinsics,
) -> None:
    """Emit the full on-disk dataset for one synthesized sequence.

    The world itself is not written: nothing reads it back.
    """
    frames_dir = os.path.join(out_dir, "frames")
    annotations_dir = os.path.join(out_dir, "annotations")
    os.makedirs(frames_dir, exist_ok=True)
    os.makedirs(annotations_dir, exist_ok=True)

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
        save_frame(frame, os.path.join(frames_dir, f"{frame.frame_id:06d}.npz"))
        save_detections(os.path.join(annotations_dir, f"{frame.frame_id:06d}.json"), frame.boxes)
    write_trajectory(
        os.path.join(out_dir, "gt_traj.txt"),
        [TrajectoryEntry(f.timestamp, f.pose) for f in frames],
    )


def load_intrinsics(path: str) -> CameraIntrinsics:
    """The camera of an intrinsics file: JSON numbers fx, fy, cx and cy and
    JSON integers width and height, taken as they are, never coerced."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WorldGenerationError(f"{path}: not a valid intrinsics file ({exc.msg})") from exc
        except UnicodeDecodeError as exc:
            raise WorldGenerationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not isinstance(raw, dict):
        raise WorldGenerationError(f"{path}: malformed intrinsics (not a JSON object)")
    for name in ("fx", "fy", "cx", "cy", "width", "height"):
        integer = name in ("width", "height")
        value = raw.get(name)
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            raise WorldGenerationError(
                f"{path}: malformed intrinsics ({name} must be "
                f"{'an integer' if integer else 'a number'}, not {value!r})"
            )
    try:
        return CameraIntrinsics(
            fx=float(raw["fx"]),
            fy=float(raw["fy"]),
            cx=float(raw["cx"]),
            cy=float(raw["cy"]),
            width=raw["width"],
            height=raw["height"],
        )
    except (DegenerateGeometryError, OverflowError) as exc:  # an integer beyond the float range
        raise WorldGenerationError(f"{path}: malformed intrinsics ({exc})") from exc


def load_dataset_frames(
    frames_dir: str,
    registry: ClassRegistry,
    annotations_dir: str | None = None,
    intrinsics: CameraIntrinsics | None = None,
) -> list[SyntheticFrame]:
    """Every frame file in frames_dir, in name order, each with its boxes read
    once from annotations_dir through load_detections (validated, clamped to
    the image, low-confidence and empty boxes dropped).

    annotations_dir and intrinsics default to the dataset's own: the
    annotations/ directory and intrinsics.json beside frames_dir.
    """
    dataset = os.path.dirname(os.path.abspath(frames_dir))
    if annotations_dir is None:
        annotations_dir = os.path.join(dataset, "annotations")
    if intrinsics is None:
        intrinsics = load_intrinsics(os.path.join(dataset, "intrinsics.json"))
    frames = []
    for name in sorted(os.listdir(frames_dir)):
        if not name.endswith(".npz"):
            continue
        frame = load_frame(os.path.join(frames_dir, name))
        path = os.path.join(annotations_dir, f"{frame.frame_id:06d}.json")
        frame.boxes = load_detections(path, registry, (intrinsics.width, intrinsics.height))
        if frame.boxes.frame_id != frame.frame_id:
            raise AnnotationError(
                f"{path}: annotates frame {frame.boxes.frame_id}, not {frame.frame_id}"
            )
        frames.append(frame)
    return frames
