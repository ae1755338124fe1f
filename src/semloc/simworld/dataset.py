"""The emitted dataset layout of one split: frames/observations.npz,
annotations/<id>.json, intrinsics.json, gt_traj.txt."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from ..errors import AnnotationError, DegenerateGeometryError, WorldGenerationError
from ..geometry.pose import CameraIntrinsics, Pose, rotation_from_quaternion
from ..semantics.boxes import load_detections, save_detections
from ..semantics.classes import ClassRegistry
from ..trajectory_io import ArrayFile, TrajectoryEntry, write_arrays, write_trajectory
from .synthesize import SyntheticFrame
from .world import World

OBSERVATIONS = "observations.npz"  # a split's frames, inside its frames/ directory
_MAX_IMAGE_SIDE = 1 << 16  # pixels; wider than any camera, and every pixel index is exact


def write_dataset(
    out_dir: str,
    world: World,
    frames: list[SyntheticFrame],
    intrinsics: CameraIntrinsics,
) -> None:
    """Emit the full on-disk dataset for one synthesized sequence:
    intrinsics.json, gt_traj.txt, annotations/<id>.json per frame, and the
    frames' observations as one archive, frames/observations.npz.

    The archive holds per frame, in the given order, `id`, `timestamp`, `q`
    (the frame's own `quaternion`, so a split that was read writes back to
    the same bytes), `t` and `offsets`; and per row, stacked in frame order,
    `keypoints`, `descriptors` and `landmark_ids`. Frame i owns rows
    offsets[i]:offsets[i + 1]. The world itself is not written: nothing
    reads it back.
    """
    frames_dir = os.path.join(out_dir, "frames")
    annotations_dir = os.path.join(out_dir, "annotations")
    os.makedirs(frames_dir, exist_ok=True)
    os.makedirs(annotations_dir, exist_ok=True)

    with open(os.path.join(out_dir, "intrinsics.json"), "w") as fh:
        json.dump(dataclasses.asdict(intrinsics), fh)
        fh.write("\n")
    width = frames[0].descriptors.shape[1] if frames else 0
    write_arrays(os.path.join(frames_dir, OBSERVATIONS), {
        "id": np.array([frame.frame_id for frame in frames], dtype=np.int64),
        "timestamp": np.array([frame.timestamp for frame in frames], dtype=float),
        "q": np.array([frame.quaternion for frame in frames]).reshape(-1, 4),
        "t": np.array([frame.pose.translation for frame in frames]).reshape(-1, 3),
        "offsets": np.cumsum([0] + [len(frame.keypoints) for frame in frames]),
        "keypoints": np.concatenate([np.zeros((0, 2)), *(f.keypoints for f in frames)]),
        "descriptors": np.concatenate([np.zeros((0, width)), *(f.descriptors for f in frames)]),
        "landmark_ids": np.concatenate(
            [np.zeros(0, np.int64), *(f.landmark_ids for f in frames)]
        ),
    })
    for frame in frames:
        save_detections(os.path.join(annotations_dir, f"{frame.frame_id:06d}.json"), frame.boxes)
    write_trajectory(
        os.path.join(out_dir, "gt_traj.txt"),
        [TrajectoryEntry(f.timestamp, f.pose) for f in frames],
    )


def load_intrinsics(path: str) -> CameraIntrinsics:
    """The camera of an intrinsics file: JSON numbers fx, fy, cx and cy and
    JSON integers width and height in 1.._MAX_IMAGE_SIDE, taken as they are,
    never coerced."""
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
        if integer and not 0 < value <= _MAX_IMAGE_SIDE:
            raise WorldGenerationError(
                f"{path}: malformed intrinsics ({name} must lie in 1..{_MAX_IMAGE_SIDE} "
                f"pixels, not {value})"
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
    """The frames of the split whose frames/ directory is frames_dir, in
    written order, read in one file read from its observations archive; a
    frame's rows are views of the stacked arrays. Each frame's boxes are read
    once from annotations_dir through load_detections (validated, clamped to
    the image, low-confidence and empty boxes dropped).

    A bad archive raises WorldGenerationError naming it: one that does not
    open, a missing array, a wrong dtype or shape, a non-finite value,
    keypoint and descriptor counts that disagree, offsets that do not rise
    from 0 to the row count, a repeated frame id, a negative landmark id or a
    quaternion with no direction. So does a frames_dir without the archive,
    such as a directory of the older per-frame files.

    annotations_dir and intrinsics default to the dataset's own: the
    annotations/ directory and intrinsics.json beside frames_dir.
    """
    dataset = os.path.dirname(os.path.abspath(frames_dir))
    if annotations_dir is None:
        annotations_dir = os.path.join(dataset, "annotations")
    if intrinsics is None:
        intrinsics = load_intrinsics(os.path.join(dataset, "intrinsics.json"))
    path = os.path.join(frames_dir, OBSERVATIONS)
    if not os.path.isfile(path):
        raise WorldGenerationError(
            f"{frames_dir}: no {OBSERVATIONS}; a split's frames are one archive, and a "
            f"directory of per-frame files is an older layout: simulate the dataset again"
        )
    file = ArrayFile(path, WorldGenerationError, "observations")
    ids = file.take("id", "i", (None,))
    n_frames = len(ids)
    timestamps = file.take("timestamp", "f", (n_frames,))
    quaternions = file.take("q", "f", (n_frames, 4))
    translations = file.take("t", "f", (n_frames, 3))
    keypoints = file.take("keypoints", "f", (None, 2))
    n = len(keypoints)
    descriptors = file.take("descriptors", "f", (None, None))
    if len(descriptors) != n:
        file.fail(f"{n} keypoints but descriptors of shape {descriptors.shape}")
    landmark_ids = file.take("landmark_ids", "i", (n,))
    cuts = file.offsets("offsets", n_frames, "keypoints", n)
    distinct, repeats = np.unique(ids, return_counts=True)
    if (repeats > 1).any():
        file.malformed(f"frame {distinct[repeats > 1][0]} appears more than once")
    negative = np.flatnonzero(landmark_ids < 0)
    if len(negative):
        owner = np.searchsorted(cuts, negative[0], side="right") - 1
        file.malformed(f"frame {ids[owner]}: negative landmark id")
    norms = np.linalg.norm(quaternions, axis=1)
    directionless = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if len(directionless):  # any other quaternion normalizes to a rotation
        i = directionless[0]
        file.malformed(f"frame {ids[i]}: quaternion {quaternions[i].tolist()} has no direction")

    frames = []
    for i, frame_id in enumerate(ids.tolist()):
        try:
            pose = Pose(rotation_from_quaternion(quaternions[i]), translations[i])
        except DegenerateGeometryError as exc:  # a quaternion too small to normalize
            file.malformed(f"frame {frame_id}: {exc}")
        annotation = os.path.join(annotations_dir, f"{frame_id:06d}.json")
        boxes = load_detections(annotation, registry, (intrinsics.width, intrinsics.height))
        if boxes.frame_id != frame_id:
            raise AnnotationError(f"{annotation}: annotates frame {boxes.frame_id}, not {frame_id}")
        rows = slice(cuts[i], cuts[i + 1])
        frames.append(SyntheticFrame(
            frame_id=frame_id,
            timestamp=float(timestamps[i]),
            pose=pose,
            quaternion=quaternions[i],
            keypoints=keypoints[rows],
            descriptors=descriptors[rows],
            landmark_ids=landmark_ids[rows],
            boxes=boxes,
        ))
    return frames
