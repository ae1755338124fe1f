"""Trajectory files: one pose per line, "timestamp tx ty tz qx qy qz qw".

Poses in the file are camera-in-world (position = camera center, quaternion =
camera-to-world rotation), the usual trajectory-file convention; in memory we
use world->camera poses, so writing and reading invert.  Frames that failed
to localize are kept as comment lines "# <timestamp> FAILED <reason>" so
downstream evaluation can count them.

write_json is the writer the map and dataset JSON files share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MapFormatError
from .geometry.pose import Pose, quaternion_from_rotation, rotation_from_quaternion


@dataclass
class TrajectoryEntry:
    timestamp: float
    pose: Pose | None  # world->camera; None for failed frames
    failure_reason: str | None = None


def write_trajectory(path: str, entries: list[TrajectoryEntry]) -> None:
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for entry in entries:
        if entry.pose is None:
            reason = entry.failure_reason or "unknown"
            lines.append(f"# {entry.timestamp:.6f} FAILED {reason}")
            continue
        center = entry.pose.camera_center()
        qw, qx, qy, qz = quaternion_from_rotation(entry.pose.rotation.T)
        lines.append(
            f"{entry.timestamp:.6f} "
            f"{center[0]:.9f} {center[1]:.9f} {center[2]:.9f} "
            f"{qx:.9f} {qy:.9f} {qz:.9f} {qw:.9f}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory(path: str) -> list[TrajectoryEntry]:
    entries: list[TrajectoryEntry] = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].split()
                if len(tokens) >= 3 and tokens[1] == "FAILED":
                    entries.append(
                        TrajectoryEntry(
                            timestamp=float(tokens[0]),
                            pose=None,
                            failure_reason=" ".join(tokens[2:]),
                        )
                    )
                continue
            tokens = line.split()
            if len(tokens) != 8:
                raise MapFormatError(
                    f"{path}:{line_no}: expected 8 fields "
                    f"(timestamp tx ty tz qx qy qz qw), got {len(tokens)}"
                )
            t, tx, ty, tz, qx, qy, qz, qw = (float(v) for v in tokens)
            rotation_wc = rotation_from_quaternion(np.array([qw, qx, qy, qz]))
            center = np.array([tx, ty, tz])
            pose = Pose(rotation_wc.T, -rotation_wc.T @ center)
            entries.append(TrajectoryEntry(timestamp=t, pose=pose))
    return entries


def write_json(payload: dict, path: str) -> None:
    """Write payload, whose dict keys are all strings, and a newline, in
    json.dump's bytes.

    json.dump streams through the pure-Python encoder, and one json.dumps of
    a whole map holds every piece of the document in memory at once.  Here
    the C encoder takes one piece at a time: dicts are walked, and a list of
    lists or dicts is encoded one item at a time.
    """
    with open(path, "w") as fh:
        _write_json(fh, payload)
        fh.write("\n")


def _write_json(fh, value) -> None:
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, item)
        fh.write("}")
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        fh.write("[" + json.dumps(value[0]))
        for item in value[1:]:
            fh.write(", " + json.dumps(item))
        fh.write("]")
    else:
        fh.write(json.dumps(value))
