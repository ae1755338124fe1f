"""Trajectory files: one pose per line, "timestamp tx ty tz qx qy qz qw".

Poses in the file are camera-in-world (position = camera center, quaternion =
camera-to-world rotation), the usual trajectory-file convention; in memory we
use world->camera poses, so writing and reading invert.  Frames that failed
to localize are kept as comment lines "# <timestamp> FAILED <reason>" so
downstream evaluation can count them.

write_arrays and ArrayFile are the writer and reader of the .npz files that
hold maps and frames.
"""

from __future__ import annotations

import zipfile
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


def _finite_fields(path: str, line_no: int, tokens: list[str]) -> list[float]:
    """The tokens as floats; MapFormatError naming path:line_no for a token
    that is not a number or not finite."""
    try:
        values = [float(token) for token in tokens]
    except ValueError as exc:
        raise MapFormatError(f"{path}:{line_no}: non-numeric field ({exc})") from None
    if not np.isfinite(values).all():
        raise MapFormatError(f"{path}:{line_no}: non-finite field")
    return values


def read_trajectory(path: str) -> list[TrajectoryEntry]:
    """The entries of a trajectory file; MapFormatError naming path:line for a
    line with the wrong field count, a field that is not a finite number or
    a zero quaternion."""
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
                            timestamp=_finite_fields(path, line_no, tokens[:1])[0],
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
            t, tx, ty, tz, qx, qy, qz, qw = _finite_fields(path, line_no, tokens)
            if qx == qy == qz == qw == 0.0:
                raise MapFormatError(f"{path}:{line_no}: zero quaternion")
            rotation_wc = rotation_from_quaternion(np.array([qw, qx, qy, qz]))
            center = np.array([tx, ty, tz])
            pose = Pose(rotation_wc.T, -rotation_wc.T @ center)
            entries.append(TrajectoryEntry(timestamp=t, pose=pose))
    return entries


def write_arrays(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Write the named arrays to exactly `path` as an uncompressed .npz.

    An open file handle keeps numpy from appending ".npz" to the name.
    zipfile stamps every entry 1980-01-01, so equal arrays give equal bytes
    whenever they are written.
    """
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class ArrayFile:
    """The named arrays of one .npz file, read whole without unpickling.

    Every error the reader raises is `error` and names the file: an archive
    that does not open, a missing array, or an array of the wrong dtype or
    shape.
    """

    def __init__(self, path: str, error: type[Exception], kind: str):
        self.path = path
        self.error = error
        self.kind = kind
        self.arrays = {}
        try:
            with zipfile.ZipFile(path) as archive:
                for name in archive.namelist():
                    with archive.open(name) as member:
                        self.arrays[name.removesuffix(".npy")] = np.lib.format.read_array(
                            member, allow_pickle=False
                        )
        except zipfile.BadZipFile as exc:
            with open(path, "rb") as fh:
                if fh.read(1) == b"{":
                    self.fail(
                        f"unsupported format: a JSON {kind} file, from before {kind}s "
                        f"were .npz arrays; write it again with this version"
                    )
            self.fail(f"not a valid {kind} file ({exc})")
        except (EOFError, ValueError) as exc:
            self.fail(f"not a valid {kind} file ({exc})")

    def fail(self, message: str):
        raise self.error(f"{self.path}: {message}")

    def malformed(self, message: str):
        self.fail(f"malformed {self.kind} content ({message})")

    def take(self, name: str, kind: str | None, shape: tuple, finite: bool | None = None):
        """The array `name`, checked.

        kind: "f" (float64 returned), "i" (int64 returned), "U" (text) or
        None (any dtype, returned as stored).  shape: one entry per axis,
        None for any length.  finite defaults to kind == "f".
        """
        if name not in self.arrays:
            self.malformed(f"missing array '{name}'")
        array = self.arrays[name]
        if kind is not None:
            if array.dtype.kind not in {"f": "f", "i": "iu", "U": "U"}[kind]:
                self.malformed(f"array '{name}' has dtype {array.dtype}, expected kind '{kind}'")
            if kind in "fi":
                array = array.astype(np.float64 if kind == "f" else np.int64, copy=False)
        if array.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(array.shape, shape)
        ):
            wanted = tuple("n" if want is None else want for want in shape)
            self.malformed(f"array '{name}' has shape {array.shape}, expected {wanted}")
        if (kind == "f" if finite is None else finite) and not np.isfinite(array).all():
            self.malformed(f"array '{name}' holds a non-finite value")
        return array
