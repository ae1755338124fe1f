"""Absolute trajectory error series and localization success rates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from ..geometry.metrics import rotation_error_deg
from ..geometry.pose import Pose, kabsch
from ..trajectory_io import TrajectoryEntry

ALIGNMENTS = ("none", "first_pose", "umeyama_no_scale")
DEFAULT_MAX_DT = 0.05  # association window, seconds
DEFAULT_POS_TOL_M = 0.3
DEFAULT_ROT_TOL_DEG = 5.0


@dataclass(frozen=True)
class TrajectoryErrorSeries:
    """Per-frame absolute errors over the localized, associated frames.

    `total_count` additionally counts associated frames whose estimate
    failed, so success rates can use the full denominator.  Aggregates are
    NaN when no frame was localized.
    """

    timestamps: np.ndarray  # (n,) seconds, localized frames only
    ape: np.ndarray  # (n,) meters
    are: np.ndarray  # (n,) degrees
    total_count: int

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=float))
        object.__setattr__(self, "ape", np.asarray(self.ape, dtype=float))
        object.__setattr__(self, "are", np.asarray(self.are, dtype=float))
        if not (len(self.timestamps) == len(self.ape) == len(self.are)):
            raise ValueError("series arrays must be the same length")
        if self.total_count < len(self.ape):
            raise ValueError("total_count cannot be below the localized count")
        if len(self.ape) and (np.any(self.ape < 0) or np.any(self.are < 0)):
            raise ValueError("errors must be non-negative")

    @staticmethod
    def _agg(values: np.ndarray, fn) -> float:
        return float(fn(values)) if len(values) else float("nan")

    @staticmethod
    def _rmse(values: np.ndarray) -> float:
        # rounding can lift the root of equal squares one ulp above their
        # value; an RMSE never exceeds the largest error
        return min(np.sqrt(np.mean(np.square(values))), np.max(values))

    @property
    def ape_max(self) -> float:
        return self._agg(self.ape, np.max)

    @property
    def ape_median(self) -> float:
        return self._agg(self.ape, np.median)

    @property
    def ape_rmse(self) -> float:
        return self._agg(self.ape, self._rmse)

    @property
    def are_max(self) -> float:
        return self._agg(self.are, np.max)

    @property
    def are_median(self) -> float:
        return self._agg(self.are, np.median)

    @property
    def are_rmse(self) -> float:
        return self._agg(self.are, self._rmse)


def _camera_to_world(pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, center) of the camera-to-world transform."""
    return pose.rotation.T, pose.camera_center()


def _associate(
    estimated: list[TrajectoryEntry],
    reference: list[TrajectoryEntry],
) -> list[tuple[TrajectoryEntry, TrajectoryEntry]]:
    usable_ref = [entry for entry in reference if entry.pose is not None]
    if not usable_ref:
        raise InsufficientDataError("no associable timestamps")
    ref_times = np.array([entry.timestamp for entry in usable_ref])
    order = np.argsort(ref_times)
    ref_times = ref_times[order]
    usable_ref = [usable_ref[i] for i in order]

    pairs = []
    for entry in estimated:
        idx = int(np.searchsorted(ref_times, entry.timestamp))
        best, best_dt = None, DEFAULT_MAX_DT
        for j in (idx - 1, idx):
            if 0 <= j < len(ref_times):
                dt = abs(ref_times[j] - entry.timestamp)
                if dt <= best_dt:
                    best, best_dt = usable_ref[j], dt
        if best is not None:
            pairs.append((entry, best))
    if not pairs:
        raise InsufficientDataError("no associable timestamps")
    return pairs


def _alignment_transform(
    localized: list[tuple[TrajectoryEntry, TrajectoryEntry]], alignment: str
) -> tuple[np.ndarray, np.ndarray]:
    """Rigid (R, t) mapping estimated world coordinates onto reference ones."""
    if alignment == "none" or not localized:
        return np.eye(3), np.zeros(3)
    if alignment == "first_pose":
        est, ref = localized[0]
        r_est, c_est = _camera_to_world(est.pose)
        r_ref, c_ref = _camera_to_world(ref.pose)
        rotation = r_ref @ r_est.T
        return rotation, c_ref - rotation @ c_est
    if alignment == "umeyama_no_scale":
        est_centers = np.array([[_camera_to_world(e.pose)[1] for e, _ in localized]])
        ref_centers = np.array([[_camera_to_world(r.pose)[1] for _, r in localized]])
        rotation, translation = kabsch(est_centers, ref_centers)
        return rotation[0], translation[0]
    raise ValueError(f"unknown alignment {alignment!r}")


def absolute_errors(
    estimated: list[TrajectoryEntry],
    reference: list[TrajectoryEntry],
    alignment: str = "first_pose",
) -> TrajectoryErrorSeries:
    """Per-frame absolute position/rotation errors against a reference.

    Frames are associated by nearest timestamp within DEFAULT_MAX_DT; estimated
    entries without a reference partner are dropped.  Failed estimates count
    toward `total_count` but contribute no errors.  The estimated trajectory
    is first mapped onto the reference by the chosen `alignment`: "none",
    "first_pose" (exact match at the first localized pair), or
    "umeyama_no_scale" (least-squares rigid fit of the camera centers).
    """
    if alignment not in ALIGNMENTS:
        raise ValueError(f"unknown alignment {alignment!r}")
    pairs = _associate(estimated, reference)
    localized = [(e, r) for e, r in pairs if e.pose is not None]
    rotation, translation = _alignment_transform(localized, alignment)

    timestamps, ape, are = [], [], []
    for est, ref in localized:
        r_est, c_est = _camera_to_world(est.pose)
        r_ref, c_ref = _camera_to_world(ref.pose)
        aligned_center = rotation @ c_est + translation
        aligned_rotation = rotation @ r_est
        timestamps.append(est.timestamp)
        ape.append(float(np.linalg.norm(aligned_center - c_ref)))
        are.append(rotation_error_deg(aligned_rotation, r_ref))
    return TrajectoryErrorSeries(
        timestamps=np.array(timestamps, dtype=float),
        ape=np.array(ape, dtype=float),
        are=np.array(are, dtype=float),
        total_count=len(pairs),
    )


def success_rate(
    series: TrajectoryErrorSeries,
    pos_tol: float = DEFAULT_POS_TOL_M,
    rot_tol: float = DEFAULT_ROT_TOL_DEG,
) -> float:
    """Fraction of associated frames localized within both tolerances.

    Comparison is strict (< tol); frames that failed to localize stay in the
    denominator.  Raises InsufficientDataError when there is nothing to rate.
    """
    if series.total_count == 0:
        raise InsufficientDataError("no frames to rate")
    good = int(np.sum((series.ape < pos_tol) & (series.are < rot_tol)))
    return good / series.total_count
