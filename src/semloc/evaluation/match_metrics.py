"""Match-correctness scoring against ground-truth two-view geometry."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateGeometryError
from ..geometry.epipolar import essential_from_pose, relative_motion, sampson_error
from ..geometry.metrics import rotation_error_deg, translation_heading_error_deg
from ..geometry.pose import CameraIntrinsics, Pose
from ..pipelines.relative import RelativePoseResult

DEFAULT_SAMPSON_TOL = 5e-4
_ZERO_BASELINE = 1e-12

EMPTY_FLAG = "empty"  # no matches were scored
UNDEFINED_FLAG = "undefined"  # ground-truth baseline is (near-)zero


@dataclass(frozen=True)
class MatchRatio:
    """Correct-over-total match count under the ground-truth epipolar model."""

    correct: int
    total: int
    ratio: float
    flags: frozenset = frozenset()

    def __post_init__(self):
        if self.correct < 0 or self.correct > self.total:
            raise ValueError("correct match count must lie in [0, total]")


def correct_match_ratio(
    pixels_a: np.ndarray,
    pixels_b: np.ndarray,
    intrinsics: CameraIntrinsics,
    pose_a: Pose,
    pose_b: Pose,
    threshold: float = DEFAULT_SAMPSON_TOL,
) -> MatchRatio:
    """Score row-aligned pixel matches against the true relative geometry.

    A match counts as correct when its Sampson distance under the essential
    matrix of the ground-truth motion is strictly below `threshold`.  Zero
    matches give ratio 0.0 with the "empty" flag; a (near-)zero ground-truth
    baseline makes correctness undefined, giving ratio NaN and "undefined".
    """
    pixels_a = np.asarray(pixels_a, dtype=float).reshape(-1, 2)
    pixels_b = np.asarray(pixels_b, dtype=float).reshape(-1, 2)
    if len(pixels_a) != len(pixels_b):
        raise ValueError("match arrays must be row-aligned")
    total = len(pixels_a)
    if total == 0:
        return MatchRatio(0, 0, 0.0, frozenset({EMPTY_FLAG}))

    _, translation = relative_motion(pose_a, pose_b)
    if np.linalg.norm(translation) < _ZERO_BASELINE:
        return MatchRatio(0, total, float("nan"), frozenset({UNDEFINED_FLAG}))

    essential = essential_from_pose(pose_a, pose_b)
    residuals = np.atleast_1d(
        sampson_error(
            essential,
            intrinsics.normalize(pixels_a),
            intrinsics.normalize(pixels_b),
        )
    )
    correct = int(np.sum(residuals < threshold))
    return MatchRatio(correct, total, correct / total, frozenset())


@dataclass(frozen=True)
class MatchEvalRecord:
    """One estimated frame pair scored against ground truth."""

    frame_id_a: int
    frame_id_b: int
    mode: str
    match_ratio: MatchRatio
    rotation_error_deg: float  # NaN when the pair failed to localize
    heading_error_deg: float  # NaN when failed or heading undefined
    localized: bool
    success: bool  # localized with both errors strictly below the tolerances
    flags: frozenset = field(default_factory=frozenset)


def evaluate_pair(
    result: RelativePoseResult,
    gt_pose_a: Pose,
    gt_pose_b: Pose,
    intrinsics: CameraIntrinsics,
    threshold: float = DEFAULT_SAMPSON_TOL,
    rot_tol_deg: float = 5.0,
    heading_tol_deg: float = 5.0,
) -> MatchEvalRecord:
    """Score one relative-pose estimate: match quality plus pose errors.

    Success requires a localized pair whose rotation error and translation
    heading error are both strictly below their tolerances.
    """
    ratio = correct_match_ratio(
        result.pixels_a, result.pixels_b, intrinsics, gt_pose_a, gt_pose_b, threshold
    )
    flags = set(ratio.flags)
    rotation_error = float("nan")
    heading_error = float("nan")
    localized = result.relative is not None
    if localized:
        gt_rotation, gt_translation = relative_motion(gt_pose_a, gt_pose_b)
        rotation_error = rotation_error_deg(result.relative.rotation, gt_rotation)
        try:
            heading_error = translation_heading_error_deg(
                result.relative.translation_direction, gt_translation
            )
        except DegenerateGeometryError:
            flags.add(UNDEFINED_FLAG)
    success = (
        localized
        and np.isfinite(rotation_error)
        and np.isfinite(heading_error)
        and rotation_error < rot_tol_deg
        and heading_error < heading_tol_deg
    )
    return MatchEvalRecord(
        frame_id_a=result.frame_id_a,
        frame_id_b=result.frame_id_b,
        mode=result.mode.value,
        match_ratio=ratio,
        rotation_error_deg=rotation_error,
        heading_error_deg=heading_error,
        localized=localized,
        success=success,
        flags=frozenset(flags),
    )
