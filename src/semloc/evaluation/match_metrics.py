"""Match-correctness scoring against ground-truth two-view geometry."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.epipolar import essential_from_pose, relative_motion, sampson_error
from ..geometry.metrics import rotation_error_deg, translation_heading_error_deg
from ..geometry.pose import CameraIntrinsics, Pose
from ..pipelines.relative import RelativePoseResult

DEFAULT_SAMPSON_TOL = 5e-4
PAIR_TOL_DEG = 5.0  # rotation and heading success tolerance (Nister, PAMI 2004)
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
    """Score (n, 2) row-aligned pixel matches against the true relative geometry.

    A match counts as correct when its Sampson distance under the essential
    matrix of the ground-truth motion is strictly below `threshold`.  Zero
    matches give ratio 0.0 with the "empty" flag; a (near-)zero ground-truth
    baseline makes correctness undefined, giving ratio NaN and "undefined".
    """
    if len(pixels_a) != len(pixels_b):
        raise ValueError("match arrays must be row-aligned")
    total = len(pixels_a)
    if total == 0:
        return MatchRatio(0, 0, 0.0, frozenset({EMPTY_FLAG}))

    _, translation = relative_motion(pose_a, pose_b)
    if np.linalg.norm(translation) < _ZERO_BASELINE:
        return MatchRatio(0, total, float("nan"), frozenset({UNDEFINED_FLAG}))

    essential = essential_from_pose(pose_a, pose_b)
    residuals = sampson_error(
        essential, intrinsics.normalize(pixels_a), intrinsics.normalize(pixels_b)
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
) -> MatchEvalRecord:
    """Score one relative-pose estimate: match quality plus pose errors.

    Matches are scored at DEFAULT_SAMPSON_TOL. Success requires a localized
    pair whose rotation error and translation heading error are both
    strictly below PAIR_TOL_DEG; an undefined heading (a zero-norm
    translation) is NaN and adds the "undefined" flag.
    """
    ratio = correct_match_ratio(
        result.pixels_a, result.pixels_b, intrinsics, gt_pose_a, gt_pose_b
    )
    flags = set(ratio.flags)
    rotation_error = float("nan")
    heading_error = float("nan")
    localized = result.relative is not None
    if localized:
        gt_rotation, gt_translation = relative_motion(gt_pose_a, gt_pose_b)
        rotation_error = rotation_error_deg(result.relative.rotation, gt_rotation)
        heading_error = translation_heading_error_deg(
            result.relative.translation_direction, gt_translation
        )
        if np.isnan(heading_error):
            flags.add(UNDEFINED_FLAG)
    # NaN, for a failed pair or an undefined heading, is below no tolerance
    success = localized and rotation_error < PAIR_TOL_DEG and heading_error < PAIR_TOL_DEG
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
