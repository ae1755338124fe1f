"""Pairwise relative-pose estimation from two frames via the essential matrix."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from ..errors import DegenerateGeometryError
from ..geometry.epipolar import RelativePose, decompose_essential
from ..geometry.pose import CameraIntrinsics
from ..geometry.ransac import RansacParams, ransac_essential
from ..semantics.filtering import SemanticMode, mode_features, mode_matches
from .frames import FrameFeatures
from .modes import derive_rng_seed

logger = logging.getLogger(__name__)

_ESSENTIAL = RansacParams(max_iterations=1000, inlier_threshold=5e-4, min_inliers=15)


@dataclass(frozen=True)
class RelativePoseResult:
    frame_id_a: int
    frame_id_b: int
    mode: SemanticMode
    relative: "RelativePose | None"
    inlier_count: int
    matches: np.recarray  # feature matches from a (query_index) to b (train_index)
    pixels_a: np.ndarray  # (len(matches), 2) pixel coordinates, row-aligned
    pixels_b: np.ndarray  # with `matches`
    pure_rotation: bool = False
    planar_suspected: bool = False
    failure_reason: "str | None" = None
    inlier_indices: tuple = ()  # rows of `matches`


def match_frames(
    features_a: FrameFeatures,
    features_b: FrameFeatures,
    mode: SemanticMode,
) -> np.recarray:
    """Mode-specific descriptor matching between two frames (`mode_matches`).

    The match indices are rows of the features passed in, so pass each
    frame's `mode_features`.
    """
    return mode_matches(
        features_a.descriptors,
        features_a.labels,
        features_b.descriptors,
        features_b.labels,
        mode,
    )


def relative_pose(
    frame_id_a: int,
    features_a: FrameFeatures,
    frame_id_b: int,
    features_b: FrameFeatures,
    intrinsics: CameraIntrinsics,
    mode: "SemanticMode | str" = SemanticMode.BASELINE,
    seed: int = 0,
) -> RelativePoseResult:
    """Estimate the up-to-scale relative motion between two frames.

    Takes each frame's labeled, unmasked features, applies the mode's mask,
    matches per the semantic mode, robustly fits an essential matrix on the
    normalized correspondences, and decomposes it by cheirality voting.
    RANSAC is seeded from `seed` and the two frame ids.  Degeneracies set
    the corresponding flags instead of raising.
    """
    mode = SemanticMode.parse(mode)
    features_a = mode_features(features_a, mode)
    features_b = mode_features(features_b, mode)

    matches = match_frames(features_a, features_b, mode)

    def result(
        reason=None, relative=None, inlier_idx=(), pure_rotation=False, planar_suspected=False
    ):
        if reason is not None:
            logger.info(
                "pair (%d, %d) (%s): %s",
                frame_id_a, frame_id_b, mode.value, reason,
            )
        return RelativePoseResult(
            frame_id_a=frame_id_a,
            frame_id_b=frame_id_b,
            mode=mode,
            relative=relative,
            inlier_count=len(inlier_idx),
            pure_rotation=pure_rotation,
            planar_suspected=planar_suspected,
            failure_reason=reason,
            matches=matches,
            pixels_a=features_a.coordinates[matches.query_index],
            pixels_b=features_b.coordinates[matches.train_index],
            inlier_indices=tuple(int(i) for i in inlier_idx),
        )

    if mode is SemanticMode.PRE and (
        len(features_a.coordinates) == 0 or len(features_b.coordinates) == 0
    ):
        return result(reason="no semantic features")

    points_a = intrinsics.normalize(features_a.coordinates[matches.query_index])
    points_b = intrinsics.normalize(features_b.coordinates[matches.train_index])
    seeded = replace(_ESSENTIAL, rng_seed=derive_rng_seed(seed, frame_id_a, frame_id_b))
    estimate = ransac_essential(points_a, points_b, seeded)
    if estimate.failure_reason is not None:
        return result(reason=estimate.failure_reason)

    inlier_idx = estimate.inliers
    try:
        relative = decompose_essential(
            estimate.model, points_a[inlier_idx], points_b[inlier_idx]
        )
    except DegenerateGeometryError as exc:
        reason = str(exc)
        return result(
            reason=reason,
            inlier_idx=inlier_idx,
            pure_rotation="pure rotation" in reason,
            planar_suspected="ambiguous" in reason,
        )

    return result(relative=relative, inlier_idx=inlier_idx)
