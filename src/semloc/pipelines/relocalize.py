"""Map-based relocalization: BoW retrieval, 2d-3d matching, robust PnP."""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from ..features.match import DEFAULT_RATIO, match_record
from ..geometry.pose import CameraIntrinsics, Pose
from ..geometry.ransac import RansacParams, ransac_pnp_batch
from ..geometry.refine import refine_pose, reprojection_residuals
from ..mapping.sparse_map import SparseMap, query_candidates
from ..mapping.vocabulary import bow_vectors
from ..semantics.classes import UNLABELED
from .frames import FrameFeatures
from .modes import SemanticMode, derive_rng_seed, mode_features, mode_matches

logger = logging.getLogger(__name__)

_MIN_PNP_MATCHES = 4  # the absolute-pose solver needs four correspondences


@dataclass
class RelocalizationParams:
    candidate_count: int = 3  # BoW candidates pooled before solving
    match_ratio: float = DEFAULT_RATIO
    max_iterations: int = 500
    inlier_threshold_px: float = 3.0
    min_inliers: int = 12
    seed: int = 0
    refine: bool = True


@dataclass(frozen=True)
class LocalizationResult:
    frame_id: int
    mode: SemanticMode
    pose: "Pose | None"
    inlier_count: int
    candidate_ids: tuple
    # pooled 2d-3d matches, deduplicated; train_index is the landmark row
    matches: np.recarray
    failure_reason: "str | None" = None
    inlier_indices: tuple = ()  # rows of `matches`
    map_fully_labeled: bool = False  # every map landmark carries a class id


def candidate_matches(
    sparse_map: SparseMap,
    features: FrameFeatures,
    mode: SemanticMode,
    ratio: float,
    candidate_ids,
) -> np.recarray:
    """Raw matches pooled across candidate keyframes, before deduplication;
    `train_index` is the map landmark row.

    Post-mode output is, per candidate, the class-consistent subset of the
    baseline output for identical inputs (filter-only definition).
    """
    pooled = []
    for keyframe_id in candidate_ids:
        landmark_ids = sparse_map.keyframe_by_id(keyframe_id).landmark_ids
        matches = mode_matches(
            features.descriptors,
            features.labels,
            sparse_map.descriptors[landmark_ids],
            sparse_map.class_ids[landmark_ids],
            mode,
            ratio,
        )
        matches.train_index = landmark_ids[matches.train_index]
        pooled.append(matches)
    # np.concatenate returns a plain structured array; view it as a record again
    return np.concatenate([match_record(), *pooled]).view(np.recarray)


def dedup_matches(pairs: np.recarray) -> np.recarray:
    """Best-ratio entry per landmark, ordered by landmark id; on equal ratios
    the first-pooled entry wins."""
    order = np.lexsort((np.arange(len(pairs)), pairs.ratio, pairs.train_index))
    ordered = pairs[order]
    _, first = np.unique(ordered.train_index, return_index=True)
    return ordered[first]


def relocalize_frames(
    sparse_map: SparseMap,
    frames: Sequence[tuple[int, FrameFeatures]],
    intrinsics: CameraIntrinsics,
    mode: "SemanticMode | str" = SemanticMode.BASELINE,
    params: "RelocalizationParams | None" = None,
) -> list[LocalizationResult]:
    """Estimate the camera pose of each (frame id, features) frame against a
    prebuilt map.

    `features` are a frame's labeled, unmasked features.  Stages: the mode's
    mask (pre keeps only labeled features) -> BoW candidate retrieval ->
    per-candidate matching (pre: per class; post: unrestricted then
    class-filtered; baseline: unrestricted) -> pooled matches -> robust PnP
    -> refinement on the inliers.  The BoW words of all frames come from one
    quantization and their PnP problems run as one lockstep RANSAC batch;
    each frame's result is the one it gets alone.  Failures return a
    pose-free result carrying the reason.
    """
    params = params or RelocalizationParams()
    mode = SemanticMode.parse(mode)
    if not sparse_map.keyframes or not len(sparse_map.positions):
        raise InsufficientDataError("relocalization needs a non-empty map")
    map_fully_labeled = bool(np.all(sparse_map.class_ids != UNLABELED))

    def failure(frame_id, reason, candidates=(), matches=match_record()):
        logger.info("frame %d (%s): %s", frame_id, mode.value, reason)
        return LocalizationResult(
            frame_id=frame_id,
            mode=mode,
            pose=None,
            inlier_count=0,
            candidate_ids=tuple(candidates),
            failure_reason=reason,
            matches=matches,
            map_fully_labeled=map_fully_labeled,
        )

    masked = [mode_features(features, mode) for _, features in frames]
    bows = bow_vectors([features.descriptors for features in masked], sparse_map.vocabulary)
    results: list = [None] * len(frames)
    problems = []  # (frame index, candidate ids, pooled matches, pixels, points)
    for index, ((frame_id, _), features, bow) in enumerate(zip(frames, masked, bows)):
        if mode is SemanticMode.BASELINE and map_fully_labeled:
            logger.info(
                "frame %d: baseline mode is matching against a fully labeled map",
                frame_id,
            )
        if mode is SemanticMode.PRE and len(features.coordinates) == 0:
            results[index] = failure(frame_id, "no semantic features")
            continue
        candidate_ids = tuple(query_candidates(sparse_map, bow, params.candidate_count))
        if not candidate_ids:
            results[index] = failure(frame_id, "no candidates")
            continue
        pooled = dedup_matches(
            candidate_matches(sparse_map, features, mode, params.match_ratio, candidate_ids)
        )
        if len(pooled) < _MIN_PNP_MATCHES:
            results[index] = failure(frame_id, "insufficient matches", candidate_ids, pooled)
            continue
        pixels = features.coordinates[pooled.query_index]
        points = sparse_map.positions[pooled.train_index]
        problems.append((index, candidate_ids, pooled, pixels, points))

    estimates = ransac_pnp_batch(
        [
            (
                pixels,
                points,
                RansacParams(
                    max_iterations=params.max_iterations,
                    inlier_threshold=params.inlier_threshold_px,
                    min_inliers=params.min_inliers,
                    rng_seed=derive_rng_seed(params.seed, frames[index][0]),
                ),
            )
            for index, _, _, pixels, points in problems
        ],
        intrinsics,
    )
    for (index, candidate_ids, pooled, pixels, points), estimate in zip(problems, estimates):
        frame_id = frames[index][0]
        if estimate is None:
            results[index] = failure(frame_id, "localization failed", candidate_ids, pooled)
            continue
        pose, inlier_idx = estimate
        if params.refine and len(inlier_idx):
            refined = refine_pose(pose, pixels[inlier_idx], points[inlier_idx], intrinsics)
            if not refined.failed:
                residuals = reprojection_residuals(
                    refined.pose, intrinsics, points, pixels
                ).reshape(-1, 2)
                errors = np.linalg.norm(residuals, axis=1)
                updated = np.flatnonzero(errors < params.inlier_threshold_px)
                # keep the refined pose only while it preserves a full consensus
                if len(updated) >= params.min_inliers:
                    pose, inlier_idx = refined.pose, updated
        results[index] = LocalizationResult(
            frame_id=frame_id,
            mode=mode,
            pose=pose,
            inlier_count=int(len(inlier_idx)),
            candidate_ids=candidate_ids,
            failure_reason=None,
            matches=pooled,
            inlier_indices=tuple(int(i) for i in inlier_idx),
            map_fully_labeled=map_fully_labeled,
        )
    return results


def relocalize(
    sparse_map: SparseMap,
    frame_id: int,
    features: FrameFeatures,
    intrinsics: CameraIntrinsics,
    mode: "SemanticMode | str" = SemanticMode.BASELINE,
    params: "RelocalizationParams | None" = None,
) -> LocalizationResult:
    """Estimate the camera pose of a single frame against a prebuilt map:
    relocalize_frames on a batch of one."""
    (result,) = relocalize_frames(sparse_map, [(frame_id, features)], intrinsics, mode, params)
    return result
