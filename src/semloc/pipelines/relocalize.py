"""Map-based relocalization: BoW retrieval, 2d-3d matching, robust PnP."""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ..errors import InsufficientDataError
from ..features.match import match_record
from ..geometry.pose import CameraIntrinsics, Pose, reprojection_errors
from ..geometry.ransac import RansacParams, ransac_pnp_batch
from ..geometry.refine import refine_poses
from ..mapping.sparse_map import SparseMap, query_candidates
from ..mapping.vocabulary import bow_vectors
from ..semantics.classes import UNLABELED
from ..semantics.filtering import SemanticMode, mode_features, mode_matches
from .frames import FrameFeatures
from .modes import derive_rng_seed

logger = logging.getLogger(__name__)

_CANDIDATE_COUNT = 3  # BoW candidates pooled before solving
_PNP = RansacParams(max_iterations=500, inlier_threshold=3.0, min_inliers=12)


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


def candidate_matches(
    sparse_map: SparseMap,
    features: FrameFeatures,
    mode: SemanticMode,
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
    seed: int = 0,
) -> list[LocalizationResult]:
    """Estimate the camera pose of each (frame id, features) frame against a
    prebuilt map.

    `features` are a frame's labeled, unmasked features.  Stages: the mode's
    mask (pre keeps only labeled features) -> BoW candidate retrieval ->
    per-candidate matching (pre: per class; post: unrestricted then
    class-filtered; baseline: unrestricted) -> pooled matches -> robust PnP
    -> refinement on the inliers.  The BoW words of all frames come from one
    quantization, their PnP problems run as one lockstep RANSAC batch, each
    seeded from `seed` and its frame id, and the winners are refined as one
    lockstep refine_poses batch; each frame's result is the one it gets
    alone.  Failures return a pose-free result carrying the reason.
    """
    mode = SemanticMode.parse(mode)
    if not sparse_map.keyframes or not len(sparse_map.positions):
        raise InsufficientDataError("relocalization needs a non-empty map")
    if mode is SemanticMode.BASELINE and np.all(sparse_map.class_ids != UNLABELED):
        logger.info("baseline mode is matching against a fully labeled map")

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
        )

    masked = [mode_features(features, mode) for _, features in frames]
    bows = bow_vectors([features.descriptors for features in masked], sparse_map.vocabulary)
    results: list = [None] * len(frames)
    problems = []  # (frame index, candidate ids, pooled matches, pixels, points)
    for index, ((frame_id, _), features, bow) in enumerate(zip(frames, masked, bows)):
        if mode is SemanticMode.PRE and len(features.coordinates) == 0:
            results[index] = failure(frame_id, "no semantic features")
            continue
        candidate_ids = tuple(query_candidates(sparse_map, bow, _CANDIDATE_COUNT))
        if not candidate_ids:
            results[index] = failure(frame_id, "no candidates")
            continue
        pooled = dedup_matches(
            candidate_matches(sparse_map, features, mode, candidate_ids)
        )
        pixels = features.coordinates[pooled.query_index]
        points = sparse_map.positions[pooled.train_index]
        problems.append((index, candidate_ids, pooled, pixels, points))

    estimates = ransac_pnp_batch(
        [
            (pixels, points, replace(_PNP, rng_seed=derive_rng_seed(seed, frames[index][0])))
            for index, _, _, pixels, points in problems
        ],
        intrinsics,
    )
    # the RANSAC winners' poses, refined on their inliers as one lockstep batch
    refined = iter(
        refine_poses(
            [
                (estimate.model, pixels[estimate.inliers], points[estimate.inliers])
                for (_, _, _, pixels, points), estimate in zip(problems, estimates)
                if estimate.failure_reason is None
            ],
            intrinsics,
        )
    )
    for (index, candidate_ids, pooled, pixels, points), estimate in zip(problems, estimates):
        frame_id = frames[index][0]
        if estimate.failure_reason is not None:
            results[index] = failure(frame_id, estimate.failure_reason, candidate_ids, pooled)
            continue
        pose, inlier_idx = estimate.model, estimate.inliers
        refinement = next(refined)
        if not refinement.failed:
            errors = reprojection_errors(
                refinement.pose.rotation, refinement.pose.translation, intrinsics, points, pixels
            )
            updated = np.flatnonzero(errors < _PNP.inlier_threshold)
            # keep the refined pose only while it preserves a full consensus
            if len(updated) >= _PNP.min_inliers:
                pose, inlier_idx = refinement.pose, updated
        results[index] = LocalizationResult(
            frame_id=frame_id,
            mode=mode,
            pose=pose,
            inlier_count=int(len(inlier_idx)),
            candidate_ids=candidate_ids,
            failure_reason=None,
            matches=pooled,
            inlier_indices=tuple(int(i) for i in inlier_idx),
        )
    return results


def relocalize(
    sparse_map: SparseMap,
    frame_id: int,
    features: FrameFeatures,
    intrinsics: CameraIntrinsics,
    mode: "SemanticMode | str" = SemanticMode.BASELINE,
    seed: int = 0,
) -> LocalizationResult:
    """Estimate the camera pose of a single frame against a prebuilt map:
    relocalize_frames on a batch of one."""
    (result,) = relocalize_frames(sparse_map, [(frame_id, features)], intrinsics, mode, seed)
    return result
