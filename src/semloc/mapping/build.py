"""Build a sparse landmark map from posed frames with detections."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateGeometryError, InsufficientDataError
from ..features.match import DEFAULT_RATIO, knn_ratio_match
from ..geometry.pose import CameraIntrinsics, Pose, project
from ..geometry.triangulate import triangulate_two_view
from ..semantics.boxes import DetectionSet
from ..semantics.classes import UNLABELED, ClassRegistry
from ..semantics.filtering import match_per_class
from ..semantics.labeling import FeatureObservation, extract_frame_features
from .sparse_map import Keyframe, SparseMap
from .vocabulary import (
    DEFAULT_VOCABULARY_K,
    bow_vector,
    build_vocabulary,
    rank_by_similarity,
)

logger = logging.getLogger(__name__)


@dataclass
class MapFrameInput:
    observation: FeatureObservation
    pose: Pose  # world->camera
    detections: DetectionSet
    frame_id: int


@dataclass
class MapBuildConfig:
    semantic: bool = True  # keep only labeled features (those inside detections)
    vocabulary_k: int = DEFAULT_VOCABULARY_K
    vocabulary_seed: int = 0
    match_ratio: float = DEFAULT_RATIO
    max_reprojection_px: float = 2.0  # triangulation acceptance threshold
    retrieved_pairs: int = 2  # extra non-consecutive pairs per frame


def _select_pairs(bows: list[dict], retrieved_pairs: int) -> list[tuple[int, int]]:
    """Consecutive frame pairs plus the best BoW-similar non-adjacent pairs."""
    n = len(bows)
    pairs = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        others = ((j, bows[j]) for j in range(n) if abs(j - i) > 1)
        ranked = [(j, s) for j, s in rank_by_similarity(bows[i], others) if s > 0.0]
        pairs.update((min(i, j), max(i, j)) for j, _ in ranked[:retrieved_pairs])
    return sorted(pairs)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, node):
        self.parent.setdefault(node, node)
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:  # path compression
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def build_map(
    frames: list[MapFrameInput],
    intrinsics: CameraIntrinsics,
    config: MapBuildConfig | None = None,
    registry: ClassRegistry | None = None,
) -> SparseMap:
    """Triangulate class-consistent two-view matches across posed frames into
    a landmark map with a retrieval vocabulary.

    With config.semantic (the default) only features inside labelled
    detections survive, so every landmark carries a class; without it all
    features participate and landmarks outside detections carry UNLABELED.
    Observations of the same physical point (match chains sharing a keypoint)
    merge into one landmark, one row of the map's columns, whose position is
    the mean of its pairwise triangulations; landmarks that then reproject
    worse than the build threshold into any observing keyframe are discarded.

    Raises InsufficientDataError ("empty map") when nothing can be
    triangulated.
    """
    config = config or MapBuildConfig()
    if len(frames) < 2:
        raise InsufficientDataError("empty map: need at least two frames")
    if any(f.detections.frame_id != f.frame_id for f in frames):
        logger.debug("detection frame ids differ from frame ids; trusting frame ids")

    features = [
        extract_frame_features(f.observation, f.detections, config.semantic) for f in frames
    ]
    total = sum(len(f.descriptors) for f in features)
    if total < 2:
        raise InsufficientDataError("empty map: no features retained from any frame")

    k = min(config.vocabulary_k, total)
    vocabulary = build_vocabulary(
        [f.descriptors for f in features], k, config.vocabulary_seed
    )
    bows = [bow_vector(f.descriptors, vocabulary) for f in features]

    edges = []  # ((frame_idx, kp_idx), (frame_idx, kp_idx), world point)
    for i, j in _select_pairs(bows, config.retrieved_pairs):
        fi, fj = features[i], features[j]
        if config.semantic:
            matches = match_per_class(
                fi.descriptors, fi.labels, fj.descriptors, fj.labels, config.match_ratio
            )
        else:
            matches = knn_ratio_match(fi.descriptors, fj.descriptors, config.match_ratio)
        for qi, ti in zip(matches.query_index.tolist(), matches.train_index.tolist()):
            try:
                point, residual = triangulate_two_view(
                    frames[i].pose,
                    frames[j].pose,
                    fi.coordinates[qi],
                    fj.coordinates[ti],
                    intrinsics,
                )
            except DegenerateGeometryError:
                continue
            if residual >= config.max_reprojection_px:
                continue
            edges.append(((i, qi), (j, ti), point))

    if not edges:
        raise InsufficientDataError("empty map: no triangulable matches")

    merged = _UnionFind()
    for a, b, _ in edges:
        merged.union(a, b)
    chains: dict = {}
    for a, b, point in edges:
        chains.setdefault(merged.find(a), {"nodes": set(), "points": []})
        chains[merged.find(a)]["nodes"].update((a, b))
        chains[merged.find(a)]["points"].append(point)

    positions, descriptors, class_ids, observation_counts = [], [], [], []
    observers: dict[int, list[int]] = {i: [] for i in range(len(frames))}
    for root in sorted(chains):
        chain = chains[root]
        nodes = sorted(chain["nodes"])
        position = np.mean(chain["points"], axis=0)
        node_descriptors = [features[fi].descriptors[ki] for fi, ki in nodes]
        descriptor = np.mean(node_descriptors, axis=0)
        norm = np.linalg.norm(descriptor)
        if norm < 1e-12:
            continue
        descriptor = descriptor / norm
        node_labels = {int(features[fi].labels[ki]) for fi, ki in nodes}
        class_id = node_labels.pop() if len(node_labels) == 1 else UNLABELED

        ok = True
        for fi, ki in nodes:
            try:
                pixel = project(frames[fi].pose, intrinsics, position)
            except DegenerateGeometryError:
                ok = False
                break
            if np.linalg.norm(pixel - features[fi].coordinates[ki]) >= config.max_reprojection_px:
                ok = False
                break
        if not ok:
            continue

        for fi, _ in nodes:
            observers[fi].append(len(positions))
        positions.append(position)
        descriptors.append(descriptor)
        class_ids.append(class_id)
        observation_counts.append(len(nodes))

    if not positions:
        raise InsufficientDataError("empty map: all triangulations failed the gate")

    keyframes = [
        Keyframe.from_pose(frames[i].frame_id, frames[i].pose, sorted(set(observers[i])), bows[i])
        for i in range(len(frames))
    ]
    return SparseMap(
        positions=np.array(positions),
        descriptors=np.array(descriptors),
        class_ids=np.array(class_ids),
        observation_counts=np.array(observation_counts),
        keyframes=keyframes,
        vocabulary=vocabulary,
        registry=registry or ClassRegistry.default(),
    )
