"""Build a sparse landmark map from posed, labeled frames."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from ..geometry.pose import CameraIntrinsics, Pose, quaternion_from_rotation, reprojection_errors
from ..geometry.triangulate import triangulate_two_view
from ..semantics.classes import UNLABELED, ClassRegistry
from ..semantics.filtering import SemanticMode, mode_features, mode_matches
from ..semantics.labeling import FrameFeatures
from .sparse_map import Keyframe, SparseMap
from .vocabulary import (
    DEFAULT_VOCABULARY_K,
    bow_vectors,
    build_vocabulary,
    rank_by_similarity,
)

_VOCABULARY_SEED = 0
_MAX_REPROJECTION_PX = 2.0  # triangulation acceptance threshold
_RETRIEVED_PAIRS = 2  # extra non-consecutive pairs per frame


@dataclass
class MapFrameInput:
    features: FrameFeatures  # labeled and unmasked
    pose: Pose  # world->camera
    frame_id: int


@dataclass
class MapBuildConfig:
    semantic: bool = True  # match in pre mode, else baseline
    vocabulary_k: int = DEFAULT_VOCABULARY_K


def _select_pairs(bows: list[np.ndarray]) -> list[tuple[int, int]]:
    """Consecutive frame pairs plus the best BoW-similar non-adjacent pairs."""
    n = len(bows)
    pairs = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        others = [(j, bows[j]) for j in range(n) if abs(j - i) > 1]
        ranked = [(j, s) for j, s in rank_by_similarity(bows[i], others) if s > 0.0]
        pairs.update((min(i, j), max(i, j)) for j, _ in ranked[:_RETRIEVED_PAIRS])
    return sorted(pairs)


def _connected_landmarks(
    edge_a: np.ndarray, edge_b: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge match edges between global node ids into landmarks.

    Observations of one physical point are a connected component of the
    match graph. Returns (nodes, node_landmark): the sorted ids of the nodes
    in any edge, and each one's component, numbered in ascending order of
    the component's smallest node.
    """
    # every node takes the smallest label across its edges until no edge
    # joins two labels; labels never rise, so the fixpoint is the smallest node
    smallest = np.arange(n_nodes)
    while True:
        low = np.minimum(smallest[edge_a], smallest[edge_b])
        if np.array_equal(low, smallest[edge_a]) and np.array_equal(low, smallest[edge_b]):
            break
        np.minimum.at(smallest, edge_a, low)
        np.minimum.at(smallest, edge_b, low)
        smallest = smallest[smallest]  # a node's label's label is smaller still
    nodes = np.unique(np.concatenate([edge_a, edge_b]))
    _, node_landmark = np.unique(smallest[nodes], return_inverse=True)
    return nodes, node_landmark


def build_map(
    frames: list[MapFrameInput],
    intrinsics: CameraIntrinsics,
    config: MapBuildConfig | None = None,
    registry: ClassRegistry | None = None,
) -> SparseMap:
    """Triangulate class-consistent two-view matches across posed frames into
    a landmark map with a retrieval vocabulary.

    With config.semantic (the default) frames match in pre mode: only
    features inside labelled detections survive, so every landmark carries a
    class; without it they match in baseline mode, all features participate
    and landmarks outside detections carry UNLABELED.
    Observations of the same physical point (match chains sharing a keypoint)
    merge into one landmark, one row of the map's columns, whose position is
    the mean of its pairwise triangulations; landmarks that then reproject
    worse than the build threshold into any observing keyframe are discarded.

    Raises InsufficientDataError ("empty map") when nothing can be
    triangulated, and ValueError when two frames share an id.
    """
    config = config or MapBuildConfig()
    if len(frames) < 2:
        raise InsufficientDataError("empty map: need at least two frames")
    if len({f.frame_id for f in frames}) != len(frames):
        raise ValueError("frame ids must be unique")

    mode = SemanticMode.PRE if config.semantic else SemanticMode.BASELINE
    features = [mode_features(f.features, mode) for f in frames]
    total = sum(len(f.descriptors) for f in features)
    if total < 2:
        raise InsufficientDataError("empty map: no features retained from any frame")

    k = min(config.vocabulary_k, total)
    vocabulary = build_vocabulary([f.descriptors for f in features], k, _VOCABULARY_SEED)
    bows = list(bow_vectors([f.descriptors for f in features], vocabulary))

    # a node is one feature of one frame: global id = frame offset + keypoint index
    offsets = np.cumsum([0] + [len(f.descriptors) for f in features])
    edge_a, edge_b, edge_points = [], [], []  # per frame pair, matches in match order
    for i, j in _select_pairs(bows):
        fi, fj = features[i], features[j]
        matches = mode_matches(fi.descriptors, fi.labels, fj.descriptors, fj.labels, mode)
        if not len(matches):
            continue
        points, residuals = triangulate_two_view(
            frames[i].pose,
            frames[j].pose,
            fi.coordinates[matches.query_index],
            fj.coordinates[matches.train_index],
            intrinsics,
        )
        # invalid rows carry inf; below the minimum baseline every row is invalid
        accepted = residuals < _MAX_REPROJECTION_PX
        edge_a.append(offsets[i] + matches.query_index[accepted])
        edge_b.append(offsets[j] + matches.train_index[accepted])
        edge_points.append(points[accepted])

    if not sum(len(a) for a in edge_a):
        raise InsufficientDataError("empty map: no triangulable matches")
    edge_a, edge_b = np.concatenate(edge_a), np.concatenate(edge_b)
    edge_points = np.concatenate(edge_points)

    nodes, node_landmark = _connected_landmarks(edge_a, edge_b, offsets[-1])
    candidates = node_landmark.max() + 1

    # np.add.at accumulates in index order, so each sum runs in edge order
    # (positions) or ascending node order (descriptors), like a per-chain mean
    edge_landmark = node_landmark[np.searchsorted(nodes, edge_a)]
    positions = np.zeros((candidates, 3))
    np.add.at(positions, edge_landmark, edge_points)
    positions /= np.bincount(edge_landmark, minlength=candidates)[:, None]

    # a frame without features may carry (0, 0) descriptors; it holds no node
    all_descriptors = np.concatenate([f.descriptors for f in features if len(f.descriptors)])
    observation_counts = np.bincount(node_landmark, minlength=candidates)
    descriptors = np.zeros((candidates, all_descriptors.shape[1]))
    np.add.at(descriptors, node_landmark, all_descriptors[nodes])
    descriptors /= observation_counts[:, None]
    # one dot product per row, as np.linalg.norm takes of a single vector
    norms = np.sqrt((descriptors[:, None, :] @ descriptors[:, :, None])[:, 0, 0])
    keep = norms >= 1e-12
    descriptors[keep] /= norms[keep, None]

    node_labels = np.concatenate([f.labels for f in features])[nodes]
    lowest = np.full(candidates, np.iinfo(int).max)
    highest = np.full(candidates, np.iinfo(int).min)
    np.minimum.at(lowest, node_landmark, node_labels)
    np.maximum.at(highest, node_landmark, node_labels)
    class_ids = np.where(lowest == highest, lowest, UNLABELED)

    # reprojection gate: every observation of a landmark must reproject within
    # the build threshold into its keyframe
    bounds = np.searchsorted(nodes, offsets)
    observed = [node_landmark[bounds[f] : bounds[f + 1]] for f in range(len(frames))]
    for f, frame in enumerate(frames):
        keypoints = features[f].coordinates[nodes[bounds[f] : bounds[f + 1]] - offsets[f]]
        error = reprojection_errors(
            frame.pose.rotation, frame.pose.translation, intrinsics,
            positions[observed[f]], keypoints,
        )
        keep[observed[f][error >= _MAX_REPROJECTION_PX]] = False  # inf: behind the camera

    if not keep.any():
        raise InsufficientDataError("empty map: all triangulations failed the gate")
    landmark_id = np.cumsum(keep) - 1
    keyframes = [
        Keyframe(
            id=frame.frame_id,
            quaternion=quaternion_from_rotation(frame.pose.rotation),
            translation=frame.pose.translation.copy(),
            landmark_ids=np.unique(landmark_id[ids[keep[ids]]]),
            bow=bows[f],
        )
        for f, (frame, ids) in enumerate(zip(frames, observed))
    ]
    return SparseMap(
        positions=positions[keep],
        descriptors=descriptors[keep],
        class_ids=class_ids[keep],
        observation_counts=observation_counts[keep],
        keyframes=keyframes,
        vocabulary=vocabulary,
        registry=registry or ClassRegistry.default(),
    )
