"""Sparse landmark map: storage types, retrieval, and versioned JSON I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import MapFormatError
from ..geometry.pose import Pose, quaternion_from_rotation, rotation_from_quaternion
from ..semantics.classes import ClassRegistry, SemanticClass
from .vocabulary import Vocabulary, rank_by_similarity

MAP_FORMAT_VERSION = "1"


@dataclass
class Landmark:
    id: int
    position: np.ndarray  # (3,) meters, map frame
    descriptor: np.ndarray  # unit-normalized
    class_id: int | None  # None only in maps built with semantic=False
    observation_count: int

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.descriptor = np.asarray(self.descriptor, dtype=float)
        if self.observation_count < 2:
            raise MapFormatError(
                f"landmark {self.id}: triangulated landmarks need >= 2 observations"
            )


@dataclass
class Keyframe:
    """Stores the rotation as a quaternion so serialization is lossless."""

    id: int
    quaternion: np.ndarray  # (4,) [qw, qx, qy, qz], world->camera rotation
    translation: np.ndarray  # (3,)
    landmark_ids: list[int]
    bow: dict[int, float]

    def __post_init__(self):
        self.quaternion = np.asarray(self.quaternion, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        if any(w < 0 for w in self.bow.values()):
            raise MapFormatError(f"keyframe {self.id}: negative bag-of-words weight")

    @classmethod
    def from_pose(cls, keyframe_id: int, pose: Pose, landmark_ids, bow) -> "Keyframe":
        return cls(
            id=keyframe_id,
            quaternion=quaternion_from_rotation(pose.rotation),
            translation=pose.translation.copy(),
            landmark_ids=list(landmark_ids),
            bow=dict(bow),
        )

    @property
    def pose(self) -> Pose:
        return Pose(rotation_from_quaternion(self.quaternion), self.translation.copy())


@dataclass
class SparseMap:
    landmarks: list[Landmark]
    keyframes: list[Keyframe]
    vocabulary: Vocabulary
    registry: ClassRegistry
    version: str = MAP_FORMAT_VERSION

    def __post_init__(self):
        referenced = {i for kf in self.keyframes for i in kf.landmark_ids}
        known = {lm.id for lm in self.landmarks}
        if not referenced <= known:
            raise MapFormatError(
                f"keyframes reference unknown landmark ids {sorted(referenced - known)[:5]}"
            )

    def landmark_by_id(self, landmark_id: int) -> Landmark:
        if not hasattr(self, "_landmark_lookup"):
            self._landmark_lookup = {lm.id: lm for lm in self.landmarks}
        return self._landmark_lookup[landmark_id]

    def keyframe_by_id(self, keyframe_id: int) -> Keyframe:
        if not hasattr(self, "_keyframe_lookup"):
            self._keyframe_lookup = {kf.id: kf for kf in self.keyframes}
        return self._keyframe_lookup[keyframe_id]


def query_candidates(sparse_map: SparseMap, query_bow: dict[int, float], n: int) -> list[int]:
    """Top-n keyframe ids by cosine similarity to the query BoW vector.

    Keyframes sharing no word trail with score zero.  Ties break toward the
    lower keyframe id.  An empty query returns no candidates.
    """
    if not query_bow:
        return []
    ranked = rank_by_similarity(query_bow, ((kf.id, kf.bow) for kf in sparse_map.keyframes))
    return [kf_id for kf_id, _ in ranked[:n]]


def save_map(sparse_map: SparseMap, path: str) -> None:
    payload = {
        "version": sparse_map.version,
        "classes": sparse_map.registry.to_list(),
        "vocabulary": {
            "k": sparse_map.vocabulary.k,
            "centroids": sparse_map.vocabulary.centroids.tolist(),
            "idf": sparse_map.vocabulary.idf.tolist(),
        },
        "landmarks": [
            {
                "id": lm.id,
                "p": lm.position.tolist(),
                "class": lm.class_id,
                "desc": lm.descriptor.tolist(),
                "obs": lm.observation_count,
            }
            for lm in sparse_map.landmarks
        ],
        "keyframes": [
            {
                "id": kf.id,
                "pose": {"q": kf.quaternion.tolist(), "t": kf.translation.tolist()},
                "landmarks": kf.landmark_ids,
                "bow": {str(word): weight for word, weight in sorted(kf.bow.items())},
            }
            for kf in sparse_map.keyframes
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_map(path: str) -> SparseMap:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MapFormatError(f"{path}: not a valid map file ({exc.msg})") from exc
    if not isinstance(raw, dict) or "version" not in raw:
        raise MapFormatError(f"{path}: missing format version")
    if raw["version"] != MAP_FORMAT_VERSION:
        raise MapFormatError(
            f"{path}: format version {raw['version']!r} unsupported; "
            f"this reader expects {MAP_FORMAT_VERSION!r}"
        )
    try:
        registry = ClassRegistry(
            [SemanticClass(int(e["id"]), str(e["name"])) for e in raw["classes"]]
        )
        vocab = Vocabulary(
            centroids=np.array(raw["vocabulary"]["centroids"], dtype=float),
            idf=np.array(raw["vocabulary"]["idf"], dtype=float),
        )
        landmarks = [
            Landmark(
                id=int(e["id"]),
                position=np.array(e["p"], dtype=float),
                descriptor=np.array(e["desc"], dtype=float),
                class_id=None if e["class"] is None else int(e["class"]),
                observation_count=int(e["obs"]),
            )
            for e in raw["landmarks"]
        ]
        keyframes = [
            Keyframe(
                id=int(e["id"]),
                quaternion=np.array(e["pose"]["q"], dtype=float),
                translation=np.array(e["pose"]["t"], dtype=float),
                landmark_ids=[int(i) for i in e["landmarks"]],
                bow={int(word): float(weight) for word, weight in e["bow"].items()},
            )
            for e in raw["keyframes"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"{path}: malformed map content ({exc})") from exc
    return SparseMap(
        landmarks=landmarks,
        keyframes=keyframes,
        vocabulary=vocab,
        registry=registry,
        version=str(raw["version"]),
    )
