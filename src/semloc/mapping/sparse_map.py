"""Sparse landmark map: columnar storage, retrieval, and versioned JSON I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import AnnotationError, MapFormatError
from ..geometry.pose import Pose, quaternion_from_rotation, rotation_from_quaternion
from ..semantics.classes import UNLABELED, ClassRegistry, SemanticClass
from ..trajectory_io import write_json
from .vocabulary import Vocabulary, rank_by_similarity

MAP_FORMAT_VERSION = "1"


@dataclass
class Keyframe:
    """Stores the rotation as a quaternion so serialization is lossless."""

    id: int
    quaternion: np.ndarray  # (4,) [qw, qx, qy, qz], world->camera rotation
    translation: np.ndarray  # (3,)
    landmark_ids: np.ndarray  # (m,) rows of the map's landmark columns
    bow: np.ndarray  # (k,) tf-idf weight of each visual word

    def __post_init__(self):
        self.quaternion = np.asarray(self.quaternion, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        self.landmark_ids = np.asarray(self.landmark_ids, dtype=int)
        self.bow = np.asarray(self.bow, dtype=float)
        if (self.bow < 0).any():
            raise MapFormatError(f"keyframe {self.id}: negative bag-of-words weight")
        if not np.isfinite(self.bow).all():
            raise MapFormatError(f"keyframe {self.id}: non-finite bag-of-words weight")

    @classmethod
    def from_pose(cls, keyframe_id: int, pose: Pose, landmark_ids, bow) -> "Keyframe":
        return cls(
            id=keyframe_id,
            quaternion=quaternion_from_rotation(pose.rotation),
            translation=pose.translation.copy(),
            landmark_ids=landmark_ids,
            bow=bow,
        )

    @property
    def pose(self) -> Pose:
        return Pose(rotation_from_quaternion(self.quaternion), self.translation.copy())


@dataclass
class SparseMap:
    """Landmarks as columns: landmark id i is row i of every column."""

    positions: np.ndarray  # (N, 3) meters, map frame
    descriptors: np.ndarray  # (N, d) unit-normalized
    class_ids: np.ndarray  # (N,) UNLABELED only in maps built with semantic=False
    observation_counts: np.ndarray  # (N,) keyframes observing each landmark, >= 2
    keyframes: list[Keyframe]
    vocabulary: Vocabulary
    registry: ClassRegistry
    version: str = MAP_FORMAT_VERSION

    def keyframe_by_id(self, keyframe_id: int) -> Keyframe:
        if not hasattr(self, "_keyframe_lookup"):
            self._keyframe_lookup = {kf.id: kf for kf in self.keyframes}
        return self._keyframe_lookup[keyframe_id]


def query_candidates(sparse_map: SparseMap, query_bow: np.ndarray, n: int) -> list[int]:
    """Top-n keyframe ids by cosine similarity to the dense query BoW vector.

    Keyframes sharing no word trail with score zero.  Ties break toward the
    lower keyframe id.  A query with no nonzero weight returns no candidates.
    """
    if not query_bow.any():
        return []
    ranked = rank_by_similarity(query_bow, [(kf.id, kf.bow) for kf in sparse_map.keyframes])
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
                "id": i,
                "p": position,
                "class": None if class_id == UNLABELED else class_id,
                "desc": descriptor,
                "obs": count,
            }
            for i, (position, class_id, descriptor, count) in enumerate(
                zip(
                    sparse_map.positions.tolist(),
                    sparse_map.class_ids.tolist(),
                    sparse_map.descriptors.tolist(),
                    sparse_map.observation_counts.tolist(),
                )
            )
        ],
        "keyframes": [
            {
                "id": kf.id,
                "pose": {"q": kf.quaternion.tolist(), "t": kf.translation.tolist()},
                "landmarks": kf.landmark_ids.tolist(),
                "bow": {str(word): float(kf.bow[word]) for word in np.flatnonzero(kf.bow)},
            }
            for kf in sparse_map.keyframes
        ],
    }
    write_json(payload, path)


def _dense_bow(entry: dict, k: int) -> np.ndarray:
    """A keyframe entry's (k,) BoW row from its sparse {word: weight} object."""
    bow = np.zeros(k)
    for word, weight in entry["bow"].items():
        index = int(word) if word.isascii() and word.isdigit() else -1
        if not 0 <= index < k or str(index) != word:  # "03" would alias word 3
            message = f"bag-of-words word {word!r} is not an integer in [0, {k})"
            raise MapFormatError(f"keyframe {entry['id']}: {message}")
        bow[index] = float(weight)
    return bow


def _landmark_columns(entries: list, registry: ClassRegistry):
    """(positions, descriptors, class_ids, observation_counts) of a map file's
    landmarks; raises MapFormatError on a broken invariant."""
    n = len(entries)
    if [int(e["id"]) for e in entries] != list(range(n)):
        raise MapFormatError(f"landmark ids must run 0..{n - 1} in file order")
    class_ids = [UNLABELED if e["class"] is None else int(e["class"]) for e in entries]
    counts = [int(e["obs"]) for e in entries]
    widths = {len(e["desc"]) for e in entries}
    registered = {c.id for c in registry}
    for i, e in enumerate(entries):
        if len(e["p"]) != 3:
            raise MapFormatError(f"landmark {i}: position needs 3 values")
        if counts[i] < 2:
            raise MapFormatError(
                f"landmark {i}: triangulated landmarks need >= 2 observations"
            )
        if e["class"] is not None and class_ids[i] not in registered:
            raise MapFormatError(f"landmark {i}: class {class_ids[i]} not in registry")
    if len(widths) > 1:
        raise MapFormatError(f"landmark descriptors differ in width {sorted(widths)}")
    return (
        np.array([e["p"] for e in entries], dtype=float).reshape(n, 3),
        np.array([e["desc"] for e in entries], dtype=float).reshape(n, max(widths, default=0)),
        np.array(class_ids, dtype=int),
        np.array(counts, dtype=int),
    )


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
        positions, descriptors, class_ids, counts = _landmark_columns(raw["landmarks"], registry)
        keyframes = [
            Keyframe(
                id=int(e["id"]),
                quaternion=np.array(e["pose"]["q"], dtype=float),
                translation=np.array(e["pose"]["t"], dtype=float),
                landmark_ids=[int(i) for i in e["landmarks"]],
                bow=_dense_bow(e, vocab.k),
            )
            for e in raw["keyframes"]
        ]
    except MapFormatError as exc:  # a broken invariant; the checks do not know the file
        raise MapFormatError(f"{path}: {exc}") from exc
    except (AnnotationError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"{path}: malformed map content ({exc})") from exc
    seen = set()
    for kf in keyframes:
        if kf.id in seen:
            raise MapFormatError(f"{path}: keyframe {kf.id} appears more than once")
        seen.add(kf.id)
        unknown = kf.landmark_ids[(kf.landmark_ids < 0) | (kf.landmark_ids >= len(positions))]
        if len(unknown):
            raise MapFormatError(
                f"{path}: keyframe {kf.id} references unknown landmark ids "
                f"{unknown[:5].tolist()}"
            )
    return SparseMap(
        positions=positions,
        descriptors=descriptors,
        class_ids=class_ids,
        observation_counts=counts,
        keyframes=keyframes,
        vocabulary=vocab,
        registry=registry,
        version=str(raw["version"]),
    )
