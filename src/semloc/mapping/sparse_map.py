"""Sparse landmark map: columnar storage, retrieval, and versioned .npz I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnnotationError, InsufficientDataError, MapFormatError
from ..semantics.classes import UNLABELED, ClassRegistry, SemanticClass
from ..trajectory_io import ArrayFile, write_arrays
from .vocabulary import Vocabulary, rank_by_similarity

MAP_FORMAT_VERSION = "2"


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
    """Write the map to exactly `path` as one .npz of arrays.

    Keyframe landmark ids and bag-of-words entries are flattened, with
    offsets marking where each keyframe's run starts; a keyframe stores only
    its nonzero words, in increasing order.
    """
    keyframes = sparse_map.keyframes
    words = [np.flatnonzero(kf.bow) for kf in keyframes]
    write_arrays(path, {
        "version": np.array(sparse_map.version),
        "registry_ids": np.array([c.id for c in sparse_map.registry]),
        "registry_names": np.array([c.name for c in sparse_map.registry]),
        "centroids": sparse_map.vocabulary.centroids,
        "idf": sparse_map.vocabulary.idf,
        "positions": sparse_map.positions,
        "descriptors": sparse_map.descriptors,
        "class_ids": sparse_map.class_ids,
        "observation_counts": sparse_map.observation_counts,
        "keyframe_ids": np.array([kf.id for kf in keyframes], dtype=int),
        "keyframe_quaternions": np.array([kf.quaternion for kf in keyframes]).reshape(-1, 4),
        "keyframe_translations": np.array([kf.translation for kf in keyframes]).reshape(-1, 3),
        "keyframe_landmark_ids": _flat([kf.landmark_ids for kf in keyframes], int),
        "keyframe_landmark_offsets": _offsets([kf.landmark_ids for kf in keyframes]),
        "bow_words": _flat(words, int),
        "bow_weights": _flat([kf.bow[w] for kf, w in zip(keyframes, words)], float),
        "bow_offsets": _offsets(words),
    })


def _flat(runs: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype), *runs])


def _offsets(runs: list[np.ndarray]) -> np.ndarray:
    return np.cumsum([0] + [len(run) for run in runs])


def _runs(file: ArrayFile, values: str, offsets: str, count: int, kind: str | None):
    """The flat array `values` cut into `count` runs at `offsets`: the array,
    the offsets, and the index of the run that owns each value."""
    flat = file.take(values, kind, (None,))
    cuts = file.offsets(offsets, count, values, len(flat))
    return flat, cuts, np.repeat(np.arange(count), np.diff(cuts))


def _landmark_columns(file: ArrayFile, registry: ClassRegistry, descriptor_width: int):
    """(positions, descriptors, class_ids, observation_counts) of a map file;
    a landmark's id is its row in every column."""
    positions = file.take("positions", "f", (None, None))
    descriptors = file.take("descriptors", "f", (None, None))
    class_ids = file.take("class_ids", "i", (None,))
    counts = file.take("observation_counts", "i", (None,))
    n = len(positions)
    for name, column in (
        ("descriptors", descriptors), ("class_ids", class_ids), ("observation_counts", counts)
    ):
        if len(column) != n:
            file.fail(
                f"landmark ids must run 0..{n - 1} in every column; '{name}' has "
                f"{len(column)} rows"
            )
    if positions.shape[1] != 3:
        file.fail(f"positions have shape {positions.shape}: a position needs 3 values")
    if descriptors.shape[1] != descriptor_width:
        file.fail(
            f"landmark descriptors differ in width from the vocabulary's "
            f"({descriptors.shape[1]} against {descriptor_width})"
        )
    low = np.flatnonzero(counts < 2)
    if len(low):
        file.fail(f"landmark {low[0]}: triangulated landmarks need >= 2 observations")
    registered = np.array([c.id for c in registry] + [UNLABELED])
    unknown = np.flatnonzero(~np.isin(class_ids, registered))
    if len(unknown):
        i = unknown[0]
        file.fail(f"landmark {i}: class {class_ids[i]} not in registry")
    return positions, descriptors, class_ids, counts


def _bow_rows(file: ArrayFile, keyframe_ids: np.ndarray, k: int) -> np.ndarray:
    """The (F, k) bag-of-words rows from each keyframe's (word, weight) run;
    a keyframe's words must be integers in [0, k), each above the last."""
    words, cuts, owner = _runs(file, "bow_words", "bow_offsets", len(keyframe_ids), None)
    weights = file.take("bow_weights", "f", (len(words),), finite=False)
    integral = words.dtype.kind in "iu"
    if integral:
        first = np.zeros(len(words), dtype=bool)
        first[cuts[:-1][cuts[:-1] < len(words)]] = True
        in_range = (words >= 0) & (words < k)
        bad = np.flatnonzero(~in_range | (~first & (np.diff(words, prepend=0) <= 0)))
    else:
        bad = np.arange(len(words))
    if len(bad):
        i = bad[0]
        where = f"keyframe {keyframe_ids[owner[i]]}: bag-of-words word '{words[i]}'"
        if integral and in_range[i]:
            file.fail(f"{where} repeats or is out of order")
        file.fail(f"{where} is not an integer in [0, {k})")
    bows = np.zeros((len(keyframe_ids), k))
    bows[owner, words.astype(np.int64)] = weights
    return bows


def load_map(path: str) -> SparseMap:
    """Read a map written by save_map; every check that fails raises
    MapFormatError naming the file."""
    file = ArrayFile(path, MapFormatError, "map")
    version = str(file.take("version", "U", ()))
    if version != MAP_FORMAT_VERSION:
        file.fail(
            f"format version {version!r} unsupported; this reader expects {MAP_FORMAT_VERSION!r}"
        )
    ids = file.take("registry_ids", "i", (None,))
    names = file.take("registry_names", "U", (len(ids),))
    try:
        registry = ClassRegistry(
            [SemanticClass(int(i), str(name)) for i, name in zip(ids, names)]
        )
        vocab = Vocabulary(
            centroids=file.take("centroids", "f", (None, None)),
            idf=file.take("idf", "f", (None,)),
        )
    except (AnnotationError, InsufficientDataError) as exc:
        file.malformed(str(exc))
    positions, descriptors, class_ids, counts = _landmark_columns(
        file, registry, vocab.centroids.shape[1]
    )

    keyframe_ids = file.take("keyframe_ids", "i", (None,))
    n_keyframes = len(keyframe_ids)
    quaternions = file.take("keyframe_quaternions", "f", (n_keyframes, 4))
    translations = file.take("keyframe_translations", "f", (n_keyframes, 3))
    norms = np.linalg.norm(quaternions, axis=1)
    directionless = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if len(directionless):  # any other quaternion normalizes to a rotation
        file.fail(f"keyframe {keyframe_ids[directionless[0]]}: quaternion has no direction")
    landmark_ids, cuts, owner = _runs(
        file, "keyframe_landmark_ids", "keyframe_landmark_offsets", n_keyframes, "i"
    )
    unknown = (landmark_ids < 0) | (landmark_ids >= len(positions))
    if unknown.any():
        first = owner[np.flatnonzero(unknown)[0]]
        references = landmark_ids[cuts[first]:cuts[first + 1]]
        bad = references[unknown[cuts[first]:cuts[first + 1]]]
        file.fail(
            f"keyframe {keyframe_ids[first]} references unknown landmark ids {bad[:5].tolist()}"
        )
    distinct, repeats = np.unique(keyframe_ids, return_counts=True)
    if (repeats > 1).any():
        file.fail(f"keyframe {distinct[repeats > 1][0]} appears more than once")
    bows = _bow_rows(file, keyframe_ids, vocab.k)
    try:
        keyframes = [
            Keyframe(
                id=int(keyframe_ids[i]),
                quaternion=quaternions[i],
                translation=translations[i],
                landmark_ids=landmark_ids[cuts[i]:cuts[i + 1]],
                bow=bows[i],
            )
            for i in range(n_keyframes)
        ]
    except MapFormatError as exc:  # a keyframe invariant; the check does not know the file
        file.fail(str(exc))
    return SparseMap(
        positions=positions,
        descriptors=descriptors,
        class_ids=class_ids,
        observation_counts=counts,
        keyframes=keyframes,
        vocabulary=vocab,
        registry=registry,
        version=version,
    )
