"""Flat visual-word vocabulary: seeded k-means clustering plus TF-IDF weights."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from ..features.distance import _AMBIGUOUS_REL, nearest_neighbours

DEFAULT_VOCABULARY_K = 256
_MAX_ITERATIONS = 50
_MOVEMENT_TOL = 1e-6


@dataclass
class Vocabulary:
    """k unit-normalized centroid descriptors with per-word idf weights."""

    centroids: np.ndarray  # (k, d)
    idf: np.ndarray  # (k,)

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=float)
        self.idf = np.asarray(self.idf, dtype=float)
        if self.centroids.ndim != 2 or len(self.centroids) < 2:
            raise InsufficientDataError("vocabulary needs at least 2 centroids")
        if self.idf.shape != (len(self.centroids),):
            raise InsufficientDataError("idf length must equal centroid count")
        if (self.idf < 0).any():
            raise InsufficientDataError("idf weights must be non-negative")

    @property
    def k(self) -> int:
        return len(self.centroids)

    def quantize(self, descriptors: np.ndarray) -> np.ndarray:
        """Nearest-centroid word index per descriptor (ties: lower index)."""
        descriptors = np.atleast_2d(np.asarray(descriptors, dtype=float))
        return _nearest_centroid(descriptors, self.centroids)


def _nearest_centroid(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """cdist(data, centroids).argmin(axis=1), bit for bit."""
    return nearest_neighbours(data, centroids, 1)[:, 0]


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding: each new centroid drawn with probability
    proportional to squared distance from the nearest one chosen so far.

    A new centroid c changes a row's distance only where it is nearer, so the
    exact sum of squares is recomputed only there. The screen
    |x|^2 - 2 x.c + |c|^2 errs by far less than _AMBIGUOUS_REL * (|x| + |c|)^2
    (see features.distance), so a row whose screen exceeds its distance by
    more than that keeps its bits; NaN fails the comparison and is recomputed.
    """
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(len(data))]
    d2 = np.sum((data - centroids[0]) ** 2, axis=1)
    # an einsum, not `data @ c`: OpenBLAS hands a gemv this size to a second
    # thread, which stalls whenever the other core is busy
    x_squared = np.einsum("ij,ij->i", data, data)
    x_norm = np.sqrt(x_squared)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:  # all remaining points coincide with a centroid
            choice = rng.integers(len(data))
        else:
            choice = rng.choice(len(data), p=d2 / total)
        c = centroids[i] = data[choice]
        with np.errstate(invalid="ignore", over="ignore"):
            c_squared = np.dot(c, c)
            screen = x_squared - 2.0 * np.einsum("ij,j->i", data, c) + c_squared
            screen -= _AMBIGUOUS_REL * (x_norm + np.sqrt(c_squared)) ** 2
            near = np.flatnonzero(~(screen > d2))
        d2[near] = np.minimum(d2[near], np.sum((data[near] - c) ** 2, axis=1))
    return centroids


def _lloyd(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    k = len(centroids)
    previous = None
    for _ in range(_MAX_ITERATIONS):
        assign = _nearest_centroid(data, centroids)
        # one stable sort groups the rows by cluster, each group in data order,
        # so every mean adds its members as a boolean mask would take them; on
        # the smallest integer type that holds a cluster index it is a radix sort
        order = np.argsort(assign.astype(np.min_scalar_type(k - 1)), kind="stable")
        sizes = np.bincount(assign, minlength=k)
        ends = np.cumsum(sizes)
        # a cluster that kept its members adds the same rows in the same order,
        # so its mean is its centroid, bit for bit; an empty one is revived
        # from the current centroids, so it is always redone
        stale = sizes == 0
        if previous is None:
            stale[:] = True
        else:
            moved = assign != previous
            stale[assign[moved]] = True
            stale[previous[moved]] = True
        updated = centroids.copy()
        farthest = None
        for j in np.flatnonzero(stale):
            if sizes[j]:
                updated[j] = data[order[ends[j] - sizes[j] : ends[j]]].mean(axis=0)
            else:
                # revive an empty cluster at the point worst served by its own
                # centroid; clusters emptied in the same iteration share that point
                if farthest is None:
                    farthest = int(np.argmax(np.sum((data - centroids[assign]) ** 2, axis=1)))
                updated[j] = data[farthest]
        movement = np.max(np.linalg.norm(updated - centroids, axis=1))
        centroids = updated
        previous = assign
        if movement < _MOVEMENT_TOL:
            break
    return centroids


def build_vocabulary(
    frame_descriptors: Sequence[np.ndarray], k: int, seed: int = 0
) -> Vocabulary:
    """Cluster all frames' descriptors into k words; idf is computed over the
    training frames as ln(frames / (1 + frames containing the word)), clamped
    at zero so ubiquitous words are simply ignored.
    """
    frames = [np.atleast_2d(np.asarray(d, dtype=float)) for d in frame_descriptors]
    frames = [f for f in frames if f.shape[0] > 0]
    if not frames:
        raise InsufficientDataError("no training descriptors")
    data = np.vstack(frames)
    if k < 2:
        raise InsufficientDataError("vocabulary needs k >= 2")
    if len(data) < k:
        raise InsufficientDataError(
            f"need at least k={k} training descriptors, got {len(data)}"
        )

    rng = np.random.default_rng(seed)
    centroids = _lloyd(data, _kmeans_pp_init(data, k, rng))
    norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    centroids = centroids / norms

    # one quantization of all the rows; the search is exact per row, so each
    # frame gets the words it would get alone
    words = np.split(_nearest_centroid(data, centroids), np.cumsum([len(f) for f in frames])[:-1])
    document_frequency = np.zeros(k)
    for frame_words in words:
        document_frequency[np.unique(frame_words)] += 1
    idf = np.maximum(np.log(len(frames) / (1.0 + document_frequency)), 0.0)
    return Vocabulary(centroids=centroids, idf=idf)


def bow_vector(descriptors: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    """Dense (k,) L2-normalized tf-idf vector over visual words.

    Empty input — or a frame whose every word has zero idf — gives the zero
    vector; other vectors have unit norm, taken over the frame's own words, so
    cosine similarity is a plain dot product.
    """
    return bow_vectors([descriptors], vocab)[0]


def bow_vectors(frame_descriptors: Sequence[np.ndarray], vocab: Vocabulary) -> np.ndarray:
    """bow_vector of each frame, (frames, k), from one quantization of all
    the frames' descriptors; the nearest-centroid search is exact per row, so
    each row is the one its frame gets alone."""
    frames = [np.atleast_2d(np.asarray(d, dtype=float)) for d in frame_descriptors]
    bows = np.zeros((len(frames), vocab.k))
    sizes = [f.shape[0] for f in frames]
    if not sum(sizes):
        return bows
    stacked = np.vstack([f for f in frames if f.shape[0]])
    words = np.split(vocab.quantize(stacked), np.cumsum(sizes)[:-1])
    for bow, frame_words in zip(bows, words):
        if not len(frame_words):
            continue
        present, counts = np.unique(frame_words, return_counts=True)
        tf = counts / counts.sum()
        weights = tf * vocab.idf[present]
        norm = float(np.linalg.norm(weights))
        if norm >= 1e-12:
            bow[present] = weights / norm
    return bows


def rank_by_similarity(
    query_bow: np.ndarray, frames: Sequence[tuple[int, np.ndarray]]
) -> list[tuple[int, float]]:
    """(id, score) for each (id, dense BoW vector) in frames, by descending
    cosine similarity to query_bow; ties break toward the lower id. A running
    sum adds each frame's products in word order, as a sum over the words two
    sparse vectors share would; np.add.reduce may add pairwise."""
    if not frames:
        return []
    ids = [frame_id for frame_id, _ in frames]
    products = np.array([bow for _, bow in frames]) * query_bow
    scores = np.cumsum(products, axis=1)[:, -1]
    return [(ids[i], float(scores[i])) for i in np.lexsort((ids, -scores))]
