"""Flat visual-word vocabulary: seeded k-means clustering plus TF-IDF weights."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from ..errors import InsufficientDataError

DEFAULT_VOCABULARY_K = 256
_MAX_ITERATIONS = 50
_MOVEMENT_TOL = 1e-6
# A row's screen values carry a rounding error below (d + 2) * u * (|x| + max|c|)^2
# (u = 2**-53; the dot-product bound with Cauchy-Schwarz), and cdist's squared
# distances one below (d + 3) * u * (|x| + max|c|)^2. A gap above
# _AMBIGUOUS_REL * (|x| + max|c|)^2 therefore ranks the screen's winner strictly
# first in exact arithmetic and in cdist alike while 4 * (d + 3) * u stays under
# _AMBIGUOUS_REL, that is up to d of about two million (3e-14 at d = 64).
_AMBIGUOUS_REL = 1e-9
# Multiply-adds per block (rows x centroids.size). OpenBLAS hands a product of
# about 1e6 of them to a second thread (1,032,192 was threaded, 983,040 was not,
# on 2 cores); a 341-row block at k = 48 then ran 10 to 40 times slower per
# product than a 170-row one, and whole-array products raised peak RSS by
# 5-10 MB. Half the threshold keeps every block on one thread.
_BLOCK_PRODUCTS = 2**19


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
    """cdist(data, centroids).argmin(axis=1), bit for bit.

    Each block of rows is ranked by the screen |c|^2 - 2 x.c, one matrix
    product per block. A row whose runner-up lies within the _AMBIGUOUS_REL
    margin of its best (ties, duplicate centroids, cancellation at large norms,
    anything not finite) is ranked again by cdist itself, with its lower-index
    tie rule.
    """
    nearest = np.empty(len(data), dtype=np.intp)
    c_squared = np.einsum("ij,ij->i", centroids, centroids)
    scale = np.sqrt(np.einsum("ij,ij->i", data, data)) + np.sqrt(c_squared.max())
    margin = _AMBIGUOUS_REL * scale**2
    scaled = -2.0 * centroids.T  # exact: a power-of-two scale
    rows = max(1, _BLOCK_PRODUCTS // max(1, centroids.size))
    for start in range(0, len(data), rows):
        block = data[start : start + rows]
        screen = block @ scaled
        screen += c_squared
        best = screen.argmin(axis=1)
        limit = screen[np.arange(len(block)), best] + margin[start : start + rows]
        # the best itself is the one entry within the margin, unless ambiguous;
        # a NaN limit admits none, so anything not finite is ambiguous too
        ambiguous = np.count_nonzero(screen <= limit[:, None], axis=1) != 1
        if ambiguous.any():
            best[ambiguous] = cdist(block[ambiguous], centroids).argmin(axis=1)
        nearest[start : start + rows] = best
    return nearest


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding: each new centroid drawn with probability
    proportional to squared distance from the nearest one chosen so far."""
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(len(data))]
    d2 = np.sum((data - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:  # all remaining points coincide with a centroid
            choice = rng.integers(len(data))
        else:
            choice = rng.choice(len(data), p=d2 / total)
        centroids[i] = data[choice]
        d2 = np.minimum(d2, np.sum((data - centroids[i]) ** 2, axis=1))
    return centroids


def _lloyd(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    k = len(centroids)
    for _ in range(_MAX_ITERATIONS):
        assign = _nearest_centroid(data, centroids)
        updated = centroids.copy()
        farthest = None
        for j in range(k):
            members = data[assign == j]
            if len(members):
                updated[j] = members.mean(axis=0)
            else:
                # revive an empty cluster at the point worst served by its own
                # centroid; clusters emptied in the same iteration share that point
                if farthest is None:
                    farthest = int(np.argmax(np.sum((data - centroids[assign]) ** 2, axis=1)))
                updated[j] = data[farthest]
        movement = np.max(np.linalg.norm(updated - centroids, axis=1))
        centroids = updated
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

    n_frames = len(frames)
    document_frequency = np.zeros(k)
    for frame in frames:
        words = np.unique(_nearest_centroid(frame, centroids))
        document_frequency[words] += 1
    idf = np.maximum(np.log(n_frames / (1.0 + document_frequency)), 0.0)
    return Vocabulary(centroids=centroids, idf=idf)


def bow_vector(descriptors: np.ndarray, vocab: Vocabulary) -> dict[int, float]:
    """Sparse L2-normalized tf-idf vector over visual words.

    Empty input — or a frame whose every word has zero idf — gives an empty
    vector; non-empty vectors have unit norm so cosine similarity is a plain
    dot product over shared words.
    """
    descriptors = np.atleast_2d(np.asarray(descriptors, dtype=float))
    if descriptors.shape[0] == 0:
        return {}
    words, counts = np.unique(vocab.quantize(descriptors), return_counts=True)
    tf = counts / counts.sum()
    weights = tf * vocab.idf[words]
    norm = float(np.linalg.norm(weights))
    if norm < 1e-12:
        return {}
    return {
        int(w): float(v / norm) for w, v in zip(words, weights) if v > 0.0
    }


def cosine_similarity(a: dict[int, float], b: dict[int, float]) -> float:
    """Dot product of two unit-normalized sparse vectors, iterated in sorted
    word order so repeated scoring of the same pair is bitwise stable."""
    if len(b) < len(a):
        a, b = b, a
    return sum(a[w] * b[w] for w in sorted(a) if w in b)


def rank_by_similarity(
    query_bow: dict[int, float], frames: Iterable[tuple[int, dict[int, float]]]
) -> list[tuple[int, float]]:
    """(id, score) for each (id, BoW vector) in frames, by descending cosine
    similarity to query_bow; ties break toward the lower id."""
    scored = [(frame_id, cosine_similarity(query_bow, bow)) for frame_id, bow in frames]
    return sorted(scored, key=lambda item: (-item[1], item[0]))
