"""Exact nearest-neighbor descriptor matching with Lowe's ratio test."""

from __future__ import annotations

import numpy as np

from .distance import euclidean, nearest_neighbours

DEFAULT_RATIO = 0.7

# One row per match: `query_index` and `train_index` are rows of the matched
# arrays (for 2d-3d matches `train_index` is the map landmark row), `ratio`
# is d(best) / d(second best).
MATCH_DTYPE = np.dtype([("query_index", int), ("train_index", int), ("ratio", float)])


def match_record(query_index=(), train_index=(), ratio=()) -> np.recarray:
    """Row-aligned index and ratio arrays as one match record array."""
    return np.rec.fromarrays([query_index, train_index, ratio], dtype=MATCH_DTYPE)


def knn_ratio_match(
    query: np.ndarray, train: np.ndarray, ratio: float = DEFAULT_RATIO
) -> np.recarray:
    """One match per query descriptor passing the strict ratio test.

    A match is emitted iff d(best) / d(second best) < ratio; with fewer than
    two train descriptors no match can pass, and neither can a query whose
    two nearest neighbours coincide with it.  Distances are Euclidean, with
    the bits of scipy's cdist; a screened search finds each query's two
    nearest neighbours (`distance.nearest_neighbours`) and only their
    distances are computed.  Matches come in query order.
    """
    query = np.asarray(query, dtype=float)
    train = np.asarray(train, dtype=float)
    if query.shape[0] == 0 or train.shape[0] < 2:
        return match_record()

    nearest = nearest_neighbours(query, train, 2)
    best = nearest[:, 0]  # the lower index on a tie, as a stable sort puts first
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the second nearest counts a tied best twice
        d1, d2 = euclidean(query[:, None, :], train[nearest]).T
        r = d1 / d2
    rows = np.arange(len(query))
    keep = (d2 > 0.0) & (r < ratio)  # d2 == 0: identical duplicates, fully ambiguous
    return match_record(rows[keep], best[keep], r[keep])
