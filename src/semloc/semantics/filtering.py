"""Class-aware descriptor matching and match filtering."""

from __future__ import annotations

import numpy as np

from ..features.match import DEFAULT_RATIO, knn_ratio_match, match_record
from .classes import UNLABELED


def match_per_class(
    query_descriptors: np.ndarray,
    query_labels: np.ndarray,
    train_descriptors: np.ndarray,
    train_labels: np.ndarray,
    ratio: float = DEFAULT_RATIO,
) -> np.recarray:
    """Run the ratio-test matcher independently inside each class.

    Unlabelled descriptors on either side never participate.  The ratio
    test's second-nearest neighbour therefore comes from the same class,
    which keeps repeated structure in *other* classes from suppressing a
    valid match.  Returned indices refer to the original arrays; results
    are sorted by query index, then train index.
    """
    query_descriptors = np.asarray(query_descriptors, dtype=float)
    train_descriptors = np.asarray(train_descriptors, dtype=float)
    query_labels = np.asarray(query_labels, dtype=int)
    train_labels = np.asarray(train_labels, dtype=int)
    if len(query_labels) != len(query_descriptors):
        raise ValueError("query labels and descriptors disagree in length")
    if len(train_labels) != len(train_descriptors):
        raise ValueError("train labels and descriptors disagree in length")

    query_index, train_index, ratios = [], [], []
    for class_id in np.intersect1d(query_labels, train_labels):
        if class_id == UNLABELED:
            continue
        q_idx = np.flatnonzero(query_labels == class_id)
        t_idx = np.flatnonzero(train_labels == class_id)
        matches = knn_ratio_match(query_descriptors[q_idx], train_descriptors[t_idx], ratio)
        query_index.append(q_idx[matches.query_index])
        train_index.append(t_idx[matches.train_index])
        ratios.append(matches.ratio)
    if not ratios:
        return match_record()
    query_index, train_index = np.concatenate(query_index), np.concatenate(train_index)
    order = np.lexsort((train_index, query_index))
    return match_record(query_index[order], train_index[order], np.concatenate(ratios)[order])


def filter_matches_by_class(
    matches: np.recarray, query_labels: np.ndarray, train_labels: np.ndarray
) -> np.recarray:
    """Keep only matches whose two endpoints are both labelled and agree.

    Order-preserving and idempotent; the output is always a subset of the
    input.
    """
    ql = np.asarray(query_labels, dtype=int)[matches.query_index]
    tl = np.asarray(train_labels, dtype=int)[matches.train_index]
    return matches[(ql != UNLABELED) & (ql == tl)]
