"""Exact nearest-neighbour descriptor matching with the ratio test."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from semloc.features import knn_ratio_match, match_record


def test_knn_ratio_match_against_bruteforce_oracle():
    rng = np.random.default_rng(77)
    query = rng.normal(size=(40, 64))
    train = rng.normal(size=(60, 64))
    query /= np.linalg.norm(query, axis=1, keepdims=True)
    train /= np.linalg.norm(train, axis=1, keepdims=True)

    matches = knn_ratio_match(query, train, ratio=0.9)
    got = {(m.query_index, m.train_index) for m in matches}

    expected = set()
    for qi in range(len(query)):
        dists = [float(np.linalg.norm(query[qi] - t)) for t in train]
        order = sorted(range(len(train)), key=lambda j: dists[j])
        if dists[order[0]] / dists[order[1]] < 0.9:
            expected.add((qi, order[0]))
    assert got == expected
    for m in matches:
        assert m.ratio < 0.9


def test_knn_ratio_strictness_at_boundary():
    # second neighbor at exactly d1/0.7 distance: ratio == 0.7 must fail
    query = np.array([[1.0, 0.0]])
    train = np.array([[1.0 + 0.07, 0.0], [1.0 + 0.1, 0.0]])
    # d1 = 0.07, d2 = 0.1, ratio exactly 0.7
    assert len(knn_ratio_match(query, train, ratio=0.7)) == 0
    assert len(knn_ratio_match(query, train, ratio=0.7 + 1e-9)) == 1


def test_knn_ratio_needs_two_train():
    query = np.array([[1.0, 0.0]])
    assert len(knn_ratio_match(query, np.array([[1.0, 0.0]]))) == 0
    assert len(knn_ratio_match(np.empty((0, 2)), np.zeros((5, 2)))) == 0


def _reference_knn_ratio_match(query, train, ratio=0.7):
    """The ratio-test matcher over a full stable sort of each distance row."""
    query = np.asarray(query, dtype=float)
    train = np.asarray(train, dtype=float)
    if query.shape[0] == 0 or train.shape[0] < 2:
        return match_record()
    dist = cdist(query, train)
    order = np.argsort(dist, axis=1, kind="stable")
    rows = np.arange(len(query))
    d1 = dist[rows, order[:, 0]]
    d2 = dist[rows, order[:, 1]]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = d1 / d2
    keep = (d2 > 0.0) & (r < ratio)
    return match_record(rows[keep], order[keep, 0], r[keep])


def _assert_same_record(query, train, ratio):
    got = knn_ratio_match(query, train, ratio)
    expected = _reference_knn_ratio_match(query, train, ratio)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("ratio", [0.7, 1.0, 1.5])
def test_knn_ratio_match_equals_the_sorting_reference(ratio):
    rng = np.random.default_rng(12)
    # integer grid points: many exactly tied best and second distances
    query = rng.integers(-2, 3, size=(300, 3)).astype(float)
    train = rng.integers(-2, 3, size=(90, 3)).astype(float)
    _assert_same_record(query, train, ratio)
    # a best distance tied between two train rows, which only a ratio above 1 keeps
    tied = np.array([[0.0, 0.0]])
    pair = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
    _assert_same_record(tied, pair, ratio)
    # d2 == 0: the query sits on two identical train rows
    duplicates = np.array([[5.0, 5.0], [1.0, 1.0], [1.0, 1.0]])
    _assert_same_record(np.array([[1.0, 1.0], [4.0, 5.0]]), duplicates, ratio)
    # a two-row train set
    _assert_same_record(rng.normal(size=(40, 8)), rng.normal(size=(2, 8)), ratio)
    _assert_same_record(rng.normal(size=(200, 64)), rng.normal(size=(150, 64)), ratio)


def test_knn_ratio_match_tie_keeps_the_lower_train_index():
    matches = knn_ratio_match(np.zeros((1, 2)), np.array([[3.0, 3.0], [0.0, 1.0], [1.0, 0.0]]), 1.5)
    assert matches.train_index.tolist() == [1]
    assert matches.ratio.tolist() == [1.0]
