"""Exact nearest-neighbour descriptor matching with the ratio test."""

import numpy as np

from semloc.features import knn_ratio_match


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
