"""Exact nearest-neighbour descriptor matching with the ratio test, and the
numpy distance kernel under it, against scipy's cdist."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from semloc.features import knn_ratio_match, match_record
from semloc.features.distance import euclidean, nearest_neighbours


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


def test_euclidean_has_the_bits_of_cdist():
    rng = np.random.default_rng(3)
    for dim in range(1, 129):
        for scale in (1e-6, 1.0, 1e6):
            query = scale * rng.normal(size=(9, dim))
            train = scale * rng.normal(size=(7, dim))
            train[:3] = query[:3] + 1e-9 * scale * rng.normal(size=(3, dim))  # near-duplicates
            train[3] = query[3]
            expected = cdist(query, train)
            assert euclidean(query[:, None, :], train[None, :, :]).tobytes() == expected.tobytes()
            pairs = rng.integers(len(train), size=(len(query), 2))
            got = euclidean(query[:, None, :], train[pairs])
            assert got.tobytes() == expected[np.arange(len(query))[:, None], pairs].tobytes()
    query = rng.normal(size=(4, 5))
    train = rng.normal(size=(3, 5))
    query[1, 2] = np.inf
    train[1, 0] = np.nan
    train[2, 2] = np.inf
    with np.errstate(invalid="ignore"):
        got = euclidean(query[:, None, :], train[None, :, :])
    np.testing.assert_array_equal(got, cdist(query, train))


def _cdist_two_nearest(query, train):
    """The first two columns of each cdist row sorted by distance, then by
    index, with NaN first, as np.argmin puts it."""
    dist = cdist(query, train)
    columns = np.broadcast_to(np.arange(len(train)), dist.shape)
    order = np.lexsort((columns, np.nan_to_num(dist), ~np.isnan(dist)), axis=1)
    return order[:, :2]


def _cdist_knn_ratio_match(query, train, ratio):
    """The ratio-test matcher over the whole cdist matrix with argmin and min."""
    dist = cdist(query, train)
    rows = np.arange(len(query))
    best = dist.argmin(axis=1)
    d1 = dist[rows, best]
    dist[rows, best] = np.inf
    d2 = dist.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = d1 / d2
    keep = (d2 > 0.0) & (r < ratio)
    return match_record(rows[keep], best[keep], r[keep])


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 90),  # a screen block holds 32 rows at 256 x 64
    train_rows=st.sampled_from([2, 3, 7, 48, 256]),
    dim=st.sampled_from([1, 2, 3, 16, 64]),
    offset=st.sampled_from([0.0, 1e3]),
    grid=st.booleans(),
    duplicates=st.booleans(),
    on_train=st.booleans(),
    midpoints=st.booleans(),
    non_finite=st.sampled_from([None, np.inf, -np.inf, np.nan]),
)
@settings(max_examples=200, deadline=None)
def test_two_nearest_equals_cdist(
    seed, rows, train_rows, dim, offset, grid, duplicates, on_train, midpoints, non_finite
):
    rng = np.random.default_rng(seed)
    if grid:  # small integers: exact ties between best, second and third
        train = offset + rng.integers(-2, 3, size=(train_rows, dim)).astype(float)
        query = offset + rng.integers(-2, 3, size=(rows, dim)).astype(float)
    else:
        train = offset + rng.normal(size=(train_rows, dim))
        query = offset + rng.normal(size=(rows, dim))
    if duplicates:
        copies = rng.integers(train_rows, size=(train_rows // 2 + 1, 2))
        train[copies[:, 0]] = train[copies[:, 1]]
    if on_train and rows:  # d1 == 0, and d2 == 0 where that train row has a duplicate
        query[: rows // 3 + 1] = train[rng.integers(train_rows, size=rows // 3 + 1)]
    if midpoints and rows:  # best and second tied up to rounding
        pairs = rng.integers(train_rows, size=(rows // 2 + 1, 2))
        query[-len(pairs) :] = (train[pairs[:, 0]] + train[pairs[:, 1]]) / 2
    if non_finite is not None and rows:
        query[rng.integers(rows, size=2), rng.integers(dim, size=2)] = non_finite
        if seed % 2:
            train[rng.integers(train_rows), rng.integers(dim)] = non_finite
    with np.errstate(invalid="ignore"):
        expected = _cdist_two_nearest(query, train)
        reference = _cdist_knn_ratio_match(query, train, 0.8)
    got = nearest_neighbours(query, train, 2)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert knn_ratio_match(query, train, 0.8).tobytes() == reference.tobytes()
