"""Vocabulary, retrieval, map building, and map serialization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from semloc.errors import DegenerateGeometryError, InsufficientDataError, MapFormatError
from semloc.features import DEFAULT_RATIO, knn_ratio_match
from semloc.geometry import (
    CameraIntrinsics,
    Pose,
    project,
    project_points,
    rotation_from_quaternion,
    triangulate_two_view,
)
from semloc.mapping import (
    MAP_FORMAT_VERSION,
    Keyframe,
    MapBuildConfig,
    MapFrameInput,
    SparseMap,
    Vocabulary,
    bow_vector,
    build_map,
    build_vocabulary,
    load_map,
    query_candidates,
    rank_by_similarity,
    save_map,
)
from semloc.mapping.build import (
    _MAX_REPROJECTION_PX,
    _RETRIEVED_PAIRS,
    _VOCABULARY_SEED,
    _select_pairs,
)
from semloc.mapping import vocabulary
from semloc.mapping.vocabulary import _kmeans_pp_init, _lloyd, _nearest_centroid
from semloc.pipelines import most_similar
from semloc.semantics import (
    UNLABELED,
    BoundingBox,
    ClassRegistry,
    DetectionSet,
    FeatureObservation,
    extract_frame_features,
    match_per_class,
)

from conftest import (
    dense_bow,
    reference_bow_vector,
    reference_cosine_similarity,
    sparse_bow,
)

REGISTRY = ClassRegistry.default()


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _random_unit(rng, n, d=16):
    return _unit_rows(rng.normal(size=(n, d)))


# --------------------------------------------------------------------------
# vocabulary


def test_two_separated_clusters_recover_cluster_means():
    rng = np.random.default_rng(0)
    anchor_a = np.zeros(16)
    anchor_a[0] = 1.0
    anchor_b = np.zeros(16)
    anchor_b[8] = 1.0
    cluster_a = _unit_rows(anchor_a + rng.normal(scale=1e-3, size=(40, 16)))
    cluster_b = _unit_rows(anchor_b + rng.normal(scale=1e-3, size=(40, 16)))

    vocab = build_vocabulary([cluster_a, cluster_b], k=2, seed=1)

    # oracle: closed-form means of the generated clusters, unit-normalized
    expected = [m / np.linalg.norm(m) for m in (cluster_a.mean(axis=0), cluster_b.mean(axis=0))]
    for mean in expected:
        gap = min(np.linalg.norm(c - mean) for c in vocab.centroids)
        assert gap < 1e-6


def test_k_equal_to_training_size_gives_zero_quantization_error():
    rng = np.random.default_rng(1)
    data = _random_unit(rng, 12)
    vocab = build_vocabulary([data], k=12, seed=0)
    words = vocab.quantize(data)
    assert len(set(words.tolist())) == 12  # each descriptor its own word
    errors = np.linalg.norm(data - vocab.centroids[words], axis=1)
    assert errors.max() < 1e-12


def test_vocabulary_build_is_deterministic():
    rng = np.random.default_rng(2)
    frames = [_random_unit(rng, 30), _random_unit(rng, 25)]
    a = build_vocabulary(frames, k=8, seed=7)
    b = build_vocabulary(frames, k=8, seed=7)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.idf, b.idf)


def test_vocabulary_requires_enough_descriptors():
    rng = np.random.default_rng(3)
    with pytest.raises(InsufficientDataError, match="at least k"):
        build_vocabulary([_random_unit(rng, 5)], k=10)
    with pytest.raises(InsufficientDataError):
        build_vocabulary([], k=2)


def test_idf_rare_word_weighted_ubiquitous_word_zeroed():
    rng = np.random.default_rng(4)
    shared = np.zeros(16)
    shared[0] = 1.0
    rare = np.zeros(16)
    rare[8] = 1.0
    frames = [
        np.vstack([_unit_rows(shared + rng.normal(scale=1e-3, size=(10, 16))),
                   _unit_rows(rare + rng.normal(scale=1e-3, size=(10, 16)))]),
        _unit_rows(shared + rng.normal(scale=1e-3, size=(10, 16))),
        _unit_rows(shared + rng.normal(scale=1e-3, size=(10, 16))),
    ]
    vocab = build_vocabulary(frames, k=2, seed=0)
    rare_word = int(vocab.quantize(rare[None, :])[0])
    shared_word = 1 - rare_word
    assert vocab.idf[shared_word] == 0.0  # ln(3/4) clamped
    assert abs(vocab.idf[rare_word] - math.log(3 / 2)) < 1e-9
    assert (vocab.idf >= 0).all()


def _assert_nearest_centroid_is_cdist_argmin(data, centroids):
    expected = cdist(data, centroids).argmin(axis=1)
    got = _nearest_centroid(data, centroids)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 40),
    k=st.sampled_from([2, 3, 7, 48, 256]),
    dim=st.sampled_from([1, 2, 3, 16, 64]),
    offset=st.sampled_from([0.0, 1e3]),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 37.0]),
    duplicates=st.booleans(),
    midpoints=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_nearest_centroid_equals_cdist_argmin(
    seed, rows, k, dim, offset, scale, duplicates, midpoints
):
    rng = np.random.default_rng(seed)
    centroids = offset + scale * rng.normal(size=(k, dim))
    if duplicates:
        copies = rng.integers(k, size=(k // 2 + 1, 2))
        centroids[copies[:, 0]] = centroids[copies[:, 1]]
    data = offset + scale * rng.normal(size=(rows, dim))
    if midpoints and rows:
        pairs = rng.integers(k, size=(rows // 2 + 1, 2))
        middle = (centroids[pairs[:, 0]] + centroids[pairs[:, 1]]) / 2
        data[: len(middle)] = middle[:rows]
        data[-1] = centroids[pairs[0, 0]]  # a point on a centroid
    _assert_nearest_centroid_is_cdist_argmin(data, centroids)


def test_nearest_centroid_seeded_sweep_crosses_blocks_and_rescues_the_screen():
    rng = np.random.default_rng(11)
    screen_misses = 0
    for k, dim, rows in ((2, 64, 0), (2, 64, 1), (48, 64, 1000), (256, 64, 300), (256, 3, 500)):
        for offset, scale in ((0.0, 1.0), (1e3, 1e-6)):
            centroids = offset + rng.normal(scale=scale, size=(k, dim))
            centroids[k // 2] = centroids[0]
            data = offset + rng.normal(scale=scale, size=(rows, dim))
            _assert_nearest_centroid_is_cdist_argmin(data, centroids)
            screen = (centroids**2).sum(axis=1) - 2.0 * data @ centroids.T
            screen_misses += np.count_nonzero(
                screen.argmin(axis=1) != cdist(data, centroids).argmin(axis=1)
            )
    # at a 1e3 offset the matrix-product form cancels so badly that its argmin
    # is wrong on some rows; only the cdist fallback gets them right
    assert screen_misses > 0


def test_quantize_takes_zero_and_one_rows():
    vocab = _toy_vocabulary()
    assert vocab.quantize(np.empty((0, 8))).shape == (0,)
    assert vocab.quantize(np.eye(8)[2]).tolist() == [2]


def _reference_lloyd(data, centroids):
    """The Lloyd iteration with cdist assignment and a revive per empty cluster."""
    k = len(centroids)
    for _ in range(50):
        assign = cdist(data, centroids).argmin(axis=1)
        updated = centroids.copy()
        for j in range(k):
            members = data[assign == j]
            if len(members):
                updated[j] = members.mean(axis=0)
            else:
                farthest = int(np.argmax(np.sum((data - centroids[assign]) ** 2, axis=1)))
                updated[j] = data[farthest]
        movement = np.max(np.linalg.norm(updated - centroids, axis=1))
        centroids = updated
        if movement < 1e-6:
            break
    return centroids


def _reference_kmeans_pp_init(data, k, rng):
    """The k-means++ seeding with one full pass of exact distances per centroid."""
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(len(data))]
    d2 = np.sum((data - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            choice = rng.integers(len(data))
        else:
            choice = rng.choice(len(data), p=d2 / total)
        centroids[i] = data[choice]
        d2 = np.minimum(d2, np.sum((data - centroids[i]) ** 2, axis=1))
    return centroids


def _reference_vocabulary(frames, k, seed):
    data = np.vstack(frames)
    seeds = _reference_kmeans_pp_init(data, k, np.random.default_rng(seed))
    centroids = _reference_lloyd(data, seeds)
    norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    centroids = centroids / norms
    document_frequency = np.zeros(k)
    for frame in frames:
        document_frequency[np.unique(cdist(frame, centroids).argmin(axis=1))] += 1
    idf = np.maximum(np.log(len(frames) / (1.0 + document_frequency)), 0.0)
    return centroids, idf


def _seeding_outcome(seeding, data, k, seed):
    """(centroids, the generator's next draw), or the error the seeding raised."""
    rng = np.random.default_rng(seed)
    try:
        centroids = seeding(data, k, rng)
    except ValueError as error:
        return None, (type(error), str(error))
    return centroids, rng.random()


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    k_fraction=st.floats(0.0, 1.0),
    dim=st.sampled_from([1, 2, 3, 16, 64]),
    offset=st.sampled_from([0.0, 1e3]),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 37.0]),
    layout=st.sampled_from(["distinct", "duplicates", "coincident", "nan"]),
)
@example(seed=1, rows=12, k_fraction=1.0, dim=16, offset=0.0, scale=1.0, layout="distinct")
@example(seed=2, rows=20, k_fraction=0.5, dim=64, offset=1e3, scale=1e-3, layout="distinct")
@example(seed=3, rows=9, k_fraction=0.6, dim=3, offset=0.0, scale=1.0, layout="coincident")
@example(seed=4, rows=30, k_fraction=0.9, dim=16, offset=0.0, scale=37.0, layout="duplicates")
@example(seed=5, rows=10, k_fraction=0.5, dim=2, offset=0.0, scale=1.0, layout="nan")
@settings(max_examples=150, deadline=None)
def test_seeding_and_lloyd_equal_the_full_pass_reference(
    seed, rows, k_fraction, dim, offset, scale, layout
):
    """The screened k-means++ seeding gives the full-pass loop's centroids and
    leaves the generator where it does, or raises its error; Lloyd from those
    seeds, recomputing only the clusters whose members changed, gives the
    reference's centroids."""
    rng = np.random.default_rng(seed)
    data = offset + scale * rng.normal(size=(rows, dim))
    if layout == "duplicates":
        copies = rng.integers(rows, size=(rows // 2 + 1, 2))
        data[copies[:, 0]] = data[copies[:, 1]]
    elif layout == "coincident":  # every d2 reaches 0: the total <= 0 draw
        data[:] = data[0]
    elif layout == "nan":
        data[rng.integers(rows)] = np.nan
    k = max(1, round(k_fraction * rows))
    centroids, after = _seeding_outcome(_kmeans_pp_init, data, k, seed)
    expected, expected_after = _seeding_outcome(_reference_kmeans_pp_init, data, k, seed)
    assert after == expected_after
    if expected is None:
        assert centroids is None
        return
    assert centroids.tobytes() == expected.tobytes()
    if layout != "nan" and k >= 2:
        assert _lloyd(data, centroids).tobytes() == _reference_lloyd(data, expected).tobytes()


def test_document_frequency_quantizes_all_frames_in_one_call(monkeypatch):
    rng = np.random.default_rng(6)
    frames = [_random_unit(rng, 20) for _ in range(10)]
    calls = []

    def counted(data, centroids):
        calls.append(len(data))
        return _nearest_centroid(data, centroids)

    monkeypatch.setattr(vocabulary, "_lloyd", lambda data, centroids: centroids)
    monkeypatch.setattr(vocabulary, "_nearest_centroid", counted)
    for count in (1, 3, 10):
        calls.clear()
        build_vocabulary(frames[:count] + [np.empty((0, 16))], k=8, seed=0)
        assert calls == [20 * count]


def _observed_descriptor_frames(rng, landmarks, frames, per_frame, dim=64):
    """Noisy unit observations of a fixed set of unit landmark descriptors."""
    anchors = _random_unit(rng, landmarks, dim)
    return [
        _unit_rows(
            anchors[rng.choice(landmarks, size=per_frame, replace=False)]
            + rng.normal(scale=0.05, size=(per_frame, dim))
        )
        for _ in range(frames)
    ]


@pytest.mark.parametrize(
    "landmarks, frames, per_frame, k",
    [(700, 72, 140, 48), (400, 30, 130, 256)],
    ids=["dense-map-size-k48", "k256"],
)
def test_build_vocabulary_equals_the_cdist_reference(landmarks, frames, per_frame, k):
    rng = np.random.default_rng(landmarks + k)
    frame_descriptors = _observed_descriptor_frames(rng, landmarks, frames, per_frame)
    vocab = build_vocabulary(frame_descriptors, k, seed=3)
    centroids, idf = _reference_vocabulary(frame_descriptors, k, seed=3)
    assert vocab.centroids.tobytes() == centroids.tobytes()
    assert vocab.idf.tobytes() == idf.tobytes()


def test_empty_clusters_revive_as_the_reference_does():
    # 30 distinct points, each five times, for 40 clusters: seeding repeats
    # points, the repeats' clusters empty, and every cluster emptied in one
    # iteration is revived at the same farthest point
    rng = np.random.default_rng(5)
    points = np.repeat(_random_unit(rng, 30, 8), 5, axis=0)
    frames = np.split(rng.permutation(points), 3)
    vocab = build_vocabulary(frames, 40, seed=2)
    centroids, idf = _reference_vocabulary(frames, 40, seed=2)
    assert vocab.centroids.tobytes() == centroids.tobytes()
    assert vocab.idf.tobytes() == idf.tobytes()
    assert len(np.unique(vocab.centroids, axis=0)) < 40


def _toy_vocabulary(k=4, d=8):
    centroids = np.zeros((k, d))
    for i in range(k):
        centroids[i, i] = 1.0
    return Vocabulary(centroids=centroids, idf=np.ones(k))


def test_bow_single_word_frame():
    vocab = _toy_vocabulary()
    rng = np.random.default_rng(5)
    descriptors = _unit_rows(
        np.eye(8)[3] + rng.normal(scale=1e-2, size=(6, 8))
    )
    vec = bow_vector(descriptors, vocab)
    assert vec.shape == (4,)
    assert np.flatnonzero(vec).tolist() == [3]
    assert abs(vec[3] - 1.0) < 1e-12


def test_bow_empty_frame_and_self_similarity():
    vocab = _toy_vocabulary()
    assert bow_vector(np.zeros((0, 8)), vocab).tobytes() == np.zeros(4).tobytes()
    rng = np.random.default_rng(6)
    vec = bow_vector(_random_unit(rng, 20, 8), vocab)
    assert abs(rank_by_similarity(vec, [(0, vec)])[0][1] - 1.0) < 1e-9


def test_bow_all_zero_idf_gives_empty_vector():
    vocab = Vocabulary(centroids=np.eye(4), idf=np.zeros(4))
    rng = np.random.default_rng(7)
    assert bow_vector(_random_unit(rng, 5, 4), vocab).tobytes() == np.zeros(4).tobytes()


@given(
    idf=st.lists(
        st.sampled_from([0.0, 0.5, 1.25]) | st.floats(0.01, 3.0), min_size=2, max_size=24
    ),
    frames=st.lists(st.lists(st.integers(0, 23), max_size=14), min_size=1, max_size=10),
    query=st.lists(st.integers(0, 23), max_size=14),
    copies=st.integers(0, 3),
    order=st.randoms(use_true_random=False),
)
@example(idf=[1.0, 1.0, 1.0, 1.0], frames=[[0, 1], [2], [3, 3]], query=[], copies=1, order=None)
@example(  # a query that shares no word with any frame
    idf=[1.0, 1.0, 1.0, 1.0], frames=[[0, 1], [2]], query=[3], copies=2, order=None
)
@example(  # a zero-idf word (0) in the query and in every frame
    idf=[0.0, 1.0, 1.0, 0.5],
    frames=[[0, 0, 1], [0], [3, 1]],
    query=[0, 1, 3],
    copies=1,
    order=None,
)
@example(  # one frame: a reduction over the word axis would add pairwise
    idf=[2.0, 0.0, 0.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0],
    frames=[[0, 13, 14]],
    query=[0, 13, 23],
    copies=0,
    order=None,
)
@example(  # a norm over all k entries, zeros included, rounds differently here
    idf=[0.5, 1.25, 2.0, 0.5, 1.25, 0.0, 0.5, 2.0, 0.5, 1.25, 0.5, 0.0]
    + [0.5, 1.25, 0.5, 2.0, 0.5, 1.25, 2.0, 2.0, 0.5, 0.0, 1.25, 1.25],
    frames=[[11, 8, 1, 10, 15, 18, 20, 5, 14, 19, 6, 8, 20]],
    query=[1],
    copies=0,
    order=None,
)
@settings(max_examples=300, deadline=None)
def test_dense_bow_and_ranking_equal_the_sparse_reference(idf, frames, query, copies, order):
    """bow_vector's row holds the sparse reference's weights byte for byte,
    and rank_by_similarity gives the reference's scores, to the byte, in the
    reference's order: repeated frames tie exactly and go to the lower id,
    disjoint frames and an empty query score +0.0, zero-idf words add nothing.
    """
    k = len(idf)
    vocab = Vocabulary(centroids=np.eye(k), idf=np.array(idf))

    def descriptors(words):  # each word's own centroid quantizes to it
        return np.eye(k)[[w % k for w in words]].reshape(-1, k)

    frames = frames + frames[:copies]
    ids = list(range(len(frames)))
    if order is not None:
        order.shuffle(ids)
    rows = [bow_vector(descriptors(words), vocab) for words in frames]
    for words, row in zip(frames, rows):
        expected = dense_bow(reference_bow_vector(descriptors(words), vocab), k)
        assert row.tobytes() == expected.tobytes()

    query_row = bow_vector(descriptors(query), vocab)
    ranked = rank_by_similarity(query_row, list(zip(ids, rows)))
    reference = sorted(
        (
            (frame_id, reference_cosine_similarity(sparse_bow(query_row), sparse_bow(row)))
            for frame_id, row in zip(ids, rows)
        ),
        key=lambda item: (-item[1], item[0]),
    )
    assert [frame_id for frame_id, _ in ranked] == [frame_id for frame_id, _ in reference]
    assert np.array([s for _, s in ranked]).tobytes() == (
        np.array([float(s) for _, s in reference]).tobytes()
    )


# --------------------------------------------------------------------------
# retrieval


def _keyframe(kf_id, bow):
    return Keyframe(
        id=kf_id,
        quaternion=np.array([1.0, 0.0, 0.0, 0.0]),
        translation=np.zeros(3),
        landmark_ids=[],
        bow=bow,
    )


def _map_with_keyframes(keyframes, k=32):
    rng = np.random.default_rng(99)
    vocab = Vocabulary(centroids=_random_unit(rng, k, 8), idf=np.ones(k))
    return SparseMap(
        positions=np.empty((0, 3)),
        descriptors=np.empty((0, 8)),
        class_ids=np.empty(0, dtype=int),
        observation_counts=np.empty(0, dtype=int),
        keyframes=keyframes,
        vocabulary=vocab,
        registry=REGISTRY,
    )


def _random_bow(rng, k, size):
    words = rng.choice(k, size=size, replace=False)
    weights = np.abs(rng.normal(size=size)) + 1e-3
    weights = weights / np.linalg.norm(weights)
    return dense_bow({int(w): float(v) for w, v in zip(words, weights)}, k)


def _exhaustive_ranking(sparse_map, query, n):
    scores = []
    query = sparse_bow(query)
    for kf in sparse_map.keyframes:
        bow = sparse_bow(kf.bow)
        s = 0.0
        for word in sorted(query):
            if word in bow:
                s += query[word] * bow[word]
        scores.append((kf.id, s))
    scores.sort(key=lambda item: (-item[1], item[0]))
    return [kf_id for kf_id, _ in scores[:n]]


def test_query_own_bow_ranks_self_first():
    rng = np.random.default_rng(8)
    keyframes = [_keyframe(i, _random_bow(rng, 32, 5)) for i in range(10)]
    sparse_map = _map_with_keyframes(keyframes)
    result = query_candidates(sparse_map, keyframes[4].bow, n=3)
    assert result[0] == 4
    own = sparse_bow(keyframes[4].bow)
    assert abs(reference_cosine_similarity(own, own) - 1.0) < 1e-12


def test_query_n_larger_than_map_returns_all_ranked():
    rng = np.random.default_rng(9)
    keyframes = [_keyframe(i, _random_bow(rng, 32, 4)) for i in range(6)]
    sparse_map = _map_with_keyframes(keyframes)
    result = query_candidates(sparse_map, keyframes[0].bow, n=100)
    assert sorted(result) == list(range(6))
    assert result == _exhaustive_ranking(sparse_map, keyframes[0].bow, 100)


def test_query_matches_exhaustive_oracle_on_200_keyframes():
    rng = np.random.default_rng(10)
    keyframes = [
        _keyframe(i, _random_bow(rng, 64, int(rng.integers(1, 12)))) for i in range(200)
    ]
    sparse_map = _map_with_keyframes(keyframes, k=64)
    for _ in range(20):
        query = _random_bow(rng, 64, int(rng.integers(1, 12)))
        n = int(rng.integers(1, 20))
        assert query_candidates(sparse_map, query, n) == _exhaustive_ranking(
            sparse_map, query, n
        )


def test_query_empty_bow_and_ties():
    rng = np.random.default_rng(11)
    bow = _random_bow(rng, 32, 5)
    keyframes = [_keyframe(3, bow.copy()), _keyframe(1, bow.copy())]  # identical content
    sparse_map = _map_with_keyframes(keyframes)
    assert query_candidates(sparse_map, np.zeros(32), n=5) == []
    assert query_candidates(sparse_map, bow, n=2) == [1, 3]  # tie -> lower id


def test_every_bow_ranking_breaks_exact_ties_toward_the_lower_id():
    shared = dense_bow({0: 0.6, 1: 0.8}, 10)  # frames 3 and 4 carry it, so they tie exactly
    bows = [dense_bow(bow, 10) for bow in ({0: 1.0}, {9: 1.0}, {7: 1.0})]
    bows += [shared.copy(), shared.copy()]
    bows += [dense_bow(bow, 10) for bow in ({8: 1.0}, {1: 1.0})]
    disjoint = dense_bow({5: 1.0}, 10)  # shares no word with any frame

    ranked = rank_by_similarity(bows[0], [(4, bows[4]), (3, bows[3]), (2, bows[2])])
    assert ranked == [(3, 0.6), (4, 0.6), (2, 0)]

    sparse_map = _map_with_keyframes(
        [_keyframe(i, bow) for i, bow in enumerate(bows)][::-1], k=10
    )
    assert query_candidates(sparse_map, shared, n=3) == [3, 4, 6]
    assert query_candidates(sparse_map, bows[0], n=2) == [0, 3]
    assert query_candidates(sparse_map, disjoint, n=2) == [0, 1]  # all score zero

    frames = [(4, bows[4]), (3, bows[3]), (2, bows[2])]
    assert most_similar(bows[0], frames) == 3
    assert most_similar(disjoint, frames) == 2

    # build_map's retrieved pairs, two per frame: frames 0 and 6 each keep
    # both of their tied frames 3 and 4; zero-overlap frames gain none
    assert _RETRIEVED_PAIRS == 2
    consecutive = [(i, i + 1) for i in range(len(bows) - 1)]
    assert _select_pairs(bows) == sorted(consecutive + [(0, 3), (0, 4), (3, 6), (4, 6)])
    # frames 2, 3, 4 and 6 carry one vector: frame 0 ties between 2, 3 and 4
    # and keeps 2 and 3, frame 6 ties between 2, 3 and 4 and keeps 2 and 3,
    # and frame 4 prefers 2 and 6 to 0
    tied = dense_bow({0: 0.6, 1: 0.8}, 10)
    frames = [dense_bow({0: 1.0}, 10), dense_bow({9: 1.0}, 10), tied, tied.copy(), tied.copy()]
    frames += [dense_bow({9: 1.0}, 10), tied.copy()]
    assert _select_pairs(frames) == sorted(
        consecutive + [(0, 2), (0, 3), (1, 5), (2, 4), (2, 6), (3, 6), (4, 6)]
    )


# --------------------------------------------------------------------------
# map building


INTRINSICS = CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
FULL_BOX = [BoundingBox(REGISTRY.by_id(0), 0, 0, 639, 479, 0.9)]


def _shifted_pose(x: float) -> Pose:
    return Pose(np.eye(3), np.array([-x, 0.0, 0.0]))  # camera center at (x, 0, 0)


def _scene_points(rng, n):
    return np.column_stack(
        [
            rng.uniform(-1.8, 2.3, size=n),
            rng.uniform(-1.4, 1.4, size=n),
            rng.uniform(4.0, 8.0, size=n),
        ]
    )


def _map_frame(frame_id, pose, keypoints, descriptors, boxes):
    observation = FeatureObservation(keypoints=keypoints, descriptors=descriptors)
    features = extract_frame_features(
        observation, DetectionSet(frame_id, list(boxes)), masked=False
    )
    return MapFrameInput(features=features, pose=pose, frame_id=frame_id)


def _synthetic_frame(frame_id, pose, points, descriptors, boxes):
    pixels, valid = project_points(pose, INTRINSICS, points)
    assert valid.all()
    return _map_frame(frame_id, pose, pixels, descriptors, boxes)


def test_two_frame_map_recovers_ground_truth_points():
    rng = np.random.default_rng(12)
    points = _scene_points(rng, 100)
    descriptors = _random_unit(rng, 100)
    frames = [
        _synthetic_frame(0, _shifted_pose(0.0), points, descriptors, FULL_BOX),
        _synthetic_frame(1, _shifted_pose(0.5), points, descriptors, FULL_BOX),
    ]
    sparse_map = build_map(frames, INTRINSICS, MapBuildConfig(vocabulary_k=16))

    assert len(sparse_map.positions) >= 95
    for position, descriptor, class_id, count in zip(
        sparse_map.positions,
        sparse_map.descriptors,
        sparse_map.class_ids,
        sparse_map.observation_counts,
    ):
        source = int(np.argmin(np.linalg.norm(descriptors - descriptor, axis=1)))
        assert np.linalg.norm(position - points[source]) < 1e-3
        assert class_id == 0
        assert count >= 2


def test_three_frame_chains_merge_into_single_landmarks():
    rng = np.random.default_rng(13)
    points = _scene_points(rng, 40)
    descriptors = _random_unit(rng, 40)
    frames = [
        _synthetic_frame(i, _shifted_pose(0.25 * i), points, descriptors, FULL_BOX)
        for i in range(3)
    ]
    sparse_map = build_map(frames, INTRINSICS, MapBuildConfig(vocabulary_k=16))
    assert len(sparse_map.positions) == 40  # merged, not duplicated
    assert np.all(sparse_map.observation_counts == 3)
    for kf in sparse_map.keyframes:
        assert len(kf.landmark_ids) == 40


def test_landmarks_reproject_within_build_threshold():
    rng = np.random.default_rng(14)
    points = _scene_points(rng, 50)
    descriptors = _random_unit(rng, 50)
    config = MapBuildConfig(vocabulary_k=16)
    frames = [
        _synthetic_frame(i, _shifted_pose(0.3 * i), points, descriptors, FULL_BOX)
        for i in range(3)
    ]
    sparse_map = build_map(frames, INTRINSICS, config)
    from semloc.geometry import project

    for kf in sparse_map.keyframes:
        frame = frames[kf.id]
        obs = frame.features.coordinates
        pose = Pose(rotation_from_quaternion(kf.quaternion), kf.translation)
        for lm_id in kf.landmark_ids:
            pixel = project(pose, INTRINSICS, sparse_map.positions[lm_id])
            source = int(
                np.argmin(np.linalg.norm(descriptors - sparse_map.descriptors[lm_id], axis=1))
            )
            assert np.linalg.norm(pixel - obs[source]) < _MAX_REPROJECTION_PX


def test_semantic_map_not_larger_than_baseline_map():
    rng = np.random.default_rng(15)
    points = _scene_points(rng, 100)
    descriptors = _random_unit(rng, 100)
    # boxes cover only the left half of the image: ~half the points labeled
    half_box = [BoundingBox(REGISTRY.by_id(2), 0, 0, 319, 479, 0.9)]
    frames = [
        _synthetic_frame(i, _shifted_pose(0.4 * i), points, descriptors, half_box)
        for i in range(2)
    ]
    semantic = build_map(frames, INTRINSICS, MapBuildConfig(vocabulary_k=8))
    baseline = build_map(frames, INTRINSICS, MapBuildConfig(semantic=False, vocabulary_k=8))

    assert len(semantic.positions) <= len(baseline.positions)
    assert np.all(semantic.class_ids != UNLABELED)
    assert np.any(baseline.class_ids == UNLABELED)
    assert 0 < len(semantic.positions) < len(baseline.positions)


def test_zero_detections_make_empty_semantic_map():
    rng = np.random.default_rng(16)
    points = _scene_points(rng, 30)
    descriptors = _random_unit(rng, 30)
    frames = [
        _synthetic_frame(i, _shifted_pose(0.5 * i), points, descriptors, []) for i in range(2)
    ]
    with pytest.raises(InsufficientDataError, match="empty map"):
        build_map(frames, INTRINSICS, MapBuildConfig(vocabulary_k=4))


def test_build_map_rejects_duplicate_frame_ids():
    """A map with two keyframes of one id would not load back."""
    rng = np.random.default_rng(19)
    points = _scene_points(rng, 30)
    descriptors = _random_unit(rng, 30)
    frames = [
        _synthetic_frame(i, _shifted_pose(0.4 * i), points, descriptors, FULL_BOX)
        for i in range(3)
    ]
    frames[2].frame_id = frames[0].frame_id
    with pytest.raises(ValueError, match="frame ids must be unique"):
        build_map(frames, INTRINSICS, MapBuildConfig(vocabulary_k=8))


def test_zero_baseline_means_no_triangulable_matches():
    rng = np.random.default_rng(17)
    points = _scene_points(rng, 30)
    descriptors = _random_unit(rng, 30)
    frames = [
        _synthetic_frame(i, _shifted_pose(0.0), points, descriptors, FULL_BOX)
        for i in range(2)
    ]
    with pytest.raises(InsufficientDataError, match="empty map"):
        build_map(frames, INTRINSICS, MapBuildConfig(vocabulary_k=16))


def test_build_map_is_deterministic(tmp_path):
    rng = np.random.default_rng(18)
    points = _scene_points(rng, 60)
    descriptors = _random_unit(rng, 60)
    frames = [
        _synthetic_frame(i, _shifted_pose(0.3 * i), points, descriptors, FULL_BOX)
        for i in range(3)
    ]
    paths = []
    for tag in ("a", "b"):
        sparse_map = build_map(frames, INTRINSICS, MapBuildConfig(vocabulary_k=16))
        path = tmp_path / f"map_{tag}.npz"
        save_map(sparse_map, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, node):
        self.parent.setdefault(node, node)
        while self.parent[node] != node:
            node = self.parent[node]
        return node

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _reference_landmarks(frames, config):
    """build_map's landmarks the scalar way: one triangulation per match, a
    union-find over (frame, keypoint) nodes, one projection per observation.
    Returns (positions, descriptors, class_ids, observation_counts, keyframe
    landmark ids)."""
    features = [f.features.labeled() if config.semantic else f.features for f in frames]
    total = sum(len(f.descriptors) for f in features)
    vocabulary = build_vocabulary(
        [f.descriptors for f in features], min(config.vocabulary_k, total), _VOCABULARY_SEED
    )
    bows = [bow_vector(f.descriptors, vocabulary) for f in features]

    edges = []
    for i, j in _select_pairs(bows):
        fi, fj = features[i], features[j]
        if config.semantic:
            matches = match_per_class(
                fi.descriptors, fi.labels, fj.descriptors, fj.labels, DEFAULT_RATIO
            )
        else:
            matches = knn_ratio_match(fi.descriptors, fj.descriptors, DEFAULT_RATIO)
        for qi, ti in zip(matches.query_index.tolist(), matches.train_index.tolist()):
            try:
                point, residual = triangulate_two_view(
                    frames[i].pose, frames[j].pose, fi.coordinates[qi], fj.coordinates[ti],
                    INTRINSICS,
                )
            except DegenerateGeometryError:
                continue
            if residual < _MAX_REPROJECTION_PX:
                edges.append(((i, qi), (j, ti), point))

    merged = _UnionFind()
    for a, b, _ in edges:
        merged.union(a, b)
    chains: dict = {}
    for a, b, point in edges:
        chain = chains.setdefault(merged.find(a), {"nodes": set(), "points": []})
        chain["nodes"].update((a, b))
        chain["points"].append(point)

    positions, descriptors, class_ids, counts = [], [], [], []
    observers = {i: [] for i in range(len(frames))}
    for root in sorted(chains):
        nodes = sorted(chains[root]["nodes"])
        position = np.mean(chains[root]["points"], axis=0)
        descriptor = np.mean([features[fi].descriptors[ki] for fi, ki in nodes], axis=0)
        norm = np.linalg.norm(descriptor)
        if norm < 1e-12:
            continue
        labels = {int(features[fi].labels[ki]) for fi, ki in nodes}
        try:
            if any(
                np.linalg.norm(project(frames[fi].pose, INTRINSICS, position)
                               - features[fi].coordinates[ki]) >= _MAX_REPROJECTION_PX
                for fi, ki in nodes
            ):
                continue
        except DegenerateGeometryError:
            continue
        for fi, _ in nodes:
            observers[fi].append(len(positions))
        positions.append(position)
        descriptors.append(descriptor / norm)
        class_ids.append(labels.pop() if len(labels) == 1 else UNLABELED)
        counts.append(len(nodes))
    landmark_ids = [sorted(set(observers[i])) for i in range(len(frames))]
    return (np.array(positions), np.array(descriptors), np.array(class_ids),
            np.array(counts), landmark_ids)


def _noisy_frames():
    """Six frames of one scene with pixel and descriptor noise, a few gross
    pixel outliers, and two detection boxes that leave the middle unlabelled."""
    rng = np.random.default_rng(23)
    points = _scene_points(rng, 120)
    descriptors = _random_unit(rng, 120)
    boxes = [
        BoundingBox(REGISTRY.by_id(0), 0, 0, 260, 479, 0.9),
        BoundingBox(REGISTRY.by_id(2), 380, 0, 639, 479, 0.9),
    ]
    frames = []
    for i in range(6):
        pose = _shifted_pose(0.2 * i)
        keypoints = project_points(pose, INTRINSICS, points)[0]
        keypoints += rng.normal(scale=0.8, size=(120, 2))
        keypoints[rng.choice(120, size=6, replace=False)] += rng.normal(scale=6.0, size=(6, 2))
        frames.append(_map_frame(
            i,
            pose,
            np.clip(keypoints, 0.0, [639.0, 479.0]),
            _unit_rows(descriptors + rng.normal(scale=0.15, size=descriptors.shape)),
            boxes,
        ))
    return frames


@pytest.mark.parametrize("semantic", [True, False], ids=["semantic", "all-features"])
def test_build_map_equals_the_scalar_reference(semantic):
    frames = _noisy_frames()
    config = MapBuildConfig(semantic=semantic, vocabulary_k=16)
    sparse_map = build_map(frames, INTRINSICS, config)
    positions, descriptors, class_ids, counts, landmark_ids = _reference_landmarks(frames, config)

    assert np.array_equal(sparse_map.positions, positions)
    assert np.array_equal(sparse_map.descriptors, descriptors)
    assert np.array_equal(sparse_map.class_ids, class_ids)
    assert np.array_equal(sparse_map.observation_counts, counts)
    assert [kf.landmark_ids.tolist() for kf in sparse_map.keyframes] == landmark_ids
    # the scene exercises chain merges across several frames
    assert counts.max() > 2 and len(positions) > 50
    if not semantic:
        assert UNLABELED in class_ids


# --------------------------------------------------------------------------
# serialization


def _small_map():
    rng = np.random.default_rng(19)
    points = _scene_points(rng, 30)
    descriptors = _random_unit(rng, 30)
    frames = [
        _synthetic_frame(i, _shifted_pose(0.4 * i), points, descriptors, FULL_BOX)
        for i in range(2)
    ]
    return build_map(frames, INTRINSICS, MapBuildConfig(vocabulary_k=8))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _read_npz(path) -> dict:
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def _write_npz(path, arrays: dict) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_map_round_trip_is_bitwise(tmp_path):
    """save -> load -> save: the same bytes, and every array bit for bit."""
    sparse_map = _small_map()
    path = tmp_path / "map.npz"
    save_map(sparse_map, str(path))
    loaded = load_map(str(path))

    assert loaded.version == sparse_map.version == MAP_FORMAT_VERSION
    assert loaded.registry.to_list() == sparse_map.registry.to_list()
    assert _same_bits(loaded.vocabulary.centroids, sparse_map.vocabulary.centroids)
    assert _same_bits(loaded.vocabulary.idf, sparse_map.vocabulary.idf)
    assert _same_bits(loaded.class_ids, sparse_map.class_ids)
    assert _same_bits(loaded.observation_counts, sparse_map.observation_counts)
    assert _same_bits(loaded.positions, sparse_map.positions)
    assert _same_bits(loaded.descriptors, sparse_map.descriptors)
    assert len(loaded.keyframes) == len(sparse_map.keyframes)
    for a, b in zip(loaded.keyframes, sparse_map.keyframes):
        assert a.id == b.id and _same_bits(a.landmark_ids, b.landmark_ids)
        assert _same_bits(a.quaternion, b.quaternion)
        assert _same_bits(a.translation, b.translation)
        assert _same_bits(a.bow, b.bow)

    again = tmp_path / "again.npz"
    save_map(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()
    assert not (tmp_path / "map.npz.npz").exists()  # written to exactly the given path


def test_save_map_writes_exactly_the_given_name(tmp_path):
    """numpy appends .npz to a bare file name; the map keeps the caller's."""
    path = tmp_path / "map_full.json"
    save_map(_small_map(), str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map_full.json"]
    assert len(load_map(str(path)).keyframes) == 2


def test_unlabelled_landmarks_are_written_as_null(tmp_path):
    """The array format's null class is the UNLABELED sentinel."""
    rng = np.random.default_rng(15)
    points = _scene_points(rng, 100)
    descriptors = _random_unit(rng, 100)
    half_box = [BoundingBox(REGISTRY.by_id(2), 0, 0, 319, 479, 0.9)]
    frames = [
        _synthetic_frame(i, _shifted_pose(0.4 * i), points, descriptors, half_box)
        for i in range(2)
    ]
    sparse_map = build_map(frames, INTRINSICS, MapBuildConfig(semantic=False, vocabulary_k=8))
    path = tmp_path / "map.npz"
    save_map(sparse_map, str(path))

    assert set(_read_npz(path)["class_ids"].tolist()) == {UNLABELED, 2}
    loaded = load_map(str(path))
    assert _same_bits(loaded.class_ids, sparse_map.class_ids)
    again = tmp_path / "again.npz"
    save_map(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_load_rejects_other_versions(tmp_path):
    path = tmp_path / "old.npz"
    arrays = _read_npz(_saved_small_map(tmp_path))
    _write_npz(path, {**arrays, "version": np.array("0")})
    with pytest.raises(MapFormatError, match=r"old\.npz: format version '0'.*'2'"):
        load_map(str(path))


def test_load_rejects_a_json_map_as_unsupported(tmp_path):
    """A map from the JSON format (version 1) gets a clear error, not a zip error."""
    path = tmp_path / "v1.json"
    path.write_text('{"version": "1", "classes": [], "vocabulary": {}, '
                    '"landmarks": [], "keyframes": []}\n')
    with pytest.raises(MapFormatError, match=r"v1\.json: unsupported format: a JSON map"):
        load_map(str(path))


def test_load_rejects_empty_and_truncated_files(tmp_path):
    empty = tmp_path / "empty.npz"
    empty.write_text("")
    with pytest.raises(MapFormatError, match="not a valid map file"):
        load_map(str(empty))

    data = _saved_small_map(tmp_path).read_bytes()
    cut = tmp_path / "cut.npz"
    cut.write_bytes(data[: len(data) // 2])
    with pytest.raises(MapFormatError, match="not a valid map file"):
        load_map(str(cut))
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0xFF
    cut.write_bytes(bytes(flipped))
    with pytest.raises(MapFormatError, match="cut.npz: not a valid map file"):
        load_map(str(cut))


def _saved_small_map(tmp_path):
    path = tmp_path / "saved.npz"
    save_map(_small_map(), str(path))
    return path


def _corrupted_map_file(tmp_path, corrupt) -> str:
    """A saved map file whose arrays `corrupt` has edited in place."""
    raw = _read_npz(_saved_small_map(tmp_path))
    corrupt(raw)
    path = tmp_path / "map.npz"
    _write_npz(path, raw)
    return str(path)


def test_landmark_and_keyframe_invariants(tmp_path):
    def single_observation(raw):
        raw["observation_counts"][0] = 1

    def unknown_reference(raw):
        raw["keyframe_landmark_ids"][0] = 7_000

    with pytest.raises(MapFormatError, match="observations"):
        load_map(_corrupted_map_file(tmp_path, single_observation))
    with pytest.raises(MapFormatError, match="negative"):
        _keyframe(0, dense_bow({3: -0.5}, 8))
    with pytest.raises(MapFormatError, match="unknown landmark"):
        load_map(_corrupted_map_file(tmp_path, unknown_reference))


def _set(name, index, value):
    def corrupt(raw):
        raw[name][index] = value
    return corrupt


def _set_reference(kf, value):
    """Point keyframe kf's first landmark reference at `value` (a callable of
    the arrays gives it from them)."""
    def corrupt(raw):
        start = raw["keyframe_landmark_offsets"][kf]
        raw["keyframe_landmark_ids"][start] = value(raw) if callable(value) else value
    return corrupt


def _replace(name, change):
    return lambda raw: raw.update({name: change(raw[name])})


def _add_words(kf, words, weight=0.5, as_float=False):
    """Append (word, weight) entries to keyframe kf's bag-of-words run."""
    def corrupt(raw):
        at = raw["bow_offsets"][kf + 1]
        stored = raw["bow_words"].astype(float) if as_float else raw["bow_words"]
        raw["bow_words"] = np.insert(stored, at, words)
        raw["bow_weights"] = np.insert(raw["bow_weights"], at, [weight] * len(words))
        raw["bow_offsets"][kf + 1:] += len(words)
    return corrupt


# A landmark's id is its row, so the id cases are a column whose rows do not
# run 0..N-1 with the others; UNLABELED (-1) is the stored sentinel, so the
# sentinel case is an id below it; a zero-padded word has no integer form, so
# that case is the fault it caused, one word written twice in a keyframe.
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_replace("descriptors", lambda a: a[:-1]), "ids must run 0"),
        (_replace("observation_counts", lambda a: np.append(a, 2)), "ids must run 0"),
        (_replace("positions", lambda a: a[:, :2]), "position needs 3 values"),
        (_replace("positions", lambda a: np.hstack([a, a[:, :1]])), "position needs 3 values"),
        (_replace("descriptors", lambda a: a[:, :2]), "differ in width"),
        (_set("observation_counts", 0, 1), ">= 2 observations"),
        (_set("class_ids", 0, UNLABELED - 1), "not in registry"),
        (_set("class_ids", 0, 8), "not in registry"),
        (_set_reference(1, -1), "unknown landmark ids"),
        (_set_reference(1, lambda raw: len(raw["positions"])), "unknown landmark ids"),
        (_add_words(0, [3], -0.5), "negative bag-of-words weight"),
        (_add_words(0, [3], float("nan")), "keyframe 0: non-finite bag-of-words weight"),
        (_add_words(1, [3], float("inf")), "keyframe 1: non-finite bag-of-words weight"),
        (_add_words(1, [-1]), "keyframe 1: bag-of-words word '-1' is not an integer"),
        (_add_words(0, [999]), "keyframe 0: bag-of-words word '999' is not an integer"),
        (_add_words(0, [8]), "keyframe 0: bag-of-words word '8' is not an integer"),
        (
            _add_words(0, [2.0], as_float=True),
            "keyframe 0: bag-of-words word '2.0' is not an integer",
        ),
        (_add_words(0, [3, 3]), "keyframe 0: bag-of-words word '3' repeats"),
        (
            lambda raw: _set("keyframe_ids", 1, raw["keyframe_ids"][0])(raw),
            "keyframe 0 appears more than once",
        ),
        (_replace("bow_weights", lambda a: a[:, None]), "malformed map content"),
    ],
    ids=[
        "ids-reversed",
        "id-skipped",
        "short-position",
        "long-position",
        "descriptor-width",
        "one-observation",
        "sentinel-class",
        "unregistered-class",
        "negative-reference",
        "reference-past-end",
        "negative-bow-weight",
        "nan-bow-weight",
        "infinite-bow-weight",
        "negative-bow-word",
        "bow-word-past-end",
        "bow-word-equal-to-k",
        "non-integer-bow-word",
        "zero-padded-bow-word",
        "duplicate-keyframe-id",
        "bow-not-an-object",
    ],
)
def test_load_map_rejects_malformed_landmarks(tmp_path, corrupt, message):
    with pytest.raises(MapFormatError, match=rf"map\.npz: .*{message}"):
        load_map(_corrupted_map_file(tmp_path, corrupt))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda raw: raw.pop("centroids"), "malformed map content \\(missing array 'centroids'"),
        (_replace("positions", lambda a: a.astype(np.float32).astype(str)), "has dtype"),
        (_set("positions", (0, 1), float("nan")), "'positions' holds a non-finite value"),
        (_replace("idf", lambda a: a[:-1]), "idf length"),
        (_set("keyframe_quaternions", 1, 0.0), "keyframe 1: quaternion has no direction"),
        (_set("keyframe_landmark_offsets", 1, -1), "'keyframe_landmark_offsets' must rise"),
        (_replace("bow_offsets", lambda a: a[:-1]), "'bow_offsets' has shape"),
        (
            lambda raw: raw.update(registry_names=np.array([None] * 8, dtype=object)),
            "not a valid map file",
        ),
    ],
    ids=[
        "missing-array", "text-positions", "nan-position", "short-idf",
        "zero-quaternion", "falling-offsets", "short-offsets", "pickled-array",
    ],
)
def test_load_map_names_the_file_for_any_malformed_array(tmp_path, corrupt, message):
    """Structure errors are MapFormatError naming the file, never a KeyError,
    IndexError or a numpy error."""
    with pytest.raises(MapFormatError, match=rf"map\.npz: .*{message}"):
        load_map(_corrupted_map_file(tmp_path, corrupt))
