"""Semantic classes, detections, labelling, and class-aware matching."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semloc.errors import AnnotationError, MapFormatError
from semloc.features.match import knn_ratio_match, match_record
from semloc.mapping.sparse_map import MAP_FORMAT_VERSION, load_map
from semloc.semantics import (
    UNLABELED,
    BoundingBox,
    ClassRegistry,
    DetectionSet,
    SemanticClass,
    filter_matches_by_class,
    label_keypoints,
    load_detections,
    match_per_class,
    save_detections,
)
from semloc.semantics.boxes import DEFAULT_MIN_CONFIDENCE

from conftest import corrupted_json

REGISTRY = ClassRegistry.default()


def box(name, x0, y0, x1, y1, conf=0.9):
    return BoundingBox(REGISTRY.by_name(name), x0, y0, x1, y1, conf)


# --------------------------------------------------------------------------
# class registry


def test_default_registry_has_eight_unique_classes():
    assert len(REGISTRY) == 8
    assert sorted(c.id for c in REGISTRY) == list(range(8))
    assert len({c.name for c in REGISTRY}) == 8


def test_registry_rejects_wrong_count_and_duplicates():
    classes = [SemanticClass(i, f"c{i}") for i in range(7)]
    with pytest.raises(AnnotationError, match="exactly 8"):
        ClassRegistry(classes)
    dupe = [SemanticClass(i, "same") for i in range(8)]
    with pytest.raises(AnnotationError, match="unique"):
        ClassRegistry(dupe)


def _map_file_with_classes(path, ids, names=None):
    """A map file holding its version and class list only; load_map reads the
    class list first.  names=None leaves the names array out."""
    arrays = {"version": np.array(MAP_FORMAT_VERSION), "registry_ids": np.array(ids)}
    if names is not None:
        arrays["registry_names"] = np.array(names)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return str(path)


def test_registry_json_round_trip(tmp_path):
    # the registry's classes as JSON, read back entry by entry
    raw = json.loads(json.dumps([{"id": c.id, "name": c.name} for c in REGISTRY]))
    loaded = ClassRegistry([SemanticClass(int(e["id"]), str(e["name"])) for e in raw])
    assert list(loaded) == list(REGISTRY)
    assert loaded.by_name("vent").id == REGISTRY.by_name("vent").id


def test_registry_json_errors_name_the_file(tmp_path):
    path = _map_file_with_classes(tmp_path / "bad.npz", [0])
    with pytest.raises(MapFormatError, match=r"bad\.npz: .*missing array 'registry_names'"):
        load_map(path)
    path = _map_file_with_classes(tmp_path / "bad.npz", [0], ["vent"])
    with pytest.raises(MapFormatError, match=r"bad\.npz: .*exactly 8"):
        load_map(path)


def test_registry_rejects_a_negative_class_id(tmp_path):
    # a real class must never collide with the UNLABELED sentinel (-1)
    classes = [{"id": i, "name": f"c{i}"} for i in range(-1, 7)]
    with pytest.raises(AnnotationError, match="non-negative"):
        ClassRegistry([SemanticClass(e["id"], e["name"]) for e in classes])
    path = _map_file_with_classes(
        tmp_path / "negative.npz", [e["id"] for e in classes], [e["name"] for e in classes]
    )
    with pytest.raises(MapFormatError, match=r"negative\.npz.*non-negative"):
        load_map(path)


def test_registry_lookup_errors():
    with pytest.raises(AnnotationError, match="unknown class id"):
        REGISTRY.by_id(99)
    with pytest.raises(AnnotationError, match="unknown class name"):
        REGISTRY.by_name("antenna")
    assert "vent" in REGISTRY
    assert "antenna" not in REGISTRY


# --------------------------------------------------------------------------
# annotation files


def _write_annotations(tmp_path, payload):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_detections_single_box(tmp_path):
    path = _write_annotations(
        tmp_path,
        {"frame": 3, "boxes": [{"class": "vent", "box": [10, 10, 50, 40], "confidence": 0.9}]},
    )
    dets = load_detections(path, REGISTRY, image_size=(640, 480))
    assert dets.frame_id == 3
    assert len(dets.boxes) == 1
    b = dets.boxes[0]
    assert b.semantic_class.name == "vent"
    assert (b.x_min, b.y_min, b.x_max, b.y_max) == (10, 10, 50, 40)


def test_load_detections_empty_list_is_valid(tmp_path):
    path = _write_annotations(tmp_path, {"frame": 0, "boxes": []})
    dets = load_detections(path, REGISTRY, image_size=(640, 480))
    assert dets.boxes == []


def test_load_detections_inverted_extents_error(tmp_path):
    path = _write_annotations(
        tmp_path,
        {"frame": 0, "boxes": [{"class": "vent", "box": [50, 10, 10, 40], "confidence": 0.9}]},
    )
    with pytest.raises(AnnotationError, match=r"boxes\[0\].*box"):
        load_detections(path, REGISTRY, image_size=(640, 480))


def test_load_detections_unknown_class_error(tmp_path):
    path = _write_annotations(
        tmp_path,
        {"frame": 0, "boxes": [{"class": "antenna", "box": [1, 1, 2, 2], "confidence": 0.9}]},
    )
    with pytest.raises(AnnotationError, match="antenna"):
        load_detections(path, REGISTRY, image_size=(640, 480))


def test_load_detections_missing_field_error(tmp_path):
    path = _write_annotations(tmp_path, {"frame": 0, "boxes": [{"class": "vent"}]})
    with pytest.raises(AnnotationError, match="missing field 'box'"):
        load_detections(path, REGISTRY, image_size=(640, 480))


def test_load_detections_clamps_and_drops(tmp_path):
    path = _write_annotations(
        tmp_path,
        {
            "frame": 0,
            "boxes": [
                # straddles the right edge: clamped
                {"class": "vent", "box": [600, 10, 700, 40], "confidence": 0.9},
                # entirely off-image: zero area after clamping, dropped
                {"class": "light", "box": [700, 10, 800, 40], "confidence": 0.9},
                # below the confidence threshold, dropped
                {"class": "hatch", "box": [5, 5, 20, 20], "confidence": 0.2},
            ],
        },
    )
    dets = load_detections(path, REGISTRY, image_size=(640, 480))
    assert len(dets.boxes) == 1
    assert dets.boxes[0].x_max == 639
    assert dets.boxes[0].semantic_class.name == "vent"


@pytest.mark.parametrize(
    "box", ["[NaN, NaN, NaN, NaN]", "[-Infinity, -Infinity, Infinity, Infinity]"]
)
def test_load_detections_rejects_a_non_finite_box(tmp_path, box):
    """json reads these tokens as floats; such a box once loaded as the whole
    image."""
    path = tmp_path / "frame.json"
    path.write_text(
        '{"frame": 0, "boxes": [{"class": "vent", "box": ' + box + ', "confidence": 0.9}]}'
    )
    with pytest.raises(AnnotationError, match=rf"{path}: boxes\[0\]: field 'box'"):
        load_detections(str(path), REGISTRY, image_size=(640, 480))


def test_load_detections_rejects_a_fractional_frame(tmp_path):
    path = _write_annotations(tmp_path, {"frame": 1.7, "boxes": []})
    with pytest.raises(AnnotationError, match=f"{path}: 'frame' is not an integer"):
        load_detections(path, REGISTRY, image_size=(640, 480))


def test_load_detections_rejects_boxes_that_are_not_a_list(tmp_path):
    path = _write_annotations(tmp_path, {"frame": 0, "boxes": 7})
    with pytest.raises(AnnotationError, match=f"{path}: 'boxes' is not a list"):
        load_detections(path, REGISTRY, image_size=(640, 480))


_FRESH_DETECTIONS = {
    "frame": 3,
    "boxes": [
        {"class": "vent", "box": [10.0, 10.0, 50.0, 40.0], "confidence": 0.9},
        {"class": "light", "box": [600, 5, 700, 90], "confidence": 0.75},
    ],
}


def _valid_detections(dets, image_size) -> bool:
    """The checks a fresh file's detections pass: a non-negative integer
    frame, and boxes of a known class with finite extents inside the image,
    a positive area and a confidence in [DEFAULT_MIN_CONFIDENCE, 1]."""
    width, height = image_size
    return type(dets.frame_id) is int and dets.frame_id >= 0 and all(
        REGISTRY.by_name(b.semantic_class.name) == b.semantic_class
        and all(
            type(v) is float and math.isfinite(v)
            for v in (b.x_min, b.y_min, b.x_max, b.y_max, b.confidence)
        )
        and 0.0 <= b.x_min < b.x_max <= width - 1
        and 0.0 <= b.y_min < b.y_max <= height - 1
        and DEFAULT_MIN_CONFIDENCE <= b.confidence <= 1.0
        for b in dets.boxes
    )


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_corrupted_annotation_file_loads_valid_boxes_or_names_the_file(tmp_path_factory, data):
    """A fresh file with one field replaced by NaN, an infinity, a negative or
    a wrong type, or with bytes flipped, loads into detections that pass a
    fresh file's checks, or raises an AnnotationError naming the file."""
    image_size = (640, 480)
    path = tmp_path_factory.mktemp("annotations") / "frame.json"
    path.write_text(json.dumps(_FRESH_DETECTIONS))
    assert _valid_detections(load_detections(str(path), REGISTRY, image_size), image_size)
    path.write_bytes(corrupted_json(data, _FRESH_DETECTIONS))
    try:
        dets = load_detections(str(path), REGISTRY, image_size)
    except AnnotationError as exc:
        assert str(path) in str(exc)
    else:
        assert _valid_detections(dets, image_size)


def test_detections_round_trip(tmp_path):
    dets = DetectionSet(7, [box("vent", 10, 10, 50, 40, 0.9), box("light", 5, 5, 9, 9, 0.75)])
    path = str(tmp_path / "out.json")
    save_detections(path, dets)
    loaded = load_detections(path, REGISTRY, image_size=(640, 480))
    assert loaded.frame_id == 7
    assert [(b.semantic_class.id, b.x_min, b.y_min, b.x_max, b.y_max, b.confidence)
            for b in loaded.boxes] == [
        (b.semantic_class.id, b.x_min, b.y_min, b.x_max, b.y_max, b.confidence)
        for b in dets.boxes
    ]


# --------------------------------------------------------------------------
# labelling


def _label_oracle(points, boxes):
    """Enumerated containment with explicit smallest-area / confidence / id rules."""
    out = []
    for x, y in points:
        hits = [b for b in boxes if b.contains(x, y)]
        if not hits:
            out.append(UNLABELED)
            continue
        hits.sort(key=lambda b: (b.area(), -b.confidence, b.semantic_class.id))
        out.append(hits[0].semantic_class.id)
    return out


def test_label_center_and_outside():
    dets = DetectionSet(0, [box("vent", 10, 10, 50, 40)])
    labels = label_keypoints(np.array([[30.0, 25.0], [100.0, 100.0]]), dets)
    assert labels.tolist() == [REGISTRY.by_name("vent").id, UNLABELED]


def test_label_nested_box_smallest_area_wins():
    dets = DetectionSet(
        0, [box("rack_panel", 0, 0, 100, 100), box("handrail", 40, 40, 60, 50)]
    )
    labels = label_keypoints(np.array([[50.0, 45.0], [10.0, 10.0]]), dets)
    assert labels.tolist() == [
        REGISTRY.by_name("handrail").id, REGISTRY.by_name("rack_panel").id
    ]


def test_label_area_tie_prefers_confidence_then_id():
    same_area_hi = box("light", 0, 0, 10, 10, conf=0.95)
    same_area_lo = box("vent", 0, 0, 10, 10, conf=0.6)
    labels = label_keypoints(np.array([[5.0, 5.0]]), DetectionSet(0, [same_area_lo, same_area_hi]))
    assert labels.tolist() == [REGISTRY.by_name("light").id]

    tied = [box("strut", 0, 0, 10, 10, conf=0.8), box("vent", 0, 0, 10, 10, conf=0.8)]
    labels = label_keypoints(np.array([[5.0, 5.0]]), DetectionSet(0, tied))
    assert labels.tolist() == [REGISTRY.by_name("vent").id]  # lower class id


def test_label_edges_inclusive():
    dets = DetectionSet(0, [box("vent", 10, 10, 20, 20)])
    labels = label_keypoints(np.array([[20.0, 20.0], [20.0001, 20.0]]), dets)
    assert labels[0] == REGISTRY.by_name("vent").id
    assert labels[1] == UNLABELED


@st.composite
def _random_detections(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    boxes = []
    for _ in range(n):
        x0 = draw(st.floats(min_value=0, max_value=50))
        y0 = draw(st.floats(min_value=0, max_value=40))
        w = draw(st.floats(min_value=0.5, max_value=30))
        h = draw(st.floats(min_value=0.5, max_value=25))
        cid = draw(st.integers(min_value=0, max_value=7))
        conf = draw(st.floats(min_value=0.5, max_value=1.0))
        boxes.append(BoundingBox(REGISTRY.by_id(cid), x0, y0, x0 + w, y0 + h, conf))
    return DetectionSet(0, boxes)


@settings(max_examples=60, deadline=None)
@given(dets=_random_detections(), data=st.data())
def test_label_matches_enumerated_containment_oracle(dets, data):
    n_pts = data.draw(st.integers(min_value=1, max_value=12))
    pts = np.array(
        [
            [data.draw(st.floats(0, 80)), data.draw(st.floats(0, 65))]
            for _ in range(n_pts)
        ]
    )
    assert label_keypoints(pts, dets).tolist() == _label_oracle(pts, dets.boxes)


# --------------------------------------------------------------------------
# per-class matching and class filtering


def _descriptor(rng):
    d = rng.normal(size=8)
    return d / np.linalg.norm(d)


def test_match_per_class_all_unlabeled_empty():
    rng = np.random.default_rng(0)
    desc = np.array([_descriptor(rng) for _ in range(4)])
    assert len(match_per_class(desc, [UNLABELED] * 4, desc, [UNLABELED] * 4)) == 0


def test_match_per_class_equals_concatenated_single_class_runs():
    rng = np.random.default_rng(1)
    base = np.array([_descriptor(rng) for _ in range(8)])
    jitter = base + rng.normal(scale=0.01, size=base.shape)
    # interleave the two classes so original-index remapping is exercised
    labels = [0, 3, 0, 3, 0, 3, 0, 3]
    merged = match_per_class(jitter, labels, base, labels)

    expected = []
    for cid in (0, 3):
        idx = np.flatnonzero([lab == cid for lab in labels])
        for m in knn_ratio_match(jitter[idx], base[idx]):
            expected.append((int(idx[m.query_index]), int(idx[m.train_index]), m.ratio))
    expected.sort()
    assert [(m.query_index, m.train_index, m.ratio) for m in merged] == expected


def test_match_per_class_duplicated_descriptors_within_class():
    rng = np.random.default_rng(2)
    vent = np.array([_descriptor(rng) for _ in range(3)])
    other = np.array([_descriptor(rng) for _ in range(3)])
    query = np.vstack([vent, other])
    train = np.vstack([other, vent])
    labels_q = [0, 0, 0, 1, 1, 1]
    labels_t = [1, 1, 1, 0, 0, 0]
    matches = match_per_class(query, labels_q, train, labels_t)
    assert len(matches), "identical descriptors within a class must match"
    for m in matches:
        assert labels_q[m.query_index] == labels_t[m.train_index]
        assert np.linalg.norm(query[m.query_index] - train[m.train_index]) < 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_match_per_class_purity_property(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    nq = data.draw(st.integers(2, 15))
    nt = data.draw(st.integers(2, 15))
    q = rng.normal(size=(nq, 8))
    t = rng.normal(size=(nt, 8))
    label = st.integers(UNLABELED, 7)
    ql = [data.draw(label) for _ in range(nq)]
    tl = [data.draw(label) for _ in range(nt)]
    for m in match_per_class(q, ql, t, tl, ratio=0.95):
        assert ql[m.query_index] != UNLABELED
        assert ql[m.query_index] == tl[m.train_index]


def _matches_strategy():
    return st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=0, max_size=20
    )


@settings(max_examples=100, deadline=None)
@given(
    pairs=_matches_strategy(),
    ql=st.lists(st.integers(UNLABELED, 7), min_size=10, max_size=10),
    tl=st.lists(st.integers(UNLABELED, 7), min_size=10, max_size=10),
)
def test_filter_subset_order_idempotence_purity(pairs, ql, tl):
    # each match's ratio is its input position, so it identifies the match
    matches = match_record(
        [q for q, _ in pairs], [t for _, t in pairs], np.arange(len(pairs), dtype=float)
    )
    kept = filter_matches_by_class(matches, ql, tl)
    # subset, preserving input order
    positions = kept.ratio.astype(int)
    assert np.all(np.diff(positions) > 0)
    assert np.array_equal(kept, matches[positions])
    # purity: both endpoints labelled and equal
    for m in kept:
        assert ql[m.query_index] != UNLABELED
        assert ql[m.query_index] == tl[m.train_index]
    # idempotent
    assert np.array_equal(filter_matches_by_class(kept, ql, tl), kept)


def test_filter_explicit_cases():
    ql = [0, 0, UNLABELED, 2]
    tl = [0, 1, 0, 2]
    matches = match_record([0, 1, 2, 3], [0, 1, 2, 3], [0.4] * 4)
    kept = filter_matches_by_class(matches, ql, tl)
    assert [(m.query_index, m.train_index) for m in kept] == [(0, 0), (3, 3)]


def test_pre_equals_post_on_unambiguous_scene():
    """One object instance per class, well-separated descriptors: the
    per-class matcher and the filtered global matcher agree."""
    rng = np.random.default_rng(3)
    per_class = {cid: np.array([_descriptor(rng) for _ in range(4)]) for cid in range(3)}
    # make descriptors strongly class-distinctive by offsetting each class
    for cid, block in per_class.items():
        block[:, cid] += 5.0
        per_class[cid] = block / np.linalg.norm(block, axis=1, keepdims=True)
    train = np.vstack([per_class[c] for c in range(3)])
    labels = [c for c in range(3) for _ in range(4)]
    query = train + rng.normal(scale=0.005, size=train.shape)

    pre = match_per_class(query, labels, train, labels)
    post = filter_matches_by_class(knn_ratio_match(query, train), labels, labels)
    assert {(m.query_index, m.train_index) for m in pre} == {
        (m.query_index, m.train_index) for m in post
    }
    assert len(pre), "constructed scene must produce matches"
