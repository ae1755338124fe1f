"""Shared fixtures and synthetic-instance generators for the test suite."""

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from semloc.geometry import CameraIntrinsics, Pose, rotation_from_axis_angle


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)


def reference_bow_vector(descriptors: np.ndarray, vocab) -> dict[int, float]:
    """bow_vector as a sparse {word: weight} dict of the frame's words with a
    nonzero weight: the reference the dense vector is checked against."""
    descriptors = np.atleast_2d(np.asarray(descriptors, dtype=float))
    if descriptors.shape[0] == 0:
        return {}
    words, counts = np.unique(vocab.quantize(descriptors), return_counts=True)
    tf = counts / counts.sum()
    weights = tf * vocab.idf[words]
    norm = float(np.linalg.norm(weights))
    if norm < 1e-12:
        return {}
    return {int(w): float(v / norm) for w, v in zip(words, weights) if v > 0.0}


def reference_cosine_similarity(a: dict[int, float], b: dict[int, float]) -> float:
    """Dot product of two sparse BoW vectors over their shared words, summed
    in ascending word order: the reference for rank_by_similarity's scores."""
    if len(b) < len(a):
        a, b = b, a
    return sum(a[w] * b[w] for w in sorted(a) if w in b)


def dense_bow(sparse: dict[int, float], k: int) -> np.ndarray:
    """The (k,) vector with the given {word: weight} entries, zero elsewhere."""
    bow = np.zeros(k)
    bow[list(sparse)] = list(sparse.values())
    return bow


def sparse_bow(bow: np.ndarray) -> dict[int, float]:
    """The nonzero entries of a dense BoW vector as {word: weight}."""
    return {int(w): float(bow[w]) for w in np.flatnonzero(bow)}


def identity_pose() -> Pose:
    return Pose(np.eye(3), np.zeros(3))


def inverse_pose(pose: Pose) -> Pose:
    """The camera-to-world transform of a world-to-camera pose."""
    return Pose(pose.rotation.T, -pose.rotation.T @ pose.translation)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, np.pi)
    return rotation_from_axis_angle(axis * angle)


def random_pose(rng: np.random.Generator, t_scale: float = 1.0) -> Pose:
    return Pose(random_rotation(rng), rng.uniform(-t_scale, t_scale, size=3))


def points_in_front(rng: np.random.Generator, pose: Pose, n: int,
                    depth=(1.0, 4.0), spread: float = 1.0) -> np.ndarray:
    """World points that sit in front of the camera at the given pose."""
    cam = np.column_stack(
        [
            rng.uniform(-spread, spread, size=n),
            rng.uniform(-spread, spread, size=n),
            rng.uniform(depth[0], depth[1], size=n),
        ]
    )
    return inverse_pose(pose).transform(cam)


# JSON texts no field of a fresh file holds: non-finite tokens, negatives, a
# float literal beyond the float range, a huge integer and wrong types
BAD_JSON_VALUES = (
    "NaN", "Infinity", "-Infinity", "-1", "-0.5", "-1e9", "1e400", "1" + "0" * 400,
    '"7"', '""', "null", "true", "false", "[]", "{}", "[1, 2, 3, 4]", '{"frame": 0}',
)


def json_fields(value, path=()):
    """The path of every field of a JSON document, each container before its
    members."""
    members = value.items() if isinstance(value, dict) else enumerate(value)
    for key, member in members:
        yield (*path, key)
        if isinstance(member, (dict, list)):
            yield from json_fields(member, (*path, key))


def json_text(value, path=(), raw=None) -> str:
    """A document as JSON text, with the field at `path` written as the raw
    JSON text `raw`."""
    if raw is not None and not path:
        return raw
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: " + json_text(v, path[1:], raw if path[:1] == (k,) else None)
            for k, v in value.items()
        ) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(
            json_text(v, path[1:], raw if path[:1] == (i,) else None) for i, v in enumerate(value)
        ) + "]"
    return json.dumps(value)


def corrupted_json(data, document) -> bytes:
    """A drawn corruption of a valid JSON document: one field replaced by one
    of BAD_JSON_VALUES, or one to four of its text's bytes flipped."""
    if data.draw(st.booleans(), label="flip bytes"):
        text = bytearray(json_text(document).encode())
        for _ in range(data.draw(st.integers(1, 4))):
            text[data.draw(st.integers(0, len(text) - 1))] ^= data.draw(st.integers(1, 255))
        return bytes(text)
    path = data.draw(st.sampled_from(list(json_fields(document))), label="field")
    raw = data.draw(st.sampled_from(BAD_JSON_VALUES), label="value")
    return json_text(document, path, raw).encode()
