"""Frame pairing by bag-of-words similarity."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import InsufficientDataError
from ..mapping.vocabulary import rank_by_similarity


def most_similar(query_bow: np.ndarray, frames: Sequence[tuple[int, np.ndarray]]) -> int:
    """Frame id with the highest BoW cosine similarity (ties: lowest id)."""
    if not frames:
        raise InsufficientDataError("no frames to pair against")
    return rank_by_similarity(query_bow, frames)[0][0]


def pair_selection(frames: Sequence[tuple[int, np.ndarray]]) -> list[tuple[int, int]]:
    """Pair every frame with its most similar other frame.

    `frames` is a sequence of (frame id, dense BoW vector).  Returns the canonical
    (lower id, higher id) pairs, deduplicated and sorted; mutual best matches
    therefore yield a single pair.  Similarity ties pick the lower frame id.
    """
    if len(frames) < 2:
        raise InsufficientDataError("pair selection needs at least two frames")
    ids = [frame_id for frame_id, _ in frames]
    if len(set(ids)) != len(ids):
        raise ValueError("frame ids must be unique")
    pairs = set()
    for position, (frame_id, bow) in enumerate(frames):
        partner = most_similar(bow, frames[:position] + frames[position + 1 :])
        pairs.add((min(frame_id, partner), max(frame_id, partner)))
    return sorted(pairs)
