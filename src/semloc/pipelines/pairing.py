"""Frame pairing by bag-of-words similarity."""

from __future__ import annotations

from typing import Sequence

from ..errors import InsufficientDataError
from ..mapping.vocabulary import rank_by_similarity


def most_similar(query_bow: dict, frames: Sequence[tuple[int, dict]]) -> int:
    """Frame id with the highest BoW cosine similarity (ties: lowest id)."""
    if not frames:
        raise InsufficientDataError("no frames to pair against")
    return rank_by_similarity(query_bow, frames)[0][0]


def pair_selection(frames: Sequence[tuple[int, dict]]) -> list[tuple[int, int]]:
    """Pair every frame with its most similar other frame.

    `frames` is a sequence of (frame id, BoW vector).  Returns the canonical
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
        others = [frames[j] for j in range(len(frames)) if j != position]
        partner = most_similar(bow, others)
        pairs.add((min(frame_id, partner), max(frame_id, partner)))
    return sorted(pairs)
