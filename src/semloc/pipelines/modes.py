"""Semantic operating modes shared by the estimation pipelines."""

from __future__ import annotations

import enum

import numpy as np

from ..features.match import knn_ratio_match
from ..semantics.filtering import filter_matches_by_class, match_per_class
from ..semantics.labeling import FrameFeatures


class SemanticMode(enum.Enum):
    """How object detections participate in feature matching.

    BASELINE ignores semantics entirely; PRE keeps only the features inside
    detections and matches within each class; POST matches everything first
    and then discards class-inconsistent pairs.
    """

    BASELINE = "baseline"
    PRE = "pre"
    POST = "post"

    @classmethod
    def parse(cls, value: "SemanticMode | str") -> "SemanticMode":
        if isinstance(value, SemanticMode):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(f"unknown semantic mode: {value!r}") from None


def mode_features(features: FrameFeatures, mode: SemanticMode) -> FrameFeatures:
    """The features a mode matches with: pre keeps only the labeled ones."""
    return features.labeled() if mode is SemanticMode.PRE else features


def mode_matches(
    query_descriptors: np.ndarray,
    query_labels: np.ndarray,
    train_descriptors: np.ndarray,
    train_labels: np.ndarray,
    mode: SemanticMode,
    ratio: float,
) -> np.recarray:
    """The mode's descriptor matching: pre matches class by class; post
    matches everything, then keeps the class-consistent pairs; baseline is
    unrestricted.  Match indices are rows of the arrays passed in."""
    if mode is SemanticMode.PRE:
        return match_per_class(
            query_descriptors, query_labels, train_descriptors, train_labels, ratio
        )
    matches = knn_ratio_match(query_descriptors, train_descriptors, ratio)
    if mode is SemanticMode.POST:
        matches = filter_matches_by_class(matches, query_labels, train_labels)
    return matches


def derive_rng_seed(seed: int, *ids: int) -> int:
    """Stable per-item RNG seed so parallel and serial runs agree."""
    return int(np.random.SeedSequence([int(seed), *map(int, ids)]).generate_state(1)[0])
