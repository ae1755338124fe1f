"""End-to-end estimators: relocalization and pairwise relative pose."""

from .modes import SemanticMode, derive_rng_seed, mode_features
from .frames import (
    FrameFeatures,
    QueryFrame,
    extract_frame_features,
    frame_features,
)
from .relocalize import (
    LocalizationResult,
    candidate_matches,
    dedup_matches,
    relocalize,
    relocalize_frames,
)
from .relative import (
    RelativePoseResult,
    match_frames,
    relative_pose,
)
from .pairing import most_similar, pair_selection

__all__ = [
    "FrameFeatures",
    "LocalizationResult",
    "QueryFrame",
    "RelativePoseResult",
    "SemanticMode",
    "candidate_matches",
    "dedup_matches",
    "derive_rng_seed",
    "extract_frame_features",
    "frame_features",
    "match_frames",
    "mode_features",
    "most_similar",
    "pair_selection",
    "relative_pose",
    "relocalize",
    "relocalize_frames",
]
