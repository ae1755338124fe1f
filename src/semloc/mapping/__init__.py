"""Sparse semantic map: building, retrieval vocabulary, and serialization."""

from .build import MapBuildConfig, MapFrameInput, build_map
from .sparse_map import (
    MAP_FORMAT_VERSION,
    Keyframe,
    SparseMap,
    load_map,
    query_candidates,
    save_map,
)
from .vocabulary import (
    DEFAULT_VOCABULARY_K,
    Vocabulary,
    bow_vector,
    bow_vectors,
    build_vocabulary,
    rank_by_similarity,
)

__all__ = [
    "DEFAULT_VOCABULARY_K",
    "MAP_FORMAT_VERSION",
    "Keyframe",
    "MapBuildConfig",
    "MapFrameInput",
    "SparseMap",
    "Vocabulary",
    "bow_vector",
    "bow_vectors",
    "build_map",
    "build_vocabulary",
    "load_map",
    "query_candidates",
    "rank_by_similarity",
    "save_map",
]
