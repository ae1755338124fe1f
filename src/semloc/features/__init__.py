"""Descriptor matching with Lowe's ratio test, and the match record it returns."""

from .match import DEFAULT_RATIO, knn_ratio_match, match_record

__all__ = ["DEFAULT_RATIO", "knn_ratio_match", "match_record"]
