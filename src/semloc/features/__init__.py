"""Descriptor matching with Lowe's ratio test."""

from .match import DEFAULT_RATIO, Match, knn_ratio_match

__all__ = ["DEFAULT_RATIO", "Match", "knn_ratio_match"]
