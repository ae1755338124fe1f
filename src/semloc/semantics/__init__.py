"""Semantic classes, detections, keypoint labelling and featurization, and
the three matching modes with their class-aware matching."""

from .boxes import (
    DEFAULT_MIN_CONFIDENCE,
    BoundingBox,
    DetectionSet,
    load_detections,
    save_detections,
)
from .classes import (
    DEFAULT_CLASS_NAMES,
    REGISTRY_SIZE,
    UNLABELED,
    ClassRegistry,
    SemanticClass,
)
from .filtering import (
    SemanticMode,
    filter_matches_by_class,
    match_per_class,
    mode_features,
    mode_matches,
)
from .labeling import (
    FeatureObservation,
    FrameFeatures,
    extract_frame_features,
    label_keypoints,
)

__all__ = [
    "DEFAULT_CLASS_NAMES",
    "DEFAULT_MIN_CONFIDENCE",
    "REGISTRY_SIZE",
    "UNLABELED",
    "BoundingBox",
    "ClassRegistry",
    "DetectionSet",
    "FeatureObservation",
    "FrameFeatures",
    "SemanticClass",
    "SemanticMode",
    "extract_frame_features",
    "filter_matches_by_class",
    "label_keypoints",
    "load_detections",
    "match_per_class",
    "mode_features",
    "mode_matches",
    "save_detections",
]
