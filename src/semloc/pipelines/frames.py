"""Frame adapters: a synthesized or loaded frame as labeled features.

The featurizer itself lives in ``semantics.labeling`` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..semantics.boxes import DetectionSet
from ..semantics.labeling import (  # noqa: F401  re-exported
    FeatureObservation,
    FrameFeatures,
    extract_frame_features,
)


def frame_features(frame) -> FrameFeatures:
    """A frame's keypoints labeled by its own detection boxes, unmasked."""
    observation = FeatureObservation(frame.keypoints, frame.descriptors)
    return extract_frame_features(observation, frame.boxes, masked=False)


@dataclass
class QueryFrame:
    """A frame's keypoints and descriptors with its detections."""

    frame_id: int
    observation: FeatureObservation
    detections: DetectionSet
    timestamp: float = 0.0

    @classmethod
    def from_synthetic(cls, frame) -> "QueryFrame":
        return cls(
            frame_id=frame.frame_id,
            observation=FeatureObservation(frame.keypoints, frame.descriptors),
            detections=frame.boxes,
            timestamp=frame.timestamp,
        )
