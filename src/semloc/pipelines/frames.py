"""Frame adapters: synthetic frames as query frames or map-building inputs.

The featurizer itself lives in ``semantics.labeling`` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mapping.build import MapFrameInput
from ..semantics.boxes import DetectionSet
from ..semantics.labeling import (  # noqa: F401  re-exported
    FeatureObservation,
    FrameFeatures,
    extract_frame_features,
)


@dataclass
class QueryFrame:
    """A frame to localize: its keypoints and descriptors with detections."""

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


def map_frame_from_synthetic(frame) -> MapFrameInput:
    """Adapt a synthesized frame (known pose) for map building."""
    return MapFrameInput(
        observation=FeatureObservation(frame.keypoints, frame.descriptors),
        pose=frame.pose,
        detections=frame.boxes,
        frame_id=frame.frame_id,
    )
