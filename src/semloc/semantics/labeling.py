"""Assign class labels to keypoints from detection boxes, and featurize frames."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from .boxes import BoundingBox, DetectionSet
from .classes import UNLABELED


@dataclass
class FeatureObservation:
    """A frame's keypoints and descriptors, row-aligned."""

    keypoints: np.ndarray  # (n, 2) pixel coordinates
    descriptors: np.ndarray  # (n, d)

    def __post_init__(self):
        self.keypoints = np.asarray(self.keypoints, dtype=float).reshape(-1, 2)
        self.descriptors = np.atleast_2d(np.asarray(self.descriptors, dtype=float))
        if len(self.keypoints) != len(self.descriptors):
            raise InsufficientDataError("keypoint/descriptor counts disagree")


@dataclass
class FrameFeatures:
    """Per-frame features ready for matching."""

    coordinates: np.ndarray  # (n, 2) pixel positions
    descriptors: np.ndarray  # (n, d) unit rows
    labels: np.ndarray  # (n,) class id per feature, UNLABELED outside every box

    def labeled(self) -> "FrameFeatures":
        """The features inside some detection box, i.e. those with a label."""
        keep = self.labels != UNLABELED
        return FrameFeatures(self.coordinates[keep], self.descriptors[keep], self.labels[keep])


def label_keypoints(coordinates: np.ndarray, detections: DetectionSet) -> np.ndarray:
    """Label each (x, y) point with the class id of the box that owns it.

    coordinates: (N, 2) array of pixel positions.  Containment is inclusive
    of box edges.  When boxes overlap, the smallest-area box wins; area ties
    go to the higher-confidence box, and exact ties after that to the lower
    class id, so labelling is deterministic.  Points in no box get UNLABELED.
    """
    coordinates = np.asarray(coordinates, dtype=float)
    if coordinates.ndim != 2 or coordinates.shape[1] != 2:
        raise ValueError("coordinates must be an (N, 2) array")

    def order_key(box: BoundingBox) -> tuple[float, float, int]:
        return (box.area(), -box.confidence, box.semantic_class.id)

    x, y = coordinates.T
    labels = np.full(len(coordinates), UNLABELED)
    for box in sorted(detections.boxes, key=order_key):
        labels[(labels == UNLABELED) & box.contains(x, y)] = box.semantic_class.id
    return labels


def extract_frame_features(
    observation: FeatureObservation, detections: DetectionSet, masked: bool
) -> FrameFeatures:
    """Label each keypoint of a frame with the class of the box that owns it.

    With masked=True only labeled features are kept, i.e. exactly those
    inside the union of the detection boxes.
    """
    features = FrameFeatures(
        observation.keypoints,
        observation.descriptors,
        label_keypoints(observation.keypoints, detections),
    )
    return features.labeled() if masked else features
