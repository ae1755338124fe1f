"""Detection bounding boxes and their annotation-file representation.

Annotation files are JSON of the form::

    {"frame": 12, "boxes": [
        {"class": "vent", "box": [x_min, y_min, x_max, y_max], "confidence": 0.9},
        ...
    ]}
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

from ..errors import AnnotationError
from .classes import ClassRegistry, SemanticClass

logger = logging.getLogger(__name__)

DEFAULT_MIN_CONFIDENCE = 0.5


@dataclass
class BoundingBox:
    semantic_class: SemanticClass
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float

    def __post_init__(self):
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise AnnotationError("box extents are inverted")
        if not (0.0 <= self.confidence <= 1.0):
            raise AnnotationError(f"confidence {self.confidence} outside [0, 1]")

    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, x, y):
        """Inclusive containment of a point, or elementwise of coordinate arrays."""
        return (self.x_min <= x) & (x <= self.x_max) & (self.y_min <= y) & (y <= self.y_max)


@dataclass
class DetectionSet:
    frame_id: int
    boxes: list[BoundingBox] = field(default_factory=list)


def _finite_number(value) -> bool:
    """A finite JSON number: not a bool, not a NaN or Infinity token (read as
    a string) and not a literal too large for a float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def load_detections(path: str, registry: ClassRegistry, image_size: tuple[int, int]) -> DetectionSet:
    """Parse one annotation file; boxes are clamped to the image bounds.

    image_size: (width, height).  Boxes below DEFAULT_MIN_CONFIDENCE or with zero
    area after clamping are dropped (the latter logged).  Malformed entries,
    non-finite numbers and unknown class names raise AnnotationError naming
    the offending field.
    """
    width, height = image_size
    with open(path) as fh:
        try:
            # NaN and Infinity stay strings, which no numeric field accepts
            raw = json.load(fh, parse_constant=str)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc

    if not isinstance(raw, dict) or "frame" not in raw:
        raise AnnotationError(f"{path}: missing 'frame' field")
    frame_id = raw["frame"]
    if not isinstance(frame_id, int) or isinstance(frame_id, bool):
        raise AnnotationError(f"{path}: 'frame' is not an integer")
    entries = raw.get("boxes", [])
    if not isinstance(entries, list):
        raise AnnotationError(f"{path}: 'boxes' is not a list")

    boxes: list[BoundingBox] = []
    dropped = 0
    for i, entry in enumerate(entries):
        where = f"{path}: boxes[{i}]"
        if not isinstance(entry, dict):
            raise AnnotationError(f"{where}: not an object")
        for key in ("class", "box", "confidence"):
            if key not in entry:
                raise AnnotationError(f"{where}: missing field '{key}'")
        name = entry["class"]
        if name not in registry:
            raise AnnotationError(f"{where}: unknown class name '{name}'")
        box, conf = entry["box"], entry["confidence"]
        if not (isinstance(box, list) and len(box) == 4 and all(map(_finite_number, box))):
            raise AnnotationError(f"{where}: field 'box' is not four finite numbers")
        if not _finite_number(conf):
            raise AnnotationError(f"{where}: field 'confidence' is not a finite number")
        x0, y0, x1, y1 = (float(v) for v in box)
        conf = float(conf)
        if x1 < x0 or y1 < y0:
            raise AnnotationError(f"{where}: field 'box' has inverted extents")
        if conf < DEFAULT_MIN_CONFIDENCE:
            continue
        x0c, x1c = max(0.0, x0), min(float(width - 1), x1)
        y0c, y1c = max(0.0, y0), min(float(height - 1), y1)
        if x1c <= x0c or y1c <= y0c:
            dropped += 1
            continue
        boxes.append(BoundingBox(registry.by_name(name), x0c, y0c, x1c, y1c, conf))
    if dropped:
        logger.warning("%s: dropped %d zero-area boxes after clamping", path, dropped)
    return DetectionSet(frame_id=frame_id, boxes=boxes)


def save_detections(path: str, detections: DetectionSet) -> None:
    payload = {
        "frame": detections.frame_id,
        "boxes": [
            {
                "class": b.semantic_class.name,
                "box": [b.x_min, b.y_min, b.x_max, b.y_max],
                "confidence": b.confidence,
            }
            for b in detections.boxes
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
