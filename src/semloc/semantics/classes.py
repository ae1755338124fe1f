"""Semantic class registry: exactly eight object classes per registry."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AnnotationError

REGISTRY_SIZE = 8

# class id of a feature or landmark that no detection labels; registries only
# hold non-negative ids, so it never collides with a real class
UNLABELED = -1

# stable scene-element classes of the synthetic benchmark
DEFAULT_CLASS_NAMES = (
    "vent",
    "light",
    "handrail",
    "rack_panel",
    "hatch",
    "port",
    "strut",
    "screen",
)


@dataclass(frozen=True)
class SemanticClass:
    id: int
    name: str


class ClassRegistry:
    """Bidirectional id/name lookup over a fixed set of eight classes."""

    def __init__(self, classes: list[SemanticClass]):
        if len(classes) != REGISTRY_SIZE:
            raise AnnotationError(
                f"registry must define exactly {REGISTRY_SIZE} classes, got {len(classes)}"
            )
        ids = [c.id for c in classes]
        names = [c.name for c in classes]
        if min(ids) < 0:
            raise AnnotationError(f"class ids must be non-negative, got {min(ids)}")
        if len(set(ids)) != len(ids) or len(set(names)) != len(names):
            raise AnnotationError("class ids and names must be unique")
        self._classes = sorted(classes, key=lambda c: c.id)
        self._by_id = {c.id: c for c in self._classes}
        self._by_name = {c.name: c for c in self._classes}

    @classmethod
    def default(cls) -> "ClassRegistry":
        return cls([SemanticClass(i, n) for i, n in enumerate(DEFAULT_CLASS_NAMES)])

    def __iter__(self):
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def by_id(self, class_id: int) -> SemanticClass:
        try:
            return self._by_id[class_id]
        except KeyError as exc:
            raise AnnotationError(f"unknown class id {class_id}") from exc

    def by_name(self, name: str) -> SemanticClass:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise AnnotationError(f"unknown class name '{name}'") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
