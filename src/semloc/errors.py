"""Exception hierarchy shared across the package."""


class SemlocError(Exception):
    """Base class for all package-specific failures."""


class DegenerateGeometryError(SemlocError):
    """Input configuration admits no well-posed geometric solution."""


class InsufficientDataError(SemlocError):
    """Too few inputs to run an operation at all."""


class AnnotationError(SemlocError):
    """A detection/annotation file is malformed or inconsistent."""


class MapFormatError(SemlocError):
    """A persisted map cannot be read back (version or structure)."""


class WorldGenerationError(SemlocError):
    """Synthetic world construction could not satisfy its constraints."""
