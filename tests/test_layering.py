"""Package imports inside semloc point down the layer order, never up,
nothing outside the standard library but numpy is imported, and the pinhole
formula is written in one place."""

import ast
import sys
from pathlib import Path

import semloc

PACKAGE_ROOT = Path(semloc.__file__).parent

# the only modules that compute with the intrinsics: the camera model, and
# the analytic Jacobian of the refinement
INTRINSICS_ARITHMETIC = {"geometry/pose.py", "geometry/refine.py"}
_INTRINSICS = {"fx", "fy", "cx", "cy"}

# lowest first; a module may import its own package and any package listed
# before it (simworld writes trajectories, so trajectory_io sits below it)
LAYERS = [
    "errors",
    "features",
    "semantics",
    "geometry",
    "trajectory_io",
    "simworld",
    "mapping",
    "pipelines",
    "evaluation",
    "cli",
    "__main__",  # python -m semloc
]


def _layer(module: str) -> "str | None":
    """Top-level semloc package of a dotted module name (None: not semloc's)."""
    parts = module.split(".")
    if parts[0] != "semloc":
        return None
    return parts[1] if len(parts) > 1 else "semloc"


def _module_parts(relative_path: Path) -> list[str]:
    parts = ["semloc", *relative_path.with_suffix("").parts]
    if parts[-1] == "__init__":
        parts.pop()
    return parts


def _imported_modules(relative_path: Path, source: str) -> list[str]:
    """Every module `source` imports, at any depth, relative imports resolved."""
    module_parts = _module_parts(relative_path)
    package_parts = module_parts if relative_path.name == "__init__.py" else module_parts[:-1]
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                imported.append(node.module)
                continue
            base = package_parts[: len(package_parts) - (node.level - 1)]
            imported.append(".".join(base + ([node.module] if node.module else [])))
    return imported


def _upward_imports(relative_path: Path, source: str) -> list[str]:
    """'importer -> imported' for every import in `source` that points up."""
    module_parts = _module_parts(relative_path)
    own = _layer(".".join(module_parts))
    imported = _imported_modules(relative_path, source)

    upward = []
    for module in imported:
        target = _layer(module)
        if target is None or target == own:
            continue
        if target not in LAYERS or LAYERS.index(target) > LAYERS.index(own):
            upward.append(f"{'.'.join(module_parts)} -> {module}")
    return upward


def _third_party_imports(relative_path: Path, source: str) -> list[str]:
    """'importer -> imported' for every import of a package that is neither
    semloc, numpy nor part of the standard library."""
    allowed = {"semloc", "numpy", *sys.stdlib_module_names}
    importer = ".".join(_module_parts(relative_path))
    return [
        f"{importer} -> {module}"
        for module in _imported_modules(relative_path, source)
        if module.split(".")[0] not in allowed
    ]


def test_every_module_belongs_to_a_layer():
    packages = {
        path.relative_to(PACKAGE_ROOT).with_suffix("").parts[0]
        for path in PACKAGE_ROOT.rglob("*.py")
        if path != PACKAGE_ROOT / "__init__.py"
    }
    assert packages == set(LAYERS)


def test_package_imports_point_down_the_layer_order():
    upward = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        if path == PACKAGE_ROOT / "__init__.py":
            continue
        upward += _upward_imports(path.relative_to(PACKAGE_ROOT), path.read_text())
    assert upward == []


def test_numpy_is_the_only_third_party_import():
    third_party = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        third_party += _third_party_imports(path.relative_to(PACKAGE_ROOT), path.read_text())
    assert third_party == []


def test_the_layer_check_sees_relative_absolute_and_local_imports():
    source = (
        "from ..errors import SemlocError\n"
        "from .labeling import label_keypoints\n"
        "from ..mapping.vocabulary import bow_vector\n"
        "def f():\n"
        "    import semloc.cli\n"
    )
    assert _upward_imports(Path("semantics/filtering.py"), source) == [
        "semloc.semantics.filtering -> semloc.mapping.vocabulary",
        "semloc.semantics.filtering -> semloc.cli",
    ]
    assert _upward_imports(Path("cli.py"), "from .evaluation import run_benchmark\n") == []
    assert _upward_imports(Path("features/__init__.py"), "from . import match\n") == []


def test_the_third_party_check_sees_absolute_and_local_imports():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "from ..errors import SemlocError\n"
        "from scipy.spatial.distance import cdist\n"
        "def f():\n"
        "    import scipy.spatial\n"
        "    import yaml\n"
    )
    assert _third_party_imports(Path("features/match.py"), source) == [
        "semloc.features.match -> scipy.spatial.distance",
        "semloc.features.match -> scipy.spatial",
        "semloc.features.match -> yaml",
    ]


def _intrinsics_arithmetic(source: str) -> list[int]:
    """Lines of every arithmetic expression in `source` that has an fx, fy, cx
    or cy attribute among its operands, at any depth."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.UnaryOp))
        and any(
            isinstance(inner, ast.Attribute) and inner.attr in _INTRINSICS
            for inner in ast.walk(node)
        )
    })


def test_only_the_camera_model_computes_with_the_intrinsics():
    found = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        if relative not in INTRINSICS_ARITHMETIC:
            found += [f"{relative}:{line}" for line in _intrinsics_arithmetic(path.read_text())]
    assert found == []


def test_the_intrinsics_check_sees_nested_operands():
    source = (
        "u = k.fx * x / z + k.cx\n"
        "v = np.column_stack([x, -k.fy * y])\n"
        "w = np.array([k.fx, k.fy]) / z\n"
        "record = {'fx': k.fx, 'cx': k.cx}\n"
        "ok = 0.0 <= k.cx < k.width\n"
    )
    assert _intrinsics_arithmetic(source) == [1, 2, 3]
