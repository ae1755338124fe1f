"""Package imports inside semloc point down the layer order, never up,
nothing outside the standard library but numpy is imported, the pinhole
formula and the semantic modes are each written in one place, and the
geometry kernels report degenerate input as a value rather than raising."""

import ast
import sys
from pathlib import Path

import semloc

PACKAGE_ROOT = Path(semloc.__file__).parent

# the only modules that compute with the intrinsics: the camera model, and
# the analytic Jacobian of the refinement
INTRINSICS_ARITHMETIC = {"geometry/pose.py", "geometry/refine.py"}
_INTRINSICS = {"fx", "fy", "cx", "cy"}

# the one module that names the semantic modes; every other reads SemanticMode
MODE_TABLE = "semantics/filtering.py"
_MODE_NAMES = {"baseline", "pre", "post"}

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


def _mode_name_literals(source: str) -> list[int]:
    """Lines of every tuple, list, set or dict display in `source` that holds
    all three mode names as string constants (a dict: as keys)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        elif isinstance(node, ast.Dict):
            items = node.keys
        else:
            continue
        names = {item.value for item in items if isinstance(item, ast.Constant)}
        if _MODE_NAMES <= names:
            found.add(node.lineno)
    return sorted(found)


def test_only_the_mode_table_spells_the_mode_names():
    found = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        if relative != MODE_TABLE:
            found += [f"{relative}:{line}" for line in _mode_name_literals(path.read_text())]
    assert found == []


def test_the_mode_name_check_sees_every_display():
    source = (
        'MODES = ("baseline", "pre", "post")\n'
        'order = ["post", "baseline", "other", "pre"]\n'
        'rates = {"baseline": 0.1, "pre": 0.2, "post": 0.3}\n'
        'known = {"pre", "post", "baseline"}\n'
        'some = ("baseline", "pre")\n'
        'values = tuple(mode.value for mode in SemanticMode)\n'
        'text = "baseline, pre, post"\n'
    )
    assert _mode_name_literals(source) == [1, 2, 3, 4]


def _degenerate_raises(source: str) -> list[int]:
    """Lines of every `raise DegenerateGeometryError` in `source` outside a
    __post_init__, the constructors that validate their input."""
    found = []

    def visit(node, in_constructor):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name == "__post_init__")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None and not in_constructor:
                raised = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(raised, ast.Name) and raised.id == "DegenerateGeometryError":
                    found.append(child.lineno)
            visit(child, in_constructor)

    visit(ast.parse(source), False)
    return sorted(found)


def test_geometry_raises_degenerate_input_only_in_constructors():
    found = []
    for path in sorted((PACKAGE_ROOT / "geometry").glob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        found += [f"{relative}:{line}" for line in _degenerate_raises(path.read_text())]
    assert found == []


def test_the_degenerate_raise_check_sees_a_planted_raise():
    source = (
        "class Pose:\n"
        "    def __post_init__(self):\n"
        "        raise DegenerateGeometryError('rotation is not orthonormal')\n"
        "def triangulate(pixels):\n"
        "    if pixels is None:\n"
        "        raise DegenerateGeometryError('degenerate baseline')\n"
        "    def inner():\n"
        "        raise DegenerateGeometryError\n"
        "    raise ValueError('not a stack')\n"
    )
    assert _degenerate_raises(source) == [6, 8]
