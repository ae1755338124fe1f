"""The benchmark harness under perfbench/ imports semloc names directly and
traces layer functions by (module, attribute); every one must resolve."""

import importlib
import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    """Import perfbench/<name>.py by path, without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_import_every_semloc_name_they_use():
    workloads = _load("workloads")
    assert workloads.WORKLOADS


def test_every_traced_function_resolves():
    tracing = _load("tracing")
    assert tracing.TRACED
    for module_name, attr in tracing.TRACED:
        function = getattr(importlib.import_module(module_name), attr, None)
        assert callable(function), f"{module_name}.{attr} is not importable"
