"""Spans around semloc's layer functions, and the per-layer metrics they give.

semloc modules import these functions by name (``from ..geometry.ransac
import ransac_pnp``), so a function is wrapped at every ``semloc.*`` module
attribute bound to it, not only where it is defined. Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (defining module, function): every traced layer function. The metric
# prefix is "<package>.<function>", e.g. "geometry.ransac_pnp".
TRACED = [
    ("semloc.simworld.world", "generate_world"),
    ("semloc.simworld.synthesize", "synthesize_frame"),
    ("semloc.simworld.dataset", "write_dataset"),
    ("semloc.simworld.dataset", "load_dataset_frames"),
    ("semloc.features.match", "knn_ratio_match"),
    ("semloc.semantics.labeling", "label_keypoints"),
    ("semloc.semantics.filtering", "match_per_class"),
    ("semloc.semantics.filtering", "filter_matches_by_class"),
    ("semloc.geometry.five_point", "five_point_essential"),
    ("semloc.geometry.epipolar", "sampson_error"),
    ("semloc.geometry.ransac", "ransac_essential"),
    ("semloc.geometry.p3p", "p3p_solve"),
    ("semloc.geometry.ransac", "ransac_pnp"),
    ("semloc.geometry.refine", "refine_pose"),
    ("semloc.geometry.triangulate", "triangulate_two_view"),
    ("semloc.mapping.build", "build_map"),
    ("semloc.mapping.vocabulary", "build_vocabulary"),
    ("semloc.mapping.vocabulary", "bow_vector"),
    ("semloc.mapping.sparse_map", "query_candidates"),
    ("semloc.mapping.sparse_map", "save_map"),
    ("semloc.mapping.sparse_map", "load_map"),
    ("semloc.pipelines.frames", "extract_frame_features"),
    ("semloc.pipelines.pairing", "most_similar"),
    ("semloc.pipelines.relocalize", "candidate_matches"),
    ("semloc.pipelines.relocalize", "dedup_matches"),
    ("semloc.pipelines.relocalize", "relocalize"),
    ("semloc.pipelines.relative", "relative_pose"),
    ("semloc.evaluation.match_metrics", "evaluate_pair"),
    ("semloc.evaluation.trajectory_metrics", "absolute_errors"),
    ("semloc.evaluation.report", "emit_report"),
]

CLI_COMMANDS = ("simulate", "build-map", "relocalize", "evaluate")


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, files in os.walk(root)
        for name in files
    )


# Counts taken at the span boundary: (bound arguments, result) -> number.
_COUNTS = {
    "features.knn_ratio_match": lambda a, r: (len(a["query"]), len(r)),
    "semantics.filter_matches_by_class": lambda a, r: (len(a["matches"]), len(r)),
    "pipelines.relocalize": lambda a, r: int(r.failure_reason is not None),
    "mapping.save_map": lambda a, r: os.path.getsize(a["path"]),
    "simworld.write_dataset": lambda a, r: _tree_bytes(a["out_dir"]),
}


SPAN_FIELDS = ["name", "start", "end", "parent", "pass", "failed", "count"]


class Tracer:
    """Records one span per call, a list laid out as SPAN_FIELDS."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.pass_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.pass_id, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except Exception:
            record[5] = True
            raise
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    record[6] = count(bound, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each semloc module attribute bound to it."""
        wrappers = {}
        for module_name, attr in TRACED:
            fn = getattr(importlib.import_module(module_name), attr)
            wrappers[id(fn)] = self._wrap(f"{module_name.split('.')[1]}.{attr}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "semloc" and not module_name.startswith("semloc."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        """One JSON array per line; the first line names the fields and a
        span's parent is its line index among the spans."""
        with open(path, "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(spans: list[list], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} of one traced pass.

    A layer's self time is its spans' duration minus the time its child spans
    cover. Every metric is present; a layer the workload never calls reads 0.
    """
    durations = defaultdict(list)
    self_s = defaultdict(float)
    failed = defaultdict(int)
    counts = defaultdict(list)
    children_of = defaultdict(lambda: defaultdict(int))  # parent name -> child name -> calls
    for name, start, end, parent, _, was_failed, count in spans:
        duration = end - start
        durations[name].append(duration)
        self_s[name] += duration
        failed[name] += was_failed
        if count is not None:
            counts[name].append(count)
        if parent is not None:
            parent_name = spans[parent][0]
            self_s[parent_name] -= duration
            children_of[parent_name][name] += 1

    def calls(name):
        return len(durations[name])

    def ms(name, q):
        return float(np.percentile(durations[name], q)) * 1e3 if durations[name] else 0.0

    metrics: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    for module_name, attr in TRACED:
        name = f"{module_name.split('.')[1]}.{attr}"
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.self_s", self_s[name], "s")
    for name in ("pipelines.relative_pose", "pipelines.relocalize"):
        put(f"{name}.ms_p50", ms(name, 50), "ms")
    put("pipelines.relocalize.ms_p90", ms("pipelines.relocalize", 90), "ms")
    for ransac, solver in (
        ("geometry.ransac_essential", "geometry.five_point_essential"),
        ("geometry.ransac_pnp", "geometry.p3p_solve"),
    ):
        put(f"{ransac}.solver_calls_per_call",
            _ratio(children_of[ransac][solver], calls(ransac)), "calls/call")
        put(f"{ransac}.fail_ratio", _ratio(failed[ransac], calls(ransac)), "failed/call")
    put("pipelines.relocalize.fail_ratio",
        _ratio(sum(counts["pipelines.relocalize"]), calls("pipelines.relocalize")),
        "failed/call")
    put("pipelines.extract_frame_features.calls_per_query",
        _ratio(calls("pipelines.extract_frame_features"), calls("pipelines.relocalize")),
        "calls/query")
    knn = counts["features.knn_ratio_match"]
    put("features.knn_ratio_match.matches_per_query_feature",
        _ratio(sum(m for _, m in knn), sum(q for q, _ in knn)), "matches/feature")
    kept = counts["semantics.filter_matches_by_class"]
    put("semantics.filter_matches_by_class.kept_ratio",
        _ratio(sum(k for _, k in kept), sum(n for n, _ in kept)), "kept/input")
    for name in ("simworld.write_dataset", "mapping.save_map"):
        put(f"{name}.bytes", sum(counts[name]), "bytes")
    for command in CLI_COMMANDS:
        put(f"cli.{command}.s", sum(durations[f"cli.{command}"]), "s")
    put("trace_overhead_s", overhead_s, "s")
    return metrics
