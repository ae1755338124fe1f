"""Every function defined under src/semloc is reached by the command chain
below, or is on ALLOWLIST with the reason it is not.

The chain runs each CLI command on a small scene in a subprocess whose
profiler is installed before semloc is imported, so code that runs at import
counts as reached: simulate, build-map with and without --semantic,
relocalize and relpose in every mode, evaluate with every alignment and a
one-seed benchmark, which runs in that process rather than in forked
workers. The scene file writes one key of each INI parser kind.

A function is keyed by its code object's first line, which is the line of
its first decorator, so a decorated function is matched to its own calls.
An allowlisted function that the chain does call fails the test too, so the
list cannot go stale.
"""

import inspect
import json
import os
import subprocess
import sys
import types

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# one key of each parser kind in simworld.config._KEYS: _positive, _count,
# _nonnegative, _count_in, _one_of, _point, _number, _flag, _target, _distinct
SCENE_INI = """\
[world]
dim_x = 8.0
landmarks_per_object = 12
background_landmarks = 40
clutter_landmarks = 70
delta_desc = 0.9
seed = 3

[camera]
width = 640

[noise]
sigma_px = 0.5

[mapping]
kind = yaw
steps = 10
radius = 0.5

; the half-turn sweep leaves benchmark frames that do not localize
[evaluation]
kind = yaw
center = 4.1, 2.05, 1.5
steps = 4
sweep_deg = 180
radius = 0.35
heading_deg = 5
dt = 0.1
t0 = 100

[perturbation]
enabled = true
kind = rotate_object
magnitude_deg = 180
target = densest_movable

[benchmark]
seeds = 0
modes = baseline, pre, post
vocabulary_k = 16
"""

PROBE = """\
import json
import os
import sys

codes = {}


def probe(frame, event, arg):
    if event == "call":
        codes[id(frame.f_code)] = frame.f_code


sys.setprofile(probe)
from semloc.cli import main  # noqa: E402 - the profiler must see every import

work = sys.argv[1]
data = os.path.join(work, "data")
mapping, evaluation = os.path.join(data, "mapping"), os.path.join(data, "evaluation")
steps = [["simulate", "--config", os.path.join(work, "scene.ini"), "--out", data]]
for name, extra in (("semantic.npz", ["--semantic"]), ("full.npz", [])):
    steps.append([
        "build-map", "--frames", os.path.join(mapping, "frames"),
        "--annotations", os.path.join(mapping, "annotations"),
        "--intrinsics", os.path.join(mapping, "intrinsics.json"),
        "--out", os.path.join(work, name),
    ] + extra)
for mode in ("baseline", "pre", "post"):
    steps.append([
        "relocalize", "--map", os.path.join(work, "semantic.npz" if mode == "pre" else "full.npz"),
        "--frames", os.path.join(evaluation, "frames"), "--mode", mode,
        "--out", os.path.join(work, f"traj_{mode}.txt"),
    ])
    steps.append([
        "relpose", "--frames", os.path.join(mapping, "frames"), "--mode", mode,
        "--out", os.path.join(work, f"pairs_{mode}.csv"),
    ])
for alignment in ("none", "first_pose", "umeyama_no_scale"):
    steps.append([
        "evaluate", "--est", os.path.join(work, "traj_post.txt"),
        "--gt", os.path.join(evaluation, "gt_traj.txt"), "--alignment", alignment,
        "--out", os.path.join(work, f"metrics_{alignment}.csv"),
    ])
# one seed, so run_benchmark runs it in this process
steps.append(["benchmark", "--config", os.path.join(work, "scene.ini"), "--out", work + "/bench"])
for argv in steps:
    status = main(argv)
    if status != 0:
        sys.exit(f"semloc {' '.join(argv)} exited {status}")
sys.setprofile(None)
json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in codes.values()}), sys.stdout)
"""

# module:qualname -> why no command of the chain calls it
ALLOWLIST = {
    # error paths
    "semloc.cli:_Parser.error": "usage errors; test_cli checks their exit code",
    "semloc.trajectory_io:ArrayFile.fail": "an unreadable map or observations archive",
    "semloc.trajectory_io:ArrayFile.malformed": "a map or observations archive that fails a check",
    # pinned by the benchmark harness, which imports or traces them by name
    "semloc.geometry.ransac:ransac_pnp": "perfbench traces it",
    "semloc.geometry.refine:refine_pose": "perfbench traces it",
    "semloc.pipelines.relocalize:relocalize": "perfbench traces it",
    "semloc.pipelines.frames:QueryFrame.from_synthetic": "perfbench's match_ratio calls it",
    "semloc.evaluation.match_metrics:evaluate_pair": "perfbench traces it",
    "semloc.geometry.metrics:translation_heading_error_deg": "evaluate_pair calls it",
    "semloc.evaluation.report:parse_report": "perfbench checks its reports with it",
    "semloc.mapping.vocabulary:bow_vector": "perfbench traces it and match_ratio calls it",
}


def _functions(code: types.CodeType, prefix: str):
    """(first line, qualname) of every def under a code object; class bodies
    contribute their name to the qualname, lambdas and comprehensions are skipped."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
            yield const.co_firstlineno, name
            yield from _functions(const, name + ".<locals>.")
        else:
            yield from _functions(const, name + ".")


def _defined() -> dict:
    """(path, first line) -> module:qualname of every function under src/semloc."""
    defined = {}
    for directory, _, files in os.walk(os.path.join(SRC, "semloc")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            with open(path) as fh:
                code = compile(fh.read(), path, "exec")
            for line, qualname in _functions(code, ""):
                defined[(path, line)] = f"{module}:{qualname}"
    return defined


def _reached(tmp_path) -> set:
    (tmp_path / "scene.ini").write_text(SCENE_INI)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC, "SEMLOC_LOG": "error"},
    )
    assert proc.returncode == 0, proc.stderr
    return {(os.path.realpath(path), line) for path, line in json.loads(proc.stdout)}


def test_every_function_is_reached_by_a_command_or_allowlisted(tmp_path):
    defined = _defined()
    reached = _reached(tmp_path)
    unreached = {name for key, name in defined.items() if key not in reached}
    called = {name for key, name in defined.items() if key in reached}
    missing = sorted(unreached - ALLOWLIST.keys())
    assert not missing, f"defined under src/semloc, reached by no command: {missing}"
    stale = sorted(called & ALLOWLIST.keys())
    assert not stale, f"allowlisted, but the chain calls them: {stale}"
    gone = sorted(ALLOWLIST.keys() - defined.values())
    assert not gone, f"allowlisted, but not defined: {gone}"
