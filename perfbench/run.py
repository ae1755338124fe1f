#!/usr/bin/env python3
"""semloc benchmark: time the seeds x modes sweep and the CLI chain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scene_change --seed 0 --seconds 35 --trace 0

One process, one sequential caller (a closed loop with one client). With
``--trace 0`` the run times untraced passes and prints the end-to-end
metrics; with ``--trace 1`` it times one untraced and one traced pass and
prints the per-layer metrics, including the tracing overhead. The last line
of standard output is the JSON result; the lines before it give quartiles,
ratio bases, run metadata and the output-tree digest.

``--profile N`` instead runs one pass under cProfile and writes the top N
functions by cumulative time to ``.perfbench_out/``; it prints no metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Python 3.11 rejects SceneConfig's CameraIntrinsics default while that
# class is an unhashable dataclass; this is the exact error it raises.
GUARDED_ERROR = (
    "mutable default <class 'semloc.geometry.pose.CameraIntrinsics'> "
    "for field intrinsics is not allowed: use default_factory"
)


def limit_blas_threads() -> int:
    """Cap the BLAS/OpenMP pools at the CPUs this process may use; returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return min(int(os.environ[var]) for var in BLAS_THREAD_VARS)


def _import_entry_points() -> None:
    for name in ("semloc.cli", "semloc.evaluation"):
        importlib.import_module(name)


def import_semloc() -> bool:
    """Import semloc from the checkout; True when the import guard was needed.

    The guard gives CameraIntrinsics identity hashing and imports again. It
    fires only on GUARDED_ERROR: nothing in semloc hashes or mutates a
    CameraIntrinsics, so results match those of a frozen dataclass.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "semloc")):
        raise SystemExit(f"perfbench: no semloc sources under {src}")
    sys.path.insert(0, src)
    try:
        _import_entry_points()
        return False
    except ValueError as exc:
        if str(exc) != GUARDED_ERROR:
            raise
    from semloc.geometry.pose import CameraIntrinsics

    CameraIntrinsics.__hash__ = object.__hash__
    _import_entry_points()
    return True


def setup() -> tuple[bool, int]:
    """Everything before the first pass: thread caps, imports, scratch dirs."""
    threads = limit_blas_threads()
    guard = import_semloc()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)
    return guard, threads


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter doing setup(), SETUP_PROBES times."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe"],
            check=True, cwd=ROOT,
        )
        samples.append(time.perf_counter() - start)
    return samples


def metadata(threads: int, guard: bool) -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "import_guard": "on" if guard else "off",
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, metavar="N",
                        help="profile one pass; report the top N functions")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    guard, threads = setup()
    if args.setup_probe:
        return 0
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    pass_dir = os.path.join(WORK_DIR, "pass")
    checks = workloads.Checks()

    def one_pass(span=contextlib.nullcontext) -> float:
        shutil.rmtree(pass_dir, ignore_errors=True)
        os.makedirs(pass_dir)
        start = time.perf_counter()
        workload.run(args.seed, pass_dir, checks, span)
        return time.perf_counter() - start

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.runcall(one_pass)
        path = os.path.join(OUT_DIR, f"profile-{args.workload}-seed{args.seed}.txt")
        with open(path, "w") as fh:
            pstats.Stats(profiler, stream=fh).sort_stats("cumulative").print_stats(args.profile)
        print(f"profile of one {args.workload} pass written to {path}")
        return 0

    setup_samples = [] if args.trace else measure_setup()
    walls, digests, scores = [], [], None
    tracer = tracing.Tracer() if args.trace else None

    def finish_pass(wall: float) -> None:
        nonlocal scores
        walls.append(wall)
        workload.check(args.seed, pass_dir, checks)
        digests.append(workloads.tree_digest(pass_dir))
        if len(digests) > 1:
            checks.expect(digests[-1] == digests[0], f"pass {len(digests)} output digest")
        if scores is None and not args.trace:
            scores = workload.score(args.seed, pass_dir)

    if args.trace:
        finish_pass(one_pass())
        tracer.install()
        try:
            tracer.pass_id = 1
            traced_wall = one_pass(tracer.span)
        finally:
            tracer.uninstall()
        finish_pass(traced_wall)
    else:
        start = time.perf_counter()
        while True:
            finish_pass(one_pass())
            # stop when another pass like the last would overrun --seconds
            if time.perf_counter() - start + walls[-1] > args.seconds:
                break
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"{workload.inputs(args.seed)} passes={len(walls)} "
          f"import_guard={'on' if guard else 'off'}")
    print(f"digest={digests[0]}")
    print("meta " + json.dumps(metadata(threads, guard), sort_keys=True))
    for failure in checks.failures:
        print(f"FAILED check: {failure}")

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"spans={spans_path} untraced_wall_s={walls[0]:.4f} traced_wall_s={walls[1]:.4f}")
        metrics = tracing.layer_metrics(tracer.spans, walls[1] - walls[0])
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics.update({name: (value, "1") for name, value in scores.items()})
        for name, samples in (("wall_s", walls), ("setup_s", setup_samples)):
            q1, q2, q3 = quartiles(samples)
            print(f"{name} median={q2:.4f} q1={q1:.4f} q3={q3:.4f} n={len(samples)}")

    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
