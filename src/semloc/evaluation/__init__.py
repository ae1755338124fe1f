"""Trajectory metrics, match scoring, reporting, and the synthetic benchmark."""

from .benchmark import SeedOutcome, run_benchmark, synthesize_scene
from .match_metrics import (
    DEFAULT_SAMPSON_TOL,
    EMPTY_FLAG,
    UNDEFINED_FLAG,
    MatchEvalRecord,
    MatchRatio,
    correct_match_ratio,
    evaluate_pair,
)
from .report import (
    AGGREGATION_NOTE,
    REPORT_HEADER,
    BenchmarkRecord,
    emit_report,
    parse_report,
)
from .trajectory_metrics import (
    ALIGNMENTS,
    DEFAULT_MAX_DT,
    DEFAULT_POS_TOL_M,
    DEFAULT_ROT_TOL_DEG,
    TrajectoryErrorSeries,
    absolute_errors,
    success_rate,
)

__all__ = [
    "ALIGNMENTS",
    "AGGREGATION_NOTE",
    "DEFAULT_MAX_DT",
    "DEFAULT_POS_TOL_M",
    "DEFAULT_ROT_TOL_DEG",
    "DEFAULT_SAMPSON_TOL",
    "EMPTY_FLAG",
    "UNDEFINED_FLAG",
    "BenchmarkRecord",
    "MatchEvalRecord",
    "MatchRatio",
    "SeedOutcome",
    "TrajectoryErrorSeries",
    "absolute_errors",
    "correct_match_ratio",
    "emit_report",
    "evaluate_pair",
    "parse_report",
    "run_benchmark",
    "success_rate",
    "synthesize_scene",
]
