"""Benchmark report emission and parsing (CSV with CDF side files, or JSON)."""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

from ..errors import InsufficientDataError

REPORT_HEADER = (
    "seq,mode,ape_max,ape_median,ape_rmse,"
    "are_max,are_median,are_rmse,success_rate,correct_match_ratio"
)
AGGREGATION_NOTE = (
    "APE/ARE aggregates cover localized frames only; "
    "failed frames count in the success-rate denominator."
)
_FLOAT_FIELDS = REPORT_HEADER.split(",")[2:]
_SERIES_FIELDS = _FLOAT_FIELDS[:6]  # the APE and ARE aggregates


@dataclass(frozen=True)
class BenchmarkRecord:
    """Aggregated result of one sequence under one matching mode."""

    seq: str
    mode: str
    ape_max: float
    ape_median: float
    ape_rmse: float
    are_max: float
    are_median: float
    are_rmse: float
    success_rate: float
    correct_match_ratio: float
    ape_series: tuple = ()  # per-frame errors backing the CDF files
    are_series: tuple = ()

    @classmethod
    def from_series(cls, seq, mode, series, success_rate, correct_match_ratio):
        """The record of one trajectory's TrajectoryErrorSeries."""
        return cls(
            seq=seq,
            mode=mode,
            **{name: getattr(series, name) for name in _SERIES_FIELDS},
            success_rate=success_rate,
            correct_match_ratio=correct_match_ratio,
            ape_series=tuple(series.ape),
            are_series=tuple(series.are),
        )


def _fmt(value: float) -> str:
    return f"{float(value):.6g}"


def _cdf_rows(series) -> list[tuple[str, str]]:
    values = sorted(float(v) for v in series)
    n = len(values)
    return [(_fmt(v), _fmt((i + 1) / n)) for i, v in enumerate(values)]


def _cdf_path(report_path: str, record: BenchmarkRecord, metric: str) -> str:
    stem, _ = os.path.splitext(report_path)
    return f"{stem}_cdf_{record.seq}_{record.mode}_{metric}.csv"


def emit_report(records, path: str, format: str = "csv") -> None:
    """Write benchmark records to `path`.

    CSV format writes the fixed header row plus one row per record with six
    significant digits, and one "error,fraction" CDF file per record and
    metric alongside.  JSON format embeds the per-frame series directly.
    """
    records = list(records)
    if not records:
        raise InsufficientDataError("no records to report")
    if format == "csv":
        lines = [REPORT_HEADER]
        for record in records:
            row = [record.seq, record.mode]
            row += [_fmt(getattr(record, name)) for name in _FLOAT_FIELDS]
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        for record in records:
            for metric, series in (("ape", record.ape_series), ("are", record.are_series)):
                rows = ["error,fraction"]
                rows += [f"{e},{f}" for e, f in _cdf_rows(series)]
                with open(_cdf_path(path, record, metric), "w") as fh:
                    fh.write("\n".join(rows) + "\n")
        return
    if format == "json":
        payload = {
            "notes": AGGREGATION_NOTE,
            "records": [
                {
                    "seq": record.seq,
                    "mode": record.mode,
                    **{name: float(getattr(record, name)) for name in _FLOAT_FIELDS},
                    "ape_series": [float(v) for v in record.ape_series],
                    "are_series": [float(v) for v in record.are_series],
                }
                for record in records
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    raise ValueError(f"unknown report format {format!r}")


def parse_report(path: str) -> list[BenchmarkRecord]:
    """Read back a CSV report emitted by emit_report (aggregates only)."""
    with open(path) as fh:
        text = fh.read()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError(f"{path}: unexpected report header")
    records = []
    for row in csv.reader(io.StringIO("\n".join(lines[1:]))):
        if len(row) != len(REPORT_HEADER.split(",")):
            raise ValueError(f"{path}: malformed report row {row!r}")
        values = {name: float(v) for name, v in zip(_FLOAT_FIELDS, row[2:])}
        records.append(BenchmarkRecord(seq=row[0], mode=row[1], **values))
    return records
