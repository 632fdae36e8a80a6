"""Report assembly and bit-stable CSV/JSON emission.

Every ratio cell is rounded to 6 significant digits as it is written, so a
parse -> re-emit round trip is byte-identical.  Undefined quantities stay
None and serialize as empty CSV cells / JSON nulls, never as zeros.  An
infinite negative-to-positive ratio prints as "inf".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import BalanceRow

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

# the CSV header and, in the same order, the keys of each JSON row
CSV_COLUMNS = ("length", "n_pos", "n_neg", "R", "U", "K", "stderr_R",
               "null_R", "null_lo", "null_hi")

__all__ = ["AnalysisReport", "emit_report", "CSV_COLUMNS"]


def _round6(x) -> float | None:
    if x is None:
        return None
    if isinstance(x, Fraction):
        x = float(x)
    if math.isinf(x):
        return math.inf
    return float(f"{float(x):.6g}")


@dataclass(frozen=True)
class AnalysisReport:
    dataset_name: str
    vertices: int
    edge_count: int
    negative_fraction: float | None
    method: str                       # exact | monte-carlo | orbits | walks | null | fit
    rows: tuple[BalanceRow, ...]
    config: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)   # e.g. fit parameters
    wall_time_s: float | None = None


def _cells(r: BalanceRow) -> tuple:
    """One row's values in ``CSV_COLUMNS`` order, ratios rounded."""
    return (r.length, r.n_pos, r.n_neg, *map(_round6, (
        r.ratio_negative, r.neg_to_pos, r.clustering, r.stderr,
        r.null_ratio, r.null_lo, r.null_hi)))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    return str(value)


def _json_num(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def emit_report(report: AnalysisReport, fmt: str, sink, *,
                include_timing: bool = False) -> int:
    """Write the report to a text sink; returns the number of characters.

    Timing is opt-in because reports must be byte-identical across runs.
    """
    rows = [_cells(r) for r in report.rows]
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(map(_csv_cell, cells)) for cells in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "dataset": {
                "name": report.dataset_name,
                "vertices": report.vertices,
                "edges": report.edge_count,
                "negative_fraction": _round6(report.negative_fraction),
            },
            "method": report.method,
            "config": report.config,
            "rows": [dict(zip(CSV_COLUMNS, map(_json_num, cells)))
                     for cells in rows],
        }
        if report.extra:
            payload["extra"] = report.extra
        if include_timing and report.wall_time_s is not None:
            payload["wall_time_s"] = report.wall_time_s
        text = json.dumps(payload, indent=2, sort_keys=False,
                          allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    sink.write(text)
    return len(text)
