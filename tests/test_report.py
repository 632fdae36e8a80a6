import io
import json
import math
from dataclasses import replace
from fractions import Fraction

from cyclebalance.engine import BalanceRow, CycleCensus, balance_table
from cyclebalance.report import CSV_COLUMNS, AnalysisReport, emit_report


def _report(rows):
    return AnalysisReport("demo", 3, 6, 1 / 3, "exact", tuple(rows),
                          config={"max_length": 3}, wall_time_s=0.01)


def test_csv_columns_exact():
    sink = io.StringIO()
    emit_report(_report([]), "csv", sink)
    assert sink.getvalue() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_undefined_cells_empty_and_inf():
    rows = [
        BalanceRow(1, None, None, None, None, None),
        BalanceRow(3, 0, 2, 1.0, math.inf, -1.0),
    ]
    sink = io.StringIO()
    emit_report(_report(rows), "csv", sink)
    lines = sink.getvalue().splitlines()
    assert lines[1] == "1,,,,,,,,,"
    assert lines[2] == "3,0,2,1,inf,-1,,,,"


def test_csv_six_significant_digits():
    rows = [BalanceRow(4, 1000, 1, 1 / 3, 2 / 3, 0.123456789)]
    sink = io.StringIO()
    emit_report(_report(rows), "csv", sink)
    cells = sink.getvalue().splitlines()[1].split(",")
    assert cells[3] == "0.333333"
    assert cells[5] == "0.123457"


def test_json_round_trip_byte_identical():
    rows = [BalanceRow(2, 3, 0, 0.0, 0.0, 1.0),
            BalanceRow(3, 0, 2, 1.0, math.inf, -1.0, None, 0.444, 0.1, 0.9)]
    sink = io.StringIO()
    emit_report(_report(rows), "json", sink)
    text = sink.getvalue()
    payload = json.loads(text)
    assert payload["schema_version"] == 1
    assert payload["rows"][1]["U"] == "inf"
    again = json.dumps(payload, indent=2, sort_keys=False, allow_nan=False) + "\n"
    assert again == text


def test_timing_excluded_by_default():
    sink = io.StringIO()
    emit_report(_report([]), "json", sink)
    assert "wall_time" not in sink.getvalue()
    sink = io.StringIO()
    emit_report(_report([]), "json", sink, include_timing=True)
    assert "wall_time_s" in sink.getvalue()


def test_emission_deterministic():
    rows = [BalanceRow(2, 3, 0, 0.0, 0.0, 1.0)]
    a, b = io.StringIO(), io.StringIO()
    emit_report(_report(rows), "json", a)
    emit_report(_report(rows), "json", b)
    assert a.getvalue() == b.getvalue()


def _emit_both(rows):
    out = []
    for fmt in ("csv", "json"):
        sink = io.StringIO()
        emit_report(_report(rows), fmt, sink)
        out.append(sink.getvalue())
    return out


def _as_float(x):
    return None if x is None else float(x)


def test_exact_rows_emit_as_their_float_ratios():
    # lengths 1..5: undefined, U = 0, U = inf, and non-terminating Fractions
    census = CycleCensus(5, (0, 3, 0, 7, 11), (0, 0, 2, 5, 1))
    rows = balance_table(census).rows
    assert rows[3].ratio_negative == Fraction(5, 12)
    floats = [replace(r, ratio_negative=_as_float(r.ratio_negative),
                      neg_to_pos=_as_float(r.neg_to_pos),
                      clustering=_as_float(r.clustering)) for r in rows]
    assert _emit_both(rows) == _emit_both(floats)
    csv = _emit_both(rows)[0].splitlines()
    assert csv[1:5] == ["1,0,0,,,,,,,", "2,3,0,0,0,1,,,,",
                        "3,0,2,1,inf,-1,,,,",
                        "4,7,5,0.416667,0.714286,0.166667,,,,"]
    # walk and Monte Carlo rows carry no counts
    csv, js = _emit_both([replace(r, n_pos=None, n_neg=None) for r in rows])
    assert csv.splitlines()[3] == "3,,,1,inf,-1,,,,"
    assert json.loads(js)["rows"][2]["n_pos"] is None
