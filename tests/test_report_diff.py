"""tools/report_diff.py: the field-level diff of two reports."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


def run_diff(tmp_path, a, b):
    paths = []
    for name, records in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(records))
        paths.append(str(path))
    result = subprocess.run([sys.executable, str(SCRIPT), *paths],
                            capture_output=True, text=True, timeout=60)
    return result.returncode, result.stdout.splitlines()


def test_report_diff_names_every_moved_field(tmp_path):
    a = [
        {"check": "growth-ball-koebe", "N": 300, "max_error": 0.5, "threshold": 1e-9,
         "hypothesis_status": "ok", "samples": 10, "pass": True},
        {"check": "closed-form-koebe", "value_gap": 1e-13, "samples": 3, "pass": True},
        {"check": "stem-even-odd", "max_error": 0.0, "samples": 5, "pass": True},
    ]
    b = [
        {"check": "growth-ball-koebe", "max_error": 0.5000000000000001, "threshold": 1e-9,
         "hypothesis_status": "violated(1/64)", "samples": 10, "pass": True,
         "asserted": False},
        {"check": "closed-form-koebe", "value_gap": 2e-13, "samples": 3, "pass": True},
        {"check": "gauge-ball", "max_error": 0.0, "samples": 5, "pass": True},
    ]
    code, lines = run_diff(tmp_path, a, b)
    assert code == 1
    assert lines == [
        "growth-ball-koebe N: only in A (300)",
        "growth-ball-koebe max_error: 0.5 -> 0.5000000000000001 (rel 2.22e-16, 1 ulp)",
        "growth-ball-koebe hypothesis_status: 'ok' -> 'violated(1/64)'",
        "growth-ball-koebe asserted: only in B (False)",
        "closed-form-koebe value_gap: 1e-13 -> 2e-13 (rel 1, 4503599627370496 ulp)",
        "stem-even-odd: only in A",
        "gauge-ball: only in B",
    ]


def test_report_diff_is_silent_on_equal_reports(tmp_path):
    records = [{"check": "stem-even-odd", "max_error": -0.0, "samples": 5, "pass": True},
               {"check": "stem-even-odd", "max_error": 1e-300, "samples": 5, "pass": True}]
    assert run_diff(tmp_path, records, records) == (0, [])
    # a repeated check name is matched by its order, and ulps count across zero
    moved = [dict(records[0]), dict(records[1], max_error=-1e-300)]
    code, lines = run_diff(tmp_path, records, moved)
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith("stem-even-odd#1 max_error: 1e-300 -> -1e-300 (rel 2, ")


def test_report_diff_names_records_and_fields_out_of_order(tmp_path):
    a = [{"check": "stem-even-odd", "max_error": 0.0, "samples": 5, "pass": True},
         {"check": "gauge-ball", "max_error": 0.0, "samples": 5, "pass": True},
         {"check": "gauge-polydisc", "max_error": 0.0, "samples": 5, "pass": True}]
    # every record and every field reversed: the same values, other bytes
    code, lines = run_diff(tmp_path, a, [dict(reversed(rec.items())) for rec in reversed(a)])
    assert code == 1
    assert lines == [
        "stem-even-odd: position 0 -> 2",
        "stem-even-odd: field order check max_error samples pass"
        " -> pass samples max_error check",
        "gauge-ball: field order check max_error samples pass"
        " -> pass samples max_error check",
        "gauge-polydisc: position 2 -> 0",
        "gauge-polydisc: field order check max_error samples pass"
        " -> pass samples max_error check",
    ]
    # a record on one side only moves no other record's place
    code, lines = run_diff(tmp_path, a, a[1:])
    assert (code, lines) == (1, ["stem-even-odd: only in A"])
