"""Machine-readable check reports and their JSON/CSV serialization.

A report is one flat record per check: {"check": ..., <payload>,
"samples": ..., "pass": ...}.  Payload key order is insertion order, so
serialization is byte-stable for a fixed code path.  CSV cells use a '.'
decimal separator and 17 significant digits so doubles round-trip, and
csv.writer quotes only a cell that holds a comma, a quote or a line
break, such as an error record's message.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field


@dataclass
class Report:
    check: str
    passed: bool
    samples: int
    data: dict = field(default_factory=dict)

    @classmethod
    def from_error(cls, check: str, max_error: float, threshold: float,
                   samples: int, **params) -> "Report":
        data = dict(params)
        data["max_error"] = float(max_error)
        data["threshold"] = float(threshold)
        return cls(check, bool(max_error <= threshold), samples, data)

    def record(self) -> dict:
        out = {"check": self.check}
        out.update(self.data)
        out["samples"] = int(self.samples)
        out["pass"] = bool(self.passed)
        return out


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def to_json(reports: list[Report]) -> str:
    return json.dumps([rep.record() for rep in reports], indent=2) + "\n"


def to_csv(reports: list[Report]) -> str:
    import csv  # loaded here, not at import: only a CSV report uses it
    records = [rep.record() for rep in reports]
    columns: list[str] = []
    for rec in records:
        for key in rec:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt_cell(rec.get(col)) for col in columns] for rec in records)
    return buf.getvalue()


def render(reports: list[Report], fmt: str) -> str:
    if fmt == "json":
        return to_json(reports)
    if fmt == "csv":
        return to_csv(reports)
    raise ValueError(f"unknown report format {fmt!r}")


def summary_lines(reports: list[Report]) -> list[str]:
    out = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        err = rep.data.get("max_error")
        thr = rep.data.get("threshold")
        detail = ""
        if err is not None and thr is not None:
            detail = f"  max_error={err:.3e} (threshold {thr:.3e})"
        elif "error" in rep.data:
            detail = f"  {rep.data['error']}"
        out.append(f"[{status}] {rep.check}{detail}")
    # a record that is not asserted passes whatever its errors are
    for rep in reports:
        if rep.data.get("asserted") is False:
            hyp = rep.data.get("hypothesis_status")
            note = f"  hypothesis_status={hyp}" if hyp is not None else ""
            out.append(f"[NOT ASSERTED] {rep.check}{note}")
    return out
