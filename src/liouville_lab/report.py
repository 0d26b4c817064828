"""Verification records and their JSON/CSV serialization."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

PROVENANCES = ("paper", "trivial", "derived")


@dataclass
class ReportEntry:
    """One verification record.

    pass_ holds the definitive verdict: abs_err <= tolerance or
    rel_err <= tolerance (rel_err is inf when expected == 0).
    """

    check_id: str
    params: dict
    measured: float
    expected: float
    tolerance: float
    provenance: str
    abs_err: float = field(init=False)
    rel_err: float = field(init=False)
    pass_: bool = field(init=False)

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")
        self.abs_err = abs(self.measured - self.expected)
        self.rel_err = self.abs_err / abs(self.expected) if self.expected != 0 else math.inf
        self.pass_ = bool(self.abs_err <= self.tolerance or self.rel_err <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": dict(self.params),
            "measured": self.measured,
            "expected": self.expected,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tolerance": self.tolerance,
            "pass": self.pass_,
            "provenance": self.provenance,
        }


CSV_COLUMNS = ["check_id", "params", "measured", "expected", "abs_err", "rel_err",
               "tolerance", "pass", "provenance"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def sort_entries(entries):
    return sorted(entries, key=lambda e: (e.check_id, json.dumps(e.params, sort_keys=True)))


def render_json(entries) -> str:
    return json.dumps([e.to_dict() for e in sort_entries(entries)], indent=1, sort_keys=True)


def render_csv(entries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in sort_entries(entries):
        writer.writerow([
            e.check_id,
            json.dumps(e.params, sort_keys=True),
            _fmt(e.measured),
            _fmt(e.expected),
            _fmt(e.abs_err),
            _fmt(e.rel_err),
            _fmt(e.tolerance),
            "true" if e.pass_ else "false",
            e.provenance,
        ])
    return buf.getvalue()


def emit(entries, fmt: str, path) -> None:
    """Write entries as JSON or CSV (floats carry 17 significant digits)."""
    if fmt not in ("json", "csv"):
        raise ValueError("format must be json or csv")
    text = render_json(entries) if fmt == "json" else render_csv(entries)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        if fmt == "json":
            fh.write("\n")
