"""Scan configuration and result types shared by every checker.

A scan walks a grid or a seeded random sample, records the worst margin it
saw and where, and passes iff it checked at least one point and that
margin clears ``-tolerance``.  Reports are plain data: they serialize to
JSON documents and CSV rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "PreconditionError",
    "ScanConfig",
    "ScanReport",
    "make_report",
    "report_to_json",
    "report_from_json",
    "report_csv_header",
    "report_csv_row",
]


class PreconditionError(ValueError):
    """User-supplied data violates a checker's stated precondition.

    Raised when an input fails the hypothesis of the inequality being
    checked (a mean on the wrong side of a threshold, a parameter outside
    its admissible interval).  Distinguished from a failed scan: the scan
    never ran.
    """


@dataclass(frozen=True)
class ScanConfig:
    """Knobs for a scan: grid geometry, sample budget, seed, and tolerance."""

    grid_step: float = 1e-4
    random_samples: int = 100_000
    seed: int = 42
    tolerance: float = 1e-6
    range_lo: float = 0.0
    range_hi: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.grid_step) and self.grid_step > 0.0):
            raise ValueError(f"grid_step must be positive, got {self.grid_step!r}")
        if self.random_samples < 0:
            raise ValueError("random_samples must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance!r}")
        if not (self.range_lo < self.range_hi):
            raise ValueError(
                f"empty range [{self.range_lo!r}, {self.range_hi!r}]"
            )

    def grid_points(self) -> int:
        return int(round((self.range_hi - self.range_lo) / self.grid_step)) + 1


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one scan: worst margin, its witness, and the verdict."""

    name: str
    points_checked: int
    min_margin: float
    argmin_witness: tuple
    passed: bool
    tolerance: float
    config: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def make_report(
    name: str,
    points_checked: int,
    min_margin: float,
    argmin_witness: tuple,
    tolerance: float,
    config: dict | None = None,
    details: dict | None = None,
) -> ScanReport:
    """Build a report with the pass verdict derived from margin vs tolerance.

    A scan that checked no point fails whatever its margin: its ``inf``
    minimum says nothing about the inequality.
    """
    return ScanReport(
        name=name,
        points_checked=int(points_checked),
        min_margin=float(min_margin),
        argmin_witness=tuple(argmin_witness),
        passed=bool(points_checked > 0 and min_margin >= -tolerance),
        tolerance=float(tolerance),
        config=dict(config or {}),
        details={} if details is None else details,
    )


def _jsonable(value: Any) -> Any:
    # A non-finite float, such as the inf minimum of a scan that checked no
    # point, becomes null: standard JSON has no token for it.
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    v = float(value)
    return v if math.isfinite(v) else None


def report_to_json(report: ScanReport) -> dict:
    return {
        "name": report.name,
        "points_checked": report.points_checked,
        "min_margin": _jsonable(report.min_margin),
        "witness": _jsonable(report.argmin_witness),
        "passed": report.passed,
        "tolerance": report.tolerance,
        "config": _jsonable(report.config),
        "details": _jsonable(report.details),
    }


def report_from_json(doc: dict) -> ScanReport:
    def _tupled(v: Any) -> Any:
        return tuple(_tupled(x) for x in v) if isinstance(v, list) else v

    return ScanReport(
        name=doc["name"],
        points_checked=int(doc["points_checked"]),
        min_margin=math.inf if doc["min_margin"] is None else float(doc["min_margin"]),
        argmin_witness=_tupled(doc["witness"]),
        passed=bool(doc["passed"]),
        tolerance=float(doc["tolerance"]),
        config=dict(doc.get("config", {})),
        details=doc.get("details", {}),
    )


def report_csv_header() -> list[str]:
    return ["name", "points_checked", "min_margin", "passed", "tolerance", "witness"]


def report_csv_row(report: ScanReport) -> list[str]:
    """One aggregation-friendly CSV row; the witness is JSON-encoded in place."""
    return [
        report.name,
        str(report.points_checked),
        repr(report.min_margin),
        "1" if report.passed else "0",
        repr(report.tolerance),
        json.dumps(_jsonable(report.argmin_witness)),
    ]

