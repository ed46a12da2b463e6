"""Outputs: estimate reports, the shared result type of every numerical
check, and the one CSV writer that every CSV output goes through."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["EstimateReport", "make_report", "write_csv"]

# lhs below this absolute size counts as zero when the bound side is zero
_ZERO_ATOL = 1e-12
# rows formatted and written at a time: the text of one block is held,
# never the whole file's
_CSV_ROWS = 4096


def write_csv(path, header, columns) -> None:
    """Write a CSV file: a header line, then one line per row of the
    equal-length columns.  Float columns print as %.17g (round-trips any
    double), all others with str; every line ends in LF.  Creates the
    parent directory."""
    cols = [np.asarray(c) for c in columns]
    rows = len(cols[0]) if cols else 0
    line = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, _CSV_ROWS):
            fh.write("".join(map(line.__mod__, zip(*(c[lo : lo + _CSV_ROWS].tolist() for c in cols)))))


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of checking one inequality family over sampled cases.

    max_ratio is the worst lhs/rhs over all cases; the report passes iff
    some case was checked and max_ratio <= 1 + slack_allowed.  constants_used records every
    constant entering the bound so reports can be diffed externally.
    lhs/rhs samples keep at most the first few dozen pairs.
    """

    name: str
    cases: int
    max_ratio: float
    slack_allowed: float
    passed: bool
    constants_used: dict = field(default_factory=dict)
    lhs_samples: tuple = ()
    rhs_samples: tuple = ()
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "max_ratio": self.max_ratio,
            "slack": self.slack_allowed,
            "passed": self.passed,
            "constants_used": {k: _jsonable(v) for k, v in self.constants_used.items()},
            "lhs_samples": list(self.lhs_samples),
            "rhs_samples": list(self.rhs_samples),
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def ratio_of(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise lhs/rhs with the 0/0 convention: a vanishing bound is
    satisfied by a vanishing lhs (ratio 0) and violated by anything
    else (ratio inf).  A NaN on either side, or inf/inf, is a numerical
    failure, never a pass: ratio inf, which every max keeps (Python's max
    skips a NaN after the first item)."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    out = np.zeros_like(lhs)
    pos = rhs > 0
    with np.errstate(invalid="ignore"):
        out[pos] = lhs[pos] / rhs[pos]
    bad = (~pos) & (np.abs(lhs) > _ZERO_ATOL)
    out[bad | np.isnan(out) | np.isnan(lhs) | np.isnan(rhs)] = np.inf
    return out


def make_report(
    name: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    slack: float,
    constants: dict | None = None,
    notes: str = "",
) -> EstimateReport:
    """Report of the sample pairs (lhs, rhs); an empty sample certifies
    nothing, so it fails, with a note saying so."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    ratios = ratio_of(lhs, rhs)
    max_ratio = float(np.max(ratios)) if ratios.size else 0.0
    if not ratios.size:
        notes = f"{notes}; no cases were checked" if notes else "no cases were checked"
    return EstimateReport(
        name=name,
        cases=int(lhs.size),
        max_ratio=max_ratio,
        slack_allowed=float(slack),
        passed=bool(ratios.size and max_ratio <= 1.0 + slack),
        constants_used=dict(constants or {}),
        lhs_samples=tuple(float(x) for x in lhs[:32]),
        rhs_samples=tuple(float(x) for x in rhs[:32]),
        notes=notes,
    )
