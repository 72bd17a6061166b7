"""Regression comparison over the performance trajectory.

The comparator tests the *latest* trajectory entry against a baseline
built from the entries before it: per case and per metric, the baseline
is the **median over the last N prior entries** (median-of-N absorbs a
stray noisy run in the history).  A metric regresses when it exceeds
the baseline by more than a relative threshold.

Two metric classes, two rules:

* **Op counts** are deterministic, so their threshold is a pure
  guard band against intended-but-unnoticed algorithmic growth; an
  op-count regression is ``blocking`` (CI fails on it).
* **Wall-clock medians** vary with the machine, so their findings are
  ``advisory`` only -- reported, never failing.

An op counter that **every** baseline entry of a case has and the latest
entry lacks is a blocking finding of its own: a refactor that drops a
hook site must not read as "no regression".

A trajectory with a single entry compares it against itself and is
trivially clean, so a freshly initialized lab always starts green.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Relative increase on a deterministic op count that fails CI.
DEFAULT_OP_THRESHOLD = 0.25
#: Relative increase on a wall-clock median worth reporting (advisory).
DEFAULT_WALL_THRESHOLD = 0.50
#: Prior entries the median-of-N baseline is built over.
DEFAULT_BASELINE_WINDOW = 5


@dataclass
class Finding:
    """One metric's comparison against its baseline.

    Attributes:
        case: Benchmark case name.
        metric: Metric name (op counter, or ``wall_median``).
        kind: ``"ops"`` or ``"wall"``.
        baseline: Median-of-N baseline value.
        current: The latest entry's value.
        ratio: ``current / baseline`` (1.0 when the baseline is 0).
        regressed: Whether the ratio exceeded the threshold.
        blocking: Whether a regression here should fail CI (op counts
            yes, wall clock no).
        missing: The latest entry has no such counter although every
            baseline entry does (``current`` and ``ratio`` are then 0).
    """

    case: str
    metric: str
    kind: str
    baseline: float
    current: float
    ratio: float
    regressed: bool
    blocking: bool
    missing: bool = False

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form."""
        return {
            "case": self.case,
            "metric": self.metric,
            "kind": self.kind,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
            "regressed": self.regressed,
            "blocking": self.blocking,
            "missing": self.missing,
        }


@dataclass
class ComparisonReport:
    """Outcome of comparing the latest entry against the baseline."""

    baseline_entries: int
    findings: list[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> list[Finding]:
        """Findings that regressed (blocking and advisory alike)."""
        return [f for f in self.findings if f.regressed]

    @property
    def blocking_regressions(self) -> list[Finding]:
        """Regressions CI must fail on (op-count metrics)."""
        return [f for f in self.findings if f.regressed and f.blocking]

    @property
    def ok(self) -> bool:
        """Whether no blocking regression was found."""
        return not self.blocking_regressions

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form."""
        return {
            "ok": self.ok,
            "baseline_entries": self.baseline_entries,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        """Human-readable comparison table."""
        if not self.findings:
            return "no comparable metrics"
        lines = []
        width = max(len(f"{f.case}.{f.metric}") for f in self.findings)
        for f in self.findings:
            marker = " "
            if f.regressed:
                marker = "!" if f.blocking else "~"
            name = f"{f.case}.{f.metric}"
            current = "absent" if f.missing else f"{f.current:g}"
            lines.append(
                f"{marker} {name:<{width}}  "
                f"baseline={f.baseline:<12g} current={current:<12} "
                f"x{f.ratio:.3f}"
            )
        status = "OK" if self.ok else (
            f"REGRESSED ({len(self.blocking_regressions)} blocking)"
        )
        lines.append(
            f"{status}: {len(self.findings)} metrics vs median of "
            f"{self.baseline_entries} prior run(s)"
        )
        return "\n".join(lines)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def compare_trajectory(
    doc: dict[str, Any],
    op_threshold: float = DEFAULT_OP_THRESHOLD,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    baseline_window: int = DEFAULT_BASELINE_WINDOW,
) -> ComparisonReport:
    """Compare a trajectory's latest entry against its history.

    Args:
        doc: A trajectory document (:func:`repro.perf.lab.load_trajectory`).
        op_threshold: Relative op-count increase that counts as a
            blocking regression (0.25 = +25%).
        wall_threshold: Relative wall-median increase reported as an
            advisory regression.
        baseline_window: Prior entries the median baseline covers.

    Raises:
        ValueError: The trajectory has no entries at all.
    """
    entries = doc.get("entries", [])
    if not entries:
        raise ValueError("trajectory has no entries; run the lab first")
    current = entries[-1]
    prior = entries[:-1][-baseline_window:] or [current]

    report = ComparisonReport(baseline_entries=len(prior))
    for case, data in sorted(current.get("cases", {}).items()):
        # -- deterministic op counts (blocking) ------------------------
        for metric, value in sorted(data.get("ops", {}).items()):
            history = [
                float(e["cases"][case]["ops"][metric])
                for e in prior
                if case in e.get("cases", {})
                and metric in e["cases"][case].get("ops", {})
            ]
            if not history:
                continue
            baseline = _median(history)
            ratio = (value / baseline) if baseline else 1.0
            report.findings.append(Finding(
                case=case, metric=metric, kind="ops",
                baseline=baseline, current=float(value), ratio=ratio,
                regressed=ratio > 1.0 + op_threshold, blocking=True,
            ))
        # -- counters that vanished (blocking) --------------------------
        baselines = [
            e["cases"][case].get("ops", {}) for e in prior if case in e.get("cases", {})
        ]
        if baselines:
            vanished = set.intersection(*map(set, baselines)) - set(data.get("ops", {}))
            for metric in sorted(vanished):
                report.findings.append(Finding(
                    case=case, metric=metric, kind="ops",
                    baseline=_median([float(ops[metric]) for ops in baselines]),
                    current=0.0, ratio=0.0,
                    regressed=True, blocking=True, missing=True,
                ))
        # -- wall clock (advisory) -------------------------------------
        wall = data.get("wall_seconds", {})
        if "median" in wall:
            history = [
                float(e["cases"][case]["wall_seconds"]["median"])
                for e in prior
                if case in e.get("cases", {})
                and "median" in e["cases"][case].get("wall_seconds", {})
            ]
            if history:
                baseline = _median(history)
                value = float(wall["median"])
                ratio = (value / baseline) if baseline else 1.0
                report.findings.append(Finding(
                    case=case, metric="wall_median", kind="wall",
                    baseline=baseline, current=value, ratio=ratio,
                    regressed=ratio > 1.0 + wall_threshold, blocking=False,
                ))
    return report
