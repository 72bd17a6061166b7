#!/usr/bin/env python3
"""Compare two suite results: ``python -m benchmarks.e2e.compare A.json B.json``.

One row per end-to-end metric x workload: both medians with quartiles,
the ratio B/A with A as its base, and a verdict under the metric's bound
(``metrics.END_TO_END``: the bounds of ``BENCHMARK.json``, plus those of
the suite-only metrics, with ``cost_ratio`` at the 0.1 % that holds
between runs of one seed):

``same``        B's median is within the bound of A's
``better``      B's median is better than A's by more than the bound
``worse``       B's median is worse than A's by more than the bound
``unresolved``  the runs of A and B overlap *and* either side's
                quartile spread is wider than the bound, so the medians
                cannot be told apart

Per-layer counts and ratios of counts must repeat bit for bit; any
difference reads ``differs``.  Exits
1 on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.metrics import END_TO_END, EXACT_UNITS  # noqa: E402


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    base, new = a["median"], b["median"]
    if base == new:
        return "same"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new - base) / abs(base) if base else sign * (new - base)
    spread = max(
        (row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0
        for row in (a, b)
    )
    overlap = min(a["values"]) <= max(b["values"]) and min(b["values"]) <= max(a["values"])
    if abs(worse_by) <= bound:
        return "unresolved" if spread > bound and overlap else "same"
    if spread > bound and overlap:
        return "unresolved"
    return "worse" if worse_by > 0 else "better"


def _cell(row: dict) -> str:
    return f"{row['median']:.4f} [{row['q1']:.4f}, {row['q3']:.4f}]"


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    lines = [
        f"{'workload':<13}{'metric':<16}{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}"
        f"{'B/A':>9}  verdict"
    ]
    worse = 0
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, row_a in entry_a["metrics"].items():
            row_b = entry_b["metrics"].get(metric)
            if row_b is None:
                continue
            _unit, better, bound, _workloads = END_TO_END[metric]
            outcome = verdict(row_a, row_b, better, bound)
            worse += outcome == "worse"
            ratio = row_b["median"] / row_a["median"] if row_a["median"] else float("nan")
            lines.append(
                f"{name:<13}{metric:<16}{_cell(row_a):>34}{_cell(row_b):>34}"
                f"{ratio:>9.4f}  {outcome} (bound {bound:g}, base A)"
            )
        for metric, row_a in entry_a.get("per_layer", {}).items():
            row_b = entry_b.get("per_layer", {}).get(metric)
            if row_b is None or row_a["unit"] not in EXACT_UNITS:
                continue
            if row_a["value"] != row_b["value"]:
                lines.append(
                    f"{name:<13}{metric:<40} {row_a['value']!r} -> {row_b['value']!r}  differs"
                )
    return lines, worse


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    lines, worse = compare(a, b)
    print("\n".join(lines))
    print(f"\n{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
