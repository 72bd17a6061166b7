"""Comparative reports over one ``repro.lab`` envelope.

:class:`LabReport` is a pure function of the envelope (live from
:meth:`~repro.lab.runner.LabResult.envelope` or loaded back from JSON):
it lines the candidates up metric-by-metric, computes deltas against the
``baseline`` candidate, and -- when the panel also names a ``ceiling`` --
the *savings recovery* ratio
``(baseline - candidate) / (baseline - ceiling)``, the exact headline
shape of the ``bench_fleet`` federated-reuse experiment (a 4-shard
fleet recovering >= 80% of the single-service reuse savings scores
``recovery >= 0.80``).

Renderers follow the dashboard's contract: no wall clock, no
randomness, so the same envelope renders to identical bytes.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Mapping

from repro.lab.runner import ENVELOPE_KIND, LabResult
from repro.obs.dashboard import _CSS, WIDTH, _fmt, _svg_spark, sparkline
from repro.obs.timeseries import series_to_csv

#: Comparison-table rows, in display order: (metric key, label, whether
#: lower is better -- drives the delta sign styling, ``None`` = neutral).
REPORT_METRICS: tuple[tuple[str, str, bool | None], ...] = (
    ("final_cost", "final communication cost", True),
    ("cost_ticks", "cost integral (cost x ticks)", True),
    ("live", "live queries", None),
    ("deployed_total", "deployments", None),
    ("cache_hit_rate", "plan-cache hit rate", False),
    ("plans_computed", "plans computed", True),
    ("migrations", "migrations committed", None),
    ("alerts_fired", "alerts fired", True),
    ("shed", "queries shed", True),
    ("parked", "queries parked", True),
    ("max_utilization", "hottest-node utilization", True),
    ("capacity_violations", "nodes over capacity bound", True),
    ("cross_shard_reuse", "cross-shard reuse hits", False),
    ("invariant_violations", "fleet invariant violations", True),
)

#: Series drawn as small multiples (one panel per metric, one sparkline
#: per candidate).  ``lab.*`` series are always included; these add the
#: most useful per-plane instruments when present.
SMALL_MULTIPLE_METRICS: tuple[str, ...] = (
    "service.service_live_queries",
    "service.service_queue_depth",
    "service.service_cache_hit_rate",
    "service.adaptive_migrations_total",
    "service.resources_shed_total",
    "fleet.fleet_live_queries",
    "fleet.fleet_queue_depth",
    "fleet.fleet_cross_shard_reuse_total",
    "fleet.fleet_federation_imports",
)


def lab_envelope_from_json(doc: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a loaded ``repro.lab`` document (for ``repro lab report``)."""
    kind = doc.get("kind") if isinstance(doc, Mapping) else None
    if kind != ENVELOPE_KIND:
        raise ValueError(f"not a lab envelope: kind={kind!r}")
    if not isinstance(doc.get("candidates"), list) or not doc["candidates"]:
        raise ValueError("lab envelope has no candidate runs")
    return dict(doc)


def lab_to_json(result_or_envelope: "LabResult | Mapping[str, Any]") -> str:
    """The canonical byte-identical serialization of a lab envelope."""
    envelope = (
        result_or_envelope.envelope()
        if isinstance(result_or_envelope, LabResult)
        else result_or_envelope
    )
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


class LabReport:
    """Candidate-vs-candidate comparison over one lab envelope."""

    def __init__(self, envelope: Mapping[str, Any]) -> None:
        self.envelope = lab_envelope_from_json(envelope)
        self.scenario = self.envelope.get("scenario", {})
        self.entries = list(self.envelope["candidates"])

    @classmethod
    def from_result(cls, result: LabResult) -> "LabReport":
        return cls(result.envelope())

    # ------------------------------------------------------------------
    @property
    def names(self) -> list[str]:
        return [e["candidate"]["name"] for e in self.entries]

    def _by_role(self, role: str) -> dict[str, Any] | None:
        for e in self.entries:
            if e["candidate"].get("role") == role:
                return e
        return None

    @property
    def baseline(self) -> dict[str, Any] | None:
        return self._by_role("baseline")

    @property
    def ceiling(self) -> dict[str, Any] | None:
        return self._by_role("ceiling")

    # ------------------------------------------------------------------
    def table(self) -> list[dict[str, Any]]:
        """Comparison rows: one per :data:`REPORT_METRICS` key any
        candidate reported, with per-candidate value and delta vs the
        baseline (``None`` deltas without a baseline / for the baseline
        itself)."""
        base = self.baseline
        base_metrics = base["metrics"] if base else {}
        rows: list[dict[str, Any]] = []
        for key, label, lower_better in REPORT_METRICS:
            if not any(key in e["metrics"] for e in self.entries):
                continue
            cells = []
            for e in self.entries:
                value = e["metrics"].get(key)
                delta = None
                if (
                    base is not None
                    and e is not base
                    and value is not None
                    and base_metrics.get(key) is not None
                ):
                    delta = value - base_metrics[key]
                cells.append(
                    {
                        "candidate": e["candidate"]["name"],
                        "value": value,
                        "delta": delta,
                    }
                )
            rows.append(
                {
                    "metric": key,
                    "label": label,
                    "lower_better": lower_better,
                    "cells": cells,
                }
            )
        return rows

    def recovery(self) -> dict[str, float]:
        """Savings-recovery ratio per non-baseline candidate.

        Measured on ``final_cost`` when the ceiling saved anything
        there, falling back to the ``cost_ticks`` integral (churn
        scenarios retire everything, so their final cost is 0 for every
        candidate).  Needs both a baseline and a ceiling; an empty dict
        otherwise.
        """
        base, ceil = self.baseline, self.ceiling
        if base is None or ceil is None:
            return {}
        for key in ("final_cost", "cost_ticks"):
            base_cost = base["metrics"].get(key)
            ceil_cost = ceil["metrics"].get(key)
            if base_cost is None or ceil_cost is None:
                continue
            saved = base_cost - ceil_cost
            if saved <= 0:
                continue
            out: dict[str, float] = {}
            for e in self.entries:
                if e is base:
                    continue
                cost = e["metrics"].get(key)
                if cost is None:
                    continue
                out[e["candidate"]["name"]] = (base_cost - cost) / saved
            return out
        return {}

    def summary(self) -> dict[str, Any]:
        """JSON-able roll-up: scenario id, panel, table, recovery, ops."""
        return {
            "scenario": {
                "name": self.scenario.get("name"),
                "seed": self.scenario.get("seed"),
                "ticks": self.scenario.get("ticks"),
            },
            "candidates": [
                {
                    "name": e["candidate"]["name"],
                    "role": e["candidate"].get("role"),
                    "mode": e["candidate"].get("mode"),
                }
                for e in self.entries
            ],
            "table": self.table(),
            "recovery": self.recovery(),
            "ops": {
                e["candidate"]["name"]: dict(e.get("ops", {}))
                for e in self.entries
            },
        }

    # ------------------------------------------------------------------
    def small_multiple_series(self) -> list[str]:
        """Series names drawn as small multiples, in display order."""
        available: set[str] = set()
        for e in self.entries:
            available |= set(e.get("telemetry", {}).get("series", {}))
        labs = sorted(n for n in available if n.startswith("lab."))
        rest = [n for n in SMALL_MULTIPLE_METRICS if n in available]
        return labs + rest

    def _series_values(self, entry: Mapping[str, Any], name: str) -> list[float]:
        points = entry.get("telemetry", {}).get("series", {}).get(name, [])
        return [p[1] for p in points]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _delta_str(delta: float | None) -> str:
    if delta is None:
        return ""
    return f" ({delta:+.4g})"


def render_lab_terminal(report: LabReport) -> str:
    """Plain-text comparison: header, metric table, recovery, sparklines."""
    width = WIDTH
    scenario = report.scenario
    lines = [
        f"repro lab -- scenario {scenario.get('name', '?')!r} "
        f"(seed {scenario.get('seed')}, {scenario.get('ticks')} ticks, "
        f"{len(report.entries)} candidates)",
    ]
    if scenario.get("description"):
        lines.append(f"  {scenario['description']}")
    lines.append("=" * width)

    name_w = max(24, max((len(n) for n in report.names), default=0) + 2)
    header = f"  {'metric':34s}" + "".join(
        f"{n:>{name_w}s}" for n in report.names
    )
    lines.append(header)
    lines.append("-" * width)
    for row in report.table():
        cells = "".join(
            f"{_fmt(c['value']) + _delta_str(c['delta']):>{name_w}s}"
            for c in row["cells"]
        )
        lines.append(f"  {row['label']:34s}{cells}")

    recovery = report.recovery()
    if recovery:
        lines.append("-" * width)
        base = report.baseline["candidate"]["name"]
        ceil = report.ceiling["candidate"]["name"]
        lines.append(
            f"  savings recovery (baseline={base}, ceiling={ceil}):"
        )
        for name, ratio in recovery.items():
            lines.append(f"    {name:30s} {ratio:8.1%}")

    multiples = report.small_multiple_series()
    if multiples:
        lines.append("-" * width)
        for series in multiples:
            lines.append(f"  [{series}]")
            for entry in report.entries:
                values = report._series_values(entry, series)
                lines.append(
                    f"    {entry['candidate']['name']:28s} "
                    f"{sparkline(values, 32):32s} "
                    f"last={_fmt(values[-1] if values else None)}"
                )
    return "\n".join(lines) + "\n"


_LAB_CSS = _CSS + """
td.better { color: #7fd7a0; } td.worse { color: #ff8f9f; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.role { color: #8b93a7; font-size: .75rem; margin-left: .35rem; }
.recovery { font-size: 1.6rem; margin: .2rem 0; }
"""


def render_lab_html(report: LabReport) -> str:
    """Self-contained comparative HTML report (inline CSS + SVG)."""
    esc = _html.escape
    scenario = report.scenario
    title = f"repro lab — {scenario.get('name', 'scenario')}"
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{esc(title)}</title>",
        f"<style>{_LAB_CSS}</style></head><body>",
        f"<h1>{esc(title)}</h1>",
        '<p class="meta">'
        f"seed {scenario.get('seed')} · {scenario.get('ticks')} ticks · "
        f"{scenario.get('topology', {}).get('nodes')} nodes · "
        f"{scenario.get('workload', {}).get('queries')} queries · "
        f"trace <code>{esc(str(scenario.get('trace', {}).get('mode')))}</code>"
        "</p>",
    ]
    if scenario.get("description"):
        parts.append(f'<p class="meta">{esc(scenario["description"])}</p>')

    # -- candidate panel ------------------------------------------------
    parts.append("<h2>Candidates</h2><table>")
    parts.append(
        "<tr><th>candidate</th><th>role</th><th>mode</th>"
        "<th>description</th></tr>"
    )
    for e in report.entries:
        c = e["candidate"]
        parts.append(
            f"<tr><td><b>{esc(c['name'])}</b></td>"
            f"<td>{esc(str(c.get('role', '')))}</td>"
            f"<td>{esc(str(c.get('mode', '')))}</td>"
            f"<td>{esc(str(c.get('description', '')))}</td></tr>"
        )
    parts.append("</table>")

    # -- comparison table ----------------------------------------------
    parts.append("<h2>Comparison</h2><table>")
    parts.append(
        "<tr><th>metric</th>"
        + "".join(f"<th>{esc(n)}</th>" for n in report.names)
        + "</tr>"
    )
    for row in report.table():
        cells = []
        for cell in row["cells"]:
            css = "num"
            delta = cell["delta"]
            if delta is not None and delta != 0 and row["lower_better"] is not None:
                improved = (delta < 0) == row["lower_better"]
                css += " better" if improved else " worse"
            cells.append(
                f'<td class="{css}">{esc(_fmt(cell["value"]))}'
                f"{esc(_delta_str(delta))}</td>"
            )
        parts.append(
            f"<tr><td>{esc(row['label'])}</td>" + "".join(cells) + "</tr>"
        )
    parts.append("</table>")

    # -- savings recovery ----------------------------------------------
    recovery = report.recovery()
    if recovery:
        base = report.baseline["candidate"]["name"]
        ceil = report.ceiling["candidate"]["name"]
        parts.append("<h2>Savings recovery</h2>")
        parts.append(
            f'<p class="meta">share of the {esc(base)} → {esc(ceil)} cost '
            "savings each candidate recovers</p>"
        )
        for name, ratio in recovery.items():
            parts.append(
                f'<div class="recovery"><b>{esc(name)}</b>: {ratio:.1%}</div>'
            )

    # -- small multiples ------------------------------------------------
    multiples = report.small_multiple_series()
    if multiples:
        parts.append("<h2>Series</h2>")
        parts.append('<div class="panels">')
        for series in multiples:
            parts.append(f'<div class="panel"><h2>{esc(series)}</h2>')
            for entry in report.entries:
                values = report._series_values(entry, series)
                last = values[-1] if values else None
                parts.append(
                    '<div class="metric">'
                    f'<span class="name">{esc(entry["candidate"]["name"])}</span>'
                    f"{_svg_spark(values)}"
                    f'<span class="last">{esc(_fmt(last))}</span></div>'
                )
            parts.append("</div>")
        parts.append("</div>")

    # -- planner ops ----------------------------------------------------
    op_keys = sorted({k for e in report.entries for k in e.get("ops", {})})
    if op_keys:
        parts.append("<h2>Planner op counts</h2><table>")
        parts.append(
            "<tr><th>op</th>"
            + "".join(f"<th>{esc(n)}</th>" for n in report.names)
            + "</tr>"
        )
        for key in op_keys:
            parts.append(
                f"<tr><td><code>{esc(key)}</code></td>"
                + "".join(
                    f'<td class="num">{_fmt(e.get("ops", {}).get(key))}</td>'
                    for e in report.entries
                )
                + "</tr>"
            )
        parts.append("</table>")

    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def lab_envelope_to_csv(envelope: Mapping[str, Any]) -> str:
    """Every candidate's telemetry series as one long-form CSV.

    Columns: ``candidate,series,time,value`` -- the lab counterpart of
    :func:`repro.obs.timeseries.series_to_csv`, ready for
    external plotting without JSON parsing.
    """
    envelope = lab_envelope_from_json(envelope)
    chunks: list[str] = []
    for i, entry in enumerate(envelope["candidates"]):
        name = entry["candidate"]["name"]
        series = entry.get("telemetry", {}).get("series", {})
        csv = series_to_csv(series, prefix={"candidate": name})
        if i:
            csv = csv.split("\n", 1)[1]  # drop the repeated header
        chunks.append(csv)
    return "".join(chunks)
