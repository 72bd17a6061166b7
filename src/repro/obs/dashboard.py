"""Render a ``repro.telemetry`` envelope as a terminal or HTML dashboard.

The ``repro dash`` control tower is a *renderer only*: it takes the
JSON envelope that :meth:`repro.obs.telemetry.Telemetry.envelope`
produced (live, or loaded from a file) and draws

* :func:`render_terminal` -- a plain-text dashboard with per-scope
  panels, unicode sparklines and an alert table, sized for a terminal;
* :func:`render_html` -- a self-contained static HTML report (inline
  CSS + SVG sparklines, no external assets) suitable for checking into
  an experiment directory.

Both renderers are pure functions of the envelope -- no wall clock, no
randomness -- so rendering the same envelope twice yields identical
bytes (the determinism tests rely on this).
"""

from __future__ import annotations

import html as _html
from math import isfinite
from typing import Any, Mapping, Sequence

#: Eight-level unicode bars, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"
#: Rule width of the text dashboards, and the metrics a scope panel
#: shows before it folds the rest into a count.
WIDTH = 100
MAX_METRICS = 12

#: Metrics pinned to the top of a scope panel when present (the rest
#: follow alphabetically).
KEY_METRICS: tuple[str, ...] = (
    "service_live_queries",
    "service_queue_depth",
    "service_cache_hit_rate",
    "admission_queue_wait_ticks_p95",
    "resilience_breaker_opens_total",
    "resilience_parked_queries",
    "adaptive_migrations_total",
    "fleet_live_queries",
    "fleet_queue_depth",
    "fleet_federation_imports",
)

_STATE_MARK = {"firing": "!!", "pending": " ~", "resolved": " *", "inactive": "  "}


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Downsample ``values`` into a fixed-width unicode sparkline.

    Non-finite samples (NaN, +/-inf) render as gaps and never poison
    the scale; a constant or single-sample series renders at the lowest
    bar level.
    """
    if not values:
        return ""
    values = list(values)
    if len(values) > width:
        # Keep the newest samples: the dashboard is about "now".
        values = values[-width:]
    finite = [v for v in values if isfinite(v)]
    if not finite:
        return " " * len(values)
    lo, hi = min(finite), max(finite)
    if hi == lo:
        return "".join(SPARK_CHARS[0] if isfinite(v) else " " for v in values)
    span = hi - lo
    return "".join(
        SPARK_CHARS[min(7, int((v - lo) / span * 8))] if isfinite(v) else " "
        for v in values
    )


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:.3g}"
    return str(value)


def split_scopes(series: Mapping[str, Any]) -> dict[str, dict[str, list]]:
    """Group envelope series by scope prefix (``scope.metric``)."""
    scopes: dict[str, dict[str, list]] = {}
    for name in sorted(series):
        scope, _, metric = name.partition(".")
        if not metric:
            scope, metric = "(derived)", name
        scopes.setdefault(scope, {})[metric] = series[name]
    return scopes


def _panel_order(metrics: Mapping[str, Any]) -> list[str]:
    pinned = [m for m in KEY_METRICS if m in metrics]
    rest = sorted(m for m in metrics if m not in pinned)
    return pinned + rest


# ----------------------------------------------------------------------
# Terminal rendering
# ----------------------------------------------------------------------
def render_terminal(envelope: Mapping[str, Any]) -> str:
    """Plain-text dashboard: header, alert table, per-scope panels."""
    width, max_metrics = WIDTH, MAX_METRICS
    lines: list[str] = []
    scraper = envelope.get("scraper", {})
    lines.append("repro dash -- fleet telemetry")
    lines.append(
        f"scopes={','.join(scraper.get('scopes', []))} "
        f"scrapes={scraper.get('scrapes', 0)} "
        f"samples={scraper.get('samples', 0)} "
        f"series={scraper.get('series', 0)}"
    )
    lines.append("=" * width)

    alerts = envelope.get("alerts", [])
    firing = [a for a in alerts if a.get("state") == "firing"]
    lines.append(f"ALERTS ({len(firing)} firing / {len(alerts)} rules)")
    for alert in alerts:
        state = alert.get("state", "inactive")
        mark = _STATE_MARK.get(state, "  ")
        lines.append(
            f" {mark} [{state:8s}] {alert.get('severity', '-'):4s} "
            f"{alert.get('name', '?'):42s} "
            f"value={_fmt(alert.get('value'))} "
            f"fired={_fmt(alert.get('fired_at'))} "
            f"x{alert.get('fire_count', 0)}"
        )
    lines.append("-" * width)

    for scope, metrics in split_scopes(envelope.get("series", {})).items():
        lines.append(f"[{scope}]")
        shown = _panel_order(metrics)
        hidden = len(shown) - max_metrics if len(shown) > max_metrics else 0
        for metric in shown[:max_metrics]:
            points = metrics[metric]
            values = [p[1] for p in points]
            lines.append(
                f"  {metric:44s} {sparkline(values, 24):24s} "
                f"last={_fmt(values[-1] if values else None)}"
            )
        if hidden:
            lines.append(f"  ... and {hidden} more series")
        lines.append("")

    flight = envelope.get("flight", {})
    bundles = flight.get("bundles", [])
    lines.append("-" * width)
    lines.append(
        f"flight recorder: {flight.get('recorded_total', 0)} entries recorded, "
        f"{flight.get('bundles_total', 0)} bundles frozen"
    )
    for bundle in bundles:
        traces = ",".join(bundle.get("trace_ids", [])) or "-"
        lines.append(
            f"  bundle t={_fmt(bundle.get('time'))} "
            f"reason={bundle.get('reason', '?')} "
            f"scope={bundle.get('scope') or '-'} traces={traces}"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------
_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 1.5rem; background: #0f1117; color: #d7dae0; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin: 1.2rem 0 .4rem; }
.meta { color: #8b93a7; font-size: .85rem; }
table { border-collapse: collapse; font-size: .85rem; width: 100%; }
th, td { text-align: left; padding: .25rem .6rem;
         border-bottom: 1px solid #262b38; }
tr.firing td { background: #3a1420; color: #ff8f9f; }
tr.pending td { background: #33290f; color: #ffd27f; }
tr.resolved td { color: #7fd7a0; }
.panels { display: flex; flex-wrap: wrap; gap: 1rem; }
.panel { background: #171a23; border: 1px solid #262b38; border-radius: 8px;
         padding: .7rem .9rem; min-width: 21rem; flex: 1 1 21rem; }
.metric { display: flex; align-items: center; gap: .6rem;
          font-size: .78rem; padding: .12rem 0; }
.metric .name { flex: 1 1 auto; color: #aab2c5; overflow: hidden;
                text-overflow: ellipsis; white-space: nowrap; }
.metric .last { min-width: 4.5rem; text-align: right; color: #e8ecf4; }
svg.spark { flex: 0 0 auto; } svg.spark polyline { fill: none;
  stroke: #5aa9ff; stroke-width: 1.4; }
.bundle { font-size: .8rem; color: #8b93a7; margin: .2rem 0; }
code { color: #9ecbff; }
"""


def _svg_spark(values: Sequence[float], width: int = 140, height: int = 26) -> str:
    """One inline-SVG sparkline polyline for a series.

    Non-finite samples are dropped (an SVG polyline with NaN/inf
    coordinates is invalid markup); an all-non-finite series renders as
    no sparkline at all, same as an empty one.
    """
    if not values:
        return ""
    values = [v for v in list(values)[-64:] if isfinite(v)]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    step = width / max(1, n - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 2 - (v - lo) / span * (height - 4):.1f}"
        for i, v in enumerate(values)
    )
    if n == 1:
        points = f"0,{height / 2:.1f} {width:.1f},{height / 2:.1f}"
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}"><polyline points="{points}"/></svg>'
    )


def render_html(envelope: Mapping[str, Any]) -> str:
    """Self-contained static HTML report of one telemetry envelope."""
    esc = _html.escape
    title = "repro dash"
    scraper = envelope.get("scraper", {})
    parts: list[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{esc(title)}</h1>",
        '<p class="meta">'
        f"scopes: <code>{esc(', '.join(scraper.get('scopes', [])))}</code> · "
        f"scrapes: {scraper.get('scrapes', 0)} · "
        f"samples: {scraper.get('samples', 0)} · "
        f"series: {scraper.get('series', 0)}</p>",
    ]

    alerts = envelope.get("alerts", [])
    parts.append("<h2>Alerts</h2>")
    parts.append(
        "<table><tr><th>state</th><th>severity</th><th>rule</th>"
        "<th>condition</th><th>value</th><th>fired at</th><th>count</th></tr>"
    )
    for alert in alerts:
        state = alert.get("state", "inactive")
        parts.append(
            f'<tr class="{esc(state)}">'
            f"<td>{esc(state)}</td>"
            f"<td>{esc(str(alert.get('severity', '-')))}</td>"
            f"<td>{esc(str(alert.get('name', '?')))}</td>"
            f"<td><code>{esc(str(alert.get('condition', '')))}</code></td>"
            f"<td>{esc(_fmt(alert.get('value')))}</td>"
            f"<td>{esc(_fmt(alert.get('fired_at')))}</td>"
            f"<td>{alert.get('fire_count', 0)}</td></tr>"
        )
    parts.append("</table>")

    parts.append("<h2>Scopes</h2>")
    parts.append('<div class="panels">')
    for scope, metrics in split_scopes(envelope.get("series", {})).items():
        parts.append(f'<div class="panel"><h2>{esc(scope)}</h2>')
        for metric in _panel_order(metrics):
            points = metrics[metric]
            values = [p[1] for p in points]
            last = values[-1] if values else None
            parts.append(
                '<div class="metric">'
                f'<span class="name" title="{esc(metric)}">{esc(metric)}</span>'
                f"{_svg_spark(values)}"
                f'<span class="last">{esc(_fmt(last))}</span></div>'
            )
        parts.append("</div>")
    parts.append("</div>")

    flight = envelope.get("flight", {})
    bundles = flight.get("bundles", [])
    parts.append("<h2>Flight recorder</h2>")
    parts.append(
        f'<p class="meta">{flight.get("recorded_total", 0)} entries recorded · '
        f"{flight.get('bundles_total', 0)} bundles frozen</p>"
    )
    for bundle in bundles:
        traces = ", ".join(bundle.get("trace_ids", [])) or "-"
        parts.append(
            '<div class="bundle">'
            f"t={_fmt(bundle.get('time'))} · "
            f"<b>{esc(str(bundle.get('reason', '?')))}</b> · "
            f"scope={esc(str(bundle.get('scope') or '-'))} · "
            f"traces: <code>{esc(traces)}</code> · "
            f"{len(bundle.get('entries', []))} entries</div>"
        )
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
