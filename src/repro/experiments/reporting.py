"""Plain-text rendering of figure results (the benches print these)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.figures import FigureResult


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "-"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e6 or magnitude < 1e-3:
        return f"{value:.3e}"
    if magnitude >= 100:
        return f"{value:,.0f}"
    return f"{value:.3f}"


#: Rows a figure table shows at most before its x-axis is subsampled.
MAX_TABLE_ROWS = 12


def format_series_table(result: "FigureResult") -> str:
    """Render a figure's series as an aligned text table.

    Long x-axes are subsampled to about :data:`MAX_TABLE_ROWS` rows
    (always keeping the first and last points).
    """
    max_rows = MAX_TABLE_ROWS
    x = result.x
    if len(x) > max_rows:
        step = max(1, (len(x) - 1) // (max_rows - 1))
        idx = list(range(0, len(x), step))
        if idx[-1] != len(x) - 1:
            idx.append(len(x) - 1)
    else:
        idx = list(range(len(x)))

    headers = [result.x_label] + list(result.series)
    rows = []
    for i in idx:
        rows.append([str(x[i])] + [_fmt(result.series[name][i]) for name in result.series])
    widths = [max(len(h), *(len(r[c]) for r in rows)) for c, h in enumerate(headers)]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_summary(result: "FigureResult") -> str:
    """Render the paper-vs-measured headline comparison."""
    lines = []
    for key, measured in result.summary.items():
        expected = result.expectations.get(key, float("nan"))
        expected_str = "-" if expected != expected else _fmt(expected)
        lines.append(f"  {key}: measured={_fmt(measured)}  paper={expected_str}")
    return "\n".join(lines)


def print_result(result: "FigureResult") -> None:
    """Print a figure result: header, series table, summary block."""
    bar = "=" * 72
    print()
    print(bar)
    print(f"[{result.figure}] {result.title}")
    print(bar)
    print(format_series_table(result))
    if result.summary:
        print("paper-vs-measured headlines:")
        print(format_summary(result))
    print(bar)
