"""Text rendering of figure/table data.

The benchmarks and examples print the same rows/series the paper's figures
report.  This module provides small, dependency-free formatters so every
harness renders consistently.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = [
    "format_table",
    "format_percent",
    "format_series",
]


def format_percent(value: float, decimals: int = 1) -> str:
    """Format a fractional value as a signed percentage string."""
    return f"{100.0 * value:+.{decimals}f}%"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    min_width: int = 10,
) -> str:
    """Render a simple fixed-width text table."""
    if not headers:
        raise ValueError("headers must not be empty")
    widths = [max(min_width, len(str(h))) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("every row must have the same number of cells as headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(series: Mapping[int, float], decimals: int = 3) -> str:
    """Render an hour-indexed series as ``hour:value`` pairs."""
    return " ".join(f"{int(k):02d}:{v:.{decimals}f}" for k, v in sorted(series.items()))
