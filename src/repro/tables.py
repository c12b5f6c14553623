"""Plain-text table rendering used by every exhibit, the DSE and the CLI.

The exhibits print the same rows/series the paper reports; a small ASCII
renderer keeps that output readable without pulling in plotting libraries.
It lives outside :mod:`repro.analysis` so the CLI's listings can print a
table without loading the exhibits.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_value", "render_table"]


def format_value(value: object, precision: int = 3) -> str:
    """Render one cell: floats compactly, large integers with separators."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:,.{precision}f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render a list of rows as an aligned ASCII table."""
    rendered_rows: List[List[str]] = [
        [format_value(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    separator = "-+-".join("-" * width for width in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(format_row([str(header) for header in headers]))
    lines.append(separator)
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)
