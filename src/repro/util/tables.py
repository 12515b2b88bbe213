"""Plain-text table rendering for benchmark and report output.

Benchmarks print the same rows the paper's tables report; this module is
the single place that formats them so all experiment output looks alike.
"""

from __future__ import annotations

from collections.abc import Sequence


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned ASCII table.

    Args:
        headers: column names.
        rows: cell values; floats are rendered with 4 significant digits.
        title: optional title line printed above the table.
    """
    str_rows = [[_stringify(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
