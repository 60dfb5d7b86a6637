"""Human-readable formatting for experiment reports.

The experiment harness prints the same rows/series the paper reports; these
helpers keep that output consistent across the experiment modules and the
reports they print.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["format_duration", "format_count", "ascii_table"]


def format_duration(seconds: float) -> str:
    """Render a duration with a unit chosen for legibility.

    >>> format_duration(0.000002)
    '2.00us'
    >>> format_duration(0.0451)
    '45.10ms'
    >>> format_duration(3.2)
    '3.20s'
    """
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 60.0:.1f}min"


def format_count(n: int | float) -> str:
    """Render a count with thousands separators (floats are rounded).

    >>> format_count(1234567)
    '1,234,567'
    """
    return f"{int(round(n)):,}"


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` as a fixed-width ASCII table.

    Numeric cells are right-aligned, text cells left-aligned, mirroring how
    the paper's tables read.  Returns the table as a single string (callers
    decide whether to print it or embed it in a report file).
    """
    materialized = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            width = widths[i] if i < len(widths) else len(cell)
            # Right-align things that look numeric for easy column scanning.
            if _looks_numeric(cell):
                parts.append(cell.rjust(width))
            else:
                parts.append(cell.ljust(width))
        return "| " + " | ".join(parts) + " |"

    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append(fmt_row(list(headers)))
    lines.append(sep)
    for row in materialized:
        lines.append(fmt_row(row))
    lines.append(sep)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    text = str(value)
    # Control and line-breaking characters (\n, \x1e,  , ...) would
    # split a rendered row across lines; replace them so every cell stays
    # single-line.
    if not text.isprintable():
        text = "".join(ch if ch.isprintable() else " " for ch in text)
    return text


def _looks_numeric(cell: str) -> bool:
    stripped = cell.replace(",", "").replace("us", "").replace("ms", "")
    stripped = stripped.replace("min", "").rstrip("s").lstrip("-")
    if not stripped:
        return False
    try:
        float(stripped)
        return True
    except ValueError:
        return False
