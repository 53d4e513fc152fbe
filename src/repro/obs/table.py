"""Plain-text table layout shared by every summary the repo prints."""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_aligned"]


def format_aligned(rows: Sequence[Sequence[str]]) -> str:
    """Left-align the first column, right-align the rest, pad to width."""
    if not rows:
        return ""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(width) for cell, width in zip(row[1:], widths[1:])
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)
