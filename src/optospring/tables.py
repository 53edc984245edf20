"""Plot-ready CSV tables: the one writer behind every CSV output."""

from __future__ import annotations

from pathlib import Path


def _cell(value) -> str:
    # str and int cells verbatim; every other cell as the shortest round-trip
    # decimal of a Python float (repr of an np.float64 would name its type)
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def write_table(path, columns, rows, comments=()) -> None:
    """Write a ``# comment`` line per nonempty comment, a header row and one
    line per row, creating the parent directory."""
    lines = [f"# {c}" for c in comments if c]
    lines.append(",".join(columns))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("\n".join(lines) + "\n")
