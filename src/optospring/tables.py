"""Plot-ready CSV tables: the one writer behind every CSV output."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _cells(values) -> list[str]:
    # str and int cells verbatim; every other cell as the shortest round-trip
    # decimal of a Python float (repr of an np.float64 would name its type).
    # tolist() turns a float array into Python floats in one call.
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return list(map(repr, values.tolist()))
        values = values.tolist()
    return [v if isinstance(v, str) else str(v) if isinstance(v, int)
            else repr(float(v)) for v in values]


def write_table(path, names, columns, comments=()) -> None:
    """Write a ``# comment`` line per nonempty comment, a header row of
    ``names`` and one line per row, creating the parent directory.
    ``columns`` holds the cells column by column, one per name; each column
    is formatted in one pass."""
    lines = [f"# {c}" for c in comments if c]
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*map(_cells, columns))))
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("\n".join(lines) + "\n")
