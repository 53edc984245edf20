"""Plot-ready CSV tables: the one writer behind every CSV output."""

from __future__ import annotations

from itertools import islice
from pathlib import Path

import numpy as np

# Rows formatted and written per block.  Formatted at once, the 12,000-row
# map's cells and text took write_map_csv's traced peak to 6.4 MB; in
# blocks of 1024 rows it is 1.0 MB, and the map writes no slower.
TABLE_BLOCK = 1024


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


def _blocks(column):
    """``column`` in slices of TABLE_BLOCK cells: an ndarray by slicing, any
    other iterable (list, tuple, generator) by consuming it."""
    if isinstance(column, np.ndarray):
        return (column[i:i + TABLE_BLOCK]
                for i in range(0, len(column), TABLE_BLOCK))
    it = iter(column)
    return iter(lambda: list(islice(it, TABLE_BLOCK)), [])


def write_table(path, names, columns, comments=()) -> None:
    """Write a ``# comment`` line per nonempty comment, a header row of
    ``names`` and one line per row, creating the parent directory.
    ``columns`` holds the cells column by column, one per name.  The rows
    are formatted and written TABLE_BLOCK at a time, so beside its input
    the writer holds one block's text at most."""
    head = [f"# {c}" for c in comments if c]
    head.append(",".join(names))
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w") as f:
        f.write("\n".join(head) + "\n")
        for block in zip(*map(_blocks, columns)):
            f.write("\n".join(map(",".join, zip(*map(_cells, block)))) + "\n")
