"""The CSV writer: bytes and memory of block-at-a-time writing."""

import numpy as np
import pytest

from optospring import tables
from optospring.tables import TABLE_BLOCK, write_table

NAMES = ("x", "k", "unit", "y")
COMMENTS = ("first", "", "second")


def _joined(names, columns, comments):
    """The whole file formatted and joined at once."""
    lines = [f"# {c}" for c in comments if c]
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*map(tables._cells, columns))))
    return "\n".join(lines) + "\n"


def _columns(rows, form):
    """The same four columns in each form a caller passes: a tuple of an
    ndarray, an int ndarray, a list and a generator; a generator of
    ndarrays (write_map_csv); or zip over row tuples (write_scan_csv and
    cmd_cool)."""
    x = np.linspace(-1.0, 1.0, rows) * np.pi
    x[::7] = np.nan
    k = np.arange(rows) % 2
    if form == "mixed":
        return (x, k, ["m^2/Hz"] * rows, (0.1 * i for i in range(rows)))
    if form == "generator":
        return (c for c in (x, k, np.full(rows, 2.5), -x))
    return zip(*[(float(a), int(b), "V", 0.1 * i)
                 for i, (a, b) in enumerate(zip(x, k))])


@pytest.mark.parametrize("form", ["mixed", "generator", "zip"])
@pytest.mark.parametrize("rows", [0, 1, TABLE_BLOCK - 1, TABLE_BLOCK,
                                  TABLE_BLOCK + 1])
def test_blocks_write_the_joined_bytes(tmp_path, rows, form):
    """Written TABLE_BLOCK rows at a time, the file has the bytes of the
    whole text joined at once, at and around the block edge."""
    path = tmp_path / "sub" / "t.csv"
    write_table(path, NAMES, _columns(rows, form), COMMENTS)
    want = _joined(NAMES, _columns(rows, form), COMMENTS)
    assert path.read_bytes() == want.encode()


def test_memory_does_not_grow_with_the_rows(tmp_path):
    """write_table's traced peak above its input columns is one block's
    cells and text: ~0.33 MB at 1e4 and at 1e5 rows of three columns.
    Joined at once it was 3.1 and 31.2 MB."""
    from conftest import traced_peak

    peaks = []
    for rows in (10_000, 100_000):
        cols = (np.linspace(0.0, 1.0, rows), np.arange(rows),
                np.linspace(1.0, 2.0, rows))
        _, peak = traced_peak(lambda: write_table(
            tmp_path / "t.csv", ("a", "b", "c"), cols, ("comment",)))
        peaks.append(peak)
    assert peaks[1] <= 1.2 * peaks[0]
