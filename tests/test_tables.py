"""The CSV cell contract of tables.write_csv."""

from __future__ import annotations

import csv
import io

import numpy as np

from tailcost import tables


def test_write_csv_cells_match_format_cell(tmp_path) -> None:
    row = [
        0.1, -0.0, float("inf"), float("nan"), np.float64(1.0) / 3.0, np.float32(0.1),
        np.int64(7), np.bool_(True), True, None, 42, 'a, "quoted" cell',
    ]
    path = tmp_path / "cells.csv"
    tables.write_csv(path, ["c"] * len(row), [row])
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["c"] * len(row))
    writer.writerow([tables.format_cell(v) for v in row])
    assert path.read_bytes() == want.getvalue().encode("utf-8")
    assert b"np.float64(" not in path.read_bytes()
