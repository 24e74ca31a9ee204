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


def test_write_csv_blocks_match_their_rows(tmp_path) -> None:
    y = [0.5, -1.0, 1e-300]
    table = [
        ["head", 1, None],
        tables.Block((0.0, y, [0.1, np.float64(1.0) / 3.0, float("inf")])),
        tables.Block((0.25, y, [float("nan"), -0.0, 2.0])),
        # a different list of the same length in y's slot: cells formatted
        # for y must not be reused
        tables.Block((0.5, [2.5, 3.5, 4.5], [1.0, 2.0, 3.0])),
        tables.Block(('a, "quoted" cell', ["x", None, True], [np.float32(0.1), np.int64(7), 1.5])),
        tables.Block((None, ["", "line\nbreak"], [np.bool_(False), 2])),
        tables.Block((1.0, [], [])),
        [0.75, 2.5, 4.5],
    ]
    path = tmp_path / "blocks.csv"
    tables.write_csv(path, ["t", "y", "v"], table)
    rows = list(tables.rows(table))
    assert [len(row) for row in rows] == [3] * 16
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["t", "y", "v"])
    writer.writerows([tables.format_cell(v) for v in row] for row in rows)
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_write_json_table_matches_write_json_of_its_rows(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(tables, "JSON_CHUNK", 2)  # parts of two rows, and a part of one
    y = [0.5, -1.0, 1e-300]
    table = [
        tables.Block((0.0, y, [0.1, np.float64(1.0) / 3.0, float("inf")])),
        tables.Block((0.25, y, [float("nan"), -0.0, float("-inf")])),
        ["head", np.int64(7), None, True, {"b": 1, "a": [float("nan")]}],
        tables.Block((1.0, [], [])),
        ['a "quoted"\nline', [], [1.5, np.float32(0.1)]],
    ]
    for header, body in ((["t", "y", "v"], table), (["t", "y", "v"], []), ([], [[]])):
        got, want = tmp_path / "streamed.json", tmp_path / "whole.json"
        tables.write_json_table(got, header, body)
        tables.write_json(want, {"header": header, "rows": list(tables.rows(body))})
        assert got.read_bytes() == want.read_bytes()
