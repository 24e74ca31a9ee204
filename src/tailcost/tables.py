"""Deterministic table and report writers.

Output must be byte-stable across runs with the same inputs: floats are
serialized with shortest round-trip ``repr``, JSON keys are sorted, line
endings are fixed to ``"\\n"``, and nothing derived from wall time or
from absolute paths is ever written.

A table is an iterable of rows and Blocks, a Block being a run of rows by
column: a list holds one cell per row, any other value is one cell on
every row.  rows() is the row view JSON is built from: write_json_table
writes write_json's bytes for it a part of rows at a time, so no table is
ever held whole.  write_csv writes
what csv.writer writes for it with every cell through format_cell.  A
float (``np.float64`` included) is float.__repr__ of its value, never
quoted.  Any other Block cell goes through format_cell, and a Block with
a cell that is empty or holds a comma, a quote or a line break goes to
csv.writer for its quoting, as every row does.  A Block column is
formatted once and reused while the next Block hands over the same
object in that slot; the writer holds it, so its address is not reused.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import islice, repeat
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np


JSON_CHUNK = 256  # rows write_json_table encodes at once


class Block(tuple):
    """Rows of a table by column; at least one column is a list, all lists of one length."""


def scrub(value: Any) -> Any:
    """Coerce numpy scalars/arrays (recursively) to plain Python values."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {str(k): scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [scrub(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        # strict JSON has no literal for these
        return repr(value)
    return value


def write_json(path: Path | str, payload: dict[str, Any]) -> None:
    text = json.dumps(scrub(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def write_json_table(path: Path | str, header: Sequence[str], table: Iterable[Sequence[Any]]) -> None:
    """write_json of {"header": header, "rows": rows(table)}, written JSON_CHUNK rows at a time."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    head = encoder.encode(scrub({"header": header}))  # '{ ... ]\n}': reopened for rows
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(head[:-2] + ',\n  "rows": [')
        sep, row_iter = "\n", rows(table)
        while part := list(islice(row_iter, JSON_CHUNK)):
            # '[\n  row,\n  row\n]' of the part, its rows re-indented to depth 2
            fh.write(sep + "  " + encoder.encode(scrub(part))[2:-2].replace("\n", "\n  "))
            sep = ",\n"
        fh.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def format_cell(value: Any) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def rows(table: Iterable[Sequence[Any]]) -> Iterator[Sequence[Any]]:
    """The rows of a table: each Block's in order, any other item as it is."""
    for item in table:
        if isinstance(item, Block):
            yield from zip(*(c if isinstance(c, list) else repeat(c) for c in item))
        else:
            yield item


def _cells(column: Any) -> tuple[list[str] | repeat, bool]:
    """A Block column's cells as written, and whether csv writes each unquoted."""
    cells = column if isinstance(column, list) else [column]
    try:
        cells, plain = list(map(float.__repr__, cells)), True
    except TypeError:  # a cell that is not a float
        cells = [format_cell(v) for v in cells]
        plain = all(cells) and not set(',"\r\n').intersection("".join(cells))
    return (cells if isinstance(column, list) else repeat(cells[0])), plain


def write_csv(
    path: Path | str,
    header: Sequence[str],
    table: Iterable[Sequence[Any]],
) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        last: dict[int, tuple] = {}  # slot -> (the column a Block handed, *its _cells)
        for item in table:
            if not isinstance(item, Block):
                writer.writerow([v if type(v) is float else format_cell(v) for v in item])
                continue
            for j, col in enumerate(item):
                if j not in last or last[j][0] is not col:
                    last[j] = (col, *_cells(col))
            columns = [last[j][1] for j in range(len(item))]
            if all(last[j][2] for j in range(len(item))):  # one string per Block
                fh.write("\n".join([*map(",".join, zip(*columns)), ""]))
            else:
                writer.writerows(zip(*columns))
