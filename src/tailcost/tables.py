"""Deterministic table and report writers.

Output must be byte-stable across runs with the same inputs: floats are
serialized with shortest round-trip ``repr``, JSON keys are sorted, line
endings are fixed to ``"\\n"``, and nothing derived from wall time or
from absolute paths is ever written.

csv writes each cell as its ``str``, and the ``str`` of a ``float`` is its
shortest round-trip ``repr``, so write_csv hands csv the cells whose type
is exactly ``float`` as they are.  Every other cell goes through
format_cell: csv would write True as "True" and None as an empty field,
and a float subclass such as ``np.float64`` owns its ``str`` and ``repr``
(the latter reads ``np.float64(...)``), so only an exact float is known
to come out as format_cell writes it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np


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


def format_cell(value: Any) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(
    path: Path | str,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        writer.writerows([v if type(v) is float else format_cell(v) for v in row] for row in rows)
