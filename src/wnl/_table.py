"""The one format every table of the package is written in.

A CSV table is a ``#`` header line, a line of column names and one line
per row.  Floats are written with repr, whose shortest-round-trip form
is locale-independent and stable, so reading a file back recovers each
value bit for bit.  Rows therefore hold Python scalars (``.tolist()`` of
numpy arrays): repr of a numpy scalar spells its type.  The JSON form
carries the same columns as one object per row under ``"rows"``, next to
the table's own fields, with sorted keys.
"""

from __future__ import annotations

import json
from typing import Sequence


def csv_text(header: str, columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [f"# {header}", ",".join(columns)]
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def payload(fields: dict, columns: Sequence[str], rows: Sequence[Sequence]) -> dict:
    return {**fields, "rows": [dict(zip(columns, row)) for row in rows]}


def json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
