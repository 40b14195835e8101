"""The one format every table of the package is written in: ``Table``.

A CSV table is a ``#`` header line, a line of column names and one line
per row.  Floats are written with repr, whose shortest-round-trip form
is locale-independent and stable, so reading a file back recovers each
value bit for bit.  Rows therefore hold Python scalars (``.tolist()`` of
numpy arrays): repr of a numpy scalar spells its type.  The JSON form
carries the same columns as one object per row under ``"rows"``, next to
the table's own fields, with sorted keys; a non-finite float is written
as ``NaN`` or ``Infinity``, which Python's json reads back.  The header
line and the JSON fields are separate inputs, since a table may carry a
value in one form only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Table:
    header: str
    fields: dict
    columns: Sequence[str]
    rows: Sequence[Sequence]

    def csv_text(self) -> str:
        lines = [f"# {self.header}", ",".join(self.columns)]
        lines += [",".join(map(repr, row)) for row in self.rows]
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        rows = [dict(zip(self.columns, row)) for row in self.rows]
        return json.dumps({**self.fields, "rows": rows}, indent=2, sort_keys=True) + "\n"
