"""History CSV and field snapshot serialization.

Floats are written with 17 significant digits so that parse -> rewrite is
byte-identical and regression files are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .diagnostics import HistoryRecord
from .errors import ValidationError
from .grid import GridSpec, RealField

#: History columns, in the field order of HistoryRecord.
_COLUMNS = tuple(f.name for f in fields(HistoryRecord))
CSV_HEADER = ",".join(_COLUMNS)
#: Columns that hold None (an empty cell) when the run has no such quantity.
_OPTIONAL = frozenset(f.name for f in fields(HistoryRecord) if "None" in str(f.type))


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".17g")


def write_history_csv(records: list[HistoryRecord], path: Path | str) -> None:
    """Write records under the fixed header, one row each; None -> empty cell."""
    lines = [CSV_HEADER]
    lines += [",".join(_fmt(getattr(r, name)) for name in _COLUMNS) for r in records]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_cell(name: str, cell: str) -> int | float | None:
    if cell == "" and name in _OPTIONAL:
        return None
    kind = int if name == "step" else float
    try:
        return kind(cell)
    except ValueError:
        raise ValueError(f"column {name}: {cell!r} is not {kind.__name__}") from None


def read_history_csv(path: Path | str) -> list[HistoryRecord]:
    """Parse a file written by :func:`write_history_csv`."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected history header in {path}")
    records = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(_COLUMNS):
            raise ValueError(f"{path}: line {number} has {len(cells)} cells, expected {len(_COLUMNS)}")
        try:
            row = {name: _parse_cell(name, cell) for name, cell in zip(_COLUMNS, cells)}
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}, {exc}") from None
        records.append(HistoryRecord(**row))
    return records


def write_snapshot(phi: RealField, t: float, path: Path | str) -> None:
    """Write a field snapshot: 5 text header lines, a blank line, then the
    nx*ny values as little-endian float64, row-major."""
    grid = phi.grid
    header = (
        f"nx {grid.nx}\n"
        f"ny {grid.ny}\n"
        f"lx {_fmt(grid.lx)}\n"
        f"ly {_fmt(grid.ly)}\n"
        f"t {_fmt(t)}\n"
        "\n"
    )
    payload = np.ascontiguousarray(phi.values, dtype="<f8").tobytes()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def read_snapshot(path: Path | str) -> tuple[RealField, float]:
    """Read a snapshot back; bit-exact inverse of :func:`write_snapshot`.  A header
    that is not ASCII, lacks a value, holds one that is not a number, a grid
    ``GridSpec`` refuses or a time that is not finite, or a payload of the wrong
    size, is a ValueError that names the file."""
    raw = Path(path).read_bytes()
    head, _, rest = raw.partition(b"\n\n")
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: header is not ASCII: byte {exc.start} is {head[exc.start]:#04x}") from None
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    for key, kind in (("nx", int), ("ny", int), ("lx", float), ("ly", float), ("t", float)):
        if not fields.get(key):
            raise ValueError(f"{path}: header has no value for {key}")
        try:
            fields[key] = kind(fields[key])
        except ValueError:
            raise ValueError(f"{path}: header value {fields[key]!r} for {key} is not {kind.__name__}") from None
    if not math.isfinite(fields["t"]):
        raise ValueError(f"{path}: header value {fields['t']!r} for t is not finite")
    nx, ny = fields["nx"], fields["ny"]
    try:
        grid = GridSpec(nx=nx, ny=ny, lx=fields["lx"], ly=fields["ly"])
    except ValidationError as exc:
        raise ValueError(f"{path}: header {exc}") from None
    if len(rest) != nx * ny * 8:
        raise ValueError(f"{path}: payload of {len(rest)} bytes, expected nx * ny * 8 = {nx * ny * 8}")
    values = np.frombuffer(rest, dtype="<f8").reshape(nx, ny)
    return RealField(grid, values.copy()), fields["t"]
