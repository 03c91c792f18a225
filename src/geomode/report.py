"""Report bytes: every report file of the package is written here, each
document formatted through one ``%`` template, so that a re-run
reproduces byte-identical files."""

from __future__ import annotations

import functools
import json
import math
from itertools import chain, repeat

import numpy as np

# ------------------------------------------------------------------- JSON


#: JSON leaves whose text follows from their value and type alone (bool is an int)
_LEAVES = (str, int, type(None))
#: the JSON text of a leaf, memoised: a report's columns repeat their values
_leaf_json = functools.lru_cache(maxsize=1 << 16, typed=True)(json.dumps)


def _format_scalar(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g") if math.isfinite(x) else "null"
    if x is None or isinstance(x, bool):
        return {None: "null", False: "false", True: "true"}[x]
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    raise TypeError(f"cannot serialize {type(x)!r}")


def _column(column, indent: int):
    """(template slot, values) of one record column at ``indent``: floats
    fill ``%.17g`` slots when all are finite, else :func:`_format_scalar`
    text; leaves come through the memo and lists of strings through one
    template, anything else value by value."""
    kinds = set(map(type, column))
    if kinds == {float}:
        if all(map(math.isfinite, column)):
            return "%.17g", column
        return "%s", list(map(_format_scalar, column))
    if all(issubclass(kind, _LEAVES) for kind in kinds):
        return "%s", list(map(_leaf_json, column))
    if kinds <= {list, tuple} and set(map(type, chain.from_iterable(column))) <= {str}:
        inner, close = "\n" + " " * (indent + 2), "\n" + " " * indent + "]"
        return "%s", ["[" + inner + ("," + inner).join(map(_leaf_json, v)) + close if v else "[]"
                      for v in column]
    return "%s", [dumps_json(v, indent) for v in column]


def _dumps_records(seq: list, indent: int) -> str | None:
    """A list of dicts with the same keys in the same order, written
    through one template of :func:`_column` slots; None for any other list."""
    if set(map(type, seq)) != {dict} or len(set(map(tuple, seq))) != 1 or not seq[0]:
        return None
    slots, cells = zip(*(_column(column, indent + 4) for column in zip(*map(dict.values, seq))))
    pad, inner = " " * (indent + 2), " " * (indent + 4)
    keys = (json.dumps(str(k)).replace("%", "%%") for k in seq[0])
    body = ",\n".join(f"{inner}{k}: {slot}" for k, slot in zip(keys, slots))
    item = f"{pad}{{\n{body}\n{pad}}}"
    return ("[\n" + ",\n".join([item] * len(seq)) + f"\n{' ' * indent}]") % tuple(
        chain.from_iterable(zip(*cells)))


def dumps_json(obj, indent: int = 0) -> str:
    """JSON with 17-significant-digit floats (byte-stable re-runs)."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {dumps_json(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating, type(None), bool))
               for v in seq):
            return "[" + ", ".join(map(_format_scalar, seq)) + "]"
        records = _dumps_records(seq, indent)
        if records is not None:
            return records
        parts = [f"{inner}{dumps_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, complex):
        return "[" + _format_scalar(obj.real) + ", " + _format_scalar(obj.imag) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _format_scalar(obj)


def write_json(path, obj) -> None:
    path.write_text(dumps_json(obj) + "\n")


# -------------------------------------------------------------------- CSV


#: the characters that make ``csv.writer``'s default dialect quote a field
_CSV_SPECIAL = ',"\r\n'


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer``'s default dialect writes it: quoted,
    with its quotes doubled, when it holds a comma, quote or line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in _CSV_SPECIAL) else text


def _csv_column(cells: tuple):
    """(slot, values) of one CSV column: one ``%`` slot for text, ints and bools or
    floats without NaN, else one per cell; values None if they are the cells."""
    try:
        text = "".join(cells)
    except TypeError:  # not a column of text
        kinds = set(map(type, cells))
    else:  # quoted only if some cell needs it
        return "%s", None if _csv_field(text) is text else tuple(map(_csv_field, cells))
    if kinds <= {int, bool} or kinds == {float} and not np.isnan(cells).any():
        return "%.17g" if kinds == {float} else "%s", None
    return (["%.17g" if isinstance(v, (float, np.floating)) and v == v else "%s" for v in cells],
            ["" if v is None or v != v else _csv_field(v) if isinstance(v, str) else v
             for v in cells])


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` (one field per column, two or more columns) as
    ``csv.writer`` does, but with a float's 17 significant digits and an empty
    cell for NaN, like None.  A column of one kind costs no Python call per cell."""
    rows = list(rows)
    width = len(header)
    if width < 2 or set(map(len, rows)) - {width}:
        raise ValueError(f"CSV rows need {width} fields, one per header column (two or more)")
    cells = tuple(chain.from_iterable(rows))
    slots, values = zip(*(_csv_column(cells[k::width]) for k in range(width)))
    if all(isinstance(slot, str) for slot in slots):
        template = (",".join(slots) + "\r\n") * len(rows)
    else:
        per_row = zip(*(repeat(s, len(rows)) if isinstance(s, str) else s for s in slots))
        template = "\r\n".join(map(",".join, per_row)) + "\r\n"
    if any(v is not None for v in values):  # a column quoted or written cell by cell
        cells = tuple(chain.from_iterable(zip(*(cells[k::width] if v is None else v
                                                for k, v in enumerate(values)))))
    body = template % cells
    del rows, cells, template  # only the body is held while it is written
    with open(path, "w", newline="") as fh:
        fh.writelines([",".join(map(_csv_field, header)) + "\r\n", body])
