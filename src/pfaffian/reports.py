"""Byte-stable report serialization.

JSON for machine output, CSV for point clouds and polylines.  Floats are
written with 17 significant digits so reports round-trip losslessly and are
byte-identical across runs.
"""

from __future__ import annotations

import csv
import io
import math
import sys


def float_repr(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report")
    return format(float(x), ".17g")


def _emit(obj, out, level):
    pad = "  " * level  # two spaces per nesting level
    pad_in = pad + "  "
    np = sys.modules.get("numpy")  # numpy scalars leak in easily, if it is loaded
    if np is not None and isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(float_repr(obj))
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for idx, (key, value) in enumerate(obj.items()):
            out.write(f'{pad_in}"{key}": ')
            _emit(value, out, level + 1)
            out.write(",\n" if idx < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        # numpy scalars become Python ones before the layout is chosen
        seq = [v.item() if np is not None and isinstance(v, np.generic) else v
               for v in obj]
        if not seq:
            out.write("[]")
            return
        simple = all(isinstance(v, (int, float, str, bool, type(None))) for v in seq)
        if simple:
            out.write("[")
            for idx, value in enumerate(seq):
                _emit(value, out, level)
                if idx < len(seq) - 1:
                    out.write(", ")
            out.write("]")
        else:
            out.write("[\n")
            for idx, value in enumerate(seq):
                out.write(pad_in)
                _emit(value, out, level + 1)
                out.write(",\n" if idx < len(seq) - 1 else "\n")
            out.write(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def json_text(obj) -> str:
    out = io.StringIO()
    _emit(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def csv_text(header, rows) -> str:
    """CSV of a header and rows of numbers: a float cell is
    :func:`float_repr`, any other cell ``str``.  Cells are joined directly,
    as ``csv.writer`` would write them, since numbers need no quoting; the
    header goes through ``csv.writer``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(header)
    out.writelines(
        ",".join([float_repr(v) if isinstance(v, float) else str(v) for v in row])
        + "\n"
        for row in rows
    )
    return out.getvalue()


def write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
