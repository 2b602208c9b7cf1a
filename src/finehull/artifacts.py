"""Artifact writers shared by the CLI and the acceptance checks.

This module owns the CSV float format of both CSV writers: floats carry
17 significant digits ("%.17g"), booleans 1/0, and None (a value that
does not exist) is an empty cell.  JSON is sorted and indented; every
file ends in a newline.  The bytes depend only on the
values written, so reruns reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["write_csv", "write_grid_csv", "write_json", "write_text",
           "sha256"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_grid_csv(path: str, header, xs, ys, values) -> None:
    """Rows (x, y, values[iy, ix]) in y-major, then x order: the bytes
    write_csv gives for the same rows.

    Each axis value is formatted once; a grid row is one %-format call on
    a template that repeats ",y,%.17g\\n" after every x.  Values convert
    to Python floats one row at a time, so memory stays at one row of
    text over the grid itself.
    """
    x_strs = ["%.17g" % x for x in xs.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for y, row in zip(ys.tolist(), values):
            sep = ",%.17g,%%.17g\n" % y
            fh.write((sep.join(x_strs) + sep) % tuple(row.tolist()))


def write_json(path: str, obj) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
