"""Artifact writers shared by the CLI and the acceptance checks.

CSV floats carry 17 significant digits and booleans 1/0; JSON is sorted
and indented; every file ends in a newline.  The bytes depend only on the
values written, so reruns reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["write_csv", "write_json", "write_text", "sha256"]


def _fmt(v) -> str:
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
