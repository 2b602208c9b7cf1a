"""Both artifact trees, byte for byte.

`reproduce-all` (15 files) and the acceptance `_pipeline` (27 files) must
write exactly the bytes whose SHA-256 digests `data/artifact_sha256.json`
holds.  A refactor is "the same behaviour" only if this test passes
unchanged.  The digest file may be re-recorded only together with a byte
change that CHANGES.md names, file and column:

    PYTHONPATH=src python tests/test_artifact_bytes.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from finehull import cli
from finehull.acceptance import _pipeline

DIGESTS = os.path.join(os.path.dirname(__file__), "data",
                       "artifact_sha256.json")


def artifact_digests(base: str) -> dict[str, str]:
    """SHA-256 of every file both pipelines write under base, keyed by
    its path relative to base."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["reproduce-all", "--out", os.path.join(base, "all")])
    assert rc == 0
    _pipeline(os.path.join(base, "pipeline"))
    out = {}
    for root, _, files in os.walk(base):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, base).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))


def test_artifact_trees_are_byte_identical(tmp_path):
    with open(DIGESTS) as fh:
        want = json.load(fh)
    got = artifact_digests(str(tmp_path))
    assert len(want) == 15 + 27
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"artifact bytes changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = artifact_digests(tmp)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
