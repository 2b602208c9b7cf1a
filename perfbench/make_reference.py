#!/usr/bin/env python3
"""Record the verdict of every pool entry into perfbench/reference.json.

Run from the repository root at a commit whose verdicts are trusted:

    python3 perfbench/make_reference.py

Every op a workload can issue with a verdict (a boolean, a count, an
in_EN pattern, the acceptance rows, or an expected refusal) is run once.
Ops whose returned value fails its own check are listed and make the
script exit 1 without writing the file.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    run.load_program()
    import workloads
    reference, problems = {}, []
    tmp = os.path.join(run.ROOT, ".perfbench_tmp", f"reference-{os.getpid()}")
    os.makedirs(os.path.join(tmp, "sys"))
    tempfile.tempdir = os.path.join(tmp, "sys")
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(0, tmp)
            count = 0
            for op in wl.reference_ops():
                out = exc = None
                try:
                    out = op.call()
                except Exception as e:  # noqa: BLE001 - recorded below
                    exc = e
                code, problem = workloads.outcome(op, out, exc)
                if exc is None and op.after is not None:
                    op.after(out)
                if problem is not None:
                    problems.append(f"{op.ref}: {problem}")
                reference[op.ref] = code
                count += 1
            print(f"{name}: {count} verdicts", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("PROBLEM " + p)
    if problems:
        return 1
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print(f"wrote {len(reference)} verdicts to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
