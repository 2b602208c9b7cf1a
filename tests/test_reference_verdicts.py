"""eval_f and tail_bound against the benchmark's recorded verdicts.

Every eval_f and tail_bound op that the point_queries and
deep_construction workloads can issue is replayed once and judged by
perfbench's own judge against perfbench/reference.json, which this test
only reads: a verdict or refusal that changes, or a returned value that
fails its check (eval_f err above 1e-12, a NaN bound), fails here.
"""

import importlib.util
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["point_queries", "deep_construction"])
def test_eval_f_and_tail_bound_keep_their_reference_verdicts(name,
                                                             tmp_path):
    workloads = _load_workloads()
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    problems, count = [], 0
    for op in wl.reference_ops():
        if op.kind not in ("eval_f", "tail_bound"):
            continue
        out = exc = None
        try:
            out = op.call()
        except Exception as e:  # noqa: BLE001 - judged below
            exc = e
        problem = workloads.judge(op, out, exc, reference)
        if problem is not None:
            problems.append(f"{op.ref}: {problem}")
        count += 1
    assert count > 1000
    assert not problems, problems[:10]
