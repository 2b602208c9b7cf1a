"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own suite; the
smoke runs take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE]

import run  # noqa: E402

run.load_program()
import workloads  # noqa: E402
from finehull.logspace import LogComplex  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def test_tail_rule_keeps_ten_samples_beyond():
    xs = list(range(1, 1001))
    assert run.tail_latency(xs) == (990, 99.0, 10)
    # one sample fewer drops to the next percentile down
    assert run.tail_latency(xs[:999]) == (900, 90.0, 99)
    assert run.tail_latency(xs[:20]) == (10, 50.0, 10)
    assert run.tail_latency(xs[:19]) == (19, 100.0, 0)
    value, pct, beyond = run.tail_latency(range(100000))
    assert (pct, beyond) == (99.0, 1000)
    assert sum(1 for x in range(100000) if x > value) == beyond


def _run(op):
    try:
        return op.call(), None
    except Exception as e:  # noqa: BLE001 - the test judges it
        return None, e


@pytest.fixture(scope="module")
def pq():
    return workloads.PointQueries(1, os.path.join(ROOT, ".perfbench_tmp"))


def test_verdicts_pass_as_recorded(pq):
    for op in (pq.certify("s5", 3, 2), pq.eval_f("s5", "off", 5),
               pq.eval_f("s5", "pole", 1), pq.laurent(16)):
        out, exc = _run(op)
        assert workloads.judge(op, out, exc, REFERENCE) is None


def test_corrupted_verdict_is_flagged(pq):
    op = pq.certify("s5", 3, 2)
    out, exc = _run(op)
    assert workloads.judge(op, not out, None, REFERENCE) is not None
    wrong = dict(REFERENCE, **{op.ref: "F" if out else "T"})
    assert workloads.judge(op, out, exc, wrong) is not None


def test_corrupted_value_is_flagged(pq):
    op = pq.eval_f("slow", "off", 7)
    (val, err, n), exc = _run(op)
    assert workloads.judge(op, (val, err, n), exc, REFERENCE) is None
    assert workloads.judge(op, (val, 1e-6, n), exc, REFERENCE) is not None
    sq = pq.sqrt("s5", 2, 3, workloads.pr.BranchTag.D_PLUS, 1.0)
    root, _ = _run(sq)
    assert workloads.judge(sq, root, None, REFERENCE) is None
    bent = LogComplex(root.log_mag, root.arg + 1e-6)
    assert workloads.judge(sq, bent, None, REFERENCE) is not None


def test_refusal_is_a_verdict_only_where_recorded(pq):
    op = pq.eval_f("s5", "pole", 1)
    out, exc = _run(op)
    assert type(exc).__name__ == REFERENCE[op.ref] == "PoleHit"
    unrecorded = workloads.Op(op.kind, op.call, op.check)
    assert workloads.judge(unrecorded, out, exc, REFERENCE) is not None


def _bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    group = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in group}


def test_declared_workloads_are_the_runnable_ones():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_checkout_without_sources_refuses():
    bare = os.path.join(ROOT, ".perfbench_tmp", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _bench("point_queries", 0, cwd=bare)
        assert done.returncode != 0
        assert not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
