#!/usr/bin/env python3
"""finehull benchmark: seeded, closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 20
    python3 perfbench/run.py --workload capacity_scan --seed 1 --trace 1
    python3 perfbench/run.py --all --seed 1 --seconds 20

One workload runs in one process with one client: the next op starts
when the previous one has returned and been checked.  The last line of
standard output is one JSON object with "correct", "attempted", "failed"
and "metrics": the end-to-end metrics, or with --trace 1 the per-layer
metrics of a run whose second half is traced.  The exit code is 0 only
when every op passed its check.  --all runs every workload, each in its
own process, and prints one table.

Times are reported at reference speed: each wall time is scaled by the
reference time of a fixed loop over the time that loop took just before
(and, for long ops, just after) it.  A shared 2-vCPU Intel Xeon VM changes
speed by up to 2x within seconds, and the scaling removes most of that
from the numbers.  The wall-clock figures are on the "info" line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from array import array  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("point_queries", "deep_construction", "capacity_scan",
             "cli_pipeline")
SETUP_REPEATS = 5            # set-ups per run: this process and 4 children
TAIL_LADDER = (99.0, 90.0, 50.0)
CHILD_TIMEOUT_S = 120
RECALIBRATE_S = 0.05         # busy time between two speed measurements
SPEED_WINDOW = 5             # an op's speed: median of the last measurements


def tail_latency(samples):
    """(value, percentile, samples beyond) at the highest percentile of
    TAIL_LADDER that leaves at least 10 samples above it (nearest rank).
    With fewer than 20 samples the maximum is returned at percentile 100.
    """
    import numpy as np
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(round(p * n, 6) / 100.0)
        if rank >= 1 and n - rank >= 10:
            return float(xs[rank - 1]), p, n - rank
    return float(xs[-1]), 100.0, 0


def median(samples) -> float:
    import numpy as np
    return float(np.median(np.asarray(samples, dtype=float)))


def python_loop(n: int = 300) -> float:
    """Fixed pure-Python work in the style of finehull's scalar loops
    (complex and float arithmetic, math calls, small tuples)."""
    acc = 0.0
    z = 0.3 + 0.2j
    for i in range(n):
        w = z * (1.0 + 1e-3 * i)
        acc += math.log(abs(w)) + math.atan2(w.imag, w.real)
        t = (w.real, w.imag, i)
        acc += t[0] * 0.5
    return acc


@functools.cache
def _grid():
    import numpy as np
    g = np.linspace(-1.5, 1.5, 256)
    return g[None, :] + 1j * g[:, None]


def numpy_loop() -> float:
    """Fixed numpy work in the style of the Leja and fiber-scan kernels:
    log-abs of an affine map over a 256 x 256 complex grid."""
    import numpy as np
    return float(np.log(np.abs(_grid() * (0.3 + 0.1j) - 0.2)).sum())


# Reference loops use nothing of finehull, so a change to the program cannot
# move them.  Each workload names the one that matches its work: the
# machine's slow phases slow interpreted loops more than numpy kernels.  The
# second entry is the loop's time at reference speed, about its time in a
# fast phase of a 2-vCPU Intel Xeon VM at 2.1 GHz.
REFERENCE_LOOPS = {"python": (python_loop, 1.3e-4),
                   "numpy": (numpy_loop, 3.5e-4)}


def speed_scale(kind: str = "python") -> float:
    """Reference time of a loop over the best of three timings of it: a
    wall time times this factor is the time at reference speed."""
    loop, reference_s = REFERENCE_LOOPS[kind]
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return reference_s / best


def load_program():
    """Import finehull from the checkout's own src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import finehull
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import finehull from {SRC}: {e}")
    where = os.path.dirname(os.path.abspath(finehull.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"perfbench: finehull found at {where}, not in src/")
    return finehull


def run_metadata(args) -> dict:
    import numpy
    head = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            head = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    pkg = os.path.join(SRC, "finehull")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"git_head": head, "src_lines": lines,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


class Result:
    # arrays, not lists, so that peak_rss_mb does not grow with the op count
    def __init__(self):
        self.latencies = array("d")     # seconds at reference speed
        self.wall = array("d")
        self.busy = 0.0                     # wall seconds
        self.failed = 0
        self.problems: list[str] = []


def measure(cycles, seconds: float, reference: dict, loop: str,
            tracer=None) -> Result:
    """Closed loop over whole cycles until the ops have run for `seconds`.

    Only the library call is timed.  Checks, bookkeeping and the speed
    measurements run between ops, outside the timed window; throughput is
    ops per timed second.
    """
    from workloads import judge
    res = Result()
    perf = time.perf_counter
    recent = collections.deque([speed_scale(loop)], maxlen=SPEED_WINDOW)
    scale, since = recent[0], 0.0
    for ops in cycles:
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            out = exc = None
            t0 = perf()
            try:
                out = op.call()
            except Exception as e:  # noqa: BLE001 - judged below
                exc = e
            dt = perf() - t0
            op_scale = scale
            since += dt
            if since >= RECALIBRATE_S:
                recent.append(speed_scale(loop))
                scale, since = statistics.median(recent), 0.0
                # a long op gets the mean speed of before and after it
                if dt >= RECALIBRATE_S:
                    op_scale = 0.5 * (op_scale + scale)
            if tracer is not None:
                tracer.end_op(op_scale)
            res.wall.append(dt)
            res.latencies.append(dt * op_scale)
            res.busy += dt
            problem = judge(op, out, exc, reference)
            if exc is None and op.after is not None:
                counters = op.after(out)
                if tracer is not None:
                    tracer.count(counters)
            if problem is not None:
                res.failed += 1
                if len(res.problems) < 20:
                    res.problems.append(f"{op.kind}: {problem}")
        if res.busy >= seconds:
            break
    return res


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up child failed: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(args) -> int:
    for key in [k for k in os.environ if k.startswith("FINEHULL_")]:
        del os.environ[key]         # the CLI would read them as settings
    scale0 = speed_scale()      # before numpy is imported
    load_program()
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(tmp, "sys"))
    tempfile.tempdir = os.path.join(tmp, "sys")   # for reproduce-all
    try:
        import workloads
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        loop = wl.REFERENCE
        wall = time.perf_counter() - T0
        setup = {"setup_s": wall * 0.5 * (scale0 + speed_scale()),
                 "wall_s": wall}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        print("meta " + json.dumps(run_metadata(args), sort_keys=True))
        if args.trace:
            return traced_run(args, wl, reference, loop)
        res = measure(wl.cycles(), args.seconds, reference, loop)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup] + [child_setup_seconds(args)
                            for _ in range(SETUP_REPEATS - 1)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    n = len(res.latencies)
    tail, pct, beyond = tail_latency(res.latencies)
    wall_tail, _, _ = tail_latency(res.wall)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "throughput_ops_s": (n / math.fsum(res.latencies), "ops/s"),
        "op_p50_ms": (median(res.latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    info = {"failed_frac": res.failed / n, "op_tail_pct": pct, "samples": n,
            "beyond": beyond, "busy_s": res.busy,
            "wall_setup_s": statistics.median(s["wall_s"] for s in setups),
            "wall_throughput_ops_s": n / res.busy,
            "wall_p50_ms": median(res.wall) * 1e3,
            "wall_tail_ms": wall_tail * 1e3,
            "problems": res.problems}
    return report(res, metrics, info)


def traced_run(args, wl, reference, loop) -> int:
    """First half untraced, second half traced over the same inputs; the
    difference of the halves is the tracing overhead."""
    import spans
    half = args.seconds / 2.0
    plain = measure(wl.cycles(), half, reference, loop)
    tracer = spans.Tracer()
    wrapped = spans.install(tracer)
    traced = measure(wl.cycles(), half, reference, loop, tracer)
    spans_dir = os.path.join(ROOT, ".perfbench_tmp", "traces")
    os.makedirs(spans_dir, exist_ok=True)
    tracer.save(os.path.join(spans_dir, f"{args.workload}.npz"))
    metrics = {k: (v, spans.unit_of(k)) for k, v in
               spans.layer_metrics(tracer).items()}
    p50 = [median(r.latencies) * 1e3 for r in (plain, traced)]
    ops_s = [len(r.latencies) / math.fsum(r.latencies)
             for r in (plain, traced)]
    metrics.update({
        "trace.untraced_p50_ms": (p50[0], "ms"),
        "trace.traced_p50_ms": (p50[1], "ms"),
        "trace.overhead_p50_frac": (p50[1] / p50[0] - 1.0, "ratio"),
        "trace.untraced_ops_s": (ops_s[0], "ops/s"),
        "trace.traced_ops_s": (ops_s[1], "ops/s"),
        "trace.overhead_ops_frac": (1.0 - ops_s[1] / ops_s[0], "ratio"),
    })
    both = Result()
    both.latencies = plain.latencies + traced.latencies
    both.wall = plain.wall + traced.wall
    both.failed = plain.failed + traced.failed
    both.problems = plain.problems + traced.problems
    info = {"failed_frac": both.failed / len(both.latencies),
            "wrapped_attributes": wrapped, "spans": len(tracer.start)}
    return report(both, metrics, info)


def report(res: Result, metrics: dict, info: dict) -> int:
    attempted = len(res.latencies)
    print("info " + json.dumps(info, sort_keys=True))
    for p in res.problems:
        print("FAILED " + p)
    correct = res.failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one row per workload."""
    rows, ok = [], True
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.splitlines()
        sys.stdout.write(done.stdout)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            ok = False
            if not lines or not lines[-1].startswith("{"):
                continue
        result = json.loads(lines[-1])
        info = next((json.loads(x[5:]) for x in lines
                     if x.startswith("info ")), {})
        rows.append((w, result, info))
        ok = ok and result["correct"]
    print()
    for w, result, info in rows:
        print(f"== {w}: attempted {result['attempted']}, failed "
              f"{result['failed']}, failed_frac {info.get('failed_frac')}")
        for name, m in result["metrics"].items():
            note = ""
            if name == "op_tail_ms":
                note = (f"  (p{info['op_tail_pct']:g} over "
                        f"{info['samples']} ops, {info['beyond']} beyond)")
            print(f"   {name:32s} {m['value']:14.6g} {m['unit']}{note}")
        if not args.trace:
            print(f"   {'failed_frac':32s} {info.get('failed_frac', 0):14.6g}"
                  " ratio")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
