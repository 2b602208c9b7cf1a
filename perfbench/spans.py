"""Spans around calls into finehull, placed from outside the program.

install() replaces every public function of the layer modules, wherever a
finehull module holds it as an attribute, by a wrapper that records one
span: name, start, end, parent span and op id.  Calls reached through a
module attribute (``hl.fiber_scan`` inside ``cli``, ``tail_bound`` inside
``eval_f``) are therefore nested spans of their caller.  Spans live in
flat arrays in memory and are written out once, at the end of the run.

Some spans also carry a value read from the call: a count computed from
the arguments (gaps, factors, grid cells, nodes) or a verdict of the
result (n_used, in_EN share, dips found).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import time
from array import array

import numpy as np

# Layer modules whose public functions get spans.  logspace has no call
# site of its own: its cost is the per-factor work inside product and
# blaschke, measured there as ns per factor.
LAYERS = ("cantor", "product", "potential", "hull", "blaschke", "cli",
          "acceptance")

# Leaf helpers called once per shape or per index inside other layer
# functions; a span each would cost more than the work it measures.
SKIP = {"potential.interval", "potential.disk", "potential.arc",
        "potential.exact_log_capacity", "potential.exact_capacity",
        "blaschke.van_der_corput", "blaschke.radius_from_condition",
        "blaschke.log_one_minus_radius", "blaschke.extra_zeros",
        "cantor.cantor_length"}

CLI_COMMANDS = ("spec-build", "eval", "capacity", "green", "sample-e",
                "hull-scan", "blaschke", "reproduce-all")

NAN = float("nan")


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def horizon_gaps(spec) -> float:
    """Gaps in the horizon extension certify_en_point walks (computed).

    Mirrors the documented horizon: indices until the threshold
    exp(-j c_j / 2) underflows, within a budget of 8192 past the spec.
    """
    rule = spec.c_rule
    if rule.max_defined_index is not None:
        return float(spec.max_index)
    j = spec.max_index + 1
    while 0.5 * rule.jcj(j) <= 746.0:
        j += 1
        if j > spec.max_index + 8192:
            return NAN
    return float(max(j - 1, spec.max_index))


def _in_en_frac(rows):
    return sum(1 for r in rows if r.in_EN) / len(rows)


def _probe_factors(a, k, out, exc):
    return _arg(a, k, 1, "N") + 1.0, NAN


def _probe_blaschke(a, k, out, exc):
    spec, N = a[0], _arg(a, k, 1, "N")
    return float(min(N, len(spec.zeros)) + min(N, len(spec.extras))), NAN


def _probe_scan(a, k, out, exc):
    res, sq = _arg(a, k, 3, "res"), _arg(a, k, 4, "sq", False)
    found = len(out.dips) / (2.0 if sq else 1.0) if exc is None else NAN
    return float(res), found


def _probe_cli(a, k, out, exc):
    argv = _arg(a, k, 0, "argv")
    return float(CLI_COMMANDS.index(argv[0])), NAN


# label -> (args, kwargs, result, exception) -> (value, aux)
PROBES = {
    "cantor.build_cantor_spec":
        lambda a, k, o, e: (float(_arg(a, k, 4, "N", 0)), NAN),
    "product.eval_partial_product": _probe_factors,
    "product.sqrt_branch": _probe_factors,
    "product.eval_f":
        lambda a, k, o, e: (float(o[2]) if e is None else NAN, NAN),
    "product.tail_bound":
        lambda a, k, o, e: (float(o.terms) if e is None else NAN,
                            0.0 if e is None else 1.0),
    "product.certify_en_point":
        lambda a, k, o, e: (horizon_gaps(a[0]), NAN),
    "blaschke.eval_blaschke": _probe_blaschke,
    "blaschke.blaschke_sample_E":
        lambda a, k, o, e: (_in_en_frac(o) if e is None else NAN, NAN),
    "blaschke.smallest_closing_N":
        lambda a, k, o, e: (float(o) if e is None else NAN, NAN),
    "potential.leja_points":
        lambda a, k, o, e: (float(_arg(a, k, 1, "n", 64)), NAN),
    "potential.sample_E":
        lambda a, k, o, e: (_in_en_frac(o) if e is None else NAN, NAN),
    "hull.fiber_scan": _probe_scan,
    "cli.main": _probe_cli,
    "acceptance.run_all":
        lambda a, k, o, e: (float(sum(r.passed for r in o))
                            if e is None else NAN, NAN),
}


class Tracer:
    """In-memory span store; one row per wrapped call."""

    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.value = array("d")
        self.aux = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.op_scale = array("d")      # speed scale of each op, by op id
        self.counters: dict[str, float] = {}

    @property
    def ops(self) -> int:
        return len(self.op_scale)

    def begin_op(self) -> None:
        self.op_id += 1

    def end_op(self, scale: float) -> None:
        """Close the current op; its span times are scaled by `scale`."""
        self.op_scale.append(scale)

    def count(self, counters: dict) -> None:
        for key, v in counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + v

    def wrap(self, label: str, fn):
        name_id = len(self.labels)
        self.labels.append(label)
        probe = PROBES.get(label)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.value.append(NAN)
            self.aux.append(NAN)
            self.raised.append(0)
            self.stack.append(idx)
            out = exc = None
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.raised[idx] = exc is not None
                if probe is not None:
                    self.value[idx], self.aux[idx] = probe(args, kwargs, out,
                                                           exc)

        return functools.wraps(fn)(wrapper)

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.array(getattr(self, key)) for key in
                ("name", "start", "end", "parent", "op", "value", "aux",
                 "raised", "op_scale")}

    def save(self, path: str) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())


def install(tracer: Tracer) -> int:
    """Wrap every public layer function at each finehull module attribute
    that holds it.  Returns the number of attributes replaced."""
    modules = {m: importlib.import_module(f"finehull.{m}") for m in LAYERS}
    targets = {}
    for m, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            label = f"{m}.{attr}"
            if inspect.isfunction(fn) and label not in SKIP:
                targets[fn] = label
    wrappers = {fn: tracer.wrap(label, fn) for fn, label in targets.items()}
    holders = list(modules.values()) + [importlib.import_module("finehull")]
    replaced = 0
    for mod in holders:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
                replaced += 1
    return replaced


# -- per-layer metrics ---------------------------------------------------

PARTIAL_BUCKETS = (2, 8, 32, 128, 512, 2048)   # upper factor counts
BUILD_DEPTHS = (150, 500, 1000, 2000)
LEJA_NS = (64, 128, 256)
SCAN_RES = (64, 256, 512, 1024)


class Spans:
    """Read-only view of a tracer's spans with durations and self times,
    both at reference speed like the end-to-end times."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.labels = tracer.labels
        self.name, self.parent, self.op = a["name"], a["parent"], a["op"]
        self.value, self.aux, self.raised = a["value"], a["aux"], a["raised"]
        self.dur = (a["end"] - a["start"]) * a["op_scale"][self.op]
        child = np.zeros_like(self.dur)
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.dur[nested])
        self.self_time = self.dur - child

    def mask(self, *labels):
        ids = [self.labels.index(x) for x in labels if x in self.labels]
        return np.isin(self.name, ids)

    def median_ms(self, m) -> float:
        return float(np.median(self.dur[m])) * 1e3 if m.any() else 0.0

    @staticmethod
    def mean(x) -> float:
        x = x[~np.isnan(x)]
        return float(np.mean(x)) if x.size else 0.0


def _rate(num: float, seconds: float) -> float:
    return num / seconds if seconds > 0.0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced run, by metric name.

    Times are medians of span durations; rates and per-factor costs use
    totals.  A layer the workload never calls reads 0.  Counts computed
    from call arguments: cantor gaps, product and blaschke factors, hull
    cells, potential nodes, product.horizon_gaps.
    """
    sp = Spans(tracer)
    ops = max(tracer.ops, 1)
    out: dict[str, float] = {}

    build = sp.mask("cantor.build_cantor_spec")
    for N in BUILD_DEPTHS:
        out[f"cantor.build_ms.N{N}"] = sp.median_ms(build & (sp.value == N))
    out["cantor.gaps_per_s"] = _rate(float(np.sum(sp.value[build])),
                                     float(np.sum(sp.self_time[build])))
    out["cantor.condition_sum_ms"] = sp.median_ms(
        sp.mask("cantor.condition_sum"))
    rt = sp.mask("cantor.spec_to_json", "cantor.spec_from_json")
    if rt.any():
        per_op = np.bincount(sp.op[rt], weights=sp.dur[rt])
        per_op = per_op[np.unique(sp.op[rt])]
        out["cantor.spec_roundtrip_ms"] = float(np.median(per_op)) * 1e3
    else:
        out["cantor.spec_roundtrip_ms"] = 0.0

    ef = sp.mask("product.eval_f")
    out["product.eval_f_ms"] = sp.median_ms(ef)
    out["product.eval_f_n_used"] = sp.mean(sp.value[ef])
    out["product.certified_frac"] = \
        float(np.mean(sp.raised[ef] == 0)) if ef.any() else 0.0
    part = sp.mask("product.eval_partial_product")
    out["product.partial_ms"] = sp.median_ms(part)
    lo = 0
    for hi in PARTIAL_BUCKETS:
        out[f"product.partial_ms.f{hi}"] = sp.median_ms(
            part & (sp.value > lo) & (sp.value <= hi))
        lo = hi
    fac = sp.mask("product.eval_partial_product", "product.sqrt_branch")
    factors = float(np.sum(sp.value[fac]))
    out["product.factors"] = factors / ops
    out["product.factor_ns"] = _rate(float(np.sum(sp.self_time[fac])),
                                     factors) * 1e9
    tb = sp.mask("product.tail_bound")
    out["product.tail_bound_ms"] = sp.median_ms(tb)
    out["product.tail_terms"] = sp.mean(sp.value[tb])
    out["product.tail_violation_frac"] = sp.mean(sp.aux[tb])
    ce = sp.mask("product.certify_en_point")
    out["product.certify_en_ms"] = sp.median_ms(ce)
    out["product.horizon_gaps"] = sp.mean(sp.value[ce])
    out["product.fine_value_ms"] = sp.median_ms(
        sp.mask("product.fine_boundary_value"))
    out["product.laurent_ms"] = sp.median_ms(sp.mask("product.laurent_c1"))

    be = sp.mask("blaschke.eval_blaschke")
    bfac = float(np.sum(sp.value[be]))
    out["blaschke.eval_ms"] = sp.median_ms(be)
    out["blaschke.factors"] = bfac / ops
    out["blaschke.factor_ns"] = _rate(float(np.sum(sp.self_time[be])),
                                      bfac) * 1e9
    out["blaschke.tail_bound_ms"] = sp.median_ms(
        sp.mask("blaschke.blaschke_tail_bound"))
    out["blaschke.sheet_ms"] = sp.median_ms(sp.mask("blaschke.fb_sheet"))
    bs = sp.mask("blaschke.blaschke_sample_E")
    out["blaschke.sample_ms"] = sp.median_ms(bs)
    out["blaschke.sample_in_en_frac"] = sp.mean(sp.value[bs])
    out["blaschke.closing_N"] = sp.mean(
        sp.value[sp.mask("blaschke.smallest_closing_N")])

    lj = sp.mask("potential.leja_points")
    for n in LEJA_NS:
        out[f"potential.leja_ms.n{n}"] = sp.median_ms(lj & (sp.value == n))
    out["potential.leja_nodes_per_s"] = _rate(float(np.sum(sp.value[lj])),
                                              float(np.sum(sp.dur[lj])))
    out["potential.fine_sets_ms"] = sp.median_ms(
        sp.mask("potential.cantor_fine_sets"))
    out["potential.union_bound_ms"] = sp.median_ms(
        sp.mask("potential.union_capacity_bound"))
    se = sp.mask("potential.sample_E")
    out["potential.sample_E_ms"] = sp.median_ms(se)
    out["potential.sample_in_en_frac"] = sp.mean(sp.value[se])
    out["potential.green_eval_us"] = sp.median_ms(
        sp.mask("potential.green_eval")) * 1e3

    fs = sp.mask("hull.fiber_scan")
    for res in SCAN_RES:
        out[f"hull.fiber_scan_ms.res{res}"] = sp.median_ms(
            fs & (sp.value == res))
    out["hull.cells_per_s"] = _rate(float(np.sum(sp.value[fs] ** 2)),
                                    float(np.sum(sp.dur[fs])))
    out["hull.on_graph_ms"] = sp.median_ms(sp.mask("hull.eval_v_on_graph"))
    out["hull.dips_found_frac"] = sp.mean(sp.aux[fs])

    top = sp.mask("cli.main") & (sp.parent < 0)
    for i, command in enumerate(CLI_COMMANDS):
        key = command.replace("-", "_")
        out[f"cli.{key}_ms"] = sp.median_ms(top & (sp.value == i))
    out["cli.self_ms"] = float(np.median(sp.self_time[top])) * 1e3 \
        if top.any() else 0.0
    written = tracer.counters.get("cli.bytes", 0.0)
    out["cli.bytes_written"] = written / top.sum() if top.any() else 0.0
    out["cli.write_mb_s"] = _rate(written / 1e6,
                                  float(np.sum(sp.self_time[top])))
    ra = sp.mask("acceptance.run_all")
    out["acceptance.run_all_ms"] = sp.median_ms(ra)
    out["acceptance.criteria_passed"] = sp.mean(sp.value[ra])
    out["trace.spans_per_op"] = len(sp.dur) / ops
    return out


UNITS = (("_mb_s", "MB/s"), ("_ops_s", "ops/s"), ("_per_s", "1/s"),
         ("_ms", "ms"), ("_us", "us"), ("_ns", "ns"), ("_frac", "ratio"))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name without the knob."""
    base = re.sub(r"\.(N|n|f|res)\d+$", "", name)
    for suffix, unit in UNITS:
        if base.endswith(suffix):
            return unit
    return "count"
