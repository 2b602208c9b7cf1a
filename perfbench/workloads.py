"""The four benchmark workloads: set-up, the ops of one cycle, and checks.

A workload is an endless sequence of cycles.  Every cycle has the same
composition of ops; the seed only picks which pool entry each op uses, so
two seeds load the layers in the same proportions.  Pools are finite and
fixed (built from POOL_SEED), which lets reference.json hold the verdict
of every op that can end in one: a boolean, a count, or an expected
refusal such as NoConvergence.  An expected refusal is a verdict, never a
failure; an unexpected one is a failure.

Ops call the library through module attributes (``pr.eval_f``, not a
name imported into this module), so the traced run can wrap them.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Any, Callable

from finehull import acceptance as ac
from finehull import blaschke as bl
from finehull import cantor as ca
from finehull import cli
from finehull import hull as hl
from finehull import potential as pt
from finehull import product as pr
from finehull.errors import FinehullError

POOL_SEED = 20221017
TOL = 1e-12


@dataclass
class Op:
    """One library call (or CLI command) of a workload.

    check(out) returns a problem string for a wrong returned value; verdict
    (out) turns a returned value into the code compared with the reference
    when ``ref`` is set; after(out) does untimed bookkeeping once the op is
    judged and returns counters the traced run adds up.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None] | None = None
    ref: str | None = None
    verdict: Callable[[Any], str] | None = None
    after: Callable[[Any], dict] | None = None


def outcome(op: Op, out, exc) -> tuple[str, str | None]:
    """Verdict code of one finished op and the problem its result shows."""
    problem = None
    if exc is None:
        code = op.verdict(out) if op.verdict else "ok"
        if op.check is not None:
            problem = op.check(out)
    elif isinstance(exc, FinehullError):
        code = type(exc).__name__
    else:
        code = "error"
        problem = f"{type(exc).__name__}: {exc}"
    return code, problem


def judge(op: Op, out, exc, reference: dict) -> str | None:
    """The problem of one finished op, if any, against the reference."""
    code, problem = outcome(op, out, exc)
    if op.ref is not None:
        expected = reference.get(op.ref)
        if expected is None:
            problem = problem or f"no reference verdict for {op.ref}"
        elif code != expected:
            problem = problem or f"verdict {code}, reference {expected}"
    elif exc is not None:
        problem = problem or f"unexpected {code}: {exc}"
    return problem


# -- pools ---------------------------------------------------------------

def offset_points(rng: random.Random, n: int) -> list[complex]:
    """Points off the real axis over and around the root interval [0, 1]."""
    out = []
    for _ in range(n):
        y = 10.0 ** rng.uniform(-2.0, 0.0)
        out.append(complex(rng.uniform(-0.5, 1.5), y if rng.random() < 0.5
                           else -y))
    return out


NEAR_OFFSETS = (1e-14, 3e-14, 1e-13, 3e-13, 1e-12)


def near_endpoint_points(spec) -> list[float]:
    """b_j + delta for the first eight gaps.  The reported err of these
    points is known to miss rounding terms; they stay in the pool so a fix
    of the certificate shows here."""
    return [spec.gap(j).b + d for j in range(1, 9) for d in NEAR_OFFSETS]


def set_points(spec, depths=range(2, 8)) -> list[float]:
    """1/3 and 2/3 points of the remaining pieces of shallow truncations."""
    out = []
    for depth in depths:
        shallow = ca.build_cantor_spec(spec.a0, spec.b0, spec.c_rule,
                                       spec.placement, depth)
        for lo, hi in shallow.remaining:
            out.append(lo + (hi - lo) / 3.0)
            out.append(lo + 2.0 * (hi - lo) / 3.0)
    return out


# -- checks --------------------------------------------------------------

def _finite_log(v) -> bool:
    return not (math.isnan(v.log_mag) or math.isnan(v.arg))


def check_eval_f(out):
    val, err, _ = out
    if not err <= TOL:
        return f"eval_f err {err!r} above tol {TOL}"
    if not _finite_log(val):
        return "eval_f value is NaN"
    return None


def _bool(v) -> str:
    return "T" if v else "F"


def _pattern(rows) -> str:
    return "".join("1" if r.in_EN else "0" for r in rows)


# -- point_queries -------------------------------------------------------

class PointQueries:
    """Certified scalar queries against the desk-scale acceptance specs.

    One op is one library call.  laurent_c1 (4096 evaluations) joins the
    cycle once per 256 cycles, about a tenth of the busy time.
    """

    name = "point_queries"
    REFERENCE = "python"
    LAURENT_EVERY = 256

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        rule5 = ca.CRule("affine", slope=5.0, offset=0.0)
        self.specs = {
            "s5": ca.build_cantor_spec(0.0, 1.0, rule5, N=16),
            "slow": ca.build_cantor_spec(
                0.0, 1.0, ca.CRule("affine", slope=0.05, offset=1.0), N=32),
            "fact": ca.build_cantor_spec(0.0, 1.0,
                                         ca.CRule("factorial", shift=2), N=16),
        }
        self.bspec = bl.build_blaschke_spec(0.0, 0.5 * math.pi, rule5, 16)
        rng = random.Random(POOL_SEED)
        self.off = offset_points(rng, 128)
        self.near = {k: near_endpoint_points(s) for k, s in self.specs.items()}
        self.setpts = {k: set_points(s) for k, s in self.specs.items()}
        # refusal-prone queries: just off the set, at materialized poles,
        # and at would-be poles past the materialization
        self.edge = {k: [complex(x, 10.0 ** -e) for x in pts[::3]
                         for e in (6, 9, 12)]
                     for k, pts in self.setpts.items()}
        self.poles = {}
        for k, spec in self.specs.items():
            M = spec.max_index
            deeper = ca.build_cantor_spec(spec.a0, spec.b0, spec.c_rule,
                                          spec.placement, M + 4)
            self.poles[k] = spec.poles(8) + deeper.poles()[M + 1:]
        self.inside = [cmath.rect(rng.uniform(0.05, 0.95),
                                  rng.uniform(-math.pi, math.pi))
                       for _ in range(64)]
        self.circle = [cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                       for _ in range(64)]
        # the specs are reused, so their horizon extensions are built once
        for spec in self.specs.values():
            pr.certify_en_point(spec, spec.b0, spec.max_index)

    # op builders, one per kind; indices pick pool entries
    def pool(self, s, pool):
        return {"off": self.off, "near": self.near[s], "edge": self.edge[s],
                "pole": self.poles[s]}[pool]

    def eval_f(self, s, pool, i):
        spec, z = self.specs[s], self.pool(s, pool)[i]
        return Op("eval_f", lambda: pr.eval_f(spec, z), check_eval_f,
                  ref=f"pq.eval_f|{s}|{pool}{i}")

    def sqrt(self, s, i, e, tag, sign):
        spec = self.specs[s]
        z = complex(self.setpts[s][i], sign * ac.EPS_SCHEDULE[e])
        N = spec.max_index

        def check(val):
            ratio = (val * val) / pr.eval_partial_product(spec, N, z)
            err = abs(ratio.to_complex() - 1.0)
            return None if err < 1e-10 else f"sqrt ratio off by {err:.3e}"
        return Op("sqrt_branch", lambda: pr.sqrt_branch(spec, N, z, tag),
                  check)

    def certify(self, s, i, n):
        spec, x = self.specs[s], self.setpts[s][i]
        return Op("certify_en_point", lambda: pr.certify_en_point(spec, x, n),
                  ref=f"pq.certify|{s}|x{i}|n{n}", verdict=_bool)

    def fine(self, s, i):
        spec, x = self.specs[s], self.setpts[s][i]

        def check(out):
            val, err, _ = out
            if not err <= 1e-10:
                return f"fine value err {err!r} above tol"
            if not val.is_zero and abs(abs(val.arg) - 0.5 * math.pi) > 1e-12:
                return "fine boundary value is not imaginary"
            return None
        return Op("fine_boundary_value",
                  lambda: pr.fine_boundary_value(spec, x, pr.BranchTag.H_PLUS),
                  check, ref=f"pq.fine|{s}|x{i}")

    def tail_disk(self, s, i, N):
        spec, c = self.specs[s], self.off[i]
        region = (c, 0.5 * abs(c.imag))

        def check(tb):
            return "tail bound is NaN" if math.isnan(tb.bound) else None
        return Op("tail_bound", lambda: pr.tail_bound(spec, N, region), check,
                  ref=f"pq.tail_disk|{s}|d{i}|N{N}")

    def tail_m1(self, s, i, n):
        spec, z = self.specs[s], self.off[i]

        def check(val):
            if not _finite_log(val):
                return "tail product is NaN"
            try:
                bound = pr.tail_bound(spec, n, z).bound
            except FinehullError:
                return None
            mag = abs(val.to_complex())
            return None if mag <= bound * (1.0 + 1e-9) else \
                f"tail product {mag:.3e} above its bound {bound:.3e}"
        return Op("tail_product_minus_one",
                  lambda: pr.tail_product_minus_one(spec, n, z), check)

    def blaschke(self, where, i):
        z = self.inside[i] if where == "in" else self.circle[i]
        spec = self.bspec

        def check(val):
            lm = val.log_mag
            if where == "circle" and not abs(lm) < 1e-12:
                return f"not unimodular on the circle: log|B| = {lm:.3e}"
            if where == "in" and not lm <= 1e-12:
                return f"|B| above 1 inside the disk: log|B| = {lm:.3e}"
            return None
        return Op("eval_blaschke", lambda: bl.eval_blaschke(spec, 16, z),
                  check)

    def blaschke_tail(self, where, i, N):
        z = self.inside[i] if where == "in" else self.circle[i]
        spec = self.bspec

        def check(b):
            return None if b >= 0.0 else f"negative tail bound {b!r}"
        return Op("blaschke_tail_bound",
                  lambda: bl.blaschke_tail_bound(spec, N, z), check,
                  ref=f"pq.btail|{where}{i}|N{N}")

    def sheets(self, i):
        z, spec = self.inside[i], self.bspec

        def call():
            return [bl.fb_sheet(spec, k, z).to_complex() for k in range(-3, 4)]

        def check(values):
            spacing = bl.fb_sheet_spacing(spec, z).to_complex()
            gap = max(abs(values[k + 1] - values[k] - spacing)
                      for k in range(len(values) - 1))
            if gap > 1e-12 * max(1.0, abs(spacing)):
                return f"sheet steps off the spacing by {gap:.3e}"
            return None
        return Op("fb_sheet", call, check)

    def laurent(self, N):
        spec = self.specs["s5"]
        return Op("laurent_c1", lambda: pr.laurent_c1(spec, N),
                  ref=f"pq.laurent|N{N}")

    def cycle(self, rng: random.Random) -> list[Op]:
        ops = []
        for s in self.specs:
            npts = len(self.setpts[s])
            ops += [self.eval_f(s, pool, rng.randrange(len(self.pool(s, pool))))
                    for pool in ("off", "off", "near", "edge")]
            i, e = rng.randrange(npts), rng.randrange(len(ac.EPS_SCHEDULE))
            for tag in (pr.BranchTag.D_PLUS, pr.BranchTag.H_PLUS):
                for sign in (1.0, -1.0):
                    ops.append(self.sqrt(s, i, e, tag, sign))
            ops += [self.certify(s, rng.randrange(npts), rng.randint(1, 4)),
                    self.fine(s, rng.randrange(npts)),
                    self.tail_disk(s, rng.randrange(len(self.off)),
                                   rng.choice((2, 4, 8))),
                    self.tail_m1(s, rng.randrange(len(self.off)),
                                 rng.choice((1, 2, 4, 8)))]
        for where, pool in (("in", self.inside), ("circle", self.circle)):
            ops += [self.blaschke(where, rng.randrange(len(pool))),
                    self.blaschke(where, rng.randrange(len(pool))),
                    self.blaschke_tail(where, rng.randrange(len(pool)),
                                       rng.choice((4, 8, 12)))]
        ops.append(self.sheets(rng.randrange(len(self.inside))))
        s = rng.choice(list(self.specs))
        ops.append(self.eval_f(s, "pole", rng.randrange(len(self.poles[s]))))
        return ops

    def cycles(self):
        rng = random.Random(self.seed)
        k = 0
        while True:
            ops = self.cycle(rng)
            if k % self.LAURENT_EVERY == 0:
                ops.append(self.laurent(16))
            yield ops
            k += 1

    def reference_ops(self):
        for s in self.specs:
            for pool in ("off", "near", "edge", "pole"):
                for i in range(len(self.pool(s, pool))):
                    yield self.eval_f(s, pool, i)
            for i in range(len(self.off)):
                for N in (2, 4, 8):
                    yield self.tail_disk(s, i, N)
            for i in range(len(self.setpts[s])):
                yield self.fine(s, i)
                for n in range(1, 5):
                    yield self.certify(s, i, n)
        for where, pool in (("in", self.inside), ("circle", self.circle)):
            for i in range(len(pool)):
                for N in (4, 8, 12):
                    yield self.blaschke_tail(where, i, N)
        yield self.laurent(16)


# -- deep_construction ---------------------------------------------------

AFFINE_POOL = tuple((round(0.002 * 2500.0 ** (k / 11.0), 4),
                     1.0 if k < 8 else 0.0) for k in range(12))
FACTORIAL_SHIFTS = (0, 1, 2, 3, 4, 5)
DEPTHS = (500, 1000, 2000)
FACTORIAL_DEPTH = 150
SHALLOW_DEPTHS = (6, 8)


class DeepConstruction:
    """Rule sweep: deep builds, long tail walks, cold horizon walks.

    Each cycle certifies points of two shallow variants (depths 6 and 8)
    of its affine rule.  The 12 affine rules, visited in a cyclic order,
    give 24 distinct shallow specs, more than the 16-entry horizon cache
    holds, so every horizon walk on a shallow variant starts cold.
    """

    name = "deep_construction"
    REFERENCE = "python"

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.rules = {f"a{k}": ca.CRule("affine", slope=s, offset=o)
                      for k, (s, o) in enumerate(AFFINE_POOL)}
        self.rules.update({f"f{k}": ca.CRule("factorial", shift=k)
                           for k in FACTORIAL_SHIFTS})
        self.off = offset_points(random.Random(POOL_SEED + 1), 64)
        # set points of each rule's shallow variants
        self.shallow_pts = {}
        for key, rule in self.rules.items():
            for depth in SHALLOW_DEPTHS:
                pieces = ca.build_cantor_spec(0.0, 1.0, rule, "bisect",
                                              depth).remaining
                self.shallow_pts[key, depth] = [
                    lo + (hi - lo) * t for lo, hi in pieces
                    for t in (1.0 / 3.0, 2.0 / 3.0)]

    def build(self, box, rk, N, slot="spec"):
        rule = self.rules[rk]

        def call():
            box[slot] = ca.build_cantor_spec(0.0, 1.0, rule, "bisect", N)
            return box[slot]

        def check(spec):
            if spec.max_index != N or len(spec.remaining) != N + 1:
                return f"spec has {spec.max_index} gaps, wanted {N}"
            return None
        return Op("build_cantor_spec", call, check)

    def condition(self, box):
        def check(cs):
            if not (cs.certified and cs.partial > 0.0 and
                    math.isfinite(cs.total)):
                return "condition sum not certified and finite"
            return None
        return Op("condition_sum", lambda: ca.condition_sum(box["spec"]),
                  check)

    def roundtrip(self, box):
        def call():
            text = ca.spec_to_json(box["spec"])
            return text, ca.spec_from_json(text)

        def check(out):
            return None if out[1] == box["spec"] else \
                "spec JSON round trip changed the spec"
        return Op("spec_roundtrip", call, check)

    def eval_f(self, box, rk, N, i):
        z = self.off[i]
        return Op("eval_f", lambda: pr.eval_f(box["spec"], z), check_eval_f,
                  ref=f"deep.eval_f|{rk}|N{N}|z{i}")

    def tail(self, box, rk, N, k, i):
        z = self.off[i]

        def check(tb):
            return "tail bound is NaN" if math.isnan(tb.bound) else None
        return Op("tail_bound", lambda: pr.tail_bound(box["spec"], k, z),
                  check, ref=f"deep.tail|{rk}|N{N}|k{k}|z{i}")

    def certify(self, box, rk, depth, i, n):
        x = self.shallow_pts[rk, depth][i]
        return Op("certify_en_point",
                  lambda: pr.certify_en_point(box["shallow"], x, n),
                  ref=f"deep.certify|{rk}|D{depth}|x{i}|n{n}", verdict=_bool)

    def deep_ops(self, rng, rk, N) -> list[Op]:
        box: dict = {}
        nz = len(self.off)
        return [
            self.build(box, rk, N),
            self.condition(box),
            self.roundtrip(box),
            self.eval_f(box, rk, N, rng.randrange(nz)),
            self.tail(box, rk, N, rng.choice((0, N // 4, N // 2)),
                      rng.randrange(nz)),
        ]

    def shallow_ops(self, rng, rk, depth) -> list[Op]:
        box: dict = {}
        npts = len(self.shallow_pts[rk, depth])
        return [self.build(box, rk, depth, slot="shallow"),
                self.certify(box, rk, depth, rng.randrange(npts),
                             rng.randint(1, 4))]

    def cycles(self):
        rng = random.Random(self.seed)
        affine = [k for k in self.rules if k.startswith("a")]
        fact = [k for k in self.rules if k.startswith("f")]
        rng.shuffle(affine)
        rng.shuffle(fact)
        c = 0
        while True:
            # one affine rule at every swept depth, one factorial rule
            ra, rf = affine[c % len(affine)], fact[c % len(fact)]
            ops = []
            for N in DEPTHS:
                ops += self.deep_ops(rng, ra, N)
            ops += self.deep_ops(rng, rf, FACTORIAL_DEPTH)
            for depth in SHALLOW_DEPTHS:
                ops += self.shallow_ops(rng, ra, depth)
            ops += self.shallow_ops(rng, rf, SHALLOW_DEPTHS[-1])
            yield ops
            c += 1

    def reference_ops(self):
        for rk in self.rules:
            depths = DEPTHS if rk.startswith("a") else (FACTORIAL_DEPTH,)
            for N in depths:
                box = {"spec": ca.build_cantor_spec(0.0, 1.0, self.rules[rk],
                                                    "bisect", N)}
                for i in range(len(self.off)):
                    yield self.eval_f(box, rk, N, i)
                    for k in sorted({0, N // 4, N // 2}):
                        yield self.tail(box, rk, N, k, i)
            for depth in SHALLOW_DEPTHS:
                box = {"shallow": ca.build_cantor_spec(
                    0.0, 1.0, self.rules[rk], "bisect", depth)}
                for i in range(len(self.shallow_pts[rk, depth])):
                    for n in range(1, 5):
                        yield self.certify(box, rk, depth, i, n)


# -- capacity_scan -------------------------------------------------------

LEJA_NS = (64, 128, 256)
SCAN_RES = (256, 512, 1024)
WRECT = (-1.5, 1.5, -1.5, 1.5)


class CapacityScan:
    """The numpy kernels of potential and hull, called as library functions."""

    name = "capacity_scan"
    REFERENCE = "numpy"

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        rule5 = ca.CRule("affine", slope=5.0, offset=0.0)
        self.specs = {
            "s5": ca.build_cantor_spec(0.0, 1.0, rule5, N=16),
            "fact": ca.build_cantor_spec(0.0, 1.0,
                                         ca.CRule("factorial", shift=2), N=16),
        }
        self.bspec = bl.build_blaschke_spec(0.0, 0.5 * math.pi, rule5, 16)
        # Leja models always run on the same unions, so their cost and
        # peak memory do not depend on the seed
        fs = pt.cantor_fine_sets(self.specs["s5"], 2)
        self.leja_sets = {"F": fs.FN, "J": fs.JN}
        self.hps = {M: hl.make_hull_spec(self.specs["fact"], M)
                    for M in (4, 8)}
        fact = self.specs["fact"]
        lo, hi = max(fact.remaining, key=lambda p: p[1] - p[0])
        self.scan_z = [2.0 + 0.0j, complex(lo + (hi - lo) / 3.0),
                       complex(lo + 2.0 * (hi - lo) / 3.0), -0.5 + 0.0j,
                       0.3 + 0.2j, 0.7 - 0.4j]
        rng = random.Random(POOL_SEED + 2)
        self.green_z = offset_points(rng, 32) + \
            [complex(rng.uniform(2.0, 10.0), 0.0) for _ in range(32)]
        self.models: dict = {}

    def fine_sets(self, box, s, N):
        spec = self.specs[s]

        def call():
            box["fs"] = pt.cantor_fine_sets(spec, N)
            return box["fs"]
        return Op("cantor_fine_sets", call, ref=f"cap.fine|{s}|N{N}",
                  verdict=lambda fs: _bool(fs.chain_closes))

    def union_bound(self, box, s, N, which):
        def call():
            return pt.union_capacity_bound(box["fs"].FN if which == "F"
                                           else box["fs"].JN)

        def check(ub):
            if not (0.0 <= ub.bound and math.isfinite(ub.log_bound)):
                return f"union bound not finite: {ub.log_bound!r}"
            return None
        return Op("union_capacity_bound", call, check,
                  ref=f"cap.ub|{s}|N{N}|{which}")

    def leja(self, which, n):
        sets = self.leja_sets[which]

        def call():
            self.models[which] = pt.leja_points(sets, n=n)
            return self.models[which]

        def check(m):
            if len(m.points) != n:
                return f"leja gave {len(m.points)} nodes, wanted {n}"
            if not (m.cap_estimate > 0.0 and math.isfinite(m.cap_estimate)
                    and math.isfinite(m.node_tol)):
                return "leja capacity or node_tol not finite"
            return None
        return Op("leja_points", call, check)

    def green(self, which, i):
        z = self.green_z[i]

        def check(g):
            return None if g >= 0.0 and math.isfinite(g) else \
                f"green value {g!r} not finite and >= 0"
        return Op("green_eval", lambda: pt.green_eval(self.models[which], z),
                  check)

    def sample(self, N):
        spec = self.specs["s5"]
        return Op("sample_E", lambda: pt.sample_E(spec, N),
                  ref=f"cap.sample|N{N}", verdict=_pattern)

    def closing(self, limit):
        spec = self.bspec
        return Op("smallest_closing_N",
                  lambda: bl.smallest_closing_N(spec, limit),
                  ref=f"cap.closing|L{limit}", verdict=str)

    def arc_sample(self, N, samples):
        spec = self.bspec
        return Op("blaschke_sample_E",
                  lambda: bl.blaschke_sample_E(spec, N, samples=samples),
                  ref=f"cap.arc|N{N}|s{samples}", verdict=_pattern)

    def scan(self, res, sq, M, i):
        hps, z = self.hps[M], self.scan_z[i]

        def check(grid):
            if not math.isfinite(grid.median):
                return "scan median not finite"
            return None
        return Op("fiber_scan",
                  lambda: hl.fiber_scan(hps, z, WRECT, res, sq=sq),
                  check, ref=f"cap.scan|r{res}|sq{int(sq)}|M{M}|z{i}",
                  verdict=lambda g: str(len(g.dips)))

    def cycle(self, rng) -> list[Op]:
        ops = []
        for s in self.specs:
            box: dict = {}
            N = rng.randint(1, 12)
            ops += [self.fine_sets(box, s, N),
                    self.union_bound(box, s, N, "F"),
                    self.union_bound(box, s, N, "J")]
        for n in LEJA_NS:
            for which in ("F", "J"):
                ops.append(self.leja(which, n))
        for k in range(8):
            ops.append(self.green("FJ"[k % 2], rng.randrange(len(self.green_z))))
        ops += [self.sample(rng.randint(2, 6)),
                self.closing(rng.randint(1, 16)),
                self.arc_sample(rng.randint(1, 3), rng.choice((8, 16)))]
        for res in SCAN_RES:
            for sq in (False, True):
                for M in (4, 8):
                    ops.append(self.scan(res, sq, M,
                                         rng.randrange(len(self.scan_z))))
        return ops

    def cycles(self):
        rng = random.Random(self.seed)
        while True:
            yield self.cycle(rng)

    def reference_ops(self):
        for s in self.specs:
            for N in range(1, 13):
                box: dict = {}
                yield self.fine_sets(box, s, N)
                yield self.union_bound(box, s, N, "F")
                yield self.union_bound(box, s, N, "J")
        for N in range(2, 7):
            yield self.sample(N)
        for limit in range(1, 17):
            yield self.closing(limit)
        for N in (1, 2, 3):
            for samples in (8, 16):
                yield self.arc_sample(N, samples)
        for res in SCAN_RES:
            for sq in (False, True):
                for M in (4, 8):
                    for i in range(len(self.scan_z)):
                        yield self.scan(res, sq, M, i)


# -- cli_pipeline --------------------------------------------------------

class CliPipeline:
    """In-process ``finehull`` commands, each writing a fresh directory.

    Every command that recurs with the same arguments must reproduce the
    manifest of its first run byte for byte.
    """

    name = "cli_pipeline"
    REFERENCE = "python"

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.inputs = os.path.join(tmp, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        spec = ca.build_cantor_spec(0.0, 1.0,
                                    ca.CRule("affine", slope=5.0, offset=0.0),
                                    N=16)
        spec_obj = json.loads(ca.spec_to_json(spec))
        for N in range(1, 7):
            self._write(f"fineset{N}.json", {"spec": spec_obj, "N": N})
        self._write("shapes.json",
                    {"shapes": [{"kind": "interval", "a": 0.0, "b": 1.0}]})
        self._write("disk.json", {
            "alpha": 0.0, "beta": 1.5707963267948966,
            "c_rule": {"kind": "affine", "slope": 5.0, "offset": 0.0},
            "N": 12})
        rng = random.Random(POOL_SEED + 3)
        self.points = offset_points(rng, 32)
        self.disk_points = [cmath.rect(rng.uniform(0.05, 0.9),
                                       rng.uniform(-math.pi, math.pi))
                            for _ in range(16)]
        self.scan_z = ["2,0", "-0.5,0", "0.3,0.2", "0.7,-0.4", "1.5,0.5",
                       "3,0"]
        self.specs = {}        # spec name -> path of its latest spec.json
        self.manifests = {}    # command key -> manifest of its first run
        self.count = 0

    def _write(self, name, obj):
        with open(os.path.join(self.inputs, name), "w") as fh:
            json.dump(obj, fh)

    @staticmethod
    def _pt(z: complex) -> str:
        return f"{z.real!r},{z.imag!r}"

    def command(self, key: str, argv: list[str], spec_in: str | None = None,
                spec_out: str | None = None, verdict=None, check=None):
        """Op running ``finehull <argv> --out <fresh dir>``.

        ``spec_in`` names a spec written by an earlier spec-build op of the
        cycle; its path is filled in when the op runs.
        """
        def call():
            self.count += 1
            out = os.path.join(self.tmp, f"op{self.count}")
            args = list(argv)
            if spec_in is not None:
                args += ["--spec", self.specs[spec_in]]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(args + ["--out", out])
            return rc, out, buf.getvalue()

        def full_verdict(res):
            rc, out, _ = res
            code = f"rc{rc}"
            if rc == 0 and verdict is not None:
                code += ":" + verdict(out)
            return code

        def full_check(res):
            rc, out, _ = res
            if rc != 0:
                return None     # the verdict carries the exit code
            with open(os.path.join(out, "manifest.json")) as fh:
                man = json.load(fh)
            man = (man["config_sha256"], man["outputs"])
            if man != self.manifests.setdefault(key, man):
                return f"rerun of {key} changed its manifest"
            return check(out) if check is not None else None

        def after(res):
            rc, out, _ = res
            size = sum(os.path.getsize(os.path.join(d, f))
                       for d, _, fs in os.walk(out) for f in fs)
            doomed = out
            if spec_out is not None and rc == 0:
                # later ops of the cycle read this spec; drop the one it
                # replaces instead
                previous = self.specs.get(spec_out)
                self.specs[spec_out] = os.path.join(out, "spec.json")
                doomed = previous and os.path.dirname(previous)
            if doomed:
                shutil.rmtree(doomed, ignore_errors=True)
            return {"cli.bytes": size}
        return Op(argv[0], call, full_check, ref="cli|" + key,
                  verdict=full_verdict, after=after)

    def _inp(self, name):
        return os.path.join(self.inputs, name)

    def spec_build(self, name, argv):
        return self.command(f"spec-build {name}", ["spec-build"] + argv,
                            spec_out=name)

    def eval_at(self, spec, z: str, branch="product"):
        return self.command(f"eval {spec} {z} {branch}",
                            ["eval", f"--at={z}", "--branch", branch],
                            spec_in=spec, check=_check_eval_csv)

    def capacity(self, N):
        return self.command(f"capacity {N}",
                            ["capacity", "--set", self._inp(f"fineset{N}.json")],
                            verdict=_capacity_verdict)

    def green(self, z: str, n: int):
        return self.command(f"green {z} {n}",
                            ["green", "--set", self._inp("shapes.json"),
                             f"--at={z}", "--n", str(n)])

    def sample_e(self, depth, samples):
        return self.command(f"sample-e {depth} {samples}",
                            ["sample-e", "--depth", str(depth), "--samples",
                             str(samples)], spec_in="A",
                            verdict=_esample_verdict)

    def hull_scan(self, z: str, res: int, sq: bool):
        argv = ["hull-scan", f"--z={z}", "--wrect=-1.5,1.5,-1.5,1.5",
                "--res", str(res), "--depth", "6"] + (["--sq"] if sq else [])
        return self.command(f"hull-scan {z} {res} {int(sq)}", argv,
                            spec_in="B", verdict=_dips_verdict)

    def blaschke(self, z: str | None):
        argv = ["blaschke", "--spec", self._inp("disk.json")]
        if z is None:
            argv += ["--at", "0.3,0.2", "--sheets=-3,3", "--sample-depth", "1",
                     "--samples", "8"]
        else:
            argv += [f"--at={z}", "--sheets=-3,3"]
        return self.command(f"blaschke {z}", argv)

    def reproduce_all(self):
        return self.command("reproduce-all", ["reproduce-all"],
                            verdict=_acceptance_verdict)

    def cycle(self, rng) -> list[Op]:
        pts = [self._pt(self.points[rng.randrange(len(self.points))])
               for _ in range(7)]
        disk_z = self._pt(self.disk_points[rng.randrange(len(self.disk_points))])
        return [
            # the nine commands of the acceptance pipeline
            self.spec_build("A", ["--rule", "affine", "--slope", "5",
                                  "--offset", "0", "--depth", "16"]),
            self.spec_build("B", ["--rule", "factorial", "--depth", "12"]),
            self.eval_at("A", "2,0"),
            self.eval_at("A", "0.3,0.4", "h-plus"),
            self.capacity(2),
            self.green("3,0", 48),
            self.sample_e(6, 32),
            self.hull_scan("2,0", 64, True),
            self.blaschke(None),
            # seeded queries against the same specs
            self.eval_at("A", pts[0]),
            self.eval_at("A", pts[1]),
            self.eval_at("A", pts[2], "d-plus"),
            self.eval_at("B", pts[3]),
            self.capacity(rng.randint(1, 6)),
            self.sample_e(rng.randint(2, 6), 16),
            self.blaschke(disk_z),
            self.blaschke(self._pt(self.disk_points[
                rng.randrange(len(self.disk_points))])),
            # scale variants
            self.green(pts[4], 128),
            self.hull_scan(rng.choice(self.scan_z), 512, rng.random() < 0.5),
            self.spec_build("D", ["--rule", "affine", "--slope", "5",
                                  "--offset", "0", "--depth", "2000"]),
            self.eval_at("D", pts[5]),
            self.eval_at("A", pts[6], "h-plus"),
            self.capacity(rng.randint(1, 6)),
            self.green(self._pt(self.points[rng.randrange(len(self.points))]),
                       48),
            self.reproduce_all(),
        ]

    def cycles(self):
        rng = random.Random(self.seed)
        while True:
            yield self.cycle(rng)

    def reference_ops(self):
        yield self.spec_build("A", ["--rule", "affine", "--slope", "5",
                                    "--offset", "0", "--depth", "16"])
        yield self.spec_build("B", ["--rule", "factorial", "--depth", "12"])
        yield self.spec_build("D", ["--rule", "affine", "--slope", "5",
                                    "--offset", "0", "--depth", "2000"])
        yield self.eval_at("A", "2,0")
        yield self.eval_at("A", "0.3,0.4", "h-plus")
        for z in map(self._pt, self.points):
            for spec, branch in (("A", "product"), ("A", "d-plus"),
                                 ("A", "h-plus"), ("B", "product"),
                                 ("D", "product")):
                yield self.eval_at(spec, z, branch)
            yield self.green(z, 128)
            yield self.green(z, 48)
        yield self.green("3,0", 48)
        for N in range(1, 7):
            yield self.capacity(N)
        yield self.sample_e(6, 32)
        for depth in range(2, 7):
            yield self.sample_e(depth, 16)
        yield self.hull_scan("2,0", 64, True)
        for z in self.scan_z:
            for sq in (False, True):
                yield self.hull_scan(z, 512, sq)
        yield self.blaschke(None)
        for z in self.disk_points:
            yield self.blaschke(self._pt(z))
        yield self.reproduce_all()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_eval_csv(out):
    row = _read_csv(os.path.join(out, "eval.csv"))[0]
    err = float(row["err"])
    if not err <= TOL:
        return f"eval err {err!r} above tol {TOL}"
    if math.isnan(float(row["log_mag"])):
        return "eval value is NaN"
    return None


def _capacity_verdict(out):
    with open(os.path.join(out, "capacity.json")) as fh:
        return _bool(json.load(fh)["chain_closes"])


def _esample_verdict(out):
    rows = _read_csv(os.path.join(out, "esample.csv"))
    return "".join(r["in_EN"] for r in rows)


def _dips_verdict(out):
    with open(os.path.join(out, "dips.json")) as fh:
        return str(len(json.load(fh)["dips"]))


def _acceptance_verdict(out):
    rows = _read_csv(os.path.join(out, "summary.csv"))
    return "".join("P" if r["status"] == "PASS" else "F" for r in rows)


WORKLOADS = {w.name: w for w in (PointQueries, DeepConstruction, CapacityScan,
                                 CliPipeline)}
