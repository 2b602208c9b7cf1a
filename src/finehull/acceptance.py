"""Product-level acceptance checks, shared by pytest and reproduce-all.

Each criterion exercises a full pipeline at desk scale and reports one
PASS/FAIL row.  All inputs are fixed here so reruns are byte-identical;
measured wall times gate pass/fail but never enter artifacts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import blaschke as bl
from . import hull as hl
from . import potential as pt
from . import product as pr
from .artifacts import sha256, write_csv, write_json
from .cantor import CRule, build_cantor_spec, condition_sum, sum_gap_lengths

__all__ = ["CriterionResult", "run_all", "write_summary"]

EPS_SCHEDULE = tuple(1e-2 * 0.25 ** k for k in range(9))


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    artifacts: tuple[str, ...] = ()


class _Artifacts:
    def __init__(self, outdir: str | None):
        self.outdir = outdir
        self.names: list[str] = []

    def csv(self, name: str, header, rows) -> None:
        if self.outdir is not None:
            write_csv(os.path.join(self.outdir, name), header, rows)
            self.names.append(name)

    def json(self, name: str, obj) -> None:
        if self.outdir is not None:
            write_json(os.path.join(self.outdir, name), obj)
            self.names.append(name)


@lru_cache(maxsize=None)
def _spec5():
    return build_cantor_spec(0.0, 1.0,
                             CRule("affine", slope=5.0, offset=0.0), N=16)


@lru_cache(maxsize=None)
def _specf():
    return build_cantor_spec(0.0, 1.0, CRule("factorial", shift=2), N=16)


@lru_cache(maxsize=None)
def _spec_slow():
    # depth 32 so the limit product converges to 1e-12 under this rule
    return build_cantor_spec(0.0, 1.0,
                             CRule("affine", slope=0.05, offset=1.0), N=32)


@lru_cache(maxsize=None)
def _bspec():
    return bl.build_blaschke_spec(0.0, 0.5 * math.pi,
                                  CRule("affine", slope=5.0, offset=0.0), 16)


def _band_thirds(depth: int, band: tuple[float, float]) -> list[float]:
    """1/3 and 2/3 points of the depth-`depth` remaining pieces whose
    closure sits inside the band; an a-priori geometric selection."""
    spec = _spec5()
    shallow = build_cantor_spec(spec.a0, spec.b0, spec.c_rule,
                                spec.placement, depth)
    length = spec.b0 - spec.a0
    lo_b = spec.a0 + band[0] * length
    hi_b = spec.a0 + band[1] * length
    out = []
    for lo, hi in shallow.remaining:
        if lo >= lo_b and hi <= hi_b:
            out.append(lo + (hi - lo) / 3.0)
            out.append(lo + 2.0 * (hi - lo) / 3.0)
    return out


def _c01_capacity_oracles(art: _Artifacts):
    # the full-turn arc is the unit circle for cap_upper
    cases = [
        ("unit_interval", pt.CompactUnion((pt.interval(0.0, 1.0),)),
         0.25, 0.05),
        ("unit_circle", pt.CompactUnion((pt.arc(0.0, 2.0 * math.pi),)),
         1.0, 0.02),
        ("symmetric_interval", pt.CompactUnion((pt.interval(-2.0, 2.0),)),
         1.0, 0.05),
    ]
    rows = []
    ok = True
    upper_ok = True
    in_budget = True
    for name, sets, exact, tol in cases:
        t0 = time.perf_counter()
        model = pt.leja_points(sets, n=64)
        dt = time.perf_counter() - t0
        rel = abs(model.cap_estimate - exact) / exact
        cap_upper = model.cap_upper
        ok = ok and rel < tol
        upper_ok = upper_ok and exact <= cap_upper
        in_budget = in_budget and dt < 5.0
        rows.append((name, len(model.points), model.cap_estimate, cap_upper,
                     exact, rel, tol))
    art.csv("criterion01_capacity.csv",
            ["set", "n", "cap_estimate", "cap_upper", "exact", "rel_err",
             "tol"], rows)
    detail = ("greedy capacity estimates "
              + ", ".join(f"{r[0]}={r[2]:.4f} (rel {r[5]:.3f}, "
                          f"upper {r[3]:.4f})" for r in rows)
              + ("; exact <= cap_upper" if upper_ok
                 else "; EXACT ABOVE cap_upper")
              + ("; runtime under budget" if in_budget
                 else "; RUNTIME OVER BUDGET"))
    return ok and upper_ok and in_budget, detail


def _c02_union_bound_chain(art: _Artifacts):
    spec = _spec5()
    cs = condition_sum(spec)
    cond_ok = cs.satisfied is True
    closing_N = None
    for N in range(1, 13):
        fs = pt.cantor_fine_sets(spec, N)
        if fs.chain_closes:
            closing_N = N
            break
    chain_ok = closing_N is not None
    rows = pt.sample_E(spec, 6)
    certified = [r for r in rows if r.in_EN]
    sample_ok = len(certified) >= 1
    fs = pt.cantor_fine_sets(spec, closing_N if closing_N else 2)
    model_F = pt.leja_points(fs.FN)
    model_J = pt.leja_points(fs.JN)
    z_far = complex(1.0e6, 1.0e6)
    u_far = pt.fine_witness_u(model_F, model_J, z_far)
    log_ratio = model_J.log_cap_estimate - model_F.log_cap_estimate
    proxy_ok = abs(u_far - log_ratio) <= 0.05 * abs(log_ratio)
    art.csv("criterion02_esample.csv", ["x", "u", "in_EN"],
            [(r.x, r.u, r.in_EN) for r in rows])
    art.json("criterion02_chain.json", {
        "condition_sum_total": cs.total,
        "condition_sum_certified": cs.certified,
        "closing_N": closing_N,
        "fn_bound": fs.fn_bound.bound,
        "cap_floor": fs.cap_ambient_floor,
        "certified_points": len(certified),
        "u_far": u_far,
        "log_cap_ratio": log_ratio,
    })
    ok = cond_ok and chain_ok and sample_ok and proxy_ok
    detail = (f"condition sum {cs.total:.4f} certified below 1/2; "
              f"chain closes at N={closing_N}; "
              f"{len(certified)} certified points with u > 0; "
              f"u at the far proxy {u_far:.4f} vs capacity ratio "
              f"{log_ratio:.4f}")
    return ok, detail


def _c03_branch_system(art: _Artifacts):
    spec = _spec5()
    rng = np.random.default_rng(20260814)
    re = rng.uniform(-3.0, 3.0, 1000)
    im = rng.uniform(0.01, 3.0, 1000) * rng.choice([-1.0, 1.0], 1000)
    max_ratio = 0.0
    for x, y in zip(re, im):
        z = complex(x, y)
        s = pr.sqrt_branch(spec, 16, z, pr.BranchTag.D_PLUS)
        p = pr.eval_partial_product(spec, 16, z)
        ratio = (s * s) / p
        max_ratio = max(max_ratio, abs(ratio.to_complex() - 1.0))
    ratio_ok = max_ratio < 1e-10
    max_norm = 0.0
    for k in range(16):
        theta = 2.0 * math.pi * (k + 0.5) / 16.0
        z = 1.0e6 * complex(math.cos(theta), math.sin(theta))
        s = pr.sqrt_branch(spec, 16, z, pr.BranchTag.D_PLUS).to_complex()
        max_norm = max(max_norm, min(abs(s - 1.0), abs(s + 1.0)))
    norm_ok = max_norm < 1e-5
    art.json("criterion03_branch.json", {
        "points": 1000,
        "max_square_ratio_err": max_ratio,
        "max_normalization_err": max_norm,
    })
    detail = (f"square/product ratio off by at most {max_ratio:.2e} over "
              f"1000 points; normalization at |z|=1e6 off by at most "
              f"{max_norm:.2e}")
    return ratio_ok and norm_ok, detail


def _branch_jumps(spec, x: float, kind: str, rows: list) -> list[float]:
    """|h(x + i eps) - h(x - i eps)| of H_plus at depth 16 over the eps
    schedule, also appended to rows."""
    seq = []
    for eps in EPS_SCHEDULE:
        hi = pr.sqrt_branch(spec, 16, complex(x, eps),
                            pr.BranchTag.H_PLUS).to_complex()
        lo = pr.sqrt_branch(spec, 16, complex(x, -eps),
                            pr.BranchTag.H_PLUS).to_complex()
        seq.append(abs(hi - lo))
        rows.append((kind, x, eps, seq[-1]))
    return seq


def _c04_fine_continuity(art: _Artifacts):
    spec = _spec5()
    points = _band_thirds(7, (0.2, 0.8))
    rows = []
    ok = len(points) == 8
    for x in points:
        if not pr.certify_en_point(spec, x, 2):
            ok = False
            continue
        seq = _branch_jumps(spec, x, "set_point", rows)
        mono = all(seq[k + 1] <= seq[k] for k in range(len(seq) - 1))
        tail = pr.tail_bound(spec, 16, complex(x, EPS_SCHEDULE[-1])).bound
        ok = ok and mono and seq[-1] < 10.0 * (tail + EPS_SCHEDULE[-1])
    slow = _spec_slow()
    worst_rel = 0.0
    for j in range(1, 9):
        x = slow.centers[j - 1]
        f_val, _, _ = pr.eval_f(slow, x)
        target = 2.0 * math.sqrt(abs(f_val.to_complex()))
        seq = _branch_jumps(slow, x, "gap_midpoint", rows)
        rel = abs(seq[-1] / target - 1.0)
        worst_rel = max(worst_rel, rel)
        ok = ok and rel < 0.01
    art.csv("criterion04_fine.csv", ["kind", "x", "eps", "jump"], rows)
    detail = (f"{len(points)} set points: branch gap decreases "
              f"monotonically and closes under the certified budget; "
              f"8 gap midpoints reach twice the boundary root within "
              f"{worst_rel:.2%}")
    return ok, detail


def _c05_laurent_length(art: _Artifacts):
    spec = _spec5()
    rows = []
    ok = True
    for N in range(0, 9):
        lc = pr.laurent_c1(spec, N)
        length = spec.root_length - sum_gap_lengths(spec, N)
        exact_neg = (lc.formula == -length)
        ok = ok and lc.spread <= lc.err and exact_neg
        rows.append((N, lc.formula, lc.contour, lc.err, lc.spread, exact_neg))
    art.csv("criterion05_laurent.csv",
            ["N", "formula", "contour", "err", "spread",
             "negated_length_exact"], rows)
    detail = (f"contour and closed-form first moments agree within "
              f"{max(r[4] for r in rows):.2e} (certified contour err "
              f"{max(r[3] for r in rows):.2e}) for N <= 8; sign relation "
              f"to the removed length is exact in arithmetic")
    return ok, detail


def _c06_truncation_estimates(art: _Artifacts):
    spec = _specf()
    shallow = build_cantor_spec(spec.a0, spec.b0, spec.c_rule,
                                spec.placement, 2)
    samples = []
    for lo, hi in shallow.remaining[:2]:
        samples.append(lo + (hi - lo) / 3.0)
        samples.append(lo + 2.0 * (hi - lo) / 3.0)
    rows = []
    ok = all(pr.certify_en_point(spec, x, 2) for x in samples)
    for n in range(2, 7):
        log_rhs = math.log(2.0) + spec.log_p(n + 1)
        for x in samples:
            fn = pr.eval_partial_product(spec, n, x)
            tail_m1 = pr.tail_product_minus_one(spec, n, x)
            log_q = math.log(abs(x - spec.a0)) + sum(
                math.log(abs(x - b)) for b in spec.b[:n])
            log_lhs = fn.log_mag + tail_m1.log_mag + log_q
            ok = ok and log_lhs <= log_rhs
            rows.append((n, x, log_lhs, log_rhs))
    floor_ok = True
    for n in range(2, 7):
        for x in samples:
            fn = pr.eval_partial_product(spec, n, x).to_complex()
            for delta in (0.5, 0.1):
                for w in (fn + delta, fn + 1j * delta):
                    v = hl.v_n(spec, n, x, w)
                    floor_ok = floor_ok and \
                        v >= math.log(delta) - spec.c_rule.jcj(n)
    art.csv("criterion06_lemma.csv", ["n", "x", "log_lhs", "log_rhs"], rows)
    worst = max(r[2] - r[3] for r in rows)
    detail = (f"truncation residual stays under twice the next threshold "
              f"(worst log margin {worst:.1f}) for n in 2..6; off-graph "
              f"floor holds for offsets 0.5 and 0.1")
    return ok and floor_ok, detail


def _c07_fiber_structure(art: _Artifacts):
    spec = _specf()
    hps8 = hl.make_hull_spec(spec, 8, scheme="flat_head")
    hps4 = hl.make_hull_spec(spec, 4, scheme="flat_head")
    wrect = (-1.5, 1.5, -1.5, 1.5)
    pieces = sorted(spec.remaining, key=lambda p: p[1] - p[0])
    lo, hi = pieces[-1]
    x3 = lo + (hi - lo) / 3.0
    ok = pr.certify_en_point(spec, x3, 2)
    report = {}
    for label, z in (("z2", 2.0 + 0.0j), ("set_point", complex(x3))):
        grid = hl.fiber_scan(hps8, z, wrect, 128, sq=True, delta=20.0)
        cell = math.hypot(3.0 / 127.0, 3.0 / 127.0)
        root = pr.eval_partial_product(spec, 8, z).sqrt()
        targets = (root.to_complex(), (-root).to_complex())
        two = len(grid.dips) == 2
        placed = two and all(
            min(abs(d.w - t) for t in targets) == 0.0 and
            min(abs(d.cell_w - t) for t in targets) <= cell
            for d in grid.dips)
        ok = ok and two and placed
        report[label] = {
            "dips": [{"re": d.w.real, "im": d.w.imag, "depth": d.depth}
                     for d in grid.dips],
            "exactly_two": two,
            "within_cell": placed,
        }
    g4 = hl.fiber_scan(hps4, 2.0 + 0.0j, wrect, 128, sq=True, delta=5.0)
    g8 = hl.fiber_scan(hps8, 2.0 + 0.0j, wrect, 128, sq=True, delta=5.0)
    growth = min(d.depth for d in g8.dips) - max(d.depth for d in g4.dips)
    ok = ok and growth >= 20.0
    report["depth_growth_4_to_8"] = growth
    art.json("criterion07_fiber.json", report)
    detail = (f"two certified dips at both base points, each at the "
              f"refined graph values; depth grows {growth:.2f} log-units "
              f"from M=4 to M=8")
    return ok, detail


def _c08_disk_identities(art: _Artifacts):
    spec = _bspec()
    max_circle = 0.0
    for k in range(24):
        theta = 2.0 * math.pi * (k + 1.0 / 3.0) / 24.0
        z = complex(math.cos(theta), math.sin(theta))
        max_circle = max(max_circle,
                         abs(bl.eval_blaschke(spec, 16, z).log_mag))
    circle_ok = max_circle < 1e-12
    max_refl = 0.0
    for k in range(8):
        w = 0.15 * (k + 1) * complex(math.cos(0.7 * k + 0.3),
                                     math.sin(0.7 * k + 0.3)) / 1.5
        inner = bl.eval_blaschke(spec, 16, w)
        outer = bl.eval_blaschke(spec, 16, 1.0 / w.conjugate())
        max_refl = max(max_refl,
                       abs((outer * inner.conj()).to_complex() - 1.0))
    refl_ok = max_refl < 1e-10
    closing = bl.smallest_closing_N(spec, 16)
    rows = bl.blaschke_sample_E(spec, closing, samples=8)
    certified = [r for r in rows if r.in_EN]
    art.csv("criterion08_bsample.csv", ["theta", "u", "in_EN"],
            [(r.theta, r.u, r.in_EN) for r in rows])
    art.json("criterion08_disk.json", {
        "max_circle_log_mag": max_circle,
        "max_reflection_err": max_refl,
        "closing_N": closing,
        "certified_points": len(certified),
    })
    ok = circle_ok and refl_ok and closing <= 16 and len(certified) >= 1
    detail = (f"unimodularity off by at most {max_circle:.2e}; reflection "
              f"off by at most {max_refl:.2e}; chain closes at "
              f"N={closing} with {len(certified)} certified arc points")
    return ok, detail


def _c09_sheet_spacing(art: _Artifacts):
    spec = _bspec()
    z = complex(0.3, 0.2)
    spacing = bl.fb_sheet_spacing(spec, z).to_complex()
    B = bl.eval_blaschke(spec, 16, z)
    values = [v.to_complex() for v in bl.fb_sheets(spec, range(-3, 4), z)]
    max_gap = max(abs(values[i + 1] - values[i] - spacing)
                  for i in range(len(values) - 1))
    scale = max(1.0, abs(spacing))
    spacing_ok = max_gap <= 1e-12 * scale
    distinct = len(set(values)) == 7
    nonzero = not B.is_zero
    art.json("criterion09_sheets.json", {
        "at": [z.real, z.imag],
        "spacing": [spacing.real, spacing.imag],
        "values": [[v.real, v.imag] for v in values],
        "max_spacing_gap": max_gap,
    })
    ok = spacing_ok and distinct and nonzero
    detail = (f"sheet steps match the factored spacing within "
              f"{max_gap:.2e} absolute (exact at the factored "
              f"representation); 7 distinct values with a nonzero product")
    return ok, detail


def _pipeline(base: str) -> None:
    """One deterministic end-to-end run of every other subcommand."""
    from . import cli

    def run(argv: list[str]) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"pipeline step {argv[0]} exited {rc}: "
                               f"{buf.getvalue().strip()}")

    j = os.path.join
    run(["spec-build", "--rule", "affine", "--slope", "5", "--offset", "0",
         "--depth", "16", "--out", j(base, "cantor")])
    run(["spec-build", "--rule", "factorial", "--depth", "12",
         "--out", j(base, "fact")])
    spec_path = j(base, "cantor", "spec.json")
    fact_path = j(base, "fact", "spec.json")
    inputs = j(base, "inputs")
    os.makedirs(inputs, exist_ok=True)
    with open(spec_path) as fh:
        spec_obj = json.load(fh)
    write_json(j(inputs, "fineset.json"), {"spec": spec_obj, "N": 2})
    write_json(j(inputs, "shapes.json"),
                {"shapes": [{"kind": "interval", "a": 0.0, "b": 1.0}]})
    write_json(j(inputs, "disk.json"), {
        "alpha": 0.0, "beta": 1.5707963267948966,
        "c_rule": {"kind": "affine", "slope": 5.0, "offset": 0.0},
        "N": 12,
    })
    run(["eval", "--spec", spec_path, "--at", "2,0",
         "--out", j(base, "eval")])
    run(["eval", "--spec", spec_path, "--at", "0.3,0.4",
         "--branch", "h-plus", "--out", j(base, "evalh")])
    run(["capacity", "--set", j(inputs, "fineset.json"),
         "--out", j(base, "capacity")])
    run(["green", "--set", j(inputs, "shapes.json"), "--at", "3,0",
         "--n", "48", "--out", j(base, "green")])
    run(["sample-e", "--spec", spec_path, "--depth", "6",
         "--out", j(base, "esample")])
    run(["hull-scan", "--spec", fact_path, "--z", "2,0",
         "--wrect=-1.5,1.5,-1.5,1.5", "--res", "64", "--sq",
         "--depth", "6", "--out", j(base, "hull")])
    run(["blaschke", "--spec", j(inputs, "disk.json"), "--at", "0.3,0.2",
         "--sheets=-3,3", "--sample-depth", "1", "--samples", "8",
         "--out", j(base, "disk")])


def _tree_hashes(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            full = os.path.join(dirpath, f)
            out[os.path.relpath(full, root)] = sha256(full)
    return out


def _c10_determinism(art: _Artifacts):
    base = tempfile.mkdtemp(prefix="finehull-determinism-")
    try:
        run_a = os.path.join(base, "a")
        run_b = os.path.join(base, "b")
        _pipeline(run_a)
        _pipeline(run_b)
        hashes_a = _tree_hashes(run_a)
        hashes_b = _tree_hashes(run_b)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    ok = hashes_a == hashes_b and len(hashes_a) >= 10
    art.json("criterion10_determinism.json", {
        "files": len(hashes_a),
        "identical": hashes_a == hashes_b,
    })
    detail = (f"two full pipeline runs produced {len(hashes_a)} files "
              f"with identical content hashes"
              if ok else "pipeline reruns diverged")
    return ok, detail


_CRITERIA = [
    (1, "capacity_oracles", _c01_capacity_oracles),
    (2, "union_bound_chain", _c02_union_bound_chain),
    (3, "branch_system", _c03_branch_system),
    (4, "fine_continuity_vs_jump", _c04_fine_continuity),
    (5, "laurent_length", _c05_laurent_length),
    (6, "truncation_estimates", _c06_truncation_estimates),
    (7, "fiber_structure", _c07_fiber_structure),
    (8, "disk_identities", _c08_disk_identities),
    (9, "sheet_spacing", _c09_sheet_spacing),
    (10, "determinism", _c10_determinism),
]


def run_all(outdir: str | None = None) -> list[CriterionResult]:
    results = []
    for index, name, fn in _CRITERIA:
        art = _Artifacts(outdir)
        try:
            passed, detail = fn(art)
        except Exception as e:  # noqa: BLE001 - a crash is a FAIL row
            passed, detail = False, f"raised {type(e).__name__}: {e}"
        results.append(CriterionResult(index, name, passed, detail,
                                       tuple(art.names)))
    return results


def write_summary(results: list[CriterionResult], outdir: str) -> list[str]:
    write_csv(os.path.join(outdir, "summary.csv"),
               ["criterion", "name", "status"],
               [(r.index, r.name, "PASS" if r.passed else "FAIL")
                for r in results])
    write_json(os.path.join(outdir, "acceptance.json"), {
        "all_pass": all(r.passed for r in results),
        "results": [{"criterion": r.index, "name": r.name,
                     "passed": r.passed, "detail": r.detail}
                    for r in results],
    })
    names = ["summary.csv", "acceptance.json"]
    for r in results:
        names.extend(r.artifacts)
    return names
