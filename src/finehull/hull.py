"""Weighted graph-detecting potential over C^2 and fiber scans.

The potential sums weighted, floored logarithms of the polynomial forms
|w Q_n(z) - P_n(z)| = |Q_n(z)| |w - f_n(z)|; scans take the factored
side.  At points of the limit graph every term sits at its floor, so
the truncated sum drops below any target as the truncation grows; off
the graph the terms stay bounded below.  Scans locate the resulting
dips on w-grids and certify their depth at exact graph points, since a
finite grid cannot resolve a minus-infinity locus.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cantor import CantorSpec, check_point
from .errors import (DomainViolation, NoValidWeights, PoleHit,
                     PreconditionFailure)
from .logspace import _LOG2, LogComplex
from .product import _factor_logs, certify_en_point, tail_product_minus_one

__all__ = [
    "WeightScheme",
    "build_weights",
    "HullPotentialSpec",
    "make_hull_spec",
    "v_n",
    "eval_v_on_graph",
    "Dip",
    "HullGrid",
    "fiber_scan",
    "grid_axes",
    "grid_report",
]

SENTINEL = -1.0e6
# largest w-grid side fiber_scan accepts: a scan holds two float
# res x res grids (the values and the partitioned copy its median reads),
# 16 B per cell, so ~64 MB at 2048; the five band buffers (the field, a
# second field or run sum, and the half field, floored sum and term of
# bands within reach of a kink) add 5 x 128 kB
MAX_RES = 2048
# cells per band of rows the scan's buffers cover (16 rows at 1024)
BAND_CELLS = 16384
# coordinates below 2^(_FREE_EXP - 1) leave a field unscaled: a squared
# axis offset stays below 2^500 and the product of two sums below 2^1002
_FREE_EXP = 250
# log of the largest double: P_n(z) or Q_n(z) past it is refused
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class WeightScheme:
    """Positive weights e_n with certificates for the two series tests.

    sum_finite certifies sum e_n <= sum_bound in closed form;
    ratio_divergent certifies sum e_n (n+1)c_{n+1}/(n c_n) = infinity by
    termwise comparison against a harmonic minorant.
    """

    name: str
    e: tuple[float, ...]
    sum_bound: float
    sum_finite: bool
    ratio_divergent: bool
    detail: str


def _weight(name: str, n: int) -> float:
    if name == "flat_head":
        return min(1.0, 256.0 / (n * n))
    if name == "quadratic":
        return 1.0 / (n * n)
    raise PreconditionFailure(f"unknown weight scheme {name!r}",
                              field="scheme")


def build_weights(spec_or_rule, M: int,
                  scheme: str = "flat_head") -> WeightScheme:
    """Weights e_1..e_M with convergence/divergence certificates.

    The scheme must make sum e_n finite while sum e_n (n+1)c_{n+1}/(n c_n)
    diverges.  Factorial rules certify both in closed form; affine rules
    have bounded ratios, so the divergent series converges and
    NoValidWeights is raised (M = 1 stays trivially admissible).
    """
    rule = spec_or_rule.c_rule if isinstance(spec_or_rule, CantorSpec) \
        else spec_or_rule
    if M < 1:
        raise PreconditionFailure("need M >= 1", field="M")
    e = tuple(_weight(scheme, n) for n in range(1, M + 1))
    # flat_head: 16 ones then 256/n^2, total <= 16 + 256/16
    sum_bound = 32.0 if scheme == "flat_head" else math.pi ** 2 / 6.0
    if rule.kind == "factorial":
        s = rule.shift
        divergent = True
        detail = (f"ratio (n+1)(n+1+{s})/n grows linearly; "
                  "e_n * ratio >= const/n from some index on")
    elif rule.kind == "affine":
        divergent = False
        detail = ("ratio (n+1)c_(n+1)/(n c_n) <= 4 for affine rules, so "
                  "the weighted ratio series converges with sum e_n")
    else:
        divergent = False
        detail = "explicit rule carries no asymptotic certificate"
    if M == 1:
        return WeightScheme(scheme, e, sum_bound, True, divergent,
                            "single-term truncation, conditions trivial")
    if not divergent:
        raise NoValidWeights(
            f"rule kind {rule.kind!r} does not certify a divergent "
            "weighted ratio series", field="c_rule")
    return WeightScheme(scheme, e, sum_bound, True, divergent, detail)


@dataclass(frozen=True)
class HullPotentialSpec:
    """Potential configuration: base construction, weights, truncation.

    Term n is floored at log p_{n+1} = -(n+1)c_{n+1}/2 and scaled by
    e_n/(n c_n).
    """

    spec: CantorSpec
    weights: WeightScheme
    M: int

    def __post_init__(self):
        if not 1 <= self.M <= self.spec.max_index:
            raise PreconditionFailure("need 1 <= M <= materialization",
                                      field="M")
        if len(self.weights.e) < self.M:
            raise PreconditionFailure("weight list shorter than M",
                                      field="weights")

    def floor(self, n: int) -> float:
        return self.spec.log_p(n + 1)

    def term_scale(self, n: int) -> float:
        return self.weights.e[n - 1] / self.spec.c_rule.jcj(n)


def make_hull_spec(spec: CantorSpec, M: int,
                   scheme: str = "flat_head") -> HullPotentialSpec:
    # checked before the M weights are built
    if not 1 <= M <= spec.max_index:
        raise PreconditionFailure("need 1 <= M <= materialization",
                                  field="M")
    return HullPotentialSpec(spec, build_weights(spec, M, scheme), M)


def v_n(spec: CantorSpec, n: int, z: complex, w: complex) -> float:
    """log |w Q_n(z) - P_n(z)| = log|Q_n(z)| + log|w - f_n(z)|, taken as
    fiber_scan takes its terms (w - f_n(z) at the same power-of-two
    scale), so -inf exactly on the graph w = f_n(z); at a pole of f_n,
    log|P_n(z)|.  A z where P_n(z) or Q_n(z) overflows is refused."""
    if not 0 <= n <= spec.max_index:
        raise PreconditionFailure("n out of range", field="n")
    z, w = check_point(z, "z"), check_point(w, "w")
    try:
        f, log_q = _scan_terms(spec, n, z)[n]
    except PoleHit:
        log_p = math.fsum(LogComplex.from_difference(z, p).log_mag
                          for p in (spec.b0, *spec.a[:n]))
        if log_p > _LOG_MAX:
            raise PreconditionFailure("P_n(z) overflows", field="z")
        return log_p
    t, k = _field_target(f, (w.real, w.real, w.imag, w.imag))
    w = complex(math.ldexp(w.real, -k), math.ldexp(w.imag, -k))
    return log_q + LogComplex.from_difference(w, t).log_mag + k * _LOG2


def eval_v_on_graph(hps: HullPotentialSpec, z: complex) -> float:
    """Certified potential value at the exact graph point w = f_M(z).

    Uses |f_M - f_n||Q_n| = |P_n| |f_M/f_n - 1| with the residual factor
    evaluated in log space, so the value is exact even where the grid
    arithmetic would cancel to noise.  The n = M term is at its floor.
    """
    z = check_point(z, "z")
    total = 0.0
    # log|z - p| as LogComplex takes it: -inf at p, finite past the
    # largest double
    log_p_abs = LogComplex.from_difference(z, hps.spec.b0).log_mag
    for n in range(1, hps.M + 1):
        log_p_abs += LogComplex.from_difference(z, hps.spec.a[n - 1]).log_mag
        if n == hps.M:
            vn = float("-inf")
        else:
            tail = tail_product_minus_one(hps.spec, n, z, upto=hps.M)
            vn = log_p_abs + tail.log_mag
        total += hps.term_scale(n) * max(vn, hps.floor(n))
    return total


@dataclass(frozen=True)
class Dip:
    w: complex            # refined graph point
    cell_w: complex       # grid node of the detecting local minimum
    depth: float          # median minus certified on-graph value


@dataclass(frozen=True)
class HullGrid:
    z: complex
    wrect: tuple[float, float, float, float]
    res: int
    sq: bool
    values: np.ndarray
    median: float
    dips: tuple[Dip, ...]
    clamped: int
    delta: float
    M: int
    scheme: str


def _check_scan_point(spec: CantorSpec, z: complex) -> None:
    """Scan points must lie off the set (D) or be certified E-points."""
    if z.imag != 0.0:
        return
    x = z.real
    if not spec.a0 <= x <= spec.b0:
        return
    if any(a < x < b for a, b in zip(spec.a, spec.b)):
        return                          # interior of a gap: still in D
    if x == spec.a0 or x in spec.b:
        raise PoleHit("scan point coincides with a pole", field="z")
    if not certify_en_point(spec, x, spec.max_index):
        raise DomainViolation(
            "real scan point is neither off the set nor a certified E-point",
            field="z")


def _nearest_local_min(vals: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                       t: complex, reach: float) -> complex | None:
    """Node of the interior local minimum nearest to t within reach, or
    None; ties go to the first such cell in row-major order.

    A cell counts when its value is <= each of its 8 neighbours (never
    with a NaN among the nine).  Only the window of rows and columns
    whose axis offset from t is within reach can hold a node within
    reach, so only its cells are tested; a non-finite t has none.
    """
    iy = np.flatnonzero(np.abs(ys[1:-1] - t.imag) <= reach) + 1
    ix = np.flatnonzero(np.abs(xs[1:-1] - t.real) <= reach) + 1
    if not (iy.size and ix.size):
        return None
    # the offsets are monotone along each axis, so the window is a block
    y0, y1, x0, x1 = iy[0], iy[-1] + 1, ix[0], ix[-1] + 1
    block = np.lib.stride_tricks.sliding_window_view(
        vals[y0 - 1:y1 + 1, x0 - 1:x1 + 1], (3, 3)).min(axis=(2, 3))
    best = None
    for jy, jx in np.argwhere(vals[y0:y1, x0:x1] <= block):
        node = complex(xs[x0 + jx], ys[y0 + jy])
        dist = abs(node - t)
        if dist <= reach and (best is None or dist < best[0]):
            best = (dist, node)
    return None if best is None else best[1]


def _scan_terms(spec: CantorSpec, M: int, z: complex):
    """[(f_n(z), log|Q_n(z)|) for n = 0..M].

    Every f_n is one prefix of a single running sum of the factor logs,
    bit-equal to eval_partial_product(spec, n, z); log|Q_n| adds
    log|z - b_j| in log space.  A z where P_n(z) = f_n Q_n or Q_n(z)
    overflows a double is refused.
    """
    logs = _factor_logs(spec, M, z)
    live = [l for l in logs if l is not None]  # a last None: f_n = 0 on
    prefixes = [LogComplex.from_polar(s.real, s.imag)
                for s in itertools.accumulate(live, initial=0j)][1:]
    prefixes += [LogComplex.zero()] * (len(logs) - len(live))
    log_q = 0.0
    terms = []
    for n, p in enumerate((spec.a0, *spec.b[:M])):
        log_q += LogComplex.from_difference(z, p).log_mag
        f = prefixes[min(n, len(prefixes) - 1)]
        if max(log_q, log_q + f.log_mag) > _LOG_MAX:
            raise PreconditionFailure("the products P_n(z), Q_n(z) overflow",
                                      field="z")
        terms.append((f, log_q))
    return terms


def _field_target(t: LogComplex, wrect) -> tuple[complex, int]:
    """(t 2^-k, k) for the distance field of target t over wrect.

    k = 0 while every coordinate of the window and of t lies below
    2^(_FREE_EXP - 1), so no squared axis offset, no sum of two and no
    product of two sums overflows; past that, k brings all of them below
    1/2.
    """
    c = t.to_complex()
    exps = [math.frexp(v)[1] for v in wrect]
    if cmath.isfinite(c):
        exps += [math.frexp(c.real)[1], math.frexp(c.imag)[1]]
    else:                               # |t| past the largest double
        exps.append(math.floor(t.log_mag / _LOG2) + 1)
    k = max(exps) + 1
    if k <= _FREE_EXP:
        return c, 0
    if cmath.isfinite(c):
        return complex(math.ldexp(c.real, -k), math.ldexp(c.imag, -k)), k
    return LogComplex(t.log_mag - k * _LOG2, t.arg).to_complex(), k


def _median(vals: np.ndarray) -> float:
    """np.median of vals, bit for bit, from one partition: the element
    of rank size//2, averaged with the largest below it at even sizes.
    Adding 0.0 turns -0.0 into 0.0, as np.median's mean does."""
    flat = vals.ravel()
    k = flat.size // 2
    part = np.partition(flat, k)
    if flat.size % 2:
        return float(0.0 + part[k])
    return float((0.0 + part[:k].max() + part[k]) / 2.0)


class _GroupSum:
    """The terms of one field group as one function of lam = log(field).

    Term n is scale_n max(lam/2 + shift + log|Q_n|, floor_n).  At and
    above the top kink 2 max_n (floor_n - shift - log|Q_n|) no floor is
    active, so the sum is slope lam + icpt there; only cells below it
    take the floored sum term by term.
    """

    def __init__(self, shift: float, group: list) -> None:
        self.shift, self.group = shift, group
        self.slope = math.fsum(0.5 * s for _, _, s in group)
        self.icpt = math.fsum(s * (shift + log_q) for log_q, _, s in group)
        self.kink = max(2.0 * (floor - shift - log_q)
                        for log_q, floor, _ in group)

    def write(self, lam, out, half, total, tmp) -> None:
        """out = the group's sum over the cells of lam; half, total and
        tmp are scratch of lam's shape."""
        np.multiply(lam, self.slope, out=out)
        np.add(out, self.icpt, out=out)
        if lam.min() < self.kink:
            np.multiply(lam, 0.5, out=half)
            if self.shift:
                np.add(half, self.shift, out=half)
            for i, (log_q, floor, scale) in enumerate(self.group):
                t = tmp if i else total
                np.add(half, log_q, out=t)
                np.maximum(t, floor, out=t)
                np.multiply(t, scale, out=t)
                if i:
                    total += t
            np.copyto(out, total, where=lam < self.kink)


def fiber_scan(hps: HullPotentialSpec, z: complex, wrect, res: int,
               sq: bool = False, delta: float = 20.0) -> HullGrid:
    """Evaluate the potential over a w-grid and classify certified dips.

    A dip is a grid local minimum whose basin refines to an exact graph
    point (w = f_M(z), or w^2 = f_M(z) with sq set) within 1.5 grid
    cells, with certified on-graph depth at least delta below the grid
    median.  Grid values alone cannot reach the certified depth; the
    refinement step supplies it.

    Term n is scale_n max(log|Q_n(z)| + log|W - f_n(z)|, floor_n), since
    W Q_n - P_n = Q_n (W - f_n); with sq, W = w^2 and log|W - f_n| =
    log|w - s_n| + log|w + s_n| with s_n = sqrt(f_n(z)).  Consecutive
    terms whose target double (f_n, or s_n) is the same share one
    distance field, half the log of an outer sum of squared axis offsets
    (with sq, a product of two such sums).  The terms of one target sum
    to slope log(field) + icpt wherever no floor is active, at and above
    the top kink (see _GroupSum): one log plus a scale and a shift pass
    per cell and distinct target.  Only a band of rows whose field
    reaches below the kink also takes the add, floor, scale and
    accumulate passes per term, for its cells below the kink.  The
    passes run over one band of about BAND_CELLS cells at a time, and
    local minima are tested only in the window of cells within reach of
    a target.  The offsets are scaled by a power of two, 2^0 unless a
    square could overflow (see _field_target), so every window whose
    grid is finite answers.  Offsets below ~1.5e-154 have subnormal
    squares, and a cell within ~2e-162 of a target in both axes reads as
    the target itself.
    Needs 64 <= res <= MAX_RES; the scan holds two float res x res grids
    (16 B per cell, ~64 MB at MAX_RES = 2048).
    """
    if not 64 <= res <= MAX_RES:
        raise PreconditionFailure(f"need 64 <= res <= {MAX_RES}",
                                  field="res")
    z = check_point(z, "z")
    _check_scan_point(hps.spec, z)
    rect = x0, x1, y0, y1 = tuple(float(t) for t in wrect)
    if not (x0 < x1 and y0 < y1):
        raise PreconditionFailure("empty w-rectangle", field="wrect")
    terms = [(f, log_q, hps.floor(n), hps.term_scale(n)) for n, (f, log_q)
             in enumerate(_scan_terms(hps.spec, hps.M, z)[1:], 1)]
    vals = np.empty((res, res))
    rows = max(1, BAND_CELLS // res)
    buf = np.empty((5, rows, res))
    clamped = 0
    try:
        # only a side past the largest double, whose linspace step
        # overflows, makes the grid not finite
        with np.errstate(divide="ignore", over="raise", invalid="raise"):
            xs, ys = grid_axes(rect, res)
            fields = []
            for (t, k), group in itertools.groupby(
                    terms, lambda tm: _field_target(
                        tm[0].sqrt() if sq else tm[0], rect)):
                xk, yk = (xs, ys) if k == 0 else \
                    (np.ldexp(xs, -k), np.ldexp(ys, -k))
                axes = [np.square(xk - t.real), np.square(yk - t.imag)]
                if sq:
                    axes += [np.square(xk + t.real), np.square(yk + t.imag)]
                fields.append((axes, _GroupSum((2 * k if sq else k) * _LOG2,
                                               [tm[1:] for tm in group])))
            for r0 in range(0, res, rows):
                r1 = min(r0 + rows, res)
                lam, tb, *scratch = buf[:, :r1 - r0]
                band = vals[r0:r1]
                for i, (axes, gs) in enumerate(fields):
                    np.add(axes[0], axes[1][r0:r1, None], out=lam)
                    if sq:
                        np.add(axes[2], axes[3][r0:r1, None], out=tb)
                        np.multiply(lam, tb, out=lam)
                    np.log(lam, out=lam)
                    out = tb if i else band     # the first group writes
                    gs.write(lam, out, *scratch)
                    if i:
                        band += out
                if band.min() < SENTINEL:
                    clamped += int(np.count_nonzero(band < SENTINEL))
                    np.maximum(band, SENTINEL, out=band)
    except FloatingPointError as e:
        raise PreconditionFailure("the grid or the potential on the window "
                                  "is not finite", field="wrect") from e
    median = _median(vals)

    f = terms[-1][0]
    if sq:
        d = f.sqrt()
        targets = [d.to_complex(), (-d).to_complex()]
        if targets[0] == targets[1]:
            targets = targets[:1]
    else:
        targets = [f.to_complex()]
    v_graph = eval_v_on_graph(hps, z)
    depth = median - v_graph
    dx = (x1 - x0) / (res - 1)
    dy = (y1 - y0) / (res - 1)
    reach = 1.5 * math.hypot(dx, dy)
    dips = []
    for t in targets:
        best = _nearest_local_min(vals, xs, ys, t, reach)
        if best is not None and depth >= delta:
            dips.append(Dip(t, best, depth))
    dips.sort(key=lambda p: (p.w.real, p.w.imag))
    return HullGrid(z, rect, res, sq, vals, median,
                    tuple(dips), clamped, delta, hps.M, hps.weights.name)


def grid_axes(wrect, res: int) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates (xs, ys) of a res x res grid over wrect; grid
    values are indexed [iy, ix]."""
    x0, x1, y0, y1 = wrect
    return np.linspace(x0, x1, res), np.linspace(y0, y1, res)


def grid_report(grid: HullGrid) -> dict:
    """JSON-ready metadata and dip report; round-trips losslessly."""
    return {
        "z": [grid.z.real, grid.z.imag],
        "wrect": list(grid.wrect),
        "res": grid.res,
        "sq": grid.sq,
        "median": grid.median,
        "delta": grid.delta,
        "clamped": grid.clamped,
        "M": grid.M,
        "scheme": grid.scheme,
        "dips": [{"w": [p.w.real, p.w.imag],
                  "cell_w": [p.cell_w.real, p.cell_w.imag],
                  "depth": p.depth} for p in grid.dips],
    }
