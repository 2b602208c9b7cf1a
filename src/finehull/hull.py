"""Weighted graph-detecting potential over C^2 and fiber scans.

The potential sums weighted, floored logarithms of the polynomial forms
|w Q_n(z) - P_n(z)|.  At points of the limit graph every term sits at
its floor, so the truncated sum drops below any target as the truncation
grows; off the graph the terms stay bounded below.  Scans locate the
resulting dips on w-grids and certify their depth at exact graph points,
since a finite grid cannot resolve a minus-infinity locus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cantor import CantorSpec
from .errors import (DomainViolation, NoValidWeights, PoleHit,
                     PreconditionFailure)
from .product import (certify_en_point, eval_partial_product,
                      tail_product_minus_one)

__all__ = [
    "WeightScheme",
    "build_weights",
    "HullPotentialSpec",
    "make_hull_spec",
    "v_n",
    "eval_v",
    "eval_v_on_graph",
    "Dip",
    "HullGrid",
    "fiber_scan",
    "grid_axes",
    "grid_report",
]

SENTINEL = -1.0e6
# largest w-grid side fiber_scan accepts: a scan holds two complex and
# two float res x res arrays, 48 B per cell, so ~200 MB at 2048
MAX_RES = 2048


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
    return HullPotentialSpec(spec, build_weights(spec, M, scheme), M)


def _pq_prefixes(spec: CantorSpec, n: int, z: complex):
    """Monic numerator/denominator pairs (P_k, Q_k) of the partial
    products f_k, for k = 0..n."""
    P = z - spec.b0
    Q = z - spec.a0
    yield P, Q
    for g in spec.gaps[:n]:
        P *= z - g.a
        Q *= z - g.b
        yield P, Q


def v_n(spec: CantorSpec, n: int, z: complex, w: complex) -> float:
    """log |w Q_n(z) - P_n(z)|, the polynomial form of log(|w - f_n||Q_n|).

    Poles of f_n cancel against Q_n, so the value is finite everywhere
    except on the graph of f_n itself, where -inf is returned.
    """
    if not 0 <= n <= spec.max_index:
        raise PreconditionFailure("n out of range", field="n")
    *_, (P, Q) = _pq_prefixes(spec, n, complex(z))
    r = abs(complex(w) * Q - P)
    return math.log(r) if r > 0.0 else float("-inf")


def eval_v(hps: HullPotentialSpec, z: complex, w: complex) -> float:
    """Truncated weighted potential sum_{n<=M} e_n/(n c_n) max(v_n, floor)."""
    z, w = complex(z), complex(w)
    total = 0.0
    pq = _pq_prefixes(hps.spec, hps.M, z)
    next(pq)
    for n, (P, Q) in enumerate(pq, start=1):
        r = abs(w * Q - P)
        vn = math.log(r) if r > 0.0 else float("-inf")
        total += hps.term_scale(n) * max(vn, hps.floor(n))
    return total


def eval_v_on_graph(hps: HullPotentialSpec, z: complex) -> float:
    """Certified potential value at the exact graph point w = f_M(z).

    Uses |f_M - f_n||Q_n| = |P_n| |f_M/f_n - 1| with the residual factor
    evaluated in log space, so the value is exact even where the grid
    arithmetic would cancel to noise.  The n = M term is at its floor.
    """
    z = complex(z)
    total = 0.0
    log_p_abs = math.log(abs(z - hps.spec.b0)) \
        if z != hps.spec.b0 else float("-inf")
    for n in range(1, hps.M + 1):
        g = hps.spec.gap(n)
        d = abs(z - g.a)
        log_p_abs += math.log(d) if d > 0.0 else float("-inf")
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
    for g in spec.gaps:
        if g.a < x < g.b:
            return                      # interior of a gap: still in D
    if x == spec.a0 or any(x == g.b for g in spec.gaps):
        raise PoleHit("scan point coincides with a pole")
    if not certify_en_point(spec, x, spec.max_index):
        raise DomainViolation(
            "real scan point is neither off the set nor a certified E-point")


def fiber_scan(hps: HullPotentialSpec, z: complex, wrect, res: int,
               sq: bool = False, delta: float = 20.0) -> HullGrid:
    """Evaluate the potential over a w-grid and classify certified dips.

    A dip is a grid local minimum whose basin refines to an exact graph
    point (w = f_M(z), or w^2 = f_M(z) with sq set) within 1.5 grid
    cells, with certified on-graph depth at least delta below the grid
    median.  Grid values alone cannot reach the certified depth; the
    refinement step supplies it.

    Needs 64 <= res <= MAX_RES; the scan holds four res x res arrays
    (48 B per cell, ~200 MB at MAX_RES = 2048).
    """
    if not 64 <= res <= MAX_RES:
        raise PreconditionFailure(f"need 64 <= res <= {MAX_RES}",
                                  field="res")
    z = complex(z)
    _check_scan_point(hps.spec, z)
    x0, x1, y0, y1 = (float(t) for t in wrect)
    if not (x0 < x1 and y0 < y1):
        raise PreconditionFailure("empty w-rectangle", field="wrect")
    xs, ys = grid_axes((x0, x1, y0, y1), res)
    W = xs[None, :] + 1j * ys[:, None]
    if sq:
        np.multiply(W, W, out=W)
    # each term runs through one complex and one float buffer in the
    # order log|W Q - P|, floor, scale, so no per-term temporaries
    cbuf = np.empty_like(W)
    term = np.empty((res, res))
    vals = np.zeros((res, res))
    pq = _pq_prefixes(hps.spec, hps.M, z)
    next(pq)
    with np.errstate(divide="ignore"):
        for n, (P, Q) in enumerate(pq, start=1):
            np.multiply(W, Q, out=cbuf)
            np.subtract(cbuf, P, out=cbuf)
            np.abs(cbuf, out=term)
            np.log(term, out=term)
            np.maximum(term, hps.floor(n), out=term)
            np.multiply(term, hps.term_scale(n), out=term)
            vals += term
    del W, cbuf, term
    clamped = int(np.sum(vals < SENTINEL))
    np.maximum(vals, SENTINEL, out=vals)
    median = float(np.median(vals))

    # interior non-strict local minima over 8 neighbors
    c = vals[1:-1, 1:-1]
    neigh = np.full_like(c, np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) != (0, 0):
                np.minimum(neigh, vals[1 + di:res - 1 + di,
                                       1 + dj:res - 1 + dj], out=neigh)
    mins = np.argwhere(c <= neigh) + 1

    f = eval_partial_product(hps.spec, hps.M, z)
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
        best = None
        for iy, ix in mins:
            node = complex(xs[ix], ys[iy])
            dist = abs(node - t)
            if dist <= reach and (best is None or dist < best[0]):
                best = (dist, node)
        if best is not None and depth >= delta:
            dips.append(Dip(t, best[1], depth))
    dips.sort(key=lambda p: (p.w.real, p.w.imag))
    return HullGrid(z, (x0, x1, y0, y1), res, sq, vals, median,
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
