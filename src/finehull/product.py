"""Truncated and limit evaluation of the gap Moebius product.

The object of study is the function

    f(z) = (z - b0)/(z - a0) * prod_j (z - a_j)/(z - b_j)

attached to a gap construction, normalized to 1 at infinity.  Gap factor
j is evaluated as 1 + u_j with u_j = (b_j - a_j)/(z - b_j), so deviations
from 1 far below double epsilon still enter the accumulated logarithm
correctly.  Square-root branches take principal roots factor by factor;
no path tracking is performed.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .cantor import (HALVING_DENOM, CantorSpec, _check_depth,
                     _last_violation, _seg_distance, sum_gap_lengths)
from .errors import (DomainViolation, NoConvergence, NotInEN, PoleHit,
                     PreconditionFailure, QuadratureFailure, RegionViolatesEN)
from .logspace import LogComplex, log1p_complex, logsum, wrap_angle

__all__ = [
    "BranchTag",
    "TailBound",
    "eval_partial_product",
    "eval_partial_product_many",
    "tail_bound",
    "eval_f",
    "sqrt_branch",
    "laurent_c1",
    "LaurentC1",
    "fine_boundary_value",
    "tail_product_minus_one",
    "certify_en_point",
]

class BranchTag(enum.Enum):
    """Square-root branch labels.

    The D family lives off the root interval union the open gaps and is
    normalized to +1 at real +infinity.  The H family lives off the real
    axis, glues across the set, and H_plus is normalized to +1 at upper
    infinity.
    """

    D_PLUS = "d_plus"
    D_MINUS = "d_minus"
    H_PLUS = "h_plus"
    H_MINUS = "h_minus"

    @property
    def is_h_family(self) -> bool:
        return self in (BranchTag.H_PLUS, BranchTag.H_MINUS)


def _quotient_log(num: complex, den: complex, cut_arg: float) -> complex:
    """log(num/den), argument cut_arg where it is negative real; a quotient
    that underflows to 0 gives log|num| - log|den| and the phase difference."""
    r = num / den
    if r == 0:
        q = LogComplex.from_complex(num) / LogComplex.from_complex(den)
        return complex(q.log_mag, q.arg)
    if r.imag == 0.0 and r.real < 0.0:
        return complex(math.log(abs(r.real)), cut_arg)
    return complex(math.log(abs(r)), math.atan2(r.imag, r.real))


def _gap_factor_log(g, z: complex):
    """log of gap factor at z, or None for an exact zero of the factor.

    Degenerate gaps (length underflowed to 0.0) contribute a unit factor:
    their zero/pole pair sits below double resolution and is handled by
    the log-space tail machinery instead.
    """
    length = g.length
    if length == 0.0:
        return complex(0.0, 0.0)
    w = z - g.b
    if w == 0:
        raise PoleHit(f"z hits pole b_{g.index}")
    if abs(z - g.center) <= 8.0 * length:
        num = z - g.a
        if num == 0:
            return None
        # inside the gap on the real axis: argument convention -pi
        return _quotient_log(num, w, -math.pi)
    return log1p_complex(length / w)


def _factor_logs(spec: CantorSpec, N: int, z: complex):
    """Per-factor logs (root factor first); None signals f(z) = 0."""
    _check_depth(spec, N)
    z = complex(z)
    den = z - spec.a0
    if den == 0:
        raise PoleHit("z hits pole a0")
    num = z - spec.b0
    if num == 0:
        return None
    # inside the root interval on the real axis: convention +pi
    logs = [_quotient_log(num, den, math.pi)]
    for g in spec.gaps[:N]:
        fl = _gap_factor_log(g, z)
        if fl is None:
            return None
        logs.append(fl)
    return logs


def _factor_power(spec: CantorSpec, N: int, z: complex,
                  p: float) -> LogComplex:
    """f_N(z)^p as the product of per-factor principal powers."""
    logs = _factor_logs(spec, N, z)
    if logs is None:
        return LogComplex.zero()
    re = 0.0
    im = 0.0
    for l in logs:
        re += p * l.real
        im += p * l.imag
    return LogComplex.from_polar(re, wrap_angle(im))


def eval_partial_product(spec: CantorSpec, N: int, z: complex) -> LogComplex:
    """Truncation f_N(z) with N gap factors, as a log-polar value."""
    return _factor_power(spec, N, z, 1.0)


def _cquot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) elementwise, as CPython divides complex
    numbers (Smith's method): numpy's complex division differs at
    subnormal scale."""
    by_re = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):
        t = np.where(by_re, bi / br, br / bi)
        d = np.where(by_re, br + bi * t, br * t + bi)
        re = np.where(by_re, ar + ai * t, ar * t + ai) / d
        im = np.where(by_re, ai - ar * t, ai * t - ar) / d
    return re, im


def _wrap_angles(theta):
    """wrap_angle elementwise."""
    t = np.fmod(theta, 2.0 * math.pi)
    t = np.where(t > math.pi, t - 2.0 * math.pi,
                 np.where(t <= -math.pi, t + 2.0 * math.pi, t))
    return np.where((-math.pi < theta) & (theta <= math.pi), theta, t)


def eval_partial_product_many(spec: CantorSpec, N: int, zs):
    """f_N at every point of zs, as float arrays (log_mag, arg).

    The same represented object as eval_partial_product, point by point:
    the root factor takes the +pi convention on the real axis, far gap
    factors the log1p_complex formula, and the factor logs are added in
    index order before the angle is wrapped.  Points within 9 lengths of
    a materialized gap (the scalar near-gap branch starts at 8, the
    margin keeps a last-bit difference in the distance from splitting the
    two), exact zeros and poles, and points whose vector result is not
    finite go through the scalar path one at a time, which raises PoleHit
    and returns (-inf, 0) at zeros.  Values agree with the scalar path to
    a few ulps of the factor logs: numpy's log, log1p and atan2 are not
    libm's.
    """
    _check_depth(spec, N)
    z = np.asarray(zs, dtype=complex)
    shape = z.shape
    z = z.ravel()
    x, y = z.real, z.imag
    with np.errstate(all="ignore"):
        rr, ri = _cquot(x - spec.b0, y, x - spec.a0, y)
        # the scalar sum starts from 0.0, which turns -0.0 into 0.0
        re = 0.0 + np.log(np.hypot(rr, ri))
        im = 0.0 + np.where((ri == 0.0) & (rr < 0.0), math.pi,
                            np.arctan2(ri, rr))
        by_scalar = (y == 0.0) & ((x == spec.a0) | (x == spec.b0))
        for g in spec.gaps[:N]:
            length = g.length
            if length == 0.0:
                continue        # unit factor
            by_scalar |= np.hypot(x - g.center, y) <= 9.0 * length
            ur, ui = _cquot(length, 0.0, x - g.b, y)
            re += 0.5 * np.log1p(2.0 * ur + ur * ur + ui * ui)
            im += np.arctan2(ui, 1.0 + ur)
    by_scalar |= ~(np.isfinite(re) & np.isfinite(im))
    arg = _wrap_angles(np.where(by_scalar, 0.0, im))
    for i in np.flatnonzero(by_scalar):
        v = eval_partial_product(spec, N, complex(z[i]))
        re[i], arg[i] = v.log_mag, v.arg
    return re.reshape(shape), arg.reshape(shape)


@dataclass(frozen=True)
class TailBound:
    """Certified bound on |f/f_N - 1| at a point or closed disk."""

    log_sum: float          # log of sum of per-factor moduli bounds
    terms: int

    @property
    def log_bound(self) -> float:
        s = self.log_sum
        if s == float("-inf"):
            return s
        if s < -1.0:
            # log(expm1(e^s)) = s + log1p(corrections), corrections <= e^s
            return s + math.log1p(math.exp(s))
        return math.log(math.expm1(math.exp(s))) if s < 5.0 else float("inf")

    @property
    def bound(self) -> float:
        lb = self.log_bound
        if lb == float("-inf"):
            return 0.0
        return math.exp(lb) if lb < 700.0 else float("inf")


def tail_bound(spec: CantorSpec, N: int, region) -> TailBound:
    """Certified sup of |f/f_N - 1| over a point or closed disk.

    Materialized gaps beyond N contribute their actual distance ratios.
    Off the root interval the unmaterialized tail is a geometric series
    under the halving criterion; inside it the would-be gaps are checked
    directly out to the underflow horizon.  Raises RegionViolatesEN when
    the controlling distance conditions fail, so the bound never
    silently turns vacuous.
    """
    _check_depth(spec, N)
    rule = spec.c_rule
    M = spec.max_index
    # a point is the disk of radius 0.0
    c, rad = region if isinstance(region, tuple) else (region, 0.0)
    c = complex(c)
    poles = [(g.index, g.b) for g in spec.gaps[N:M]]
    tail = None
    # an explicit rule is a finite construction: nothing beyond its prefix
    if rule.max_defined_index is None:
        log_p_next = rule.halving_tail(M + 1)
        if log_p_next is None:
            raise RegionViolatesEN("rule tail does not certify halving")
        droot = max(_seg_distance(c, spec.a0, spec.b0) - rad, 0.0)
        if droot > 0.0 and log_p_next <= math.log(droot):
            # off the root interval: |u_n| <= length_n / droot, halving sum
            tail = -rule.jcj(M + 1) - math.log(droot) + math.log(2.0)
        else:
            # inside or near the root: the placement rule fixes every
            # later gap, so the would-be poles out to the underflow
            # horizon join the check; past it each term stays below p_n
            walk = spec.horizon_poles
            if walk is None:
                raise RegionViolatesEN(
                    "rule keeps thresholds representable past the "
                    "index budget")
            poles = walk[N:]
            H = len(walk)           # walk holds j = 1 .. H
            tail = rule.halving_tail(H + 1) + math.log(1.0 / HALVING_DENOM)
    logs = []
    for j, b in poles:
        d = abs(c - b) - rad
        if d <= 0.0:
            raise RegionViolatesEN(f"region touches pole b_{j}")
        jcj = rule.jcj(j)
        log_u = -jcj - math.log(d)
        if log_u > -0.5 * jcj:
            raise RegionViolatesEN(f"distance condition fails at gap {j}")
        logs.append(log_u)
    if tail is not None:
        logs.append(tail)
    if not logs:
        return TailBound(float("-inf"), 0)
    lead = max(logs)
    s = sum(math.exp(l - lead) for l in logs)
    return TailBound(lead + math.log(s), len(logs))


def eval_f(spec: CantorSpec, z: complex, tol: float = 1e-12):
    """Limit product with certified truncation error below tol.

    Returns (value, err_bound, N_used).  Raises NoConvergence when the
    materialized construction cannot push the bound under tol.
    """
    if tol <= 0.0:
        raise PreconditionFailure("tol must be positive", field="tol")
    N = 1 if spec.max_index else 0
    while True:
        N = min(N, spec.max_index)
        try:
            tb = tail_bound(spec, N, z)
            if tb.bound <= tol:
                return eval_partial_product(spec, N, z), tb.bound, N
        except RegionViolatesEN:
            pass
        if N >= spec.max_index:
            raise NoConvergence(
                f"tail bound above tol={tol} at max materialization")
        N = min(2 * N if N else 1, spec.max_index)


def sqrt_branch(spec: CantorSpec, N: int, z: complex, tag: BranchTag) -> LogComplex:
    """One of the four square roots of f_N, by per-factor principal roots."""
    z = complex(z)
    if tag.is_h_family:
        if z.imag == 0.0:
            raise DomainViolation(
                "H-family branches need Im z != 0; use fine_boundary_value "
                "for boundary values on the set")
        d_plus = _factor_power(spec, N, z, 0.5)
        val = d_plus if z.imag > 0.0 else -d_plus
        return val if tag is BranchTag.H_PLUS else -val
    if z.imag == 0.0 and spec.a0 <= z.real <= spec.b0:
        inside_gap = any(
            g.length > 0.0 and g.a < z.real < g.b for g in spec.gaps[:N])
        if not inside_gap:
            raise DomainViolation(
                "D-family branches are undefined on the set between gaps")
    d_plus = _factor_power(spec, N, z, 0.5)
    return d_plus if tag is BranchTag.D_PLUS else -d_plus


@dataclass(frozen=True)
class LaurentC1:
    """First moment of 1 - f_N at infinity, two independent routes."""

    formula: float
    contour: float
    radius: float
    nodes: int

    @property
    def spread(self) -> float:
        return abs(self.formula - self.contour)


def laurent_c1(spec: CantorSpec, N: int | None = None, nodes: int = 4096,
               tol: float = 1e-8) -> LaurentC1:
    """z^-1 coefficient of f_N at infinity.

    The closed form is gap-length bookkeeping; the cross-check integrates
    f_N - 1 over the circle of radius 2(|a0|+|b0|)+2 with the trapezoid
    rule on `nodes` >= 1 nodes, evaluated in one eval_partial_product_many
    call and summed in node order.  The two must agree within tol or
    QuadratureFailure is raised.
    """
    n = spec.max_index if N is None else N
    if nodes < 1:
        raise PreconditionFailure(f"need at least one node, got {nodes}",
                                  field="nodes")
    formula = sum_gap_lengths(spec, n) - spec.root_length
    R = 2.0 * (abs(spec.a0) + abs(spec.b0)) + 2.0
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    zs = np.empty(nodes, dtype=complex)
    zs.real = R * np.cos(theta)
    zs.imag = R * np.sin(theta)
    log_mag, arg = eval_partial_product_many(spec, n, zs)
    with np.errstate(over="ignore"):
        mag = np.exp(log_mag)
    fr = mag * np.cos(arg) - 1.0
    fi = mag * np.sin(arg)
    # (f - 1) * z as CPython multiplies, added from 0.0 one node after
    # the other (np.sum would add pairwise)
    terms = np.zeros((2, nodes + 1))
    terms[0, 1:] = fr * zs.real - fi * zs.imag
    terms[1, 1:] = fr * zs.imag + fi * zs.real
    total = np.add.accumulate(terms, axis=1)[:, -1]
    acc = complex(total[0], total[1])
    acc /= nodes
    if abs(acc.imag) > tol or abs(acc.real - formula) > tol:
        raise QuadratureFailure(
            f"contour c1 {acc} vs closed form {formula} beyond tol {tol}")
    return LaurentC1(formula, acc.real, R, nodes)


def certify_en_point(spec: CantorSpec, x: float, N: int) -> bool:
    """Distance conditions |x - b_n| >= exp(-n c_n / 2) for all n >= N
    at machine resolution.

    The check runs over spec.horizon_poles: the materialized gaps, then
    the would-be gaps the placement rule determines, until the threshold
    e^{-n c_n / 2} underflows to exact zero; past that horizon the
    remaining conditions hold at double precision.  A rule whose
    thresholds stay representable beyond a fixed index budget cannot be
    certified this way.
    """
    last = _last_violation(spec, x)
    return last is not None and last < max(N, 1)


def fine_boundary_value(spec: CantorSpec, x: float, tag: BranchTag,
                        tol: float = 1e-10):
    """Boundary value of an H-family branch at a point of the set.

    Returns (value, err_bound, N_certified).  The point must sit on a
    remaining piece of the materialized construction and satisfy the
    distance conditions for some N; the value is then purely imaginary,
    i * sqrt(|f(x)|) for H_plus and its negative for H_minus.
    """
    if not tag.is_h_family:
        raise PreconditionFailure("fine boundary values exist for the "
                                  "H family only", field="tag")
    x = float(x)
    if not (spec.a0 <= x <= spec.b0):
        raise NotInEN("x lies off the root interval")
    d_set = min(_seg_distance(complex(x), lo, hi) for lo, hi in spec.remaining)
    scale = max(abs(spec.a0), abs(spec.b0), 1.0)
    if d_set > 64.0 * 2.220446049250313e-16 * scale:
        raise NotInEN("x not within certified distance of the set")
    # certify_en_point holds from N on exactly when N exceeds the last
    # violated index, so one walk gives the smallest certified depth
    last = _last_violation(spec, x)
    if last is None or last > spec.max_index:
        raise NotInEN("distance conditions fail at every materialized depth")
    n_cert = last + 1
    for g in spec.gaps:
        if g.length > 0.0 and x == g.b:
            raise PoleHit("x is a materialized pole")
    if x == spec.a0:
        raise PoleHit("x is the root pole a0")
    tb = tail_bound(spec, spec.max_index, x)
    if tb.bound > tol:
        raise NoConvergence(f"tail bound {tb.bound} above tol {tol}")
    fx = eval_partial_product(spec, spec.max_index, x)
    if fx.is_zero:
        return fx, tb.bound, n_cert
    if abs(wrap_angle(fx.arg - math.pi)) > 1e-9:
        raise NotInEN("product at x is not negative real; x resolves into "
                      "a gap, not the set")
    arg = 0.5 * math.pi if tag is BranchTag.H_PLUS else -0.5 * math.pi
    return LogComplex(0.5 * fx.log_mag, arg), tb.bound, n_cert


def tail_product_minus_one(spec: CantorSpec, n: int, z: complex,
                           upto: int | None = None) -> LogComplex:
    """prod_{j=n+1..upto} (1 + u_j) - 1 in log space.

    Exact to leading order even when every u_j is far below underflow;
    used for residuals of the truncation against deeper truncations.
    """
    M = spec.max_index if upto is None else upto
    if not 0 <= n < M <= spec.max_index:
        raise PreconditionFailure("need 0 <= n < upto <= materialization")
    z = complex(z)
    terms = []
    for g in spec.gaps[n:M]:
        w = z - g.b
        if w == 0:
            raise PoleHit(f"z hits pole b_{g.index}")
        lw = LogComplex.from_complex(w)
        u = LogComplex(g.log_length - lw.log_mag, wrap_angle(-lw.arg))
        terms.append(u)
    if not terms:
        return LogComplex.zero()
    # L = sum log(1+u_j); each log(1+u) = u * (1 - u/2 + ...) with the
    # correction representable whenever u is
    L_terms = []
    for u in terms:
        if u.log_mag > -300.0:
            corr = log1p_complex(u.to_complex())
            L_terms.append(LogComplex.from_complex(corr)
                           if corr != 0 else LogComplex.zero())
        else:
            L_terms.append(u)
    L = logsum(L_terms)
    if L.is_zero:
        return L
    # exp(L) - 1 = L * (1 + L/2 + L^2/6 + ...); L is tiny here
    if L.log_mag > -1.0:
        return LogComplex.from_complex(cmath.exp(L.to_complex()) - 1.0)
    corr = 1.0 + L.to_complex() / 2.0 if L.log_mag > -300.0 else 1.0
    return L * LogComplex.from_complex(corr)
