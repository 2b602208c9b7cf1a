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
import itertools
import math
from dataclasses import dataclass

from .cantor import (HALVING_DENOM, UNDERFLOW_LOG, CantorSpec, _check_depth,
                     _last_violation, _seg_distance, check_point,
                     sum_gap_lengths)
from .errors import (DomainViolation, NoConvergence, NotInEN, PoleHit,
                     PreconditionFailure, QuadratureFailure, RegionViolatesEN)
from .logspace import (LogComplex, _gamma, _sum_logs, log1p_complex,
                       logsum, wrap_angle)

__all__ = [
    "BranchTag",
    "TailBound",
    "eval_partial_product",
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
    that underflows to 0, whose modulus overflows, or that complex
    division cannot form (nan at huge num and den) gives
    log|num| - log|den| and the phase difference."""
    r = num / den
    try:
        mag = abs(r)
    except OverflowError:       # finite parts, modulus past the largest double
        mag = math.inf
    if r == 0 or not math.isfinite(mag):
        q = LogComplex.from_complex(num) / LogComplex.from_complex(den)
        return complex(q.log_mag, q.arg)
    if r.imag == 0.0 and r.real < 0.0:
        return complex(math.log(abs(r.real)), cut_arg)
    return complex(math.log(mag), math.atan2(r.imag, r.real))


def _gap_factor_log(j: int, center: float, length: float, a: float,
                    b: float, z: complex):
    """log of the factor of gap j (length > 0) at z, or None for an exact
    zero of the factor."""
    w = z - b
    if w == 0:
        raise PoleHit(f"z hits pole b_{j}")
    try:
        near = abs(z - center) <= 8.0 * length
    except OverflowError:   # farther from the gap than the largest double
        near = False
    if near:
        num = z - a
        if num == 0:
            return None
        # inside the gap on the real axis: argument convention -pi
        return _quotient_log(num, w, -math.pi)
    return log1p_complex(length / w)


def _factor_logs(spec: CantorSpec, N: int, z: complex) -> list:
    """Per-factor logs at a checked point z, root factor first; a None
    entry, always the last, marks an exact zero of that factor, so f_n(z)
    = 0 from its index on.  Gaps past n_pos, of length 0.0, are unit
    factors and get no entry."""
    _check_depth(spec, N)
    den = z - spec.a0
    if den == 0:
        raise PoleHit("z hits pole a0")
    num = z - spec.b0
    if num == 0:
        return [None]
    if not (cmath.isfinite(num) and cmath.isfinite(den)):   # half scale
        num, den = 0.5 * z - 0.5 * spec.b0, 0.5 * z - 0.5 * spec.a0
    # inside the root interval on the real axis: convention +pi
    logs = [_quotient_log(num, den, math.pi)]
    for fl in map(_gap_factor_log, range(1, min(N, spec.n_pos) + 1),
                  spec.centers, spec.lengths, spec.a, spec.b,
                  itertools.repeat(z)):
        logs.append(fl)
        if fl is None:
            break
    return logs


def _factor_power(spec: CantorSpec, N: int, z: complex,
                  p: float) -> LogComplex:
    """f_N(z)^p as the product of per-factor principal powers."""
    logs = _factor_logs(spec, N, z)
    if logs[-1] is None:
        return LogComplex.zero()
    return _sum_logs(logs, p=p)


def eval_partial_product(spec: CantorSpec, N: int, z: complex) -> LogComplex:
    """Truncation f_N(z) with N gap factors, as a log-polar value."""
    return _factor_power(spec, N, check_point(z, "z"), 1.0)


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

    The walk over poles past N stops at the first j with j c_j / 2 >
    UNDERFLOW_LOG - min(m, 0), m the largest log term so far (tail term
    included).  The stop is exact, there and at every later j (j c_j
    increases): an accepted term has log_u <= -j c_j / 2, so
    exp(log_u - lead) rounds to 0.0, and no pole at a positive distance
    fails a threshold e^{-j c_j / 2} below the least subnormal.  Only a
    touched pole, which needs |Im c| <= rad, can still refuse.  terms
    counts every pole past N.

    eval_f runs the same walk through _tail_walk with a give-up level,
    so a depth that cannot meet its tol stops at its first large term.
    """
    # a point is the disk of radius 0.0
    c, rad = region if isinstance(region, tuple) else (region, 0.0)
    return _tail_walk(spec, N, check_point(c, "region"), rad, math.inf)


def _tail_walk(spec: CantorSpec, N: int, c: complex, rad: float,
               give_up: float) -> TailBound | None:
    """tail_bound over the disk of center c (a checked point) and radius
    rad, or None as soon as the largest log term so far (the tail term,
    then every accepted pole term) exceeds give_up.

    The returned bound is at least exp(lead) with lead that largest term:
    the sum of exp(l - lead) holds exp(0.0) = 1, so its log is >= 0, and
    log1p and expm1 only raise the value.  A walk that gives up at
    give_up = log(tol) + margin would so have ended in a bound above tol.
    """
    _check_depth(spec, N)
    rule = spec.c_rule
    M = spec.max_index
    poles, jcjs = spec.b, spec.jcj
    tail = None
    # an explicit rule is a finite construction: nothing beyond its prefix
    if rule.max_defined_index is None:
        log_p_next = rule.halving_tail(M + 1)
        if log_p_next is None:
            raise RegionViolatesEN("rule tail does not certify halving",
                                   field="spec")
        droot = max(_seg_distance(c, spec.a0, spec.b0) - rad, 0.0)
        if droot > 0.0 and log_p_next <= math.log(droot):
            # off the root interval: |u_n| <= length_n / droot, halving sum
            tail = -rule.jcj(M + 1) - math.log(droot) + math.log(2.0)
        else:
            # inside or near the root: the placement rule fixes every
            # later gap, so the would-be poles out to the underflow
            # horizon join the check; past it each term stays below p_n
            poles = spec.walk_poles
            if poles is None:
                raise RegionViolatesEN(
                    "rule keeps thresholds representable past the "
                    "index budget", field="spec")
            jcjs = spec.walk_jcj
            tail = rule.halving_tail(len(poles) + 1) + \
                math.log(1.0 / HALVING_DENOM)
    logs = []
    m = -math.inf if tail is None else tail
    if m > give_up:
        return None
    cut = UNDERFLOW_LOG - min(m, 0.0)
    for i in range(N, len(poles)):
        jcj = jcjs[i]
        if 0.5 * jcj > cut:
            for k, b in enumerate(poles[i:], i) if abs(c.imag) <= rad else ():
                try:
                    d = abs(c - b) - rad
                except OverflowError:   # farther than the largest double
                    continue
                if d <= 0.0:
                    raise RegionViolatesEN(f"region touches pole b_{k + 1}")
            break
        try:
            d = abs(c - poles[i]) - rad
        except OverflowError:   # a far pole: its term is exactly 0.0
            d = math.inf
        if d <= 0.0:
            raise RegionViolatesEN(f"region touches pole b_{i + 1}")
        log_u = -jcj - math.log(d)
        if log_u > -0.5 * jcj:
            raise RegionViolatesEN(f"distance condition fails at gap {i + 1}")
        logs.append(log_u)
        if log_u > m:
            m = log_u
            if m > give_up:
                return None
            cut = UNDERFLOW_LOG - min(m, 0.0)
    if tail is not None:
        logs.append(tail)
    terms = len(poles) - N + (tail is not None)
    lead = max(logs, default=-math.inf)
    if lead == -math.inf:   # no term, or every term exactly 0.0
        return TailBound(lead, terms)
    s = sum(math.exp(l - lead) for l in logs)
    return TailBound(lead + math.log(s), terms)


def eval_f(spec: CantorSpec, z: complex, tol: float = 1e-12):
    """Limit product with certified truncation error below tol.

    Returns (value, err_bound, N_used).  Raises NoConvergence when the
    materialized construction cannot push the bound under tol.

    Depths N = 1, 2, 4, ... are tried in turn.  The tail walk of a depth
    gives up as soon as one of its log terms exceeds log(tol') + 1e-6,
    tol' the double after tol: the bound is at least the exponential of
    its largest term, so it would then exceed tol' (the margin covers a
    few ulps of rounding in the log, exp and sum; tol' rather than tol
    because a subnormal bound rounds on a grid of 5e-324).  The depth
    fails as it would after the full walk, and a refusal the shortened
    walk no longer reaches would have failed it too.  Only the accepted
    depth walks out to the underflow stop.
    """
    if tol <= 0.0:
        raise PreconditionFailure("tol must be positive", field="tol")
    give_up = math.log(math.nextafter(tol, math.inf)) + 1e-6
    z = check_point(z, "z")
    N = 1 if spec.max_index else 0
    while True:
        N = min(N, spec.max_index)
        try:
            tb = _tail_walk(spec, N, z, 0.0, give_up)
            if tb is not None and tb.bound <= tol:
                return _factor_power(spec, N, z, 1.0), tb.bound, N
        except RegionViolatesEN:
            pass
        if N >= spec.max_index:
            raise NoConvergence(
                f"tail bound above tol={tol} at max materialization",
                field="tol")
        N = min(2 * N if N else 1, spec.max_index)


def sqrt_branch(spec: CantorSpec, N: int, z: complex, tag: BranchTag) -> LogComplex:
    """One of the four square roots of f_N, by per-factor principal roots."""
    z = check_point(z, "z")
    if tag.is_h_family:
        if z.imag == 0.0:
            raise DomainViolation(
                "H-family branches need Im z != 0; use fine_boundary_value "
                "for boundary values on the set")
        d_plus = _factor_power(spec, N, z, 0.5)
        val = d_plus if z.imag > 0.0 else -d_plus
        return val if tag is BranchTag.H_PLUS else -val
    if z.imag == 0.0 and spec.a0 <= z.real <= spec.b0:
        inside_gap = any(a < z.real < b
                         for a, b in zip(spec.a[:N], spec.b[:N]))
        if not inside_gap:
            raise DomainViolation(
                "D-family branches are undefined on the set between gaps")
    d_plus = _factor_power(spec, N, z, 0.5)
    return d_plus if tag is BranchTag.D_PLUS else -d_plus


@dataclass(frozen=True)
class LaurentC1:
    """First moment of 1 - f_N at infinity by two routes: the closed form,
    and a trapezoid contour on `nodes` nodes of |z| = radius within err."""

    formula: float
    contour: float
    err: float
    radius: float
    nodes: int

    @property
    def spread(self) -> float:
        return abs(self.formula - self.contour)


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def laurent_c1(spec: CantorSpec, N: int | None = None,
               tol: float = 1e-8) -> LaurentC1:
    """z^-1 coefficient of f_N at infinity by two routes: gap-length
    bookkeeping, and a trapezoid contour within err of it on |z| = R =
    2(|a0| + |b0|) + 2 (eval_partial_product at the n nodes R e^{i t_k},
    the terms (f_k - 1) e^{i t_k} added in node order, scaled by R/n).

    err sums three bounds.  Aliasing: f_N = prod (1 + u_k), |u_k| <=
    l_k/(|z| - rho) with rho = max(|a0|, |b0|), l_0 the root length and
    l_k the gap lengths, so r |f_N - 1| <= M(r) = r (prod (1 + l_k/(r -
    rho)) - 1) on |z| = r, and by Cauchy's estimate the aliased
    coefficients add up to at most M(r) q/(1 - q), q = (r/R)^n, for any
    rho < r < R; r = rho + (R - rho)/(n + 1) is taken.  The node sum:
    gamma_{n+1} sum|term| R/n (Higham 2002, ch. 4).  The node values:
    gamma_{8(m+2)} (1 + L) (R + M(R)), for m factor logs each within a
    few roundoffs of 1 + its modulus, L = -sum log(1 - l_k/(R - rho))
    bounding the sum of the moduli.

    n is the least power of two up to 4096 whose err, with M(R) for
    sum|term| R/n, is at most tol/2.  QuadratureFailure is raised where
    there is none, where R is not finite or rounds onto rho + root length,
    and where the contour is not finite or misses the formula by > tol.
    """
    n_gaps = spec.max_index if N is None else N
    formula = sum_gap_lengths(spec, n_gaps) - spec.root_length
    ells = [spec.root_length, *spec.lengths[:min(n_gaps, spec.n_pos)]]
    rho = max(abs(spec.a0), abs(spec.b0))
    R = 2.0 * (abs(spec.a0) + abs(spec.b0)) + 2.0
    if not (math.isfinite(R) and R - rho > spec.root_length):
        raise QuadratureFailure("R does not clear the root", field="spec")

    def log_m(r):
        s = math.fsum(math.log1p(l / (r - rho)) for l in ells)
        return math.log(r) + s + math.log(-math.expm1(-s)) if s \
            else -math.inf

    m_R = _exp_or_inf(log_m(R))
    L = -math.fsum(math.log1p(-l / (R - rho)) for l in ells)
    ev = _gamma(8 * (len(ells) + 2)) * (1.0 + L) * (R + m_R)
    for n in (1 << k for k in range(13)):
        r = rho + (R - rho) / (n + 1)
        lq = n * math.log(r / R)
        alias = _exp_or_inf(log_m(r) + lq - math.log1p(-math.exp(lq)))
        if alias + _gamma(n + 1) * m_R + ev <= 0.5 * tol:
            break
    else:
        raise QuadratureFailure(f"no rule of up to {n} nodes certifies "
                                f"tol/2 = {0.5 * tol}", field="tol")
    acc, size = 0j, 0.0
    for k in range(n):
        t = 2.0 * math.pi * k / n
        term = eval_partial_product(spec, n_gaps,
                                    cmath.rect(R, t)).to_complex() - 1.0
        acc += term * cmath.rect(1.0, t)
        size += abs(term)
    contour = acc * (R / n)
    err = alias + _gamma(n + 1) * size * (R / n) + ev
    if not cmath.isfinite(contour) or abs(contour - formula) > tol:
        raise QuadratureFailure(
            f"contour c1 {contour} vs closed form {formula} beyond tol "
            f"{tol}", field="tol")
    return LaurentC1(formula, contour.real, err, R, n)


def certify_en_point(spec: CantorSpec, x: float, N: int) -> bool:
    """Distance conditions |x - b_n| >= exp(-n c_n / 2) for all n >= N
    at machine resolution.

    The check runs over spec.walk_poles, the materialized and would-be
    gaps out to the horizon where e^{-n c_n / 2} underflows; past it the
    conditions hold at double precision.  A rule whose horizon lies past
    the index budget cannot be certified this way.
    """
    last = _last_violation(spec, check_point(x, "x"))
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
    z = check_point(x, "x")
    if z.imag != 0.0:
        raise PreconditionFailure(f"x needs a real point, got {z!r}",
                                  field="x")
    x = z.real
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
    if x in spec.b[:spec.n_pos]:
        raise PoleHit("x is a materialized pole")
    if x == spec.a0:
        raise PoleHit("x is the root pole a0")
    tb = tail_bound(spec, spec.max_index, x)
    if tb.bound > tol:
        raise NoConvergence(f"tail bound {tb.bound} above tol {tol}",
                            field="tol")
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
    z = check_point(z, "z")
    terms = []
    for j, b, log_length in zip(range(n + 1, M + 1), spec.b[n:M],
                                spec.log_lengths[n:M]):
        lw = LogComplex.from_difference(z, b)
        if lw.is_zero:
            raise PoleHit(f"z hits pole b_{j}")
        u = LogComplex(log_length - lw.log_mag, wrap_angle(-lw.arg))
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
