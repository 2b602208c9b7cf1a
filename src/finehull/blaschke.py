"""Conditioned Blaschke products on the unit disk.

Zeros accumulate on a prescribed arc with moduli tied to the distance
condition |a_j - 1/conj(a_j)| = e^{-j c_j}; arguments sweep the arc
dyadically so density comes with an explicit mesh bound.  Evaluation
switches between the two algebraic forms of each factor at the unit
circle to avoid cancellation, and tail bounds share the gap-product
machinery: the horizon walk of the distance conditions, then a geometric
majorant certified from the rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .cantor import (HALVING_DENOM, MAX_DEPTH, CRule, _check_depth,
                     _last_violation, _spec_obj, condition_sum)
from .errors import (BranchAtCut, ChainNotClosed, DegenerateSet, NotInEN,
                     PoleHit, PreconditionFailure)
from .logspace import LogComplex, wrap_angle
from .potential import (CompactUnion, FineSets, arc, exact_capacity,
                        _bound_from_invs, _certified_tail, _check_samples,
                        _pole_disks, _witness_sample, UnionBound)

__all__ = [
    "van_der_corput",
    "radius_from_condition",
    "log_one_minus_radius",
    "BlaschkeZero",
    "BlaschkeSpec",
    "build_blaschke_spec",
    "blaschke_spec_from_json",
    "extra_zeros",
    "eval_blaschke",
    "blaschke_tail_bound",
    "disk_fine_sets",
    "smallest_closing_N",
    "certify_arc_point",
    "ArcSample",
    "blaschke_sample_E",
    "fb_sheet",
    "fb_sheets",
    "fb_sheet_spacing",
]

_LN2 = math.log(2.0)


def van_der_corput(j: int) -> float:
    """Bit-reversal fraction in (0,1): 1 -> 1/2, 2 -> 1/4, 3 -> 3/4, ...

    Sweeps midpoint, quarters, eighths; after 2^k - 1 terms every dyadic
    cell of width 2^-k holds a point.
    """
    if j < 1:
        raise PreconditionFailure("index must be >= 1", field="j")
    num = 0
    den = 1
    while j:
        num = 2 * num + (j & 1)
        den *= 2
        j >>= 1
    return num / den


def radius_from_condition(j: int, c_rule: CRule) -> float:
    """The r in (0,1] with (1 - r^2)/r = e^{-j c_j}.

    r = (-t + sqrt(t^2 + 4))/2 for t = e^{-j c_j}; rounds to 1.0 once
    1 - r = t/2 (1 + O(t)) falls below resolution.
    """
    log_t = -c_rule.jcj(j)
    if log_t < -700.0:
        return 1.0
    t = math.exp(log_t)
    return (-t + math.sqrt(t * t + 4.0)) / 2.0


def log_one_minus_radius(j: int, c_rule: CRule) -> float:
    """log(1 - r) evaluated stably: 1 - r = 2t / (2 + t + sqrt(t^2+4))."""
    log_t = -c_rule.jcj(j)
    if log_t < -700.0:
        return log_t - _LN2   # 1 - r = t/2 to first order
    t = math.exp(log_t)
    return math.log(2.0 * t / (2.0 + t + math.sqrt(t * t + 4.0)))


@dataclass(frozen=True)
class BlaschkeZero:
    index: int
    theta: float
    r: float                   # modulus, 1.0 when 1-r underflows
    log_one_minus_r: float
    log_condition: float       # log |a - 1/conj(a)| = -j c_j

    @property
    def a(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)

    @property
    def pole(self) -> complex:
        return cmath.exp(1j * self.theta) / self.r

    @property
    def degenerate(self) -> bool:
        return self.r == 1.0


@dataclass(frozen=True)
class BlaschkeSpec:
    """Zero data for the product: arc family plus optional extras.

    The arc family sits at dyadic arguments in [alpha, beta] with moduli
    from the distance condition; extras satisfy only the summability
    condition and play no role in the fine-extension machinery.
    """

    l: int
    alpha: float
    beta: float
    c_rule: CRule
    zeros: tuple[BlaschkeZero, ...]
    extras: tuple[BlaschkeZero, ...] = ()

    def __post_init__(self):
        if self.l < 0:
            raise PreconditionFailure("order at 0 must be >= 0", field="l")
        if not 0.0 < self.beta - self.alpha < 2.0 * math.pi:
            raise PreconditionFailure("need 0 < beta - alpha < 2 pi",
                                      field="beta")

    @property
    def max_index(self) -> int:
        return len(self.zeros)

    @cached_property
    def horizon_poles(self) -> tuple[tuple[int, complex], ...] | None:
        """(j, 1/conj(a_j)) for j = 1 .. c_rule.horizon(max_index): the
        materialized arc zeros, then the would-be zeros of the placement
        rule in closed form e^{i theta_j} / r_j.  None when the horizon
        lies past the index budget.  Built once per spec object."""
        H = self.c_rule.horizon(self.max_index)
        if H is None:
            return None
        more = tuple(_arc_zero(self.alpha, self.beta, self.c_rule, j)
                     for j in range(self.max_index + 1, H + 1))
        return tuple((z.index, z.pole) for z in self.zeros + more)


def blaschke_spec_from_json(text: str) -> BlaschkeSpec:
    obj = _spec_obj(text, ("alpha", "beta", "c_rule", "N"))
    return build_blaschke_spec(
        float(obj["alpha"]), float(obj["beta"]),
        CRule.from_json_obj(obj["c_rule"]), int(obj["N"]),
        l=int(obj.get("l", 0)), extras=int(obj.get("extras", 0)))


def build_blaschke_spec(alpha: float, beta: float, c_rule: CRule,
                        N: int, l: int = 0,
                        extras: int = 0) -> BlaschkeSpec:
    """Materialize N arc zeros (dyadic arguments) plus optional extras;
    each count runs from 0 to MAX_DEPTH."""
    for name, count in (("N", N), ("extras", extras)):
        if not 0 <= count <= MAX_DEPTH:
            raise PreconditionFailure(
                f"{name} must be in 0..{MAX_DEPTH}, got {count}", field=name)
    zeros = tuple(_arc_zero(alpha, beta, c_rule, j) for j in range(1, N + 1))
    return BlaschkeSpec(l, alpha, beta, c_rule, zeros,
                        extra_zeros(alpha, beta, extras))


def _arc_zero(alpha: float, beta: float, c_rule: CRule,
              j: int) -> BlaschkeZero:
    """Arc zero j of the placement rule: dyadic argument, modulus from
    the distance condition."""
    theta = alpha + (beta - alpha) * van_der_corput(j)
    return BlaschkeZero(j, theta, radius_from_condition(j, c_rule),
                        log_one_minus_radius(j, c_rule), -c_rule.jcj(j))


def extra_zeros(alpha: float, beta: float, count: int) -> tuple[
        BlaschkeZero, ...]:
    """Zeros with arguments outside [alpha, beta] and radii 1 - 2^-l.

    They satisfy the summability condition sum(1 - |b_l|) < 1 and nothing
    else; defaults to the empty family.
    """
    out = []
    span = 2.0 * math.pi - (beta - alpha)
    for l in range(1, count + 1):
        theta = beta + span * van_der_corput(l)
        r = 1.0 - 0.5 ** l
        log_cond = (l * -_LN2 + math.log1p(r) - math.log(r)) if r < 1.0 \
            else l * -_LN2
        out.append(BlaschkeZero(l, wrap_angle(theta), r,
                                l * -_LN2, log_cond))
    return tuple(out)


def _factor_log(zero: BlaschkeZero, z: complex) -> LogComplex:
    """One Blaschke factor as LogComplex, stable on both sides of |z|=1.

    Degenerate zeros (modulus rounded to 1) contribute the unit factor:
    the Moebius factor collapses to the constant 1 there, matching the
    unit-factor convention for underflowed gaps.
    """
    if zero.degenerate:
        return LogComplex.one()
    a = zero.a
    if abs(z) <= 1.0:
        den = 1.0 - a.conjugate() * z
        if den == 0:
            raise PoleHit(f"z hits pole 1/conj(a_{zero.index})")
        num = LogComplex.from_complex(a - z)
        rot = LogComplex.from_polar(0.0, wrap_angle(-zero.theta))
        return rot * num / LogComplex.from_complex(den)
    den = zero.pole - z
    if den == 0:
        raise PoleHit(f"z hits pole 1/conj(a_{zero.index})")
    num = LogComplex.from_complex(a - z)
    scale = LogComplex.from_polar(-math.log(zero.r), 0.0)
    return scale * num / LogComplex.from_complex(den)


def eval_blaschke(spec: BlaschkeSpec, N: int, z: complex) -> LogComplex:
    """Partial product over the first N zeros of each family."""
    z = complex(z)
    _check_depth(spec, N)
    out = LogComplex.from_complex(z).powi(spec.l) if spec.l else \
        LogComplex.one()
    for zero in spec.zeros[:N] + spec.extras[:N]:
        out = out * _factor_log(zero, z)
    return out


def _log_q(zero: BlaschkeZero, z: complex) -> float:
    """log of the per-factor deviation bound q_j.

    q_j = (1/|a_j|) |a_j - 1/conj(a_j)| / |1/conj(a_j) - z|
        + (1 - |a_j|)/|a_j|.
    """
    d = abs(zero.pole - z)
    if d == 0.0:
        raise PoleHit(f"z hits pole 1/conj(a_{zero.index})")
    log_r = math.log(zero.r)
    t1 = zero.log_condition - log_r - math.log(d)
    t2 = zero.log_one_minus_r - log_r
    hi, lo = max(t1, t2), min(t1, t2)
    if hi == float("-inf"):
        return hi
    return hi + math.log1p(math.exp(lo - hi)) if lo - hi > -700.0 else hi


def blaschke_tail_bound(spec: BlaschkeSpec, N: int, z: complex) -> float:
    """Certified bound on |B/B_N - 1| under the disk distance conditions.

    The conditions |1/conj(a_j) - z| >= e^{-j c_j / 2}, j > N, are checked
    over spec.horizon_poles, materialized and would-be zeros (NotInEN
    where one fails or the walk is uncertified); materialized factors
    beyond N add their q_j, the rest a halving majorant.
    """
    z = complex(z)
    _check_depth(spec, N)
    last = _last_violation(spec, z)
    if last is None or last > N:
        raise NotInEN(f"distance conditions not certified past N={N}")
    s = 0.0
    for zero in spec.zeros[N:] + spec.extras[N:]:
        lq = _log_q(zero, z)
        s += math.exp(lq) if lq > -745.0 else 0.0
    if spec.c_rule.max_defined_index is None:
        # under the distance conditions q_j <= 3 e^{-j c_j / 2} for every
        # index, and the halving certificate makes that geometric with
        # ratio at most 2^{-1/2}
        log_p_next = spec.c_rule.halving_tail(spec.max_index + 1)
        if log_p_next is None:
            raise PreconditionFailure(
                "rule does not certify a geometric tail", field="c_rule")
        if log_p_next > -700.0:
            s += 3.0 * math.exp(log_p_next) / HALVING_DENOM
    return math.expm1(s)


def _fn_disk_bound(spec: BlaschkeSpec, N: int) -> UnionBound:
    """Analytic union bound over all protection disks from index N on."""
    rule = spec.c_rule
    H, tail = _certified_tail(rule, spec.max_index)
    extra_inv = 2.0 * tail
    invs = [0.5 * rule.jcj(j) for j in range(N, H + 1)]
    # every disk sits within 1/r_N + radius of the origin
    log_t = -rule.jcj(N)
    pad = (math.exp(log_t) if log_t > -700.0 else 0.0) + \
        (math.exp(-0.5 * rule.jcj(N)) if rule.jcj(N) < 1400.0 else 0.0)
    diam = 2.0 * (1.0 + pad)
    return _bound_from_invs(invs, diam, extra_inv=extra_inv)


def disk_fine_sets(spec: BlaschkeSpec, N: int) -> FineSets:
    """Materialize F_N = pole disks of log-radius -j c_j / 2 for j >= N
    and J_N = S union F_N for the zero arc S; certify cap(F_N) < cap(S).

    Raises ChainNotClosed when the certified union bound does not beat
    the arc capacity at this N.
    """
    if not 1 <= N <= spec.max_index:
        raise PreconditionFailure("need 1 <= N <= materialization", field="N")
    S = arc(spec.alpha, spec.beta)
    disks, sum_disks = _pole_disks(
        spec.c_rule, ((z.index, z.pole) for z in spec.zeros), N,
        condition_sum(spec.c_rule, J=spec.max_index).tail_bound)
    bound = _fn_disk_bound(spec, N)
    cap_S = exact_capacity(S)
    if not bound.bound < cap_S:
        raise ChainNotClosed(
            f"union bound {bound.bound:.3g} does not beat cap(S) "
            f"{cap_S:.3g} at N={N}")
    if not disks:
        raise DegenerateSet(
            "no protection disk is meshable at this depth; "
            "use a smaller N for discrete witnesses")
    FN = CompactUnion(tuple(disks))
    JN = CompactUnion((S,) + FN.shapes)
    return FineSets(N, FN, JN, bound, 0.0, sum_disks, cap_S)


def smallest_closing_N(spec: BlaschkeSpec, limit: int | None = None) -> int:
    """Smallest N <= limit whose certified chain closes."""
    limit = spec.max_index if limit is None else min(limit, spec.max_index)
    for N in range(1, limit + 1):
        try:
            if _fn_disk_bound(spec, N).bound < exact_capacity(
                    arc(spec.alpha, spec.beta)):
                return N
        except PreconditionFailure:
            continue
    raise ChainNotClosed(f"no N <= {limit} certifies the capacity chain")


def certify_arc_point(spec: BlaschkeSpec, theta: float, N: int) -> bool:
    """Distance conditions |e^{i theta} - 1/conj(a_j)| >= e^{-j c_j / 2}
    for all j >= N at machine resolution.

    The check runs over spec.horizon_poles: the materialized zeros, then
    the would-be poles the placement rule determines, until the threshold
    e^{-j c_j / 2} underflows to exact zero; past that horizon every
    remaining condition holds at double precision.  Rules whose
    thresholds never underflow within a fixed index budget cannot be
    certified this way.
    """
    last = _last_violation(spec, cmath.exp(1j * theta))
    return last is not None and last < max(N, 1)


@dataclass(frozen=True)
class ArcSample:
    theta: float
    u: float
    in_EN: bool


def blaschke_sample_E(spec: BlaschkeSpec, N: int, samples: int = 16,
                      leja_n: int = 64) -> list[ArcSample]:
    """Fine-membership witnesses at arc points off the zero raster.

    Zero arguments are dyadic fractions of the arc, so candidates take a
    third-offset: fraction vdc(i)/2 + 1/3 never coincides with a dyadic
    and keeps a computable gap from every pole, materialized or not.
    Mirrors the interval pipeline: u = g_F - g_J must be positive and
    the distance conditions must certify.  Scores samples candidates,
    1 <= samples <= potential.MAX_SAMPLES.
    """
    _check_samples(samples)
    fs = disk_fine_sets(spec, N)
    thetas = [spec.alpha + (spec.beta - spec.alpha) *
              (0.5 * van_der_corput(i) + 1.0 / 3.0)
              for i in range(1, samples + 1)]
    return _witness_sample(fs, leja_n,
                           [(t, cmath.exp(1j * t)) for t in thetas],
                           lambda t: certify_arc_point(spec, t, N), ArcSample)


def fb_sheets(spec: BlaschkeSpec, ks, z: complex,
              N: int | None = None) -> list[LogComplex]:
    """Sheets k in ks of the continued product, (Log(z+2) + 2 pi i k) B_N(z),
    with B_N(z) evaluated once for all of them.

    The principal log lives on |z| < 2 cut along z + 2 in (-inf, 0].
    """
    z = complex(z)
    w = z + 2.0
    if w.imag == 0.0 and w.real <= 0.0:
        raise BranchAtCut("z + 2 lies on the branch cut (-inf, 0]")
    N = spec.max_index if N is None else N
    B = eval_blaschke(spec, N, z)
    log_w = cmath.log(w)
    return [LogComplex.from_complex(log_w + 2.0j * math.pi * k) * B
            for k in ks]


def fb_sheet(spec: BlaschkeSpec, k: int, z: complex,
             N: int | None = None) -> LogComplex:
    """k-th sheet of the continued product: (Log(z+2) + 2 pi i k) B_N(z)."""
    return fb_sheets(spec, (k,), z, N)[0]


def fb_sheet_spacing(spec: BlaschkeSpec, z: complex,
                     N: int | None = None) -> LogComplex:
    """Exact sheet-to-sheet difference 2 pi i B_N(z).

    Consecutive sheets differ by this value identically: the sheet family
    is linear in k with this factored spacing.
    """
    z = complex(z)
    N = spec.max_index if N is None else N
    return LogComplex.from_complex(2.0j * math.pi) * \
        eval_blaschke(spec, N, z)
