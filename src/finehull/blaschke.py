"""Conditioned Blaschke products on the unit disk.

Zeros accumulate on a prescribed arc with moduli tied to the distance
condition |a_j - 1/conj(a_j)| = e^{-j c_j}; arguments sweep the arc
dyadically so density comes with an explicit mesh bound.  Evaluation
switches between the two algebraic forms of each factor at the unit
circle to avoid cancellation.  The tail bound is the gap product's:
product._tail_walk checks the distance conditions over the materialized
and would-be zeros out to the horizon and sums their deviation bounds
q_j in log space, and BlaschkeSpec._tail_terms adds the q_l of the
extras and a geometric majorant past the horizon, certified from the
rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .cantor import (HALVING_DENOM, MAX_DEPTH, CRule, _check_depth,
                     _IndexWalk, _last_violation, _spec_obj, check_point,
                     condition_sum, json_number)
from .errors import (BranchAtCut, ChainNotClosed, NotInEN, PoleHit,
                     PreconditionFailure)
from .logspace import LogComplex, _sum_logs, wrap_angle
from .potential import (CompactUnion, FineSets, arc, exact_capacity,
                        _bound_from_invs, _certified_tail, _check_samples,
                        _pole_disks, _witness_sample, UnionBound)
from .product import _tail_walk

__all__ = [
    "van_der_corput",
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


def _radius(log_t: float) -> tuple[float, float]:
    """The r in (0,1] with (1 - r^2)/r = t, t = e^{log_t}, and log(1 - r).

    r = (-t + sqrt(t^2 + 4))/2 rounds to 1.0 once 1 - r = t/2 (1 + O(t))
    falls below resolution; log(1 - r) is taken stably from 1 - r =
    2t / (2 + t + sqrt(t^2 + 4)).
    """
    if log_t < -700.0:
        return 1.0, log_t - _LN2   # 1 - r = t/2 to first order
    t = math.exp(log_t)
    root = math.sqrt(t * t + 4.0)
    return (-t + root) / 2.0, math.log(2.0 * t / (2.0 + t + root))


@dataclass(frozen=True)
class BlaschkeZero:
    index: int
    theta: float
    r: float                   # modulus, 1.0 when 1-r underflows
    log_one_minus_r: float
    log_condition: float       # log |a - 1/conj(a)| = -j c_j

    @cached_property
    def a(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)

    @cached_property
    def pole(self) -> complex:
        return cmath.exp(1j * self.theta) / self.r

    @property
    def degenerate(self) -> bool:
        return self.r == 1.0


@dataclass(frozen=True)
class BlaschkeSpec(_IndexWalk):
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
    def b(self) -> list[complex]:
        """The poles b_j = 1/conj(a_j) of the arc zeros, b[j-1] = b_j."""
        return [z.pole for z in self.zeros]

    _refusal = NotInEN

    def _tail_terms(self, N: int, c: complex, rad: float):
        """The Blaschke product's tail at c (rad is 0.0): the walk poles
        with the disk term q_j, and the fixed terms, 3 p_{H+1} /
        HALVING_DENOM past the horizon H and the q_l of extras[N:].
        Under the distance conditions q_j <= 3 e^{-j c_j / 2}, and the
        halving certificate makes that geometric with ratio at most
        2^{-1/2}.  An explicit rule has no zero past its prefix.
        """
        rule = self.c_rule
        explicit = rule.max_defined_index is not None
        if not explicit and rule.halving_tail(self.max_index + 1) is None:
            raise PreconditionFailure(
                "rule does not certify a geometric tail", field="c_rule")
        poles = self.walk_poles
        if poles is None:
            raise NotInEN(f"distance conditions not certified past N={N}")
        fixed = [] if explicit else [rule.halving_tail(len(poles) + 1) +
                                     math.log(3.0 / HALVING_DENOM)]
        for zero in self.extras[N:]:
            d = abs(zero.pole - c)
            if d == 0.0:
                raise PoleHit(f"z hits pole 1/conj(a_{zero.index})")
            fixed.append(_log_q(*_q_logs(zero.log_condition, zero.r,
                                         zero.log_one_minus_r), math.log(d)))
        parts = self._walk_q_logs
        return poles, self.walk_jcj, fixed, \
            lambda i, log_d: _log_q(*parts[i], log_d)

    @cached_property
    def _walk_q_logs(self) -> list[tuple[float, float]]:
        """_q_logs of each zero along walk_poles, r and log(1 - r) formed
        as _arc_zero forms them: the disk term at walk index i is _log_q
        of entry i and log d."""
        return [_q_logs(-jcj, *_radius(-jcj)) for jcj in self.walk_jcj]

    def _would_be_poles(self, H: int) -> list[complex]:
        """The poles of the would-be arc zeros max_index+1 .. H."""
        return [_arc_zero(self.alpha, self.beta, self.c_rule, j).pole
                for j in range(self.max_index + 1, H + 1)]


def blaschke_spec_from_json(text: str) -> BlaschkeSpec:
    obj = _spec_obj(text, ("alpha", "beta", "c_rule", "N"))
    return build_blaschke_spec(
        json_number(obj["alpha"], float, "alpha"),
        json_number(obj["beta"], float, "beta"),
        CRule.from_json_obj(obj["c_rule"]), json_number(obj["N"], int, "N"),
        l=json_number(obj.get("l", 0), int, "l"),
        extras=json_number(obj.get("extras", 0), int, "extras"))


def build_blaschke_spec(alpha: float, beta: float, c_rule: CRule,
                        N: int, l: int = 0,
                        extras: int = 0) -> BlaschkeSpec:
    """Materialize N arc zeros (dyadic arguments) plus optional extras,
    with a zero of order l at 0; each count runs from 0 to MAX_DEPTH."""
    for name, count in (("N", N), ("extras", extras), ("l", l)):
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
    log_t = -c_rule.jcj(j)
    return BlaschkeZero(j, theta, *_radius(log_t), log_t)


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


def _factor_log(zero: BlaschkeZero, z: complex) -> complex:
    """log of one Blaschke factor as a complex number (argument not
    wrapped), stable on both sides of |z|=1; -inf at the zero itself.

    Degenerate zeros (modulus rounded to 1) contribute the unit factor:
    the Moebius factor collapses to the constant 1 there, matching the
    unit-factor convention for underflowed gaps.
    """
    if zero.degenerate:
        return 0j
    if abs(z) <= 1.0:
        den = 1.0 - zero.a.conjugate() * z
        scale, rot = 0.0, wrap_angle(-zero.theta)
    else:
        den = zero.pole - z
        scale, rot = -math.log(zero.r), 0.0
    if den == 0:
        raise PoleHit(f"z hits pole 1/conj(a_{zero.index})")
    num = LogComplex.from_complex(zero.a - z)
    den = LogComplex.from_complex(den)
    return complex((scale + num.log_mag) - den.log_mag,
                   rot + num.arg - den.arg)


def eval_blaschke(spec: BlaschkeSpec, N: int, z: complex) -> LogComplex:
    """Partial product over the first N zeros of each family."""
    z = check_point(z, "z")
    _check_depth(spec, N)
    z_l = LogComplex.from_complex(z).powi(spec.l) if spec.l else \
        LogComplex.one()
    return _sum_logs([_factor_log(zero, z) for zero in
                      spec.zeros[:N] + spec.extras[:N]], z_l.log_mag, z_l.arg)


def _q_logs(log_condition: float, r: float,
            log_one_minus_r: float) -> tuple[float, float]:
    """log(|a - 1/conj(a)|/|a|) and log((1 - |a|)/|a|) for a zero a of
    modulus r: the two parts of _log_q that do not depend on z."""
    log_r = math.log(r)
    return log_condition - log_r, log_one_minus_r - log_r


def _log_q(log_c: float, log_o: float, log_d: float) -> float:
    """log of the per-factor deviation bound

    q_j = (1/|a_j|) |a_j - 1/conj(a_j)| / |1/conj(a_j) - z|
        + (1 - |a_j|)/|a_j| = e^{log_c - log_d} + e^{log_o}

    for (log_c, log_o) = _q_logs of the zero a_j, d = |1/conj(a_j) - z|.
    """
    t1 = log_c - log_d
    hi, lo = (t1, log_o) if t1 > log_o else (log_o, t1)
    return hi + math.log1p(math.exp(lo - hi)) if lo - hi > -700.0 else hi


def blaschke_tail_bound(spec: BlaschkeSpec, N: int, z: complex) -> float:
    """Certified bound on |B/B_N - 1| under the disk distance conditions.

    product._tail_walk checks |1/conj(a_j) - z| >= e^{-j c_j / 2}, j > N,
    over spec.walk_poles, materialized and would-be zeros (NotInEN where
    one fails or the walk is uncertified), and adds their q_j, the q_l of
    extras[N:] and a halving majorant past the horizon.  A rule that does
    not certify halving is refused first (field c_rule).
    """
    return _tail_walk(spec, N, check_point(z, "z"), 0.0, math.inf).bound


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
    and J_N = S union F_N for the zero arc S, with the certified union
    bound on cap(F_N).

    As in cantor_fine_sets, disks below MESH_RESOLUTION stay in F_N and
    leja_points skips them: with no meshable disk left the sample refuses.
    FineSets.chain_closes tells whether the bound beats cap(S) at this N.
    """
    if not 1 <= N <= spec.max_index:
        raise PreconditionFailure("need 1 <= N <= materialization", field="N")
    S = arc(spec.alpha, spec.beta)
    disks, sum_disks = _pole_disks(spec.jcj, spec.b, N, condition_sum(
        spec.c_rule, J=spec.max_index).tail_bound)
    # before the unions: a rule whose every j c_j overflows is refused
    # naming c_rule, not its empty F_N naming shapes
    bound = _fn_disk_bound(spec, N)
    FN = CompactUnion(tuple(disks))
    JN = CompactUnion((S,) + FN.shapes)
    return FineSets(N, FN, JN, bound, 0.0, sum_disks, exact_capacity(S))


def smallest_closing_N(spec: BlaschkeSpec, limit: int | None = None) -> int:
    """Smallest N <= limit whose certified chain closes."""
    limit = spec.max_index if limit is None else min(limit, spec.max_index)
    for N in range(1, limit + 1):
        try:
            if disk_fine_sets(spec, N).chain_closes:
                return N
        except PreconditionFailure:
            continue
    raise ChainNotClosed(f"no N <= {limit} certifies the capacity chain")


def certify_arc_point(spec: BlaschkeSpec, theta: float, N: int) -> bool:
    """Distance conditions |e^{i theta} - 1/conj(a_j)| >= e^{-j c_j / 2}
    for all j >= N at machine resolution.

    The check runs over spec.walk_poles, the materialized and would-be
    zeros out to the horizon where e^{-j c_j / 2} underflows; past it the
    conditions hold at double precision.  A rule whose horizon lies past
    the index budget cannot be certified this way.
    """
    check_point(theta, "theta")
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
