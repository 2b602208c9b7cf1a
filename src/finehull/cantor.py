"""Linear Cantor-type sets with prescribed gap lengths.

A construction starts from a root interval [a0, b0] and deletes, one per
index j = 1, 2, ..., an open gap of length exp(-j*c(j)) where c is a
strictly increasing positive rule tending to infinity.  Gap j is centered
in the largest remaining closed interval (ties broken leftward), so the
whole construction is deterministic.

Lengths below double underflow stay in log form: a spec keeps gap centers
and exact log lengths as float tuples, other per-gap values as lists.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GapOverflow, PlacementFailure, PreconditionFailure
from .logspace import _gamma

__all__ = [
    "CRule",
    "GapInterval",
    "CantorSpec",
    "ConditionSum",
    "MAX_DEPTH",
    "ROOT_LIMIT",
    "ZERO_LOG",
    "build_cantor_spec",
    "condition_sum",
    "exp_cut",
    "cantor_length",
    "check_point",
    "json_number",
    "spec_to_json",
    "spec_from_json",
]

_LN2 = math.log(2.0)

# sum_{k >= 0} 2^{-k/2} = 1 / HALVING_DENOM bounds a tail whose terms at
# least halve in square: sum_{n >= j} p_n <= p_j / HALVING_DENOM
HALVING_DENOM = 1.0 - 0.5 ** 0.5

# most gaps (or Blaschke zeros, or extras) one spec may materialize:
# 2**17 gaps build in about 0.3 s, the depth-2000 specs in use in ~1.5 ms
MAX_DEPTH = 1 << 17

# condition_sum forms and adds this many terms at a time
CONDITION_BLOCK = 1 << 14

# e^{-x} rounds to exactly 0.0 past this (the least subnormal is e^{-744.4})
UNDERFLOW_LOG = 746.0

# a length, radius or bound whose log is at or below this is stored as
# exactly 0.0: the subnormal tail of exp is not kept
ZERO_LOG = -744.0

# root endpoints lie within +-ROOT_LIMIT, so the midpoint of any two points
# in the root (and of gap ends rounded just outside it) is a finite double
ROOT_LIMIT = sys.float_info.max / 4.0

# _place_gaps splits zero-length gaps in array passes from this many on;
# below it the heap loop, ~1.1 us a gap, is faster: a pass costs ~15 numpy
# calls, and the measured crossover lies at 60-220 zero-length gaps
# (affine slope 0.05: ~60, slope 5: ~140, factorial: ~200)
ZERO_BATCH = 256

# n! as a double for n = 0..170: the exact integer rounded once below 170,
# exp(lgamma) at 170; 171! overflows, so a factorial c(j) is inf from there
_FACTORIALS = tuple(float(math.factorial(n)) for n in range(170)) + \
    (math.exp(math.lgamma(171)),)


def exp_cut(x: float) -> float:
    """exp(x), or exactly 0.0 when x <= ZERO_LOG."""
    return math.exp(x) if x > ZERO_LOG else 0.0


@dataclass(frozen=True)
class CRule:
    """Closed-form family for the gap exponent sequence c(j).

    kind "affine":    c(j) = slope*j + offset, slope > 0, offset >= 0
    kind "factorial": c(j) = (j + shift)!  with integer shift >= 0
    kind "explicit":  finite increasing positive prefix, no tail theory
    """

    kind: str
    slope: float = 0.0
    offset: float = 0.0
    shift: int = 2
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "affine":
            if not (0.0 < self.slope < math.inf and
                    0.0 <= self.offset < math.inf):
                raise PreconditionFailure("affine rule needs finite slope > 0 "
                                          "and offset >= 0", field="c_rule")
        elif self.kind == "factorial":
            if type(self.shift) is not int or self.shift < 0:
                raise PreconditionFailure(
                    "factorial rule needs an integer shift >= 0",
                    field="c_rule")
        elif self.kind == "explicit":
            vals = tuple(float(v) for v in self.values)
            if not vals or not all(0.0 < v < math.inf for v in vals):
                raise PreconditionFailure(
                    "explicit rule needs finite positive entries",
                    field="c_rule")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise PreconditionFailure(
                    "explicit rule must be strictly increasing", field="c_rule")
            object.__setattr__(self, "values", vals)
        else:
            raise PreconditionFailure(f"unknown c rule kind {self.kind!r}",
                                      field="c_rule")

    def value(self, j: int) -> float:
        if j < 1:
            raise PreconditionFailure("gap indices start at 1")
        if self.kind == "affine":
            return self.slope * j + self.offset
        if self.kind == "factorial":
            n = j + self.shift
            # past the table 1/value underflows to exact zero
            return _FACTORIALS[n] if n < len(_FACTORIALS) else math.inf
        if j > len(self.values):
            raise PreconditionFailure(
                f"explicit rule has no entry for index {j}", field="c_rule")
        return self.values[j - 1]

    def jcj(self, j: int) -> float:
        """The product j*c(j); the gap length is exp(-jcj)."""
        return j * self.value(j)

    def c_values(self, first: int, last: int) -> np.ndarray:
        """c(j) for j = first..last in one array, each bit-equal to
        value(j); an explicit rule stops at its last defined index."""
        if self.kind == "affine":
            return np.arange(first, last + 1.0) * self.slope + self.offset
        if self.kind == "explicit":
            return np.array(self.values[first - 1:last], dtype=np.float64)
        c = np.full(last - first + 1, math.inf)
        table = _FACTORIALS[first + self.shift:last + self.shift + 1]
        c[:len(table)] = table
        return c

    def jcj_values(self, first: int, last: int) -> np.ndarray:
        """jcj(j) for j = first..last in one array, bit for bit; an explicit
        rule stops at its last defined index."""
        c = self.c_values(first, last)
        with np.errstate(over="ignore"):
            c *= np.arange(first, first + c.size, dtype=np.float64)
        return c

    def inv_jcj(self, first: int, last: int) -> np.ndarray:
        """1/(j*c(j)) for j = first..last, each bit-equal to 1.0/jcj(j).

        For every rule the terms are non-increasing, as c is increasing.
        """
        c = self.jcj_values(first, last)
        with np.errstate(over="ignore"):
            return np.divide(1.0, c, out=c)

    @property
    def max_defined_index(self) -> int | None:
        return len(self.values) if self.kind == "explicit" else None

    def halving_tail(self, j: int) -> float | None:
        """log p_j = -j c_j / 2 when exp(-n*c(n)) at least halves at every
        step, so the majorant p_j / HALVING_DENOM bounds sum_{n >= j} p_n;
        None when the rule does not certify halving."""
        if self.kind == "affine":
            # increment of n*c(n) is slope*(2n+1) + offset >= 3*slope + offset
            halves = 3.0 * self.slope + self.offset >= _LN2
        else:
            halves = self.kind == "factorial"
        return -0.5 * self.jcj(j) if halves else None

    def horizon(self, N: int) -> int | None:
        """Last index, at least N, whose distance threshold e^{-j c_j / 2}
        is still a positive double; past it every remaining distance
        condition holds at double precision.

        None when thresholds stay representable past a fixed index budget
        beyond N.  An explicit rule ends at its materialized prefix N.
        """
        if self.max_defined_index is not None:
            return N
        H = N
        while 0.5 * self.jcj(H + 1) <= UNDERFLOW_LOG:
            H += 1
            if H >= N + 8192:
                return None
        return H

    def to_json_obj(self) -> dict:
        if self.kind == "affine":
            return {"kind": "affine", "slope": _fmt(self.slope),
                    "offset": _fmt(self.offset)}
        if self.kind == "factorial":
            return {"kind": "factorial", "shift": self.shift}
        return {"kind": "explicit", "values": [_fmt(v) for v in self.values]}

    @staticmethod
    def from_json_obj(obj: dict) -> "CRule":
        if not isinstance(obj, dict):
            raise PreconditionFailure(
                f"c rule needs a JSON object, got {obj!r}", field="c_rule")
        values = obj.get("values", ())
        if not isinstance(values, (list, tuple)):
            raise PreconditionFailure(
                f"explicit rule values need a JSON list, got {values!r}",
                field="c_rule")
        return CRule(
            obj.get("kind"),
            slope=json_number(obj.get("slope", 0.0), float, "c_rule"),
            offset=json_number(obj.get("offset", 0.0), float, "c_rule"),
            shift=json_number(obj.get("shift", 2), int, "c_rule"),
            values=tuple(json_number(v, float, "c_rule") for v in values))


class _IndexWalk:
    """The would-be pole walk of either spec family.  A family supplies
    c_rule, max_index, its materialized poles b (b[j-1] = b_j) and
    _would_be_poles(H), the poles max_index+1 .. H of its placement rule."""

    @cached_property
    def horizon(self) -> int | None:
        return self.c_rule.horizon(self.max_index)

    @cached_property
    def jcj(self) -> list[float]:
        """j c_j for the materialized indices 1 .. max_index."""
        return self.c_rule.jcj_values(1, self.max_index).tolist()

    @cached_property
    def walk_poles(self) -> list | None:
        """The poles b_j for j = 1 .. horizon, b_j at position j - 1: the
        materialized ones, then the would-be ones.  None when the horizon
        lies past the index budget or the family refuses the extension."""
        H = self.horizon
        if H is None:
            return None
        more = self._would_be_poles(H) if H > self.max_index else []
        return None if more is None else self.b + more

    @cached_property
    def walk_jcj(self) -> list[float]:
        """jcj continued over walk_poles, where that is not None."""
        return self.jcj + self.c_rule.jcj_values(self.max_index + 1,
                                                 self.horizon).tolist()


# CantorSpec.gap's view of a gap; a and b are its center once length is 0.0
GapInterval = namedtuple("GapInterval", "index center log_length length a b")


@dataclass(frozen=True)
class CantorSpec(_IndexWalk):
    a0: float
    b0: float
    c_rule: CRule
    placement: str
    max_index: int
    centers: tuple[float, ...] = field(repr=False)
    log_lengths: tuple[float, ...] = field(repr=False)
    remaining: tuple[tuple[float, float], ...] = field(repr=False)

    @property
    def root_length(self) -> float:
        return self.b0 - self.a0

    def gap(self, j: int) -> GapInterval:
        if not 1 <= j <= self.max_index:
            raise PreconditionFailure(f"gap {j} not materialized")
        i = j - 1
        return GapInterval(j, self.centers[i], self.log_lengths[i],
                           self.lengths[i], self.a[i], self.b[i])

    def log_p(self, j: int) -> float:
        """log of the tail-control sequence p(j) = exp(-j*c(j)/2)."""
        return -0.5 * self.c_rule.jcj(j)

    @cached_property
    def n_pos(self) -> int:
        """Gaps 1..n_pos have positive length: lengths never increase."""
        return bisect.bisect_left(self.log_lengths, -ZERO_LOG,
                                  key=float.__neg__)

    @cached_property
    def lengths(self) -> list[float]:
        n = self.n_pos
        return [math.exp(l) for l in self.log_lengths[:n]] + \
            [0.0] * (self.max_index - n)

    @cached_property
    def half_widths(self) -> list[float]:
        n = self.n_pos
        return [math.exp(l - _LN2) for l in self.log_lengths[:n]] + \
            [0.0] * (self.max_index - n)

    @cached_property
    def a(self) -> list[float]:
        return [c - h for c, h in zip(self.centers, self.half_widths)]

    @cached_property
    def b(self) -> list[float]:
        """The poles b_j; a -0.0 center with half width 0.0 gives +0.0."""
        return [c + h for c, h in zip(self.centers, self.half_widths)]

    def _would_be_poles(self, H: int) -> list[float] | None:
        """b_j, formed as b forms it, of the gaps max_index+1 .. H that
        placement resumed from the remaining pieces adds; None when it
        refuses them (GapOverflow, PlacementFailure, non-increasing c)."""
        try:
            centers, logs, _ = _place_gaps(
                self.c_rule, self.root_length, self.remaining,
                sum_gap_lengths(self), self.max_index + 1, H)
        except PreconditionFailure:
            return None
        return [c + (math.exp(l - _LN2) if l > ZERO_LOG else 0.0)
                for c, l in zip(centers, logs)]

    def poles(self, upto: int | None = None) -> list[float]:
        """Pole locations of the truncated product: a0 and the right gap
        endpoints."""
        n = self.max_index if upto is None else upto
        return [self.a0] + self.b[:n]


def build_cantor_spec(a0: float, b0: float, c_rule: CRule,
                      placement: str = "bisect", N: int = 0) -> CantorSpec:
    """Materialize the first N gaps of the construction, 0 <= N <= MAX_DEPTH.

    Raises GapOverflow when the cumulative gap length would reach the root
    length, PlacementFailure when no remaining interval can host the next
    gap strictly inside itself.
    """
    if not b0 > a0:
        raise PreconditionFailure("need a0 < b0", field="a0")
    for name, x in (("a0", a0), ("b0", b0)):
        if not abs(x) <= ROOT_LIMIT:
            raise PreconditionFailure(
                f"{name} must lie within +-{ROOT_LIMIT:.6g}, so that every "
                f"gap center is finite", field=name)
    if placement != "bisect":
        raise PreconditionFailure(f"unknown placement {placement!r}",
                                  field="placement")
    if not 0 <= N <= MAX_DEPTH:
        raise PreconditionFailure(f"N must be in 0..{MAX_DEPTH}, got {N}",
                                  field="N")
    if c_rule.max_defined_index is not None and N > c_rule.max_defined_index:
        raise PreconditionFailure("explicit rule shorter than N", field="N")
    centers, logs, pieces = _place_gaps(c_rule, b0 - a0, [(a0, b0)], 0.0, 1,
                                        N)
    return CantorSpec(a0, b0, c_rule, placement, N, tuple(centers),
                      tuple(logs), tuple(pieces))


def _place_gaps(c_rule: CRule, root_length: float, pieces, used: float,
               first: int, last: int):
    """Bisect placement of gaps first..last into the remaining pieces.

    Gap j is centered in the largest piece, ties broken leftward: a heap
    keyed (lo - hi, lo, hi) pops exactly that piece.  `used` is the removed
    length of gaps 1..first-1, summed in index order, so a resumed
    placement reproduces a full build bit for bit.  Returns the centers
    and log lengths -j c_j of the new gaps and the remaining pieces sorted
    by (lo, hi), as lists.

    j c_j never decreases with j, so the gaps of length exp(-j c_j) > 0
    come first; the heap loop places them one step each.  The rest have length
    0.0 (j c_j >= -ZERO_LOG); from ZERO_BATCH of them on they are split by
    _split_zero_length in array passes, which give the heap's result bit
    for bit:

    - a zero-length gap in [lo, hi] sits at center = 0.5*(lo+hi) and
      leaves the children [lo, center-0.0] and [center+0.0, hi].  With
      the root inside +-ROOT_LIMIT the center lies in the piece, so a
      child's key is never smaller than its parent's, and the heap pops
      every piece it will ever hold in sorted key order;
    - so one pass may pop, in key order, every frontier piece longer than
      the longest child a frontier piece would leave, and always pops the
      frontier minimum; it then puts the children in their place;
    - `used` no longer changes, so GapOverflow is checked once, at the
      split; the first popped piece with hi - lo <= 0 raises
      PlacementFailure at its gap index, as the loop does;
    - a center that rounds onto an endpoint leaves a child equal to its
      parent: it stays the minimum and takes every remaining gap at that
      center, which one step places (on the root [1, 1+2^-46] a deep build
      ends on one-ulp pieces of this kind).

    One difference remains: the heap leaves value-equal pieces in its own
    array order, so pieces that differ only in the sign of a zero endpoint
    (seen on roots [-0.0, b0] a few subnormals wide) may come out in
    another order; the gaps are the same.
    """
    c = c_rule.c_values(first, last)
    prev = c_rule.value(first - 1) if first > 1 else 0.0
    if c.size and (c[0] <= prev or np.any(c[1:] <= c[:-1])):
        raise PreconditionFailure("c rule must increase strictly",
                                  field="c_rule")
    with np.errstate(over="ignore"):
        c *= np.arange(first, last + 1, dtype=np.float64)
    jcjs = c.tolist()
    # j c_j never decreases: the gaps of positive length (exp(-j c_j) with
    # -j c_j > ZERO_LOG) are the first n_exp
    n_exp = bisect.bisect_left(jcjs, -ZERO_LOG)
    n_loop = n_exp if len(jcjs) - n_exp >= ZERO_BATCH else len(jcjs)
    zeros = [0.0] * (n_loop - n_exp)
    lengths = [math.exp(-x) for x in jcjs[:n_exp]] + zeros
    halves = [math.exp(-x - _LN2) for x in jcjs[:n_exp]] + zeros
    logs = np.negative(c).tolist()
    heap = [(lo - hi, lo, hi) for lo, hi in pieces]
    heapq.heapify(heap)
    centers: list[float] = []
    for j, length, half in zip(range(first, first + n_loop), lengths, halves):
        if used + length >= root_length:
            raise GapOverflow(
                f"gap {j} would push removed length past the root interval",
                field="c_rule")
        _, lo, hi = heap[0]
        if length >= hi - lo:
            raise PlacementFailure(
                f"gap {j} of length {length:.3e} does not fit in the largest "
                f"remaining interval ({hi - lo:.3e})", field="c_rule")
        center = 0.5 * (lo + hi)
        centers.append(center)
        heapq.heapreplace(heap, (lo - (center - half), lo, center - half))
        heapq.heappush(heap, ((center + half) - hi, center + half, hi))
        used += length
    if n_loop == len(jcjs):
        return centers, logs, sorted((lo, hi) for _, lo, hi in heap)
    j = first + n_loop
    if used >= root_length:
        raise GapOverflow(
            f"gap {j} would push removed length past the root interval",
            field="c_rule")
    more, pieces = _split_zero_length(heap, j, len(jcjs) - n_loop)
    return centers + more, logs, pieces


def _split_zero_length(heap, first: int, count: int):
    """Centers of `count` zero-length gaps first.. placed into the heap's
    pieces in array passes, and the remaining pieces sorted by (lo, hi);
    see _place_gaps."""
    frontier = np.array(heap)
    lo, hi = frontier[:, 1], frontier[:, 2]
    centers = []
    left = count
    while left:
        key = lo - hi
        mid = 0.5 * (lo + hi)
        take = np.flatnonzero(key < min(np.min(lo - mid), np.min(mid - hi)))
        if take.size:
            take = take[np.lexsort((hi[take], lo[take], key[take]))][:left]
        else:
            # a child is as long as the minimum: only the minimum pops next
            take = np.flatnonzero(key == key.min())
            take = take[np.lexsort((hi[take], lo[take]))][:1]
        bad = np.flatnonzero(key[take] >= 0.0)
        if bad.size:
            t = take[bad[0]]
            raise PlacementFailure(
                f"gap {first + count - left + int(bad[0])} of length "
                f"{0.0:.3e} does not fit in the largest remaining interval "
                f"({float(hi[t]) - float(lo[t]):.3e})", field="c_rule")
        keep = np.ones(lo.size, dtype=bool)
        keep[take] = False
        plo, phi, center = lo[take], hi[take], mid[take]
        if center[0] == plo[0] or center[0] == phi[0]:
            # the child equal to its parent pops next, again and again:
            # every remaining gap goes to this center, and each after the
            # first leaves the zero-length piece [center+0.0, center]
            z = np.full(left - 1, center[0])
            centers.append(np.full(left, center[0]))
            lo = np.concatenate((lo[keep], plo[:1], center[:1] + 0.0, z + 0.0))
            hi = np.concatenate((hi[keep], center[:1], phi[:1], z))
            break
        centers.append(center)
        left -= take.size
        lo = np.concatenate((lo[keep], plo, center + 0.0))
        hi = np.concatenate((hi[keep], center, phi))
    order = np.lexsort((hi, lo))
    return (np.concatenate(centers).tolist(),
            list(zip(lo[order].tolist(), hi[order].tolist())))


def _last_violation(spec, z) -> int | None:
    """Largest j whose distance condition |z - b_j| >= e^{-j c_j / 2}
    fails over spec.walk_poles, scanned from the horizon down; 0 when
    every condition holds, None when the walk cannot be certified.

    Conditions hold for all j >= N exactly when the result is below
    max(N, 1); either spec family supplies walk_poles and walk_jcj.
    """
    walk = spec.walk_poles
    if walk is None:
        return None
    jcj = spec.walk_jcj
    for i in range(len(walk) - 1, -1, -1):
        try:
            d = abs(z - walk[i])
        except OverflowError:   # farther than the largest double: it holds
            continue
        if d == 0.0 or math.log(d) < -0.5 * jcj[i]:
            return i + 1
    return 0


@dataclass(frozen=True)
class ConditionSum:
    """Partial sum of 1/(j*c(j)) with an optional certified tail bound."""

    partial: float
    tail_bound: float | None
    terms: int

    @property
    def certified(self) -> bool:
        return self.tail_bound is not None

    @property
    def total(self) -> float:
        return self.partial + (self.tail_bound or 0.0)

    @property
    def satisfied(self) -> bool | None:
        """Certified comparison of the full series against 1/2.

        Each verdict needs the float sum to clear 1/2 by more than the
        rounding bound m = gamma_n total (logspace._gamma), n = terms + 14
        (4 roundings per term, 9 in the tail bound and the final add, 1 in
        m); None means it cannot decide at this truncation.
        """
        m = _gamma(self.terms + 14) * self.total
        if self.partial - 0.5 >= m:
            return False
        if self.certified and 0.5 - self.total > m:
            return True
        return None


def condition_sum(spec_or_rule, J: int = 10000) -> ConditionSum:
    """Sum 1/(j*c(j)) over j <= J plus a closed-form tail bound.

    The terms come from CRule.inv_jcj in blocks of CONDITION_BLOCK and
    are added one at a time in index order (np.add.accumulate, with the
    running sum carried into each block), so the partial sum is the one
    a scalar loop gives, bit for bit, in O(CONDITION_BLOCK) memory for
    any J.  The sum stops at the first term that underflows to zero.

    Affine rules use the integral comparison sum_{j>J} 1/(s j^2) <= 1/(sJ);
    factorial rules use a geometric majorant; explicit rules carry no tail
    information (the sum is over the defined prefix only).
    """
    rule = spec_or_rule.c_rule if isinstance(spec_or_rule, CantorSpec) else spec_or_rule
    if J < 1:
        raise PreconditionFailure("J must be >= 1", field="J")
    if rule.kind == "explicit":
        J = min(J, len(rule.values))
    partial = 0.0
    terms = 0
    while terms < J:
        t = rule.inv_jcj(terms + 1, min(terms + CONDITION_BLOCK, J))
        # below double resolution, as is the rest: the terms do not grow
        underflow = t[-1] == 0.0
        if underflow:
            t = t[:int(np.argmax(t == 0.0)) + 1]
        t[0] += partial
        partial = float(np.add.accumulate(t, out=t)[-1])
        terms += t.size
        if underflow:
            break
    tail: float | None
    if rule.kind == "affine":
        tail = 1.0 / (rule.slope * terms)
    elif rule.kind == "factorial":
        t_next = 1.0 / rule.jcj(terms + 1)
        q = 1.0 / (terms + 2 + rule.shift)  # ratio bound of successive terms
        tail = t_next / (1.0 - q)
    else:
        tail = None
    return ConditionSum(partial, tail, terms)


def _check_depth(spec, N: int) -> None:
    """A truncation of either spec family reads factors 1..N: N must lie
    in 0..max_index."""
    if not 0 <= N <= spec.max_index:
        raise PreconditionFailure(
            f"N must be in 0..{spec.max_index}, got {N}", field="N")


def sum_gap_lengths(spec: CantorSpec, N: int | None = None) -> float:
    """Removed length after N gaps, summed in ascending index order."""
    n = spec.max_index if N is None else N
    _check_depth(spec, n)
    s = 0.0
    for length in spec.lengths[:min(n, spec.n_pos)]:
        s += length
    return s


def cantor_length(spec: CantorSpec, N: int | None = None) -> float:
    """Length of the set remaining after the first N gaps."""
    return spec.root_length - sum_gap_lengths(spec, N)


def _seg_distance(z: complex, lo: float, hi: float) -> float:
    x, y = z.real, z.imag
    dx = lo - x if x < lo else (x - hi if x > hi else 0.0)
    return math.hypot(dx, y)


# -- JSON (17 significant digits keeps floats bit-stable) ---------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def spec_to_json(spec: CantorSpec) -> str:
    obj = {
        "a0": _fmt(spec.a0),
        "b0": _fmt(spec.b0),
        "c_rule": spec.c_rule.to_json_obj(),
        "placement": spec.placement,
        "N": spec.max_index,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def json_number(value, kind, field: str):
    """A number from outside the package (JSON, a flag, the environment)
    as a finite float or an int.  An int may be an int, an integral float
    (16.0) or a decimal integer string ("16"); a bool, a non-integral value
    and anything else are refused naming `field`."""
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        if kind is int and isinstance(value, (int, str)):
            return int(value)
        x = float(value)
        if not math.isfinite(x) or kind is int and not x.is_integer():
            raise ValueError(x)
    except (TypeError, ValueError, OverflowError) as e:
        what = "an integer" if kind is int else "a finite number"
        raise PreconditionFailure(f"{field} needs {what}, got {value!r}",
                                  field=field) from e
    return int(x) if kind is int else x


def check_point(z, field: str) -> complex:
    """z as a complex number whose modulus is a finite double; a point
    with a NaN or infinite part, or whose modulus overflows, is refused
    naming `field`."""
    z = complex(z)
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise PreconditionFailure(
            f"{field} needs a point whose modulus is a finite double, "
            f"got {z!r}", field=field)
    return z


def _spec_obj(text: str, keys) -> dict:
    """Parsed spec JSON object holding every required key."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise PreconditionFailure(f"invalid spec JSON: {e}",
                                  field="spec") from e
    if not isinstance(obj, dict):
        raise PreconditionFailure(f"spec JSON needs an object, got {obj!r}",
                                  field="spec")
    for key in keys:
        if key not in obj:
            raise PreconditionFailure(f"spec JSON missing {key!r}", field=key)
    return obj


def spec_from_json(text: str) -> CantorSpec:
    obj = _spec_obj(text, ("a0", "b0", "c_rule", "N"))
    return build_cantor_spec(
        json_number(obj["a0"], float, "a0"),
        json_number(obj["b0"], float, "b0"),
        CRule.from_json_obj(obj["c_rule"]),
        obj.get("placement", "bisect"), json_number(obj["N"], int, "N"))
