"""Linear Cantor-type sets with prescribed gap lengths.

A construction starts from a root interval [a0, b0] and deletes, one per
index j = 1, 2, ..., an open gap of length exp(-j*c(j)) where c is a
strictly increasing positive rule tending to infinity.  Gap j is centered
in the largest remaining closed interval (ties broken leftward), so the
whole construction is deterministic.

Lengths below double underflow are kept in log form: each gap stores its
exact log length next to the rounded endpoint floats.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GapOverflow, PlacementFailure, PreconditionFailure

__all__ = [
    "CRule",
    "GapInterval",
    "CantorSpec",
    "ConditionSum",
    "MAX_DEPTH",
    "build_cantor_spec",
    "condition_sum",
    "cantor_length",
    "spec_to_json",
    "spec_from_json",
]

_LN2 = math.log(2.0)

# sum_{k >= 0} 2^{-k/2} = 1 / HALVING_DENOM bounds a tail whose terms at
# least halve in square: sum_{n >= j} p_n <= p_j / HALVING_DENOM
HALVING_DENOM = 1.0 - 0.5 ** 0.5

# most gaps (or Blaschke zeros, or extras) one spec may materialize:
# 2**17 gaps build in about a second, the depth-2000 specs in use in ms
MAX_DEPTH = 1 << 17

# condition_sum forms and adds this many terms at a time
CONDITION_BLOCK = 1 << 14

# n! as a double for n = 0..170: the exact integer rounded once below 170,
# exp(lgamma) at 170; 171! overflows, so a factorial c(j) is inf from there
_FACTORIALS = tuple(float(math.factorial(n)) for n in range(170)) + \
    (math.exp(math.lgamma(171)),)


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
            if not (self.slope > 0.0 and self.offset >= 0.0):
                raise PreconditionFailure(
                    "affine rule needs slope > 0 and offset >= 0", field="c_rule")
        elif self.kind == "factorial":
            if self.shift < 0:
                raise PreconditionFailure(
                    "factorial rule needs shift >= 0", field="c_rule")
        elif self.kind == "explicit":
            vals = tuple(float(v) for v in self.values)
            if not vals or any(v <= 0.0 for v in vals):
                raise PreconditionFailure(
                    "explicit rule needs positive entries", field="c_rule")
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

    def inv_jcj(self, first: int, last: int) -> np.ndarray:
        """1/(j*c(j)) for j = first..last, each bit-equal to 1.0/jcj(j).

        Explicit rules stop at their last defined index.  For every rule
        the terms are non-increasing, as c is increasing.
        """
        if self.kind == "explicit":
            last = min(last, len(self.values))
        j = np.arange(first, last + 1, dtype=np.float64)
        if self.kind == "affine":
            c = j * self.slope
            c += self.offset
        elif self.kind == "factorial":
            c = np.full(j.shape, math.inf)
            table = _FACTORIALS[first + self.shift:last + self.shift + 1]
            c[:len(table)] = table
        else:
            c = np.array(self.values[first - 1:last])
        with np.errstate(over="ignore"):
            c *= j
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
        while 0.5 * self.jcj(H + 1) <= 746.0:
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
        kind = obj.get("kind")
        if kind == "affine":
            return CRule("affine", slope=float(obj.get("slope", 0.0)),
                         offset=float(obj.get("offset", 0.0)))
        if kind == "factorial":
            return CRule("factorial", shift=int(obj.get("shift", 2)))
        if kind == "explicit":
            return CRule("explicit",
                         values=tuple(float(v) for v in obj.get("values", ())))
        raise PreconditionFailure(f"unknown c rule kind {kind!r}", field="c_rule")


@dataclass(frozen=True)
class GapInterval:
    """One deleted gap: exact log length plus rounded endpoints.

    For underflowed lengths the endpoint floats coincide with the center;
    log_length stays exact in either case.
    """

    index: int
    center: float
    log_length: float

    @property
    def half_width(self) -> float:
        return math.exp(self.log_length - _LN2) if self.log_length > -744.0 else 0.0

    @property
    def a(self) -> float:
        return self.center - self.half_width

    @property
    def b(self) -> float:
        return self.center + self.half_width

    @property
    def length(self) -> float:
        return math.exp(self.log_length) if self.log_length > -744.0 else 0.0


@dataclass(frozen=True)
class CantorSpec:
    a0: float
    b0: float
    c_rule: CRule
    placement: str
    max_index: int
    gaps: tuple[GapInterval, ...] = field(repr=False)
    remaining: tuple[tuple[float, float], ...] = field(repr=False)

    @property
    def root_length(self) -> float:
        return self.b0 - self.a0

    def gap(self, j: int) -> GapInterval:
        if not 1 <= j <= self.max_index:
            raise PreconditionFailure(f"gap {j} not materialized")
        return self.gaps[j - 1]

    def log_p(self, j: int) -> float:
        """log of the tail-control sequence p(j) = exp(-j*c(j)/2)."""
        return -0.5 * self.c_rule.jcj(j)

    @cached_property
    def horizon_poles(self) -> tuple[tuple[int, float], ...] | None:
        """(j, b_j) for j = 1 .. c_rule.horizon(max_index): the materialized
        right endpoints, then the would-be gaps that bisect placement
        adds next, resumed from the remaining pieces.

        None when the horizon lies past the index budget or the extension
        is refused (GapOverflow, PlacementFailure, non-increasing c).
        Built once per spec object.
        """
        H = self.c_rule.horizon(self.max_index)
        if H is None:
            return None
        gaps = self.gaps
        if H > self.max_index:
            try:
                more, _ = _place_gaps(self.c_rule, self.root_length,
                                      self.remaining, sum_gap_lengths(self),
                                      self.max_index + 1, H)
            except PreconditionFailure:
                return None
            gaps += tuple(more)
        return tuple((g.index, g.b) for g in gaps)

    def poles(self, upto: int | None = None) -> list[float]:
        """Pole locations of the truncated product: a0 and the right gap
        endpoints."""
        n = self.max_index if upto is None else upto
        return [self.a0] + [g.b for g in self.gaps[:n]]


def build_cantor_spec(a0: float, b0: float, c_rule: CRule,
                      placement: str = "bisect", N: int = 0) -> CantorSpec:
    """Materialize the first N gaps of the construction, 0 <= N <= MAX_DEPTH.

    Raises GapOverflow when the cumulative gap length would reach the root
    length, PlacementFailure when no remaining interval can host the next
    gap strictly inside itself.
    """
    if not b0 > a0:
        raise PreconditionFailure("need a0 < b0", field="a0")
    if placement != "bisect":
        raise PreconditionFailure(f"unknown placement {placement!r}",
                                  field="placement")
    if not 0 <= N <= MAX_DEPTH:
        raise PreconditionFailure(f"N must be in 0..{MAX_DEPTH}, got {N}",
                                  field="N")
    if c_rule.max_defined_index is not None and N > c_rule.max_defined_index:
        raise PreconditionFailure("explicit rule shorter than N", field="N")
    gaps, pieces = _place_gaps(c_rule, b0 - a0, [(a0, b0)], 0.0, 1, N)
    return CantorSpec(a0, b0, c_rule, placement, N, tuple(gaps),
                      tuple(pieces))


def _place_gaps(c_rule: CRule, root_length: float, pieces, used: float,
               first: int, last: int):
    """Bisect placement of gaps first..last into the remaining pieces.

    Gap j is centered in the largest piece, ties broken leftward: a heap
    keyed (-length, lo) pops exactly that piece.  `used` is the removed
    length of gaps 1..first-1, summed in index order, so a resumed
    placement reproduces a full build bit for bit.  Returns the new gaps
    and the sorted remaining pieces.
    """
    prev = c_rule.value(first - 1) if first > 1 else 0.0
    for j in range(first, last + 1):
        c = c_rule.value(j)
        if c <= prev:
            raise PreconditionFailure("c rule must increase strictly",
                                      field="c_rule")
        prev = c
    heap = [(lo - hi, lo, hi) for lo, hi in pieces]
    heapq.heapify(heap)
    gaps: list[GapInterval] = []
    for j in range(first, last + 1):
        log_len = -c_rule.jcj(j)
        length = math.exp(log_len) if log_len > -744.0 else 0.0
        if used + length >= root_length:
            raise GapOverflow(
                f"gap {j} would push removed length past the root interval")
        _, lo, hi = heap[0]
        if length >= hi - lo:
            raise PlacementFailure(
                f"gap {j} of length {length:.3e} does not fit in the largest "
                f"remaining interval ({hi - lo:.3e})")
        center = 0.5 * (lo + hi)
        half = math.exp(log_len - _LN2) if log_len > -744.0 else 0.0
        gaps.append(GapInterval(j, center, log_len))
        heapq.heapreplace(heap, (lo - (center - half), lo, center - half))
        heapq.heappush(heap, ((center + half) - hi, center + half, hi))
        used += length
    return gaps, sorted((lo, hi) for _, lo, hi in heap)


def _last_violation(spec, z) -> int | None:
    """Largest j whose distance condition |z - pole_j| >= e^{-j c_j / 2}
    fails over spec.horizon_poles, scanned from the horizon down; 0 when
    every condition holds, None when the walk cannot be certified.

    Conditions hold for all j >= N exactly when the result is below
    max(N, 1); either spec family supplies horizon_poles and c_rule.
    """
    walk = spec.horizon_poles
    if walk is None:
        return None
    for j, pole in reversed(walk):
        d = abs(z - pole)
        if d == 0.0 or math.log(d) < -0.5 * spec.c_rule.jcj(j):
            return j
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

        True and False are certified either way; None means the partial
        sum plus tail bound cannot decide at this truncation.
        """
        if self.partial >= 0.5:
            return False
        if self.certified and self.total < 0.5:
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
    for g in spec.gaps[:n]:
        s += g.length
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


def _spec_obj(text: str, keys) -> dict:
    """Parsed spec JSON object holding every required key."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise PreconditionFailure(f"invalid spec JSON: {e}", field="config") from e
    for key in keys:
        if key not in obj:
            raise PreconditionFailure(f"spec JSON missing {key!r}", field=key)
    return obj


def spec_from_json(text: str) -> CantorSpec:
    obj = _spec_obj(text, ("a0", "b0", "c_rule", "N"))
    return build_cantor_spec(
        float(obj["a0"]), float(obj["b0"]),
        CRule.from_json_obj(obj["c_rule"]),
        obj.get("placement", "bisect"), int(obj["N"]))
