import heapq
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finehull.cantor import (CONDITION_BLOCK, MAX_DEPTH, ROOT_LIMIT,
                             ZERO_BATCH, ZERO_LOG, CRule, _place_gaps,
                             build_cantor_spec, cantor_length,
                             condition_sum, json_number, spec_from_json,
                             spec_to_json, sum_gap_lengths)
from finehull.errors import GapOverflow, PlacementFailure, PreconditionFailure

RULE5 = CRule("affine", slope=5.0, offset=0.0)
RULEF = CRule("factorial", shift=2)


def spec5():
    return build_cantor_spec(0.0, 1.0, RULE5, N=16)


def test_rule_validation():
    with pytest.raises(PreconditionFailure):
        CRule("affine", slope=0.0, offset=1.0)
    with pytest.raises(PreconditionFailure):
        CRule("factorial", shift=-1)
    with pytest.raises(PreconditionFailure):
        CRule("hyperbolic")


@pytest.mark.parametrize("kwargs", [
    # shift 2.7 used to build, then fail as TypeError in placement
    {"kind": "factorial", "shift": 2.7},
    {"kind": "factorial", "shift": True},
    {"kind": "factorial", "shift": 2.0},
    {"kind": "affine", "slope": math.inf},
    {"kind": "affine", "slope": 5.0, "offset": math.inf},
    {"kind": "explicit", "values": (1.0, 2.0, math.inf)},
    {"kind": "explicit", "values": (1.0, math.nan)},
])
def test_rule_refuses_parameters_it_cannot_use(kwargs):
    with pytest.raises(PreconditionFailure) as exc:
        CRule(**kwargs)
    assert exc.value.field == "c_rule"


@pytest.mark.parametrize("value, kind, want", [
    (16, int, 16), (16.0, int, 16), ("16", int, 16), (-3, int, -3),
    (1e300, int, int(1e300)), (3, float, 3.0), ("1e-3", float, 1e-3),
    (" 2.5 ", float, 2.5), (-0.0, float, -0.0),
])
def test_json_number_reads_exact_values(value, kind, want):
    got = json_number(value, kind, "x")
    assert type(got) is kind and got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("value, kind", [
    (2.9, int), (16.7, int), ("2.5", int), ("16.0", int), ("1e3", int),
    (True, int), (False, int), (math.inf, int), (math.nan, int),
    (None, int), ([1], int), (True, float), ("nan", float), ("inf", float),
    (math.inf, float), (10 ** 400, float), ("1e400", float), ("x", float),
    (None, float), ({}, float),
])
def test_json_number_refuses_what_it_would_round(value, kind):
    with pytest.raises(PreconditionFailure) as exc:
        json_number(value, kind, "x")
    assert exc.value.field == "x"


def test_rule_values():
    assert RULE5.jcj(3) == 45.0
    assert RULEF.jcj(1) == 6.0
    assert RULEF.jcj(2) == 48.0
    assert RULEF.jcj(3) == 360.0
    ex = CRule("explicit", values=(1.0, 2.0, 4.0))
    assert ex.jcj(2) == 4.0
    assert ex.max_defined_index == 3
    with pytest.raises(PreconditionFailure):
        ex.value(4)


def test_factorial_rule_saturates_instead_of_overflowing():
    assert RULEF.jcj(200) == math.inf
    assert 1.0 / RULEF.jcj(200) == 0.0


def test_factorial_values_round_the_exact_factorial_below_170():
    rule = CRule("factorial", shift=0)
    for n in range(1, 200):
        if n < 170:
            expected = float(math.factorial(n))
        else:
            try:
                expected = math.exp(math.lgamma(n + 1))
            except OverflowError:
                expected = math.inf
        assert rule.value(n) == expected, n


def test_condition_sum_factorial_oracle():
    cs = condition_sum(RULEF, J=10)
    assert cs.partial == pytest.approx(0.19066924725253923, rel=1e-15)
    assert cs.certified and cs.satisfied is True
    assert cs.tail_bound < 1e-10


def test_condition_sum_affine_brackets_series_value():
    # sum of 1/(5 j^2) is pi^2/30; the certified total must sit above it
    cs = condition_sum(RULE5)
    exact = math.pi ** 2 / 30.0
    assert cs.partial < exact < cs.total
    assert cs.total == pytest.approx(exact, abs=1e-8)
    assert cs.satisfied is True


def test_condition_sum_factorial_deep_truncation():
    # terms underflow near index 170; the loop must stop, not overflow
    cs = condition_sum(RULEF)
    assert cs.certified
    assert cs.total < 0.25


def _scalar_condition_sum(rule, J):
    """The index-order loop condition_sum replaced, kept as its oracle."""
    if rule.kind == "explicit":
        J = min(J, len(rule.values))
    partial = 0.0
    terms = 0
    for j in range(1, J + 1):
        t = 1.0 / rule.jcj(j)
        partial += t
        terms = j
        if t == 0.0:
            break
    if rule.kind == "affine":
        tail = 1.0 / (rule.slope * terms)
    elif rule.kind == "factorial":
        q = 1.0 / (terms + 2 + rule.shift)
        tail = (1.0 / rule.jcj(terms + 1)) / (1.0 - q)
    else:
        tail = None
    return partial.hex(), terms, tail


_INCREASING = tuple(float(v) for v in range(3, 3 * 40000, 3))
_PARITY_CASES = (
    [(CRule("affine", slope=s, offset=o), J)
     for s, o in ((5.0, 0.0), (2.0, 1.0), (0.1, 0.0), (0.7, 3.25),
                  (37.5, 0.5), (1e-3, 1e3))
     for J in (1, 2, 977, 10000)]
    + [(RULE5, J) for J in (CONDITION_BLOCK - 1, CONDITION_BLOCK,
                            CONDITION_BLOCK + 1, 2 * CONDITION_BLOCK + 1)]
    + [(CRule("factorial", shift=s), J) for s in range(6)
       for J in (1, 7, 10000)]
    + [(CRule("explicit", values=(1.0, 2.0, 4.0)), J) for J in (1, 2, 3, 50)]
    + [(CRule("explicit", values=_INCREASING), J)
       for J in (10, CONDITION_BLOCK + 1, len(_INCREASING), 10 ** 5)]
    + [(CRule("explicit", values=(1e-320, 1.0, 1e300, 1e308)), 10)]
)


@pytest.mark.parametrize("rule, J", _PARITY_CASES)
def test_condition_sum_matches_the_scalar_loop_bit_for_bit(rule, J):
    cs = condition_sum(rule, J)
    assert (cs.partial.hex(), cs.terms, cs.tail_bound) == \
        _scalar_condition_sum(rule, J)


def test_condition_sum_memory_does_not_grow_with_J():
    tracemalloc.start()
    try:
        condition_sum(RULE5, J=10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_first_gap_is_centered_with_exact_log_length():
    s = spec5()
    g = s.gap(1)
    assert g.center == 0.5
    assert g.log_length == -5.0
    assert g.length == pytest.approx(0.006737946999085467, rel=1e-16)
    assert g.a == pytest.approx(0.5 - g.length / 2.0)


def test_bisect_placement_oracle():
    s = spec5()
    assert s.gap(2).center == pytest.approx(0.7516844867497714, rel=1e-15)
    assert s.gap(3).center == pytest.approx(0.24831551325022863, rel=1e-15)


def test_deeper_build_extends_shallower():
    shallow = build_cantor_spec(0.0, 1.0, RULE5, N=4)
    deep = spec5()
    assert deep.centers[:4] == shallow.centers
    assert deep.log_lengths[:4] == shallow.log_lengths


def test_length_bookkeeping():
    s = spec5()
    assert cantor_length(s) == pytest.approx(0.9932620509397609, rel=1e-15)
    assert cantor_length(s, 1) == 1.0 - math.exp(-5.0)
    assert sum_gap_lengths(s, 0) == 0.0
    with pytest.raises(PreconditionFailure):
        sum_gap_lengths(s, 17)


def test_underflowed_gap_has_zero_width_but_exact_log():
    s = build_cantor_spec(0.0, 1.0, RULEF, N=4)
    g = s.gap(4)
    assert g.log_length == -4.0 * RULEF.value(4)
    assert g.a == g.b == g.center


def _scan_placement(rule, N):
    """Reference bisect placement: scan every piece for the largest,
    leftmost first, and splice the two halves in place."""
    pieces = [(0.0, 1.0)]
    centers = []
    for j in range(1, N + 1):
        log_len = -rule.jcj(j)
        half = math.exp(log_len - math.log(2.0)) if log_len > -744.0 else 0.0
        k = max(range(len(pieces)),
                key=lambda i: (pieces[i][1] - pieces[i][0], -pieces[i][0]))
        lo, hi = pieces[k]
        center = 0.5 * (lo + hi)
        centers.append(center)
        pieces[k:k + 1] = [(lo, center - half), (center + half, hi)]
    return centers, sorted(pieces)


@pytest.mark.parametrize("rule", [
    CRule("affine", slope=0.002, offset=1.0),
    CRule("affine", slope=0.05, offset=1.0),
    RULE5,
    CRule("factorial", shift=0),
    RULEF,
], ids=lambda r: f"{r.kind}-{r.slope or r.shift}")
@pytest.mark.parametrize("depth", [0, 6, 16])
def test_resumed_placement_matches_full_build(rule, depth):
    spec = build_cantor_spec(0.0, 1.0, rule, N=depth)
    H = max(rule.horizon(depth), depth + 8)
    full = build_cantor_spec(0.0, 1.0, rule, N=H)
    more, logs, pieces = _place_gaps(rule, spec.root_length, spec.remaining,
                                     sum_gap_lengths(spec), depth + 1, H)
    assert spec.centers + tuple(more) == full.centers
    assert spec.log_lengths + tuple(logs) == full.log_lengths
    assert tuple(pieces) == full.remaining
    centers, ref_pieces = _scan_placement(rule, H)
    assert list(full.centers) == centers
    assert list(full.remaining) == ref_pieces
    # the horizon walk is the same resumed placement, built once per spec
    walk = spec.walk_poles
    assert walk is spec.walk_poles
    assert _hexes(walk) == [full.gap(j).b.hex()
                            for j in range(1, rule.horizon(depth) + 1)]


def test_gap_overflow_and_placement_failure():
    with pytest.raises(GapOverflow):
        build_cantor_spec(0.0, 1.0,
                          CRule("explicit", values=(0.001, 0.002)), N=2)
    with pytest.raises(PlacementFailure):
        build_cantor_spec(0.0, 1.0, CRule("explicit", values=(0.2, 0.9)),
                          N=2)


def test_json_roundtrip():
    s = spec5()
    assert spec_from_json(spec_to_json(s)) == s
    ex = build_cantor_spec(-1.0, 3.0, CRule("explicit", values=(2.0, 5.0)),
                           N=2)
    assert spec_from_json(spec_to_json(ex)) == ex


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 6.0), st.floats(0.0, 3.0), st.integers(1, 10))
def test_construction_invariants(slope, offset, n):
    rule = CRule("affine", slope=slope, offset=offset)
    s = build_cantor_spec(0.0, 1.0, rule, N=n)
    assert len(s.centers) == len(s.log_lengths) == n
    assert len(s.remaining) == n + 1
    spans = sorted([(s.gap(j).a, s.gap(j).b) for j in range(1, n + 1)] +
                   list(s.remaining))
    # gaps and pieces tile the root interval without overlap
    assert spans[0][0] == 0.0 and spans[-1][1] == 1.0
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert hi == pytest.approx(lo, abs=1e-12)
    assert all(hi > lo for lo, hi in s.remaining)
    assert sum_gap_lengths(s) < s.root_length


@pytest.mark.parametrize("N", [-1, MAX_DEPTH + 1, 10 ** 12])
def test_depth_is_capped(N):
    with pytest.raises(PreconditionFailure) as e:
        build_cantor_spec(0.0, 1.0, RULE5, N=N)
    assert e.value.field == "N"


@pytest.mark.parametrize("N", [-1, 17])
def test_removed_length_needs_a_materialized_depth(N):
    for fn in (sum_gap_lengths, cantor_length):
        with pytest.raises(PreconditionFailure) as e:
            fn(spec5(), N)
        assert e.value.field == "N"


# -- placement against the loop that reads c(j) one index at a time ----

def _reference_place_gaps(c_rule, root_length, pieces, used, first, last):
    """_place_gaps with c(j) and j c(j) read through CRule.value one
    index at a time: the oracle for the array pass."""
    prev = c_rule.value(first - 1) if first > 1 else 0.0
    for j in range(first, last + 1):
        c = c_rule.value(j)
        if c <= prev:
            raise PreconditionFailure("c rule must increase strictly",
                                      field="c_rule")
        prev = c
    heap = [(lo - hi, lo, hi) for lo, hi in pieces]
    heapq.heapify(heap)
    gaps = []
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
        half = math.exp(log_len - math.log(2.0)) if log_len > -744.0 \
            else 0.0
        gaps.append((j, center, log_len))
        heapq.heapreplace(heap, (lo - (center - half), lo, center - half))
        heapq.heappush(heap, ((center + half) - hi, center + half, hi))
        used += length
    return gaps, sorted((lo, hi) for _, lo, hi in heap)


def _old_gap(center, log_length):
    """(length, half width, a, b) of a gap as the per-gap GapInterval
    object computed them on every read."""
    cut = log_length > -744.0
    half = math.exp(log_length - math.log(2.0)) if cut else 0.0
    length = math.exp(log_length) if cut else 0.0
    return length, half, center - half, center + half


def _placed(place, *args, first=1):
    try:
        out = place(*args)
    except PreconditionFailure as e:
        return type(e).__name__, str(e)
    if len(out) == 2:
        gaps, pieces = out
    else:
        # _place_gaps, or a spec: centers, log lengths, pieces
        centers, logs, pieces = out
        gaps = zip(itertools.count(args[4] if args else first), centers,
                   logs)
    return ([(j, c.hex(), l.hex()) for j, c, l in gaps],
            [(lo.hex(), hi.hex()) for lo, hi in pieces])


PLACEMENT_RULES = [CRule("affine", slope=0.002, offset=1.0),
                   CRule("affine", slope=0.05, offset=1.0),
                   CRule("affine", slope=5.0, offset=0.0)] + \
    [CRule("factorial", shift=s) for s in range(4)] + \
    [CRule("explicit", values=tuple(1.0 + 0.05 * j for j in range(1, 2001))),
     CRule("explicit", values=(0.001, 0.002)),
     CRule("explicit", values=(0.2, 0.9))]


def _rule_id(rule):
    if rule.kind == "affine":
        return f"affine{rule.slope:g}/{rule.offset:g}"
    if rule.kind == "factorial":
        return f"factorial{rule.shift}"
    return f"explicit{len(rule.values)}-{rule.values[0]:g}"


def _check_placement(rule, a0, b0, depth):
    """_place_gaps against the index loop from the root [a0, b0], then the
    build, its resumed horizon extension and walk_poles."""
    if rule.max_defined_index is not None:
        depth = min(depth, rule.max_defined_index)
    args = (rule, b0 - a0, [(a0, b0)], 0.0, 1, depth)
    want = _placed(_reference_place_gaps, *args)
    assert _placed(_place_gaps, *args) == want
    if isinstance(want[0], str):
        # factorial c(j) is inf past 170 - shift, GapOverflow, or a gap
        # that does not fit: the build refuses with the same error
        with pytest.raises(PreconditionFailure, match=re.escape(want[1])):
            build_cantor_spec(a0, b0, rule, N=depth)
        return
    spec = build_cantor_spec(a0, b0, rule, N=depth)
    assert _placed(lambda: (spec.centers, spec.log_lengths,
                            spec.remaining)) == want
    # the resumed horizon extension, from the remaining pieces on
    H = rule.horizon(depth)
    args = (rule, b0 - a0, spec.remaining, sum_gap_lengths(spec), depth + 1,
            H)
    more = _placed(_reference_place_gaps, *args)
    assert _placed(_place_gaps, *args) == more
    walk = spec.walk_poles
    if isinstance(more[0], str):
        assert walk is None
    else:
        assert walk[:depth] == spec.b
        assert [(j, b.hex()) for j, b in enumerate(walk, 1)] == [
            (j, spec.gap(j).b.hex()) for j in range(1, depth + 1)] + [
            (j, _old_gap(float.fromhex(c), float.fromhex(l))[3].hex())
            for j, c, l in more[0]]
        if H > depth:
            deeper = build_cantor_spec(a0, b0, rule, N=H)
            assert [(j, b.hex()) for j, b in enumerate(walk, 1)] == [
                (j, deeper.gap(j).b.hex()) for j in range(1, H + 1)]


@pytest.mark.parametrize("rule", PLACEMENT_RULES, ids=_rule_id)
@pytest.mark.parametrize("depth", [0, 1, 2, 16, 150, 2000])
def test_placement_matches_the_index_loop(rule, depth):
    _check_placement(rule, 0.0, 1.0, depth)


def _positive_gaps(rule):
    """How many leading gaps have a positive double length."""
    n = 0
    while n < (rule.max_defined_index or MAX_DEPTH) and \
            -rule.jcj(n + 1) > ZERO_LOG:
        n += 1
    return n


# every gap from the first on has length 0.0 (j c_j >= 1000); a horizon
# window j c_j in [744, 1492] of ~420 zero-length gaps
ZERO_RULES = PLACEMENT_RULES[:3] + [PLACEMENT_RULES[7],
                                    CRule("affine", slope=1000.0),
                                    CRule("affine", slope=0.0005, offset=1.0)]


@pytest.mark.parametrize("rule", ZERO_RULES, ids=_rule_id)
@pytest.mark.parametrize("zeros", [ZERO_BATCH - 1, ZERO_BATCH, ZERO_BATCH + 1,
                                   2000, 8000])
@pytest.mark.parametrize("root", [(0.0, 1.0), (-1.0, 2.0), (1e-300, 3e-300),
                                  (-1e-323, 5e-324), (-5e-324, 5e-324)],
                         ids=str)
def test_zero_length_placement_matches_the_index_loop(root, zeros, rule):
    # below ZERO_BATCH zero-length gaps the heap loop places them, from it
    # on the array passes do; on the last two roots, a few subnormal ulps
    # wide, centers of -0.0 leave right children at +0.0
    _check_placement(rule, *root, _positive_gaps(rule) + zeros)


@pytest.mark.parametrize("depth", [0, 16, 300])
def test_horizon_poles_match_a_deeper_build(depth):
    # the would-be gaps up to the horizon hold over 256 zero-length ones
    rule = ZERO_RULES[-1]
    assert rule.horizon(depth) - max(depth, _positive_gaps(rule)) > ZERO_BATCH
    _check_placement(rule, 0.0, 1.0, depth)


ULP_ROOT = (1.0, 1.0 + 2.0 ** -46)     # 64 ulps wide
RULE1000 = CRule("affine", slope=1000.0)


@pytest.mark.parametrize("depth", [63, 64, 100, ZERO_BATCH, 4096])
def test_ulp_root_placement_matches_the_index_loop(depth):
    # from gap 64 on every center rounds onto an endpoint of its one-ulp
    # piece, and the leftmost such piece takes every later gap
    _check_placement(RULE1000, *ULP_ROOT, depth)
    spec = build_cantor_spec(*ULP_ROOT, RULE1000, N=depth)
    assert len(set(spec.centers)) == min(depth, 64)


def test_resumed_placement_crossing_the_batch_cutoff():
    # 100 zero-length gaps in the loop, then 500 more in array passes
    rule = CRule("affine", slope=5.0)
    n = _positive_gaps(rule) + 100
    short = build_cantor_spec(0.0, 1.0, rule, N=n)
    args = (rule, 1.0, short.remaining, sum_gap_lengths(short), n + 1,
            n + 500)
    more = _placed(_reference_place_gaps, *args)
    assert _placed(_place_gaps, *args) == more
    full = build_cantor_spec(0.0, 1.0, rule, N=n + 500)
    assert _placed(lambda: (full.centers[n:], full.log_lengths[n:],
                            full.remaining), first=n + 1) == more


@pytest.mark.parametrize("pieces, used", [
    ([(0.0, 1.0)], 1.0),                    # GapOverflow at the split
    ([(0.5, 0.5)], 0.0),                    # no piece can host a gap
    ([(0.5, 0.5), (0.7, 0.6)], 0.0),
])
@pytest.mark.parametrize("last", [ZERO_BATCH - 1, ZERO_BATCH + 40])
def test_zero_length_refusals_match_the_index_loop(pieces, used, last):
    args = (RULE1000, 1.0, pieces, used, 1, last)
    want = _placed(_reference_place_gaps, *args)
    assert isinstance(want[0], str)
    assert _placed(_place_gaps, *args) == want


def test_zero_length_gaps_take_no_heap_step(monkeypatch):
    pushes = []
    push = heapq.heappush
    monkeypatch.setattr(heapq, "heappush",
                        lambda h, x: (pushes.append(x), push(h, x)))
    build_cantor_spec(0.0, 1.0, RULE5, N=2000)
    # one push per positive-length gap; the index loop makes 2000
    assert len(pushes) == _positive_gaps(RULE5) == 12


def test_an_absorbing_piece_ends_the_array_passes(monkeypatch):
    # the ulp root takes one array pass per piece level, however many
    # gaps its absorbing one-ulp piece then takes
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort",
                        lambda keys: (sorts.append(1), lexsort(keys))[1])
    counts = []
    for depth in (4096, 65536):
        del sorts[:]
        build_cantor_spec(*ULP_ROOT, RULE1000, N=depth)
        counts.append(len(sorts))
    assert counts[0] == counts[1] < 64


def test_root_endpoints_keep_gap_centers_finite():
    ok = build_cantor_spec(-ROOT_LIMIT, ROOT_LIMIT, RULE1000, N=300)
    assert all(math.isfinite(c) for c in ok.centers)
    for a0, b0, name in [(1e308, 1.7e308, "a0"), (-1.7e308, 1.0, "a0"),
                         (0.0, 1e308, "b0")]:
        with pytest.raises(PreconditionFailure) as e:
            build_cantor_spec(a0, b0, RULE5, N=4)
        assert e.value.field == name


def test_factorial_placement_refuses_past_170():
    rule = CRule("factorial", shift=0)
    assert rule.value(170) < math.inf == rule.value(171)
    for place in (_reference_place_gaps, _place_gaps):
        with pytest.raises(PreconditionFailure,
                           match="c rule must increase strictly"):
            place(rule, 1.0, [(0.0, 1.0)], 0.0, 1, 172)


@pytest.mark.parametrize("rule", PLACEMENT_RULES, ids=_rule_id)
def test_c_values_are_the_scalar_values(rule):
    last = min(rule.max_defined_index or 400, 400)
    for first in (1, 2, 169, 170, 171):
        if first > last:
            continue
        got = rule.c_values(first, last).tolist()
        assert [v.hex() for v in got] == \
            [rule.value(j).hex() for j in range(first, last + 1)]
    if rule.kind == "explicit":
        # the array stops at the last defined index, as inv_jcj does
        n = len(rule.values)
        assert rule.c_values(n - 1, n + 5).tolist() == list(rule.values[-2:])


# -- the spec's float tuples and per-gap lists against the per-gap formulas --

def _hexes(xs):
    return [x.hex() for x in xs]


def _check_representation(spec):
    """centers and log_lengths against the index loop, every per-gap list
    against the formulas GapInterval computed on each read, bit for bit."""
    rule, M = spec.c_rule, spec.max_index
    want, _ = _reference_place_gaps(rule, spec.root_length,
                                    [(spec.a0, spec.b0)], 0.0, 1, M)
    assert type(spec.centers) is type(spec.log_lengths) is tuple
    assert _hexes(spec.centers) == [c.hex() for _, c, _ in want]
    assert _hexes(spec.log_lengths) == [l.hex() for _, _, l in want]
    old = [_old_gap(c, l) for _, c, l in want]
    for k, name in enumerate(("lengths", "half_widths", "a", "b")):
        assert _hexes(getattr(spec, name)) == [o[k].hex() for o in old]
    assert spec.n_pos == sum(o[0] > 0.0 for o in old)
    assert _hexes(spec.jcj) == [rule.jcj(j).hex() for j in range(1, M + 1)]
    if spec.walk_poles is not None:
        assert _hexes(spec.walk_jcj) == [
            rule.jcj(j).hex() for j in range(1, len(spec.walk_poles) + 1)]
    assert [spec.gap(j).b.hex() for j in range(1, M + 1)] == \
        [o[3].hex() for o in old]
    for n in (None, 0, M // 2):
        assert _hexes(spec.poles(n)) == \
            [spec.a0.hex()] + [o[3].hex() for o in old[:n]]
    # JSON holds no gap: the round trip rebuilds equal tuples
    same = spec_from_json(spec_to_json(spec)) == spec
    assert same is True
    other = build_cantor_spec(spec.a0, spec.b0, rule, N=M - 1 if M else 1)
    unequal = other != spec
    assert unequal is True


@pytest.mark.parametrize("rule", PLACEMENT_RULES, ids=_rule_id)
@pytest.mark.parametrize("depth", [0, 1, 2, 16, 150, 2000])
def test_representation_matches_the_gap_formulas(rule, depth):
    if rule.max_defined_index is not None:
        depth = min(depth, rule.max_defined_index)
    try:
        spec = build_cantor_spec(0.0, 1.0, rule, N=depth)
    except PreconditionFailure:
        return      # a refusal: test_placement_matches_the_index_loop
    _check_representation(spec)


@pytest.mark.parametrize("root", [(-0.0, 1.0), (-1e-323, 5e-324),
                                  (-5e-324, 5e-324), ULP_ROOT], ids=str)
@pytest.mark.parametrize("depth", [1, 300, 4096])
def test_representation_on_signed_zero_and_ulp_roots(root, depth):
    spec = build_cantor_spec(*root, RULE1000, N=depth)
    _check_representation(spec)
    if root[0] == -1e-323:
        # a center of -0.0 keeps its sign; its pole b = center + 0.0 is +0.0
        assert math.copysign(1.0, spec.centers[0]) == -1.0
        assert math.copysign(1.0, spec.b[0]) == 1.0


def test_blaschke_jcj_spans_its_horizon_walk():
    from finehull.blaschke import build_blaschke_spec
    spec = build_blaschke_spec(0.0, 1.5, RULE5, 6)
    assert _hexes(spec.jcj) == [RULE5.jcj(j).hex() for j in range(1, 7)]
    assert _hexes(spec.walk_jcj) == [
        RULE5.jcj(j).hex() for j in range(1, len(spec.walk_poles) + 1)]


def test_materialized_jcj_takes_no_horizon_walk(monkeypatch):
    # the first jcj read, and fine sets and an off-root tail bound built
    # from it, stay within the materialized gaps
    from finehull.potential import cantor_fine_sets
    from finehull.product import tail_bound
    rule = CRule("affine", slope=0.002, offset=1.0)
    spec = build_cantor_spec(0.0, 1.0, rule, N=16)
    monkeypatch.setattr(CRule, "horizon", None)
    assert len(spec.jcj) == 16
    tail_bound(spec, 4, 3 + 1j)
    cantor_fine_sets(spec, 2)
    assert "horizon" not in vars(spec)


def test_condition_sum_is_undecided_inside_its_rounding_margin():
    # the float partial + tail is 0.49999999999999994, below 1/2; the same
    # terms and tail bound at 50 digits sum to 0.50000000000000046
    mpmath = pytest.importorskip("mpmath")
    rule = CRule("affine", slope=2.5995988732937243, offset=1.0)
    cs = condition_sum(rule)
    assert cs.partial + cs.tail_bound < 0.5
    with mpmath.workdps(50):
        s, o = mpmath.mpf(rule.slope), mpmath.mpf(rule.offset)
        exact = mpmath.fsum(1 / (j * (s * j + o))
                            for j in range(1, cs.terms + 1)) + \
            1 / (s * cs.terms)
        assert abs(exact - mpmath.mpf("0.50000000000000046")) < 1e-17
        # the margin bounds the rounding error of the float total
        nu = (cs.terms + 14) * 2.0 ** -53
        assert abs(exact - mpmath.mpf(cs.total)) <= nu / (1 - nu) * cs.total
    assert cs.satisfied is None


@pytest.mark.parametrize("J", [64, 10000])
@pytest.mark.parametrize("slope, offset", [
    (5.0, 0.0), (0.05, 1.0), (1.0, 0.0), (40.0, 0.25), (0.5, 3.0),
    (2.5995988732937243, 1.0), (0.002, 1.0), (math.pi ** 2 / 3.0, 0.0)])
def test_condition_sum_brackets_the_affine_closed_form(slope, offset, J):
    # sum_j 1/(j (s j + o)) = (psi(1 + o/s) + gamma)/o for o > 0, and
    # pi^2/(6 s) for o = 0: the partial sum is below it, partial + tail
    # bound above it
    mpmath = pytest.importorskip("mpmath")
    cs = condition_sum(CRule("affine", slope=slope, offset=offset), J=J)
    with mpmath.workdps(50):
        s, o = mpmath.mpf(slope), mpmath.mpf(offset)
        exact = (mpmath.digamma(1 + o / s) + mpmath.euler) / o if offset \
            else mpmath.pi ** 2 / (6 * s)
        assert mpmath.mpf(cs.partial) <= exact <= mpmath.mpf(cs.total)
