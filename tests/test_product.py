import math
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from finehull import acceptance
from finehull.cantor import (CantorSpec, CRule, build_cantor_spec,
                             cantor_length)
from finehull.errors import (DomainViolation, NoConvergence, NotInEN,
                             PoleHit, PreconditionFailure, QuadratureFailure,
                             RegionViolatesEN)
from finehull.logspace import LogComplex
from finehull.product import (BranchTag, TailBound, _factor_logs,
                              _gap_factor_log, certify_en_point, eval_f,
                              eval_partial_product, fine_boundary_value,
                              laurent_c1, sqrt_branch, tail_bound,
                              tail_product_minus_one)

RULE5 = CRule("affine", slope=5.0, offset=0.0)
RULEF = CRule("factorial", shift=2)
SPEC5 = build_cantor_spec(0.0, 1.0, RULE5, N=16)
SPECF = build_cantor_spec(0.0, 1.0, RULEF, N=16)
SPEC0 = build_cantor_spec(0.0, 1.0, RULE5, N=0)

off_axis = st.complex_numbers(min_magnitude=0.05, max_magnitude=4.0,
                              allow_nan=False, allow_infinity=False).filter(
                                  lambda z: abs(z.imag) > 1e-3)


def test_depth_zero_is_the_mobius_seed():
    # f with no gaps is (z - b0)/(z - a0)
    assert eval_partial_product(SPEC0, 0, 2.0).to_complex() == \
        pytest.approx(0.5)
    assert eval_partial_product(SPEC0, 0, 1j).to_complex() == \
        pytest.approx(1.0 + 1.0j)
    assert eval_partial_product(SPEC0, 0, -1j).to_complex() == \
        pytest.approx(1.0 - 1.0j)


@pytest.mark.parametrize("z", [complex(1e308, 1e308),
                               complex(-1e308, -1e308),
                               complex(1.2e308, -1.2e308)])
def test_quotients_complex_division_cannot_form_keep_their_log(z):
    # (z - b0)/(z - a0) is nan in complex division at these points;
    # f_N(z) is 1 up to a relative 1/|z|
    val = eval_partial_product(SPEC5, 16, z)
    assert abs(val.log_mag) <= 1e-307 and abs(val.arg) <= 1e-307


def test_underflowed_quotients_keep_their_log():
    # (z - b0)/(z - a0) = 5e-324j / 2 rounds to 0 although z != b0
    spec = build_cantor_spec(0.0, 2.0, RULE5, N=4)
    z = complex(2.0, 5e-324)
    assert _factor_logs(spec, 2, z)[0] == \
        complex(math.log(5e-324) - math.log(2.0), 0.5 * math.pi)
    val = eval_partial_product(spec, 2, z)
    assert val.log_mag == pytest.approx(-745.13, abs=0.01)
    # (z - b0)/(z - a0) at a subnormal z: the modulus of the quotient
    # overflows although both of its parts are finite doubles
    z = complex(3.593816677036085e-309, 3.593816677036085e-309)
    want = math.log(abs(z - 2.0)) - math.log(abs(z))
    val = eval_partial_product(spec, 0, z)
    assert val.log_mag == pytest.approx(want, rel=1e-15)
    assert val.arg == pytest.approx(0.75 * math.pi, rel=1e-15)
    # the near-gap branch, on a gap wide enough to underflow its quotient
    assert _gap_factor_log(1, 0.0, 8.0, -4.0, 4.0, complex(-4.0, 5e-324)) == \
        complex(math.log(5e-324) - math.log(8.0), -0.5 * math.pi)


def test_depth_one_oracle():
    g = SPEC5.gap(1)
    want = 0.5 * (2.0 - g.a) / (2.0 - g.b)
    assert eval_partial_product(SPEC5, 1, 2.0).to_complex() == \
        pytest.approx(want, rel=1e-15)


def test_pole_and_zero_of_partial_product():
    with pytest.raises(PoleHit):
        eval_partial_product(SPEC5, 16, 0.0)
    assert eval_partial_product(SPEC5, 16, 1.0).is_zero


@settings(max_examples=60, deadline=None)
@given(off_axis)
def test_branch_square_recovers_product(z):
    s = sqrt_branch(SPEC5, 16, z, BranchTag.D_PLUS)
    f = eval_partial_product(SPEC5, 16, z)
    assert abs(((s * s) / f).to_complex() - 1.0) < 1e-12


def test_branch_normalization_far_away():
    s = sqrt_branch(SPEC5, 16, 1.0e8 + 1.0e8j, BranchTag.D_PLUS)
    assert s.to_complex() == pytest.approx(1.0, abs=1e-7)


def test_h_plus_lower_half_plane_oracle():
    # glued branch: below the axis it is minus the principal root
    h = sqrt_branch(SPEC0, 0, -1j, BranchTag.H_PLUS).to_complex()
    assert h == pytest.approx(-1.0986841134678098 + 0.45508986056222744j,
                              rel=1e-14)


def test_h_family_rejects_the_real_axis():
    with pytest.raises(DomainViolation):
        sqrt_branch(SPEC5, 16, 0.5, BranchTag.H_PLUS)


def test_d_family_is_real_inside_gaps_and_rejects_the_set():
    x = SPEC5.gap(1).center
    s = sqrt_branch(SPEC5, 16, x, BranchTag.D_PLUS)
    f = eval_partial_product(SPEC5, 16, x)
    assert s.to_complex().imag == 0.0
    assert (s * s).to_complex() == pytest.approx(f.to_complex(), rel=1e-12)
    with pytest.raises(DomainViolation):
        sqrt_branch(SPEC5, 16, 0.05, BranchTag.D_PLUS)


def test_certification_sees_would_be_gaps():
    # the center of the largest remaining piece is the next gap site
    lo, hi = max(SPEC5.remaining, key=lambda p: p[1] - p[0])
    assert not certify_en_point(SPEC5, 0.5 * (lo + hi), 2)
    assert certify_en_point(SPEC5, lo + (hi - lo) / 3.0, 2)


@pytest.mark.parametrize("spec_fn", [acceptance._spec5, acceptance._specf,
                                     acceptance._spec_slow])
def test_fine_boundary_depth_is_smallest_certified_depth(spec_fn):
    spec = spec_fn()
    xs = [hi for _, hi in spec.remaining] + [
        lo + (hi - lo) * t for lo, hi in spec.remaining
        for t in (1 / 3, 2 / 3)]
    depths = set()
    for x in xs:
        ref = None
        for n in range(1, spec.max_index + 2):
            if certify_en_point(spec, x, n):
                ref = n
                break
        if ref is None:
            with pytest.raises(NotInEN):
                fine_boundary_value(spec, x, BranchTag.H_PLUS)
            continue
        try:
            _, _, n_cert = fine_boundary_value(spec, x, BranchTag.H_PLUS)
        except PoleHit:
            continue            # certified, but x is a degenerate gap's pole
        assert n_cert == ref
        depths.add(n_cert)
    assert len(depths) >= 5


def test_tail_bound_at_certified_point():
    lo, hi = max(SPEC5.remaining, key=lambda p: p[1] - p[0])
    x = lo + (hi - lo) / 3.0
    tb = tail_bound(SPEC5, 16, x)
    assert 0.0 <= tb.bound < 1e-300


def test_tail_bound_refuses_would_be_pole_neighborhoods():
    lo, hi = max(SPEC5.remaining, key=lambda p: p[1] - p[0])
    with pytest.raises(RegionViolatesEN):
        tail_bound(SPEC5, 16, 0.5 * (lo + hi))


def test_eval_f_oracles():
    v5, err5, _ = eval_f(SPEC5, 2.0)
    assert v5.to_complex() == pytest.approx(0.5022510389541788, rel=1e-14)
    assert err5 <= 1e-12
    vf, errf, _ = eval_f(SPECF, 2.0)
    assert vf.to_complex() == pytest.approx(0.5008269339803567, rel=1e-14)
    assert errf <= 1e-12


def test_eval_f_converges_at_gap_midpoints():
    x = SPEC5.gap(2).center
    v, err, n_used = eval_f(SPEC5, x)
    assert err <= 1e-12
    assert n_used >= 2
    assert v.to_complex().real > 0.0    # midpoint value is positive real


def test_laurent_first_moment():
    lc = laurent_c1(SPEC5, 1)
    assert lc.formula == math.exp(-5.0) - 1.0
    assert lc.spread <= 1e-8
    for n in range(0, 9):
        lc = laurent_c1(SPEC5, n)
        assert lc.formula == -cantor_length(SPEC5, n)


def test_tail_product_minus_one_leading_term():
    # with one huge-exponent factor the residual is u_{n+1} to high order
    x = 1.0 / 6.0
    t = tail_product_minus_one(SPECF, 2, x, upto=3)
    g = SPECF.gap(3)
    want = g.log_length - math.log(abs(x - g.b))
    assert t.log_mag == pytest.approx(want, abs=1e-12)
    assert t.log_mag < -300.0


def test_fine_boundary_value_is_imaginary():
    lo, hi = max(SPEC5.remaining, key=lambda p: p[1] - p[0])
    x = lo + (hi - lo) / 3.0
    v, err, n_cert = fine_boundary_value(SPEC5, x, BranchTag.H_PLUS)
    vc = v.to_complex()
    assert v.arg == 0.5 * math.pi     # exactly imaginary in log-polar form
    assert vc.imag > 0.0
    f16 = eval_partial_product(SPEC5, 16, x).to_complex()
    assert vc.imag ** 2 == pytest.approx(abs(f16), rel=1e-12)
    minus = fine_boundary_value(SPEC5, x, BranchTag.H_MINUS)[0].to_complex()
    assert minus == pytest.approx(-vc)


def test_fine_boundary_value_rejects_off_set_points():
    with pytest.raises(NotInEN):
        fine_boundary_value(SPEC5, SPEC5.gap(1).center, BranchTag.H_PLUS)
    with pytest.raises(NotInEN):
        fine_boundary_value(SPEC5, 2.0, BranchTag.H_PLUS)


@pytest.mark.parametrize("N", [-1, 17])
def test_depth_outside_the_materialization_is_refused(N):
    calls = [lambda: eval_partial_product(SPEC5, N, 2.0),
             lambda: sqrt_branch(SPEC5, N, 2.0, BranchTag.D_PLUS),
             lambda: tail_bound(SPEC5, N, 2.0),
             lambda: laurent_c1(SPEC5, N)]
    for call in calls:
        with pytest.raises(PreconditionFailure) as e:
            call()
        assert e.value.field == "N"


def _mp_laurent(spec, n, nodes, R):
    """(trapezoid sum on `nodes` nodes of |z| = R, c1) at 50 digits: f_n
    from the spec's float poles and gap lengths, c1 the gap lengths less
    the root length."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        gaps = list(zip(spec.lengths[:n], spec.b[:n]))
        acc = mpmath.mpc(0)
        for k in range(nodes):
            e = mpmath.expjpi(mpmath.mpf(2 * k) / nodes)
            z = R * e
            f = (z - spec.b0) / (z - spec.a0)
            for length, b in gaps:
                f *= 1 + length / (z - b)
            acc += (f - 1) * e
        c1 = mpmath.fsum(spec.lengths[:n]) - (mpmath.mpf(spec.b0) - spec.a0)
        return acc * R / nodes, c1


@pytest.mark.parametrize("spec, n", [
    *[(SPEC5, n) for n in range(17)], (SPECF, 16),
    (acceptance._spec_slow(), 32)])
def test_laurent_contour_is_within_err_of_mpmath(spec, n):
    lc = laurent_c1(spec, n)
    assert lc.radius == 4.0 and lc.err <= 0.5e-8
    assert lc.nodes & (lc.nodes - 1) == 0 and lc.nodes <= 4096
    trap, c1 = _mp_laurent(spec, n, lc.nodes, lc.radius)
    assert abs(lc.contour - c1) <= lc.err
    assert abs(trap - c1) <= lc.err         # the aliasing alone
    assert lc.spread <= lc.err


def test_laurent_refuses_a_tol_below_its_rounding():
    with pytest.raises(QuadratureFailure) as e:
        laurent_c1(SPEC5, 3, tol=1e-18)
    assert e.value.field == "tol"


def test_laurent_reruns_are_equal():
    first = [laurent_c1(SPEC5, n) for n in range(9)]
    laurent_c1(SPECF, 16)
    assert [laurent_c1(SPEC5, n) for n in range(9)] == first


# -- tail_bound against the loop that visits every pole -----------------

def _reference_tail_bound(spec, N, region):
    """tail_bound as a loop over every pole past N, without the stop at
    the underflow index: the oracle for the cut walk."""
    rule = spec.c_rule
    M = spec.max_index
    c, rad = region if isinstance(region, tuple) else (region, 0.0)
    c = complex(c)
    poles = [(j, spec.gap(j).b) for j in range(N + 1, M + 1)]
    tail = None
    if rule.max_defined_index is None:
        log_p_next = rule.halving_tail(M + 1)
        if log_p_next is None:
            raise RegionViolatesEN("rule tail does not certify halving")
        x, y = c.real, c.imag
        dx = spec.a0 - x if x < spec.a0 else (
            x - spec.b0 if x > spec.b0 else 0.0)
        droot = max(math.hypot(dx, y) - rad, 0.0)
        if droot > 0.0 and log_p_next <= math.log(droot):
            tail = -rule.jcj(M + 1) - math.log(droot) + math.log(2.0)
        else:
            walk = spec.walk_poles
            if walk is None:
                raise RegionViolatesEN(
                    "rule keeps thresholds representable past the "
                    "index budget")
            poles = list(enumerate(walk, 1))[N:]
            tail = rule.halving_tail(len(walk) + 1) + \
                math.log(1.0 / (1.0 - 0.5 ** 0.5))
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


def _outcome(fn, *args):
    try:
        tb = fn(*args)
    except RegionViolatesEN as e:
        return type(e).__name__, str(e)
    return tb.log_sum.hex(), tb.terms


TAIL_RULES = [CRule("affine", slope=0.002, offset=1.0),
              CRule("affine", slope=0.05, offset=1.0), RULE5] + \
    [CRule("factorial", shift=s) for s in range(4)] + \
    [CRule("explicit", values=tuple(1.0 + 0.05 * j for j in range(1, 2001)))]


def _tail_regions(spec):
    """Points on and next to poles and gap ends, real points inside and
    outside [0, 1], and disks whose radius equals |Im c|, the edge of the
    touch scan."""
    out = [0.5, 0.0, 1.0, -0.25, 1.75, 0.3 + 0.2j, 0.7 - 0.05j,
           (0.5 + 0.25j, 0.25), (0.3 - 0.2j, 0.2), (2.0 + 0.5j, 0.5)]
    walk = spec.walk_poles or []
    picks = {1, 2, spec.max_index // 2, spec.max_index,
             spec.max_index + 1, len(walk)}
    for k in sorted(p for p in picks if 1 <= p <= len(walk)):
        b = walk[k - 1]
        out += [b, math.nextafter(b, math.inf), complex(b, 1e-300),
                (complex(b, 1e-3), 1e-3), (complex(b + 1e-9, 1e-12), 1e-12)]
        if k <= spec.max_index:
            out.append(spec.gap(k).a)
    return out


def _rule_id(rule):
    if rule.kind == "affine":
        return f"affine{rule.slope:g}/{rule.offset:g}"
    return f"factorial{rule.shift}" if rule.kind == "factorial" else \
        "explicit"


def _tail_cases():
    for rule in TAIL_RULES:
        for depth in (0, 1, 16, 150, 2000):
            if rule.kind == "factorial" and depth > 150:
                continue        # c overflows: the build refuses
            yield pytest.param(rule, depth, id=f"{_rule_id(rule)}-{depth}")


@pytest.mark.parametrize("rule, depth", list(_tail_cases()))
def test_tail_bound_matches_the_full_pole_loop(rule, depth):
    spec = build_cantor_spec(0.0, 1.0, rule, N=depth)
    M = spec.max_index
    Ns = sorted({0, 1, 2, M // 4, M // 2, M} & set(range(M + 1)))
    seen = set()
    for region in _tail_regions(spec):
        for N in Ns:
            want = _outcome(_reference_tail_bound, spec, N, region)
            assert _outcome(tail_bound, spec, N, region) == want, \
                (region, N)
            seen.add(want[0] if want[0] == "RegionViolatesEN" else "ok")
    assert "ok" in seen


def test_tail_bound_stops_at_the_underflow_index(monkeypatch):
    spec = build_cantor_spec(0.0, 1.0, RULE5, N=4096)
    visits = []
    jcj = CRule.jcj

    def counting(self, j):
        visits.append(j)
        return jcj(self, j)
    monkeypatch.setattr(CRule, "jcj", counting)
    z = 0.3 + 0.2j
    got = tail_bound(spec, 0, z)
    assert len(visits) < 40
    visits.clear()
    want = _reference_tail_bound(spec, 0, z)
    assert len(visits) > 4096
    assert (got.log_sum.hex(), got.terms) == (want.log_sum.hex(), 4097)


# -- eval_f against candidates that walk every pole ---------------------

def _reference_eval_f(spec, z, tol, walk):
    """eval_f as it was before a failing candidate could give up early:
    walk(N) is the full tail walk of candidate N."""
    if tol <= 0.0:
        raise PreconditionFailure("tol must be positive", field="tol")
    N = 1 if spec.max_index else 0
    while True:
        N = min(N, spec.max_index)
        try:
            tb = walk(N)
            if tb.bound <= tol:
                return eval_partial_product(spec, N, z), tb.bound, N
        except RegionViolatesEN:
            pass
        if N >= spec.max_index:
            raise NoConvergence(
                f"tail bound above tol={tol} at max materialization",
                field="tol")
        N = min(2 * N if N else 1, spec.max_index)


def _full_walks(spec, z):
    """_reference_tail_bound at z, each candidate depth walked once."""
    done = {}

    def walk(N):
        if N not in done:
            try:
                done[N] = _reference_tail_bound(spec, N, z)
            except RegionViolatesEN as e:
                done[N] = e
        if isinstance(done[N], Exception):
            raise done[N]
        return done[N]
    return walk


def _eval_outcome(fn, *args):
    try:
        val, err, N = fn(*args)
    except PreconditionFailure as e:
        return type(e).__name__, str(e), e.field
    return val.log_mag.hex(), val.arg.hex(), err.hex(), N


def _eval_points(spec):
    """The point regions of _tail_regions, and one ulp either side of
    every picked gap's ends."""
    out = [r for r in _tail_regions(spec) if not isinstance(r, tuple)]
    for j in sorted({1, 2, spec.max_index // 2, spec.max_index}):
        if 1 <= j <= spec.max_index:
            g = spec.gap(j)
            out += [math.nextafter(x, d) for x in (g.a, g.b)
                    for d in (-math.inf, math.inf)]
    return out


EVAL_TOLS = (1e-300, 1e-12, 1e-6, 1.0)


@pytest.mark.parametrize("rule, depth", list(_tail_cases()))
def test_eval_f_matches_the_full_walks(rule, depth):
    spec = build_cantor_spec(0.0, 1.0, rule, N=depth)
    seen = set()
    for z in _eval_points(spec):
        walk = _full_walks(spec, z)
        for tol in EVAL_TOLS:
            want = _eval_outcome(_reference_eval_f, spec, z, tol, walk)
            assert _eval_outcome(eval_f, spec, z, tol) == want, (z, tol)
            seen.add(want[0] if len(want) == 3 else "ok")
    # a slow rule cannot meet any tol without a single gap
    assert "ok" in seen or depth == 0


def test_eval_f_gives_up_exactly_at_a_subnormal_tol():
    # the bound 2.0454e-320 lies on a grid of 5e-324: log(tol) sits
    # 4.9e-5 below its log term, so only the double after tol keeps the
    # give-up level above the term and the depth that meets tol
    spec = build_cantor_spec(0.0, 1.0, CRule("affine", slope=184.0,
                                             offset=0.0), N=1)
    z = 3.0 + 1.0j
    tol = tail_bound(spec, 1, z).bound
    assert 0.0 < tol < sys.float_info.min
    assert eval_f(spec, z, tol=tol)[1:] == (tol, 1)
    with pytest.raises(NoConvergence):
        eval_f(spec, z, tol=math.nextafter(tol, 0.0))


def test_eval_f_walks_only_the_accepted_depth_in_full(monkeypatch):
    import types
    from finehull import product
    spec = build_cantor_spec(0.0, 1.0, CRule("affine", slope=0.002,
                                             offset=1.0), N=2000)
    calls = []
    counting = types.SimpleNamespace(**vars(math))
    counting.log = lambda x: calls.append(x) or math.log(x)
    monkeypatch.setattr(product, "math", counting)
    for z in (0.3 + 0.2j, 2.0, -0.3 + 0.5j):
        calls.clear()
        N = eval_f(spec, z)[2]
        in_eval = len(calls)
        calls.clear()
        tail_bound(spec, N, z)
        # one full walk (~650 logs) and a few terms per failed depth;
        # walking every candidate in full took ~3200-3900
        assert N == 32 and in_eval < len(calls) + 64, (z, in_eval)


def test_poles_farther_than_the_largest_double_are_far():
    # |z - pole| overflows for some poles of WIDE and every pole of FAR
    wide = build_cantor_spec(-4e307, 4e307, RULE5, N=4)
    z = complex(1.2e308, 1.2e308)
    root = LogComplex.from_complex(z - wide.b0).log_mag - \
        LogComplex.from_complex(z - wide.a0).log_mag
    assert eval_partial_product(wide, 4, z).log_mag == \
        pytest.approx(root, rel=1e-15)
    assert eval_f(wide, z)[0] == eval_partial_product(wide, 1, z)
    assert certify_en_point(wide, z, 1)
    far = build_cantor_spec(3e307, 4.4e307,
                            CRule("explicit", values=(1.0, 2.0, 3.0, 4.0)),
                            N=4)
    tb = tail_bound(far, 0, complex(-1.2e308, 1.2e308))
    assert (tb.log_sum, tb.terms, tb.bound) == (-math.inf, 4, 0.0)


def test_tail_past_overflowing_j_c_j_is_exactly_zero():
    # (j + 2)! overflows from j = 169 on: every term past N = 167 is 0.0
    spec = build_cantor_spec(0.0, 1.0, RULEF, N=168)
    for z in (2.0, 0.3 + 0.1j, 0.5):
        tb = tail_bound(spec, 167, z)
        assert (tb.log_sum, tb.terms, tb.bound) == (-math.inf, 2, 0.0)


# -- gap products whose differences pass the largest double -------------

WIDE = build_cantor_spec(-4e307, 4e307, RULE5, N=4)


def _mp_partial_product(spec, N, z):
    """(log|f_N(z)|, arg f_N(z)) at 50 digits from the spec's float gap
    ends."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        f = (z - spec.b0) / (z - spec.a0)
        for a, b in zip(spec.a[:N], spec.b[:N]):
            f *= (z - a) / (z - b)
        return float(mpmath.log(abs(f))), float(mpmath.arg(f))


@pytest.mark.parametrize("z", [1.7e308, 1.7e308 + 1j, -1.7e308,
                               complex(-1.7e308, -3e307), 1.75e308 + 1e307j])
def test_root_quotient_past_the_largest_double_matches_mpmath(z):
    # z - a0 or z - b0 overflows: log|f| was -inf or +inf with err 0.0
    log_mag, arg = _mp_partial_product(WIDE, 4, z)
    for v in (eval_partial_product(WIDE, 4, z), eval_f(WIDE, z)[0]):
        assert abs(v.log_mag - log_mag) <= 4 * math.ulp(log_mag)
        assert abs(v.arg - arg) <= 4 * math.ulp(max(abs(arg), 1e-300))


def test_laurent_on_a_wide_spec_refuses_without_a_warning():
    # the old vector sum overflowed here and let a NaN contour pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure) as e:
            laurent_c1(WIDE, 4)
        assert e.value.field == "tol"
        # a radius past the largest double (only a spec built by hand),
        # and one whose margin 2 over the root is lost in rounding
        huge = CantorSpec(-1e308, 1e308, RULE5, "bisect", 0, (), (),
                          ((-1e308, 1e308),))
        for spec in (huge, build_cantor_spec(0.0, 1e300, RULE5, N=3)):
            with pytest.raises(QuadratureFailure) as e:
                laurent_c1(spec, tol=1e300)
            assert e.value.field == "spec"
