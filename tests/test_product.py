import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finehull import acceptance
from finehull.cantor import (CRule, GapInterval, build_cantor_spec,
                             cantor_length, sum_gap_lengths)
from finehull.errors import (DomainViolation, NotInEN, PoleHit,
                             PreconditionFailure, QuadratureFailure,
                             RegionViolatesEN)
from finehull.product import (BranchTag, _factor_logs, _gap_factor_log,
                              certify_en_point, eval_f, eval_partial_product,
                              eval_partial_product_many, fine_boundary_value,
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


def test_underflowed_quotients_keep_their_log():
    # (z - b0)/(z - a0) = 5e-324j / 2 rounds to 0 although z != b0
    spec = build_cantor_spec(0.0, 2.0, RULE5, N=4)
    z = complex(2.0, 5e-324)
    assert _factor_logs(spec, 2, z)[0] == \
        complex(math.log(5e-324) - math.log(2.0), 0.5 * math.pi)
    val = eval_partial_product(spec, 2, z)
    assert val.log_mag == pytest.approx(-745.13, abs=0.01)
    log_mag, arg = eval_partial_product_many(spec, 2, [z])
    assert (log_mag[0], arg[0]) == (val.log_mag, val.arg)
    # the near-gap branch, on a gap wide enough to underflow its quotient
    wide = GapInterval(1, 0.0, math.log(8.0))
    assert _gap_factor_log(wide, complex(wide.a, 5e-324)) == \
        complex(math.log(5e-324) - math.log(wide.b - wide.a), -0.5 * math.pi)


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


# -- the vector gap product against the scalar one ------------------------

EPS = sys.float_info.epsilon
TINY = sys.float_info.min                   # below it: subnormal
# the three acceptance specs; SPEC5 has zero-length gaps from j = 13 on,
# the factorial spec from j = 5 on
VSPECS = [SPEC5, SPECF, acceptance._spec_slow()]


def _points(spec):
    """Points that exercise every branch of the gap product."""
    R = 2.0 * (abs(spec.a0) + abs(spec.b0)) + 2.0
    gaps = st.sampled_from(spec.gaps)
    sub = st.floats(-TINY, TINY)
    unit = st.floats(-9.0, 9.0)
    circle = st.floats(0.0, 2.0 * math.pi).map(lambda t: cmath.rect(R, t))
    strip = st.builds(lambda x, y, s: complex(x, s * y),
                      st.floats(-3.0, 3.0), st.floats(0.01, 3.0),
                      st.sampled_from([-1.0, 1.0]))
    near = st.builds(lambda g, s, t: complex(g.center + s * g.length,
                                             t * g.length), gaps, unit, unit)
    in_gap = st.builds(lambda g, s, y: complex(g.center + s * g.length, y),
                       gaps, st.floats(-0.5, 0.5),
                       st.sampled_from([0.0, -0.0]))
    on_root = st.builds(complex, st.floats(spec.a0, spec.b0),
                        st.sampled_from([0.0, -0.0]))
    ends = st.builds(lambda g, end: complex(getattr(g, end)), gaps,
                     st.sampled_from(["a", "b"]))
    bases = [spec.a0, spec.b0] + [v for g in spec.gaps
                                  for v in (g.a, g.b, g.center)]
    offset = st.builds(lambda b, dx, dy: complex(b + dx, dy),
                       st.sampled_from(bases), sub, sub)
    return st.one_of(circle, strip, near, in_gap, on_root, ends, offset)


@st.composite
def _batches(draw):
    spec = draw(st.sampled_from(VSPECS))
    N = draw(st.integers(0, spec.max_index))
    return spec, N, draw(st.lists(_points(spec), min_size=1, max_size=24))


def _scalar_near(spec, N, z):
    """The scalar path takes its near-gap branch at z."""
    return any(g.length > 0.0 and abs(z - g.center) <= 8.0 * g.length
               for g in spec.gaps[:N])


def _angle_gap(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


@settings(max_examples=300, deadline=None)
@given(_batches())
def test_vector_product_matches_scalar(batch):
    spec, N, pts = batch
    want, poles = [], []
    for z in pts:
        try:
            want.append(eval_partial_product(spec, N, z))
        except PoleHit as e:
            poles.append((z, str(e)))
    if poles:
        # the first pole of the batch raises the scalar path's PoleHit
        with pytest.raises(PoleHit) as e:
            eval_partial_product_many(spec, N, pts)
        assert str(e.value) == poles[0][1]
        pole_pts = {z for z, _ in poles}
        pts = [z for z in pts if z not in pole_pts]
        if not pts:
            return
    log_mag, arg = eval_partial_product_many(spec, N, pts)
    assert log_mag.shape == arg.shape == (len(pts),)
    for z, w, lm, a in zip(pts, want, log_mag.tolist(), arg.tolist()):
        if w.is_zero or _scalar_near(spec, N, z) or \
                not math.isfinite(w.log_mag):
            # routed through the scalar path: the same bits, zero signs too
            assert repr((lm, a)) == repr((w.log_mag, w.arg)), z
            continue
        # otherwise within 4 (N + 2) ulps of the factor-log magnitudes:
        # numpy's log, log1p and atan2 may differ from libm's last bits
        logs = _factor_logs(spec, N, z)
        budget = 4.0 * (N + 2) * EPS
        assert abs(lm - w.log_mag) <= \
            budget * sum(abs(l.real) for l in logs) + 5e-324, z
        assert _angle_gap(a, w.arg) <= \
            budget * (sum(abs(l.imag) for l in logs) + math.pi), z
        assert -math.pi < a <= math.pi


def test_vector_product_keeps_conventions_and_shape():
    g = SPEC5.gap(1)
    pts = np.array([[0.3, g.center], [g.a, complex(0.3, -0.0)]])
    log_mag, arg = eval_partial_product_many(SPEC5, 16, pts)
    assert log_mag.shape == arg.shape == (2, 2)
    assert arg[0, 0] == arg[1, 1] == math.pi    # root interval: +pi
    assert arg[0, 1] == 0.0                     # +pi, then -pi in gap 1
    assert (log_mag[1, 0], arg[1, 0]) == (-math.inf, 0.0)   # zero at a_1
    # subnormal distance to a0: Python divides it, numpy's complex
    # division gives inf + nan j; the value is the scalar one
    a = complex(0.0, 6.0967e-314)
    log_mag, arg = eval_partial_product_many(SPEC5, 4, [a])
    v = eval_partial_product(SPEC5, 4, a)
    assert (log_mag[0], arg[0]) == (v.log_mag, v.arg)


@pytest.mark.parametrize("N", [-1, 17])
def test_depth_outside_the_materialization_is_refused(N):
    calls = [lambda: eval_partial_product(SPEC5, N, 2.0),
             lambda: eval_partial_product_many(SPEC5, N, [2.0]),
             lambda: sqrt_branch(SPEC5, N, 2.0, BranchTag.D_PLUS),
             lambda: tail_bound(SPEC5, N, 2.0),
             lambda: laurent_c1(SPEC5, N)]
    for call in calls:
        with pytest.raises(PreconditionFailure) as e:
            call()
        assert e.value.field == "N"


@pytest.mark.parametrize("nodes", [0, -4])
def test_laurent_needs_a_node(nodes):
    with pytest.raises(PreconditionFailure) as e:
        laurent_c1(SPEC5, 2, nodes=nodes)
    assert e.value.field == "nodes"


def _scalar_laurent(spec, n, nodes, tol):
    """laurent_c1 as one scalar eval_partial_product per node."""
    formula = sum_gap_lengths(spec, n) - spec.root_length
    R = 2.0 * (abs(spec.a0) + abs(spec.b0)) + 2.0
    acc = 0.0 + 0.0j
    for k in range(nodes):
        zk = cmath.rect(R, 2.0 * math.pi * k / nodes)
        fk = eval_partial_product(spec, n, zk).to_complex()
        acc += (fk - 1.0) * zk
    acc /= nodes
    ok = not (abs(acc.imag) > tol or abs(acc.real - formula) > tol)
    return formula, acc.real, ok


@pytest.mark.parametrize("spec, n, nodes, tol", [
    *[(SPEC5, n, 4096, 1e-8) for n in range(9)],
    (SPEC5, 16, 4096, 1e-8), (SPECF, 4, 4096, 1e-8),
    (SPECF, 16, 1000, 1e-8), (acceptance._spec_slow(), 32, 4096, 1e-8),
    (SPEC5, 3, 7, 1e-8), (SPEC5, 3, 1, 1e-8), (SPEC5, 3, 4096, 1e-18)])
def test_laurent_matches_the_scalar_loop(spec, n, nodes, tol):
    formula, contour, ok = _scalar_laurent(spec, n, nodes, tol)
    try:
        lc = laurent_c1(spec, n, nodes=nodes, tol=tol)
    except QuadratureFailure:
        assert not ok
        return
    assert ok
    assert lc.formula == formula
    assert abs(lc.contour - contour) <= 1e-13


def test_laurent_reruns_are_equal():
    first = [laurent_c1(SPEC5, n) for n in range(9)]
    laurent_c1(SPECF, 16)
    assert [laurent_c1(SPEC5, n) for n in range(9)] == first
