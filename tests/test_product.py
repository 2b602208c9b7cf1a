import math

import pytest
from hypothesis import given, settings, strategies as st

from finehull import acceptance
from finehull.cantor import CRule, build_cantor_spec, cantor_length
from finehull.errors import (DomainViolation, NotInEN, PoleHit,
                             RegionViolatesEN)
from finehull.product import (BranchTag, certify_en_point, eval_f,
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
