import cmath
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from finehull.blaschke import (_radius, blaschke_sample_E,
                               blaschke_spec_from_json, blaschke_tail_bound,
                               build_blaschke_spec, certify_arc_point,
                               disk_fine_sets, eval_blaschke, extra_zeros,
                               fb_sheet, fb_sheet_spacing,
                               smallest_closing_N, van_der_corput)
from finehull.cantor import MAX_DEPTH, CRule
from finehull.errors import (BranchAtCut, DegenerateSet, NotInEN, PoleHit,
                             PreconditionFailure)
from finehull.logspace import LogComplex, wrap_angle
from finehull.potential import arc, exact_capacity, union_capacity_bound

RULE5 = CRule("affine", slope=5.0, offset=0.0)
SLOW = CRule("affine", slope=0.05, offset=1.0)
QUARTER = 0.5 * math.pi
SPEC = build_blaschke_spec(0.0, QUARTER, RULE5, 16)


def test_van_der_corput_prefix():
    assert [van_der_corput(j) for j in range(1, 6)] == \
        [0.5, 0.25, 0.75, 0.125, 0.625]


@given(st.integers(1, 4096))
def test_van_der_corput_range_and_injectivity(j):
    v = van_der_corput(j)
    assert 0.0 < v < 1.0
    assert v != van_der_corput(j + 1)


def test_radius_solves_the_distance_condition():
    # 1/r - r = t places the pole at distance t from the zero's radius
    r = _radius(-math.log(10.0))[0]
    assert r == pytest.approx(0.9512492197250393, rel=1e-15)
    t = math.exp(-5.0)
    r5 = _radius(-RULE5.jcj(1))[0]
    assert r5 == pytest.approx(0.9966367014755749, rel=1e-15)
    assert (1.0 - r5 * r5) / r5 == pytest.approx(t, rel=1e-12)
    assert 1.0 - r5 == pytest.approx(t / 2.0, rel=5e-3)


def test_deep_zeros_degenerate_to_unit_radius():
    spec = build_blaschke_spec(0.0, QUARTER, CRule("factorial", shift=2), 8)
    assert spec.zeros[7].degenerate
    assert spec.zeros[7].r == 1.0
    # degenerate factors are exact unit factors
    assert eval_blaschke(spec, 8, 0.1 + 0.1j).log_mag == \
        eval_blaschke(spec, 7, 0.1 + 0.1j).log_mag


def test_zero_and_pole():
    z1 = SPEC.zeros[0]
    assert eval_blaschke(SPEC, 16, z1.a).is_zero
    with pytest.raises(PoleHit):
        eval_blaschke(SPEC, 16, z1.pole)


def _chained_eval_blaschke(spec, N, z):
    """eval_blaschke as a chain of LogComplex factors, each product and
    quotient wrapping its argument: the reference for the summed logs."""
    out = LogComplex.from_complex(z).powi(spec.l) if spec.l else \
        LogComplex.one()
    for zero in spec.zeros[:N] + spec.extras[:N]:
        a = zero.a
        if zero.degenerate:
            f = LogComplex.one()
        elif abs(z) <= 1.0:
            den = 1.0 - a.conjugate() * z
            f = LogComplex.from_polar(0.0, wrap_angle(-zero.theta)) * \
                LogComplex.from_complex(a - z) / LogComplex.from_complex(den)
        else:
            den = zero.pole - z
            f = LogComplex.from_polar(-math.log(zero.r), 0.0) * \
                LogComplex.from_complex(a - z) / LogComplex.from_complex(den)
        out = out * f
    return out


# RULE5 zeros have modulus 1 from index 3 on, SLOW ones from 19 on; the
# unwrapped sum of the factor arguments grows with the factor count, and
# so does its rounding: up to 3 ulp(pi) over 5 factors, 7 over 16 to 19
@pytest.mark.parametrize("rule, ulps", [(RULE5, 4.0), (SLOW, 8.0)],
                         ids=["slope5", "slow"])
@pytest.mark.parametrize("l, extras", [(0, 0), (2, 3)])
def test_summed_factor_logs_match_the_chained_factors(rule, ulps, l, extras):
    spec = build_blaschke_spec(0.0, QUARTER, rule, 16, l=l, extras=extras)
    rng = random.Random(20)
    zs = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
          for _ in range(400)] + [0j, 1.0, 1j, cmath.exp(0.3j), 1e5 + 3j]
    moved = 0
    for z in zs:
        got, want = eval_blaschke(spec, 16, z), _chained_eval_blaschke(
            spec, 16, z)
        assert got.log_mag.hex() == want.log_mag.hex()
        # the argument is wrapped once, not after each factor
        d = abs(got.arg - want.arg)
        assert min(d, 2.0 * math.pi - d) <= ulps * math.ulp(math.pi)
        moved += got.arg != want.arg
    assert moved < len(zs) // 4


def test_value_at_origin_is_the_radius_product():
    got = eval_blaschke(SPEC, 16, 0j).to_complex()
    want = 1.0
    for z in SPEC.zeros:
        want *= z.r
    assert got == pytest.approx(want, rel=1e-14)
    assert got.imag == 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi))
def test_unimodular_on_the_circle(theta):
    z = cmath.exp(1j * theta)
    try:
        b = eval_blaschke(SPEC, 16, z)
    except PoleHit:
        return
    assert abs(b.log_mag) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9,
                          allow_nan=False, allow_infinity=False))
def test_reflection_identity(w):
    inner = eval_blaschke(SPEC, 16, w)
    outer = eval_blaschke(SPEC, 16, 1.0 / w.conjugate())
    assert abs((outer * inner.conj()).to_complex() - 1.0) < 1e-10


def test_tail_bound_values():
    assert blaschke_tail_bound(SPEC, 16, 0.3 + 0.2j) == 0.0
    t8 = blaschke_tail_bound(SPEC, 8, 0.3 + 0.2j)
    assert 0.0 < t8 < 1e-100


def test_tail_bound_rejects_points_near_future_poles():
    z2 = SPEC.zeros[1]
    with pytest.raises(NotInEN):
        blaschke_tail_bound(SPEC, 1, cmath.exp(1j * z2.theta))


def test_tail_bound_checks_would_be_zeros():
    # zeros 5..16 of a depth-40 build are would-be zeros of a depth-4
    # spec: at their arguments a distance condition past N = 4 fails
    shallow = build_blaschke_spec(0.0, QUARTER, SLOW, 4)
    deep = build_blaschke_spec(0.0, QUARTER, SLOW, 40)
    for zero in deep.zeros[4:16]:
        with pytest.raises(NotInEN):
            blaschke_tail_bound(shallow, 4, cmath.exp(1j * zero.theta))
    # near those zeros every returned bound covers the deeper truncation
    rng = random.Random(0)
    returned = 0
    for _ in range(200):
        zero = deep.zeros[rng.randrange(4, 16)]
        z = cmath.exp(1j * zero.theta) * \
            (1.0 - 10.0 ** -rng.uniform(1.0, 8.0)) * \
            cmath.exp(1j * rng.uniform(-1e-3, 1e-3))
        try:
            bound = blaschke_tail_bound(shallow, 4, z)
        except NotInEN:
            continue
        returned += 1
        ratio = eval_blaschke(deep, 40, z) / eval_blaschke(deep, 4, z)
        assert abs(ratio.to_complex() - 1.0) <= bound
    assert 0 < returned < 200


def test_certification_against_would_be_poles():
    theta17 = QUARTER * van_der_corput(17)
    assert not certify_arc_point(SPEC, theta17, 16)
    assert certify_arc_point(SPEC, QUARTER / 3.0, 16)


@pytest.mark.parametrize("N", [0, 4, 16])
def test_would_be_poles_match_a_deeper_build(N):
    rule = CRule("affine", slope=0.05, offset=1.0)
    spec = build_blaschke_spec(0.0, QUARTER, rule, N)
    deeper = build_blaschke_spec(0.0, QUARTER, rule, N + 8)
    walk = spec.walk_poles

    def hexes(poles):
        return [(p.real.hex(), p.imag.hex()) for p in poles]
    assert hexes(walk[:N]) == hexes(z.pole for z in spec.zeros)
    assert hexes(walk[N:N + 8]) == hexes(z.pole for z in deeper.zeros[N:])
    # moduli round to 1 from index 19 on: the closed form covers them too
    assert any(z.degenerate for z in deeper.zeros) == (N == 16)


def test_spec_json_roundtrip():
    obj = {"l": 0, "alpha": 0.0, "beta": QUARTER,
           "c_rule": RULE5.to_json_obj(), "N": 16, "extras": 0}
    assert blaschke_spec_from_json(json.dumps(obj)) == SPEC


def test_extra_zeros_ladder():
    ex = extra_zeros(0.0, QUARTER, 2)
    assert [e.r for e in ex] == [0.5, 0.75]
    for e in ex:
        # extra zeros live on the complementary arc
        assert not 0.0 <= e.theta <= QUARTER


def test_capacity_chain_closes_immediately():
    n_star = smallest_closing_N(SPEC, 16)
    assert n_star == 1
    fs = disk_fine_sets(SPEC, n_star)
    assert fs.chain_closes
    assert fs.cap_ambient_floor == exact_capacity(arc(0.0, QUARTER))
    assert fs.fn_bound.bound < fs.cap_ambient_floor
    assert fs.sum_segments == 0.0


# fn_bound.log_bound, sum_disks and meshable disk count of SPEC's chain
# at depth N, as the separate disk-family chain gave them
DISK_CHAIN = {1: ("-0x1.0754d4de4670ap+0", "0x1.514630022449ep-1", 3),
              2: ("-0x1.a884b37fe6c0bp+1", "0x1.08f2c66aaefa2p-2", 2),
              3: ("-0x1.6e392652c9683p+2", "0x1.4518c00891276p-3", 1)}


@pytest.mark.parametrize("N", sorted(DISK_CHAIN))
def test_disk_fine_sets_values_are_pinned(N):
    log_bound, sum_disks, shapes = DISK_CHAIN[N]
    fs = disk_fine_sets(SPEC, N)
    assert fs.fn_bound.log_bound.hex() == log_bound
    assert fs.sum_disks.hex() == sum_disks
    assert sum(s.meshable for s in fs.FN.shapes) == shapes
    assert len(fs.FN.shapes) == 17 - N
    assert fs.cap_ambient_floor.hex() == "0x1.87de2a6aea963p-2"


def test_disk_fine_sets_without_a_meshable_disk():
    # from N = 4 on every protection disk is below MESH_RESOLUTION: the
    # disks stay in F_N unmeshed, the chain still closes, and only the arc
    # sample, which needs shapes to mesh, refuses
    fs = disk_fine_sets(SPEC, 4)
    assert [s.log_size for s in fs.FN.shapes] == \
        [-0.5 * RULE5.jcj(j) for j in range(4, 17)]
    assert not any(s.meshable for s in fs.FN.shapes)
    assert fs.JN.shapes == (arc(0.0, QUARTER),) + fs.FN.shapes
    assert fs.chain_closes
    assert fs.fn_bound.bound < 3e-4
    # the union bound sees the disks where they are, along the arc
    assert fs.FN.diameter_bound() > 1.0
    assert union_capacity_bound(fs.FN).members == 13
    with pytest.raises(DegenerateSet, match="no meshable shapes"):
        blaschke_sample_E(SPEC, 4, samples=8)


def test_arc_sample_has_certified_points():
    rows = blaschke_sample_E(SPEC, 1, samples=8)
    certified = [r for r in rows if r.in_EN]
    assert len(rows) == 8
    assert len(certified) == 6
    for r in certified:
        assert 0.0 < r.theta < QUARTER
        assert r.u > 0.0


def test_sheets_are_evenly_spaced_and_distinct():
    z = 0.3 + 0.2j
    spacing = fb_sheet_spacing(SPEC, z).to_complex()
    values = [fb_sheet(SPEC, k, z).to_complex() for k in range(-3, 4)]
    assert len(set(values)) == 7
    for lo, hi in zip(values, values[1:]):
        assert hi - lo == pytest.approx(spacing, rel=1e-13)


def test_sheet_branch_cut():
    with pytest.raises(BranchAtCut):
        fb_sheet(SPEC, 0, -3.0 + 0.0j)


@pytest.mark.parametrize("N, extras, field", [
    (-1, 0, "N"), (MAX_DEPTH + 1, 0, "N"), (4, -1, "extras"),
    (4, 10 ** 12, "extras")])
def test_zero_counts_are_capped(N, extras, field):
    with pytest.raises(PreconditionFailure) as e:
        build_blaschke_spec(0.0, QUARTER, RULE5, N, extras=extras)
    assert e.value.field == field
