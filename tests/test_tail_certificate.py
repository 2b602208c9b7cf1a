"""The one tail walk, product._tail_walk, against outside references.

blaschke_tail_bound is checked against the product it bounds, formed at
50 digits with mpmath over the represented zeros: each at its stored
argument with the exact modulus 1 - e^{log_one_minus_r}.  The refusals
of both spec families are checked against cantor._last_violation, the
distance check that certify_en_point and certify_arc_point run.  The
suite replays the same draws on every run; fresh draws:

    HYPOTHESIS_PROFILE=random python -m pytest -q tests/test_tail_certificate.py
"""

import cmath
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from finehull.blaschke import blaschke_tail_bound, build_blaschke_spec
from finehull.cantor import (MAX_DEPTH, CRule, _last_violation,
                             build_cantor_spec)
from finehull.errors import NotInEN, PreconditionFailure, RegionViolatesEN
from finehull.product import tail_bound

QUARTER = 0.5 * math.pi
RULES = {
    "slope5": CRule("affine", slope=5.0, offset=0.0),
    "factorial2": CRule("factorial", shift=2),
    "slope0.05/1": CRule("affine", slope=0.05, offset=1.0),
    "slope0.002/1": CRule("affine", slope=0.002, offset=1.0),
    "explicit": CRule("explicit",
                      values=tuple(1.0 + 0.05 * j for j in range(1, 41))),
}
# the three disk specs of the oracle gate
ORACLE_RULES = ("slope5", "factorial2", "slope0.05/1")


@lru_cache(maxsize=None)
def _disk_spec(key, depth, extras=0):
    return build_blaschke_spec(0.0, QUARTER, RULES[key], depth, extras=extras)


@lru_cache(maxsize=None)
def _cantor_spec(key, depth):
    return build_cantor_spec(0.0, 1.0, RULES[key], N=depth)


def _nudge(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# -- blaschke_tail_bound against the 50-digit product ----------------------

def _disk_tail_oracle(spec, N, z):
    """|B/B_N - 1| at 50 digits over arc zeros N+1 .. horizon and extras
    N+1 ..: b - 1 = -(1 - r)(a + r z) / (a (1 - conj(a) z)) keeps its
    relative precision however small 1 - r is.  A zero past the horizon
    moves the product by less than 3 e^{-746}, inside the bound's
    majorant."""
    mpmath = pytest.importorskip("mpmath")
    deep = build_blaschke_spec(spec.alpha, spec.beta, spec.c_rule,
                               spec.horizon)
    with mpmath.workdps(50):
        w = mpmath.mpc(z)
        s = mpmath.mpf(0)
        for zero in deep.zeros[N:] + spec.extras[N:]:
            u = mpmath.exp(zero.log_one_minus_r)
            a = (1 - u) * mpmath.expj(zero.theta)
            s += mpmath.log1p(-u * (a + (1 - u) * w) /
                              (a * (1 - mpmath.conj(a) * w)))
        return abs(mpmath.expm1(s))


def _covers(spec, N, z):
    """True when blaschke_tail_bound answers at z and its bound covers
    the 50-digit product, False when it refuses.

    The slack is what the bound does not certify, as it covers
    truncation only: rounding of its log-space sum (1e-12 relative), and
    the double poles it measures distances to, within 4e-16 of the exact
    ones, which moves a term by 4e-16/d relative at distance d.
    """
    try:
        bound = blaschke_tail_bound(spec, N, z)
    except NotInEN:
        return False
    poles = spec.walk_poles[N:] + [zero.pole for zero in spec.extras[N:]]
    d_min = min((abs(p - z) for p in poles), default=math.inf)
    want = _disk_tail_oracle(spec, N, z)
    slack = 1e-12 + 4e-16 / d_min
    assert want <= bound * (1.0 + slack) + 2.0 ** -1074, (N, z, bound, want)
    return True


# both sides of the unit circle, off and near the zero arc [0, pi/2]
ORACLE_POINTS = [0.3 + 0.2j, -0.5j, 0.9 * cmath.exp(0.2j),
                 0.99 * cmath.exp(1.3j), 1.01 * cmath.exp(1.3j),
                 1.1 * cmath.exp(0.7j), 2.0 + 1.0j, -1.5, cmath.exp(2.0j)]


@pytest.mark.parametrize("extras", [0, 3])
@pytest.mark.parametrize("key", ORACLE_RULES)
def test_disk_tail_bound_covers_the_product_at_50_digits(key, extras):
    spec = _disk_spec(key, 16, extras)
    answered = sum(_covers(spec, N, z) for N in (0, 1, 4, 15, 16)
                   for z in ORACLE_POINTS)
    assert answered >= 30


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(ORACLE_RULES), depth=st.sampled_from([4, 16]),
       extras=st.sampled_from([0, 3]), n=st.integers(0, 16),
       pick=st.floats(0.0, 1.0, exclude_max=True),
       near=st.booleans(), side=st.sampled_from([-1.0, 1.0]),
       log_step=st.floats(-12.0, -0.5), turn=st.floats(-1e-3, 1e-3),
       modulus=st.floats(0.05, 3.0), arg=st.floats(-math.pi, math.pi))
def test_disk_tail_bound_covers_drawn_points(key, depth, extras, n, pick,
                                             near, side, log_step, turn,
                                             modulus, arg):
    # near=True: radially off a pole of the walk, where q_j is tightest
    spec = _disk_spec(key, depth, extras)
    if near:
        b = spec.walk_poles[int(pick * len(spec.walk_poles))]
        z = b * (1.0 + side * 10.0 ** log_step) * cmath.exp(1j * turn)
    else:
        z = cmath.rect(modulus, arg)
    _covers(spec, min(n, depth), z)


# -- one distance check: refusals against _last_violation ----------------

def _disk_refuses(spec, N, z):
    try:
        blaschke_tail_bound(spec, N, z)
    except NotInEN:
        return True
    return False


def _interval_refuses(spec, N, x):
    try:
        tail_bound(spec, N, x)
    except RegionViolatesEN:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(RULES)), depth=st.sampled_from([4, 16]),
       n=st.integers(0, 16), pick=st.floats(0.0, 1.0, exclude_max=True),
       re_steps=st.integers(-3, 3), im_steps=st.integers(-3, 3))
def test_disk_tail_refuses_exactly_where_a_condition_fails(
        key, depth, n, pick, re_steps, im_steps):
    # on a pole of the walk, materialized or would-be, or a few ulps off
    spec = _disk_spec(key, depth)
    b = spec.walk_poles[int(pick * len(spec.walk_poles))]
    z = complex(_nudge(b.real, re_steps), _nudge(b.imag, im_steps))
    N = min(n, depth)
    last = _last_violation(spec, z)
    assert _disk_refuses(spec, N, z) == (last is None or last > N)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(RULES)), depth=st.sampled_from([1, 16]),
       n=st.integers(0, 16), pick=st.floats(0.0, 1.0, exclude_max=True),
       steps=st.integers(-3, 3), at=st.sampled_from(["a", "b", "free"]),
       free=st.floats(0.0, 1.0))
def test_interval_tail_refuses_exactly_where_a_condition_fails(
        key, depth, n, pick, steps, at, free):
    # a point of the root [0, 1]: a few ulps from a pole of the walk or a
    # materialized gap's left end, or anywhere
    spec = _cantor_spec(key, depth)
    walk = spec.walk_poles
    k = int(pick * len(walk))
    x = {"a": spec.a[min(k, depth - 1)], "b": walk[k], "free": free}[at]
    x = min(max(_nudge(x, steps), spec.a0), spec.b0)
    N = min(n, depth)
    last = _last_violation(spec, x)
    assert _interval_refuses(spec, N, x) == (last is None or last > N)


@pytest.fixture(scope="module")
def deepest_disk():
    return _disk_spec("slope0.002/1", MAX_DEPTH)


@pytest.mark.parametrize("k", [1000, 65536, MAX_DEPTH - 1])
def test_a_pole_past_the_cutoff_still_refuses(deepest_disk, k):
    # the walk stops near index 670, where j c_j / 2 passes 746; pole
    # b_{k+1} lies past it, its zero's modulus rounded to 1.0, and only
    # the touch scan can find it
    spec = deepest_disk
    b = spec.b[k]
    assert spec.zeros[k].degenerate
    assert _last_violation(spec, b) == k + 1
    with pytest.raises(NotInEN):
        blaschke_tail_bound(spec, 4, b)
    z = complex(math.nextafter(b.real, math.inf), b.imag)
    last = _last_violation(spec, z)
    assert _disk_refuses(spec, 4, z) == (last is None or last > 4)


def test_a_rule_without_halving_is_refused_before_the_distance_check():
    # 3 slope + offset < log 2: no geometric tail past the horizon, even
    # at a pole, where a distance condition fails as well
    spec = build_blaschke_spec(0.0, QUARTER,
                               CRule("affine", slope=0.01, offset=0.1), 4)
    with pytest.raises(PreconditionFailure) as e:
        blaschke_tail_bound(spec, 1, spec.b[1])
    assert type(e.value) is PreconditionFailure
    assert e.value.field == "c_rule"
