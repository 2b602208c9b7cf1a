"""The library's input contract under drawn points and windows.

Every public function that takes a point or a fiber window returns a
value or raises a FinehullError: never OverflowError, ValueError or
ZeroDivisionError, and never a numpy warning.  A point that is not a
finite double (a NaN or infinite part, or a modulus past the largest
double) is refused with a PreconditionFailure that names the parameter;
so is a window with a side that is not a finite double.  A refusal of a
finite point may be a verdict on it (PoleHit, NotInEN, ...); a plain
PreconditionFailure always names a field.  Doubles are drawn over NaN,
the infinities, subnormals and pairs near 1e308.  The suite's
derandomized profile replays the same draws on every run; fresh draws:

    HYPOTHESIS_PROFILE=random python -m pytest -q tests/test_library_fuzz.py
"""

import math
import warnings

from hypothesis import example, given, settings, strategies as st

from finehull import blaschke as bl
from finehull import hull as hl
from finehull import potential as pt
from finehull import product as pr
from finehull.cantor import CRule, build_cantor_spec
from finehull.errors import FinehullError, PreconditionFailure

NAN, INF = float("nan"), float("inf")
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1.0, 2.0, 1e308,
           -1e308, 1.5e308, 1.7e308, -1.7e308, 1.7976931348623157e308, INF,
           -INF, NAN]
doubles = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0),
                    st.floats())
points = st.builds(complex, doubles, doubles)

RULE5 = CRule("affine", slope=5.0, offset=0.0)
SPEC = build_cantor_spec(0.0, 1.0, RULE5, N=16)
BSPEC = bl.build_blaschke_spec(0.0, 0.5 * math.pi, RULE5, 16)
HPS = hl.make_hull_spec(
    build_cantor_spec(0.0, 1.0, CRule("factorial", shift=2), N=12), 4)
MODEL = pt.leja_points(pt.CompactUnion((pt.interval(0.0, 1.0),)), n=16)
WRECT = (-1.5, 1.5, -1.5, 1.5)

# (the field that names the drawn point, the call at that point)
POINT_CALLS = [
    ("z", lambda z: pr.eval_partial_product(SPEC, 16, z)),
    ("region", lambda z: pr.tail_bound(SPEC, 4, z)),
    ("region", lambda z: pr.tail_bound(SPEC, 4, (z, 0.125))),
    ("z", lambda z: pr.eval_f(SPEC, z)),
    ("z", lambda z: pr.tail_product_minus_one(SPEC, 2, z)),
    ("x", lambda z: pr.certify_en_point(SPEC, z, 2)),
    ("x", lambda z: pr.fine_boundary_value(SPEC, z, pr.BranchTag.H_PLUS)),
    ("z", lambda z: bl.eval_blaschke(BSPEC, 16, z)),
    ("z", lambda z: bl.blaschke_tail_bound(BSPEC, 4, z)),
    ("z", lambda z: hl.v_n(SPEC, 8, z, 1.0)),
    ("w", lambda z: hl.v_n(SPEC, 8, 2.0, z)),
    ("z", lambda z: hl.eval_v_on_graph(HPS, z)),
    ("z", lambda z: hl.fiber_scan(HPS, z, WRECT, 64)),
    ("z", lambda z: pt.green_eval(MODEL, z)),
]


# sets whose distance to a finite point may pass the largest double: the
# root of WIDE spans +-4e307, every pole of FAR lies in [3e307, 4.4e307]
WIDE = build_cantor_spec(-4e307, 4e307, RULE5, N=4)
FAR = build_cantor_spec(3e307, 4.4e307,
                        CRule("explicit", values=(1.0, 2.0, 3.0, 4.0)), N=4)
WIDE_HPS = hl.make_hull_spec(
    build_cantor_spec(-4e307, 4e307, CRule("factorial", shift=2), N=4), 4)
WIDE_MODEL = pt.leja_points(pt.CompactUnion((pt.interval(-1e308, 5e307),)),
                            n=8)
FAR_CALLS = [
    ("z", lambda z: pr.eval_partial_product(WIDE, 4, z)),
    ("region", lambda z: pr.tail_bound(WIDE, 0, z)),
    ("z", lambda z: pr.eval_f(WIDE, z)),
    ("z", lambda z: pr.sqrt_branch(WIDE, 4, z, pr.BranchTag.D_PLUS)),
    ("x", lambda z: pr.certify_en_point(WIDE, z, 2)),
    ("region", lambda z: pr.tail_bound(FAR, 0, z)),
    ("z", lambda z: pr.eval_f(FAR, z)),
    ("z", lambda z: hl.eval_v_on_graph(WIDE_HPS, z)),
    ("z", lambda z: pt.green_eval(WIDE_MODEL, z)),
]


def _keeps_contract(call, field: str, finite: bool) -> None:
    """call() returns, or refuses as the module docstring says; a
    non-finite input must be refused naming field."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except FinehullError as e:
            if not finite:
                assert isinstance(e, PreconditionFailure), e
                assert e.field == field, e.payload()
            elif type(e) is PreconditionFailure:
                assert e.field, e.payload()
            return
    assert finite, f"{field} that is not a finite double was accepted"


@settings(max_examples=200, deadline=None)
@given(z=points)
# certify_en_point returned True, blaschke_tail_bound a bound and v_n -inf
@example(z=complex(NAN, 0.0))
# eval_partial_product raised OverflowError
@example(z=complex(1.5e308, -1.5e308))
def test_points_are_checked_where_they_enter(z):
    finite = math.isfinite(math.hypot(z.real, z.imag))
    for field, call in POINT_CALLS:
        _keeps_contract(lambda: call(z), field, finite)


@settings(max_examples=100, deadline=None)
@given(z=points)
# seven calls raised OverflowError: |z - pole| passes the largest double
@example(z=complex(1.2e308, 1.2e308))
# every pole of FAR is that far: the explicit tail has no term left
@example(z=complex(-1.2e308, 1.2e308))
# green_eval warned of an overflow in subtract and returned inf
@example(z=complex(1.7e308, 0.0))
def test_points_far_from_wide_sets(z):
    finite = math.isfinite(math.hypot(z.real, z.imag))
    for field, call in FAR_CALLS:
        _keeps_contract(lambda: call(z), field, finite)


@settings(max_examples=100, deadline=None)
@given(theta=doubles)
@example(theta=NAN)     # certify_arc_point returned True
def test_arc_angles_are_checked_where_they_enter(theta):
    _keeps_contract(lambda: bl.certify_arc_point(BSPEC, theta, 2), "theta",
                    math.isfinite(theta))


@settings(max_examples=100, deadline=None)
@given(wrect=st.tuples(doubles, doubles, doubles, doubles))
@example(wrect=(-1.5, INF, -1.5, 1.5))     # fiber_scan gave a NaN grid
def test_fiber_windows_are_checked_where_they_enter(wrect):
    _keeps_contract(lambda: hl.fiber_scan(HPS, 2.0, wrect, 64), "wrect",
                    all(map(math.isfinite, wrect)))


@settings(max_examples=60, deadline=None)
@given(shift=st.integers(0, 200), a0=doubles, b0=doubles,
       depth=st.integers(1, 40), N=st.integers(1, 40))
# every gap has length 0.0: cantor_fine_sets refused an empty union
@example(shift=83, a0=-1.94, b0=7.8e-44, depth=22, N=1)
# j c_j overflows from j = 169 on: disk_fine_sets refused log_radius
@example(shift=2, a0=0.0, b0=1.0, depth=200, N=1)
def test_fine_sets_of_factorial_specs_refuse_only_their_inputs(shift, a0, b0,
                                                               depth, N):
    """Fine sets of a buildable spec answer, or refuse naming the depth N
    or the rule: a chain that does not close, or a rule whose j c_j
    overflows at every index.  From shift 170 on the rule itself refuses:
    c(1) = (1 + shift)! is inf."""
    try:
        rule = CRule("factorial", shift=shift)
    except FinehullError as e:
        assert shift >= 170 and e.field == "c_rule", e.payload()
        return
    N = min(N, depth)
    for build, fine_sets in (
            (lambda: build_cantor_spec(a0, b0, rule, N=depth),
             pt.cantor_fine_sets),
            (lambda: bl.build_blaschke_spec(0.0, 1.5, rule, depth),
             bl.disk_fine_sets)):
        try:
            spec = build()
        except FinehullError:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fine_sets(spec, N)
            except FinehullError as e:
                assert e.field in ("N", "c_rule"), e.payload()
