import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finehull import cli
from finehull.artifacts import write_csv, write_grid_csv
from finehull.cantor import CRule, build_cantor_spec, spec_to_json
from finehull.errors import (DomainViolation, NoValidWeights, PoleHit,
                             PreconditionFailure)
from finehull.hull import (BAND_CELLS, SENTINEL, Dip, _median,
                           _nearest_local_min, _scan_terms, build_weights,
                           eval_v_on_graph, fiber_scan, grid_axes,
                           grid_report, make_hull_spec, v_n)
from finehull.logspace import LogComplex
from finehull.product import eval_partial_product

RULE5 = CRule("affine", slope=5.0, offset=0.0)
RULEF = CRule("factorial", shift=2)
SPEC5 = build_cantor_spec(0.0, 1.0, RULE5, N=16)
SPECF = build_cantor_spec(0.0, 1.0, RULEF, N=16)
WRECT = (-1.5, 1.5, -1.5, 1.5)
GRID_HEADER = ["w_re", "w_im", "v"]


def test_flat_head_weights():
    ws = build_weights(SPECF, 8)
    assert ws.e == (1.0,) * 8
    assert ws.sum_finite and ws.ratio_divergent
    deep = build_weights(RULEF, 32)
    assert deep.e[31] == 256.0 / 1024.0
    assert sum(deep.e) <= deep.sum_bound


def test_affine_rules_reject_strict_weights():
    with pytest.raises(NoValidWeights):
        build_weights(SPEC5, 8)
    assert build_weights(SPEC5, 1).sum_finite  # M = 1 stays admissible


def test_quadratic_scheme():
    ws = build_weights(RULEF, 4, scheme="quadratic")
    assert ws.e == (1.0, 0.25, 1.0 / 9.0, 0.0625)
    assert ws.sum_bound == pytest.approx(math.pi ** 2 / 6.0)


def test_v_n_vanishing_on_graph():
    # the factored form is -inf exactly at the graph point the scan takes
    z = 2.0 + 0.0j
    assert v_n(SPECF, 0, z, 0.5) == float("-inf")
    w = eval_partial_product(SPECF, 3, z).to_complex()
    assert v_n(SPECF, 3, z, w) == float("-inf")
    assert v_n(SPECF, 3, z, w + 1.0) > 0.0


def _mp_v_n(spec, n, z, w):
    """log|w Q_n(z) - P_n(z)| at 60 digits from the float gap ends."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        P, Q = z - spec.b0, z - spec.a0
        for a, b in zip(spec.a[:n], spec.b[:n]):
            P *= z - a
            Q *= z - b
        return float(mpmath.log(abs(w * Q - P)))


@pytest.mark.parametrize("n, z, w", [
    (5, 0.3 + 0.2j, -0.4 + 0.1j), (12, 2.0 + 1.0j, 1e-3),
    # a huge w: w Q_n overflowed and was refused as w
    (3, 2.0, 1.2e308 + 1.2e308j),
    # a pole of f_n, where Q_n = 0: the value is log|P_n|
    (3, SPECF.gap(1).b, 0.7), (0, 0.0, 0.3),
    # |f_8(z)| past the largest double
    (8, complex(SPECF.gap(1).b, 1e-320), 0.5),
    (8, complex(SPECF.gap(1).b, 1e-320), 1e300)])
def test_v_n_matches_mpmath(n, z, w):
    assert v_n(SPECF, n, z, w) == pytest.approx(_mp_v_n(SPECF, n, z, w),
                                                rel=1e-15, abs=1e-12)


def test_v_n_refuses_an_overflowing_p_n_at_a_pole():
    spec = build_cantor_spec(-4e307, 4e307, RULEF, N=4)
    assert v_n(spec, 1, spec.b[0], 0.0) == \
        pytest.approx(_mp_v_n(spec, 1, spec.b[0], 0.0), rel=1e-15)
    with pytest.raises(PreconditionFailure) as e:
        v_n(spec, 2, spec.b[0], 0.0)
    assert e.value.field == "z"


def eval_v(hps, z, w):
    """The weighted potential sum_{n<=M} e_n/(n c_n) max(v_n, floor) at a
    grid point (z, w), term by term."""
    return sum(hps.term_scale(n) * max(v_n(hps.spec, n, z, w), hps.floor(n))
               for n in range(1, hps.M + 1))


def test_eval_v_on_graph_matches_pointwise_floor_sum():
    hps = make_hull_spec(SPECF, 6)
    z = 2.0 + 0.0j
    w = eval_partial_product(SPECF, 6, z).to_complex()
    assert eval_v_on_graph(hps, z) <= eval_v(hps, z, w) + 1e-12


def test_fiber_scan_two_dips_at_the_graph_roots():
    hps = make_hull_spec(SPECF, 8)
    grid = fiber_scan(hps, 2.0 + 0.0j, WRECT, 128, sq=True, delta=20.0)
    root = eval_partial_product(SPECF, 8, 2.0 + 0.0j).sqrt()
    assert len(grid.dips) == 2
    assert {d.w for d in grid.dips} == \
        {root.to_complex(), (-root).to_complex()}
    cell = math.hypot(3.0 / 127.0, 3.0 / 127.0)
    for d in grid.dips:
        assert min(abs(d.cell_w - t)
                   for t in (root.to_complex(), (-root).to_complex())) \
            <= cell
        assert d.depth >= 20.0


def test_fiber_scan_without_squaring_finds_one_dip():
    hps = make_hull_spec(SPECF, 8)
    grid = fiber_scan(hps, 2.0 + 0.0j, WRECT, 128, sq=False, delta=20.0)
    f = eval_partial_product(SPECF, 8, 2.0 + 0.0j).to_complex()
    assert [d.w for d in grid.dips] == [f]


def test_fiber_scan_input_validation():
    hps = make_hull_spec(SPECF, 8)
    with pytest.raises(PreconditionFailure):
        fiber_scan(hps, 2.0, WRECT, 32, sq=True)
    with pytest.raises(PreconditionFailure):
        fiber_scan(hps, 2.0, (1.0, -1.0, 0.0, 1.0), 128)


def test_fiber_scan_guards_real_base_points():
    # M = 1 is the one admissible truncation of an affine rule; the
    # scan point is checked against every materialized gap either way
    hps5 = make_hull_spec(SPEC5, 1)
    with pytest.raises(PoleHit):
        fiber_scan(hps5, complex(SPEC5.gap(1).b, 0.0), WRECT, 128)
    lo, hi = max(SPEC5.remaining, key=lambda p: p[1] - p[0])
    with pytest.raises(DomainViolation):
        fiber_scan(hps5, complex(0.5 * (lo + hi), 0.0), WRECT, 128)


def test_grid_report_and_rows(tmp_path):
    hps = make_hull_spec(SPECF, 4)
    grid = fiber_scan(hps, 2.0 + 0.0j, WRECT, 64, sq=True, delta=5.0)
    rep = grid_report(grid)
    assert rep["res"] == 64
    assert rep["dips"] and rep["median"] == grid.median
    path = tmp_path / "grid.csv"
    write_grid_csv(str(path), GRID_HEADER, *grid_axes(grid.wrect, grid.res),
                   grid.values)
    assert len(path.read_text().splitlines()) == 64 * 64 + 1


@settings(max_examples=25, deadline=None)
@given(st.complex_numbers(min_magnitude=1.6, max_magnitude=5.0,
                          allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False))
def test_potential_dominated_by_graph_value(z, w):
    # the graph is the global minimum of the fiber potential
    hps = make_hull_spec(SPECF, 4)
    assert eval_v(hps, z, w) >= eval_v_on_graph(hps, z) - 1e-9



def _scan_peak(res):
    hps = make_hull_spec(SPECF, 8)
    tracemalloc.start()
    try:
        grid = fiber_scan(hps, 2.0 + 0.0j, WRECT, res, sq=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return grid, peak


def test_fiber_scan_memory_scales_with_the_grid():
    # per-term temporaries or an 8-plane neighbour stack would pass 8 grids
    grid, peak = _scan_peak(512)
    assert peak < 8 * grid.values.nbytes


def test_fiber_scan_holds_two_float_grids():
    # the values and the median's copy; full-grid complex and float term
    # buffers would add 24 B per cell
    res = 1024
    _, peak = _scan_peak(res)
    assert peak < 2.5 * res * res * 8


def _argwhere_nearest(vals, xs, ys, t, reach):
    """Nearest local minimum within reach from an 8-neighbour argwhere
    over the whole interior."""
    c = vals[1:-1, 1:-1]
    res_y, res_x = vals.shape
    neigh = np.full_like(c, np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) != (0, 0):
                np.minimum(neigh, vals[1 + di:res_y - 1 + di,
                                       1 + dj:res_x - 1 + dj], out=neigh)
    best = None
    for iy, ix in np.argwhere(c <= neigh) + 1:
        node = complex(xs[ix], ys[iy])
        dist = abs(node - t)
        if dist <= reach and (best is None or dist < best[0]):
            best = (dist, node)
    return None if best is None else best[1]


def _run_fields(hps, z, wrect, res, sq):
    """[(t, lam, terms)], one per run of consecutive terms whose target
    double t is the same: lam is the log of the run's distance field over
    the whole grid and terms = [(log|Q_n(z)|, floor_n, scale_n)].

    f_n comes from eval_partial_product and log|Q_n| is summed in log
    space; the target is f_n, or with sq s_n = sqrt(f_n), whose field is
    the product of the sums of squared axis offsets from s_n and -s_n.
    The windows' coordinates and targets lie below 2^240, so no field is
    scaled and the power-of-two shift is 0.
    """
    x0, x1, y0, y1 = wrect
    xs, ys = grid_axes(wrect, res)
    spec = hps.spec
    log_q = LogComplex.from_difference(z, spec.a0).log_mag
    runs = []
    for n in range(1, hps.M + 1):
        log_q += LogComplex.from_difference(z, spec.b[n - 1]).log_mag
        f = eval_partial_product(spec, n, z)
        t = (f.sqrt() if sq else f).to_complex()
        if not runs or runs[-1][0] != t:
            runs.append((t, []))
        runs[-1][1].append((log_q, hps.floor(n), hps.term_scale(n)))
    out = []
    with np.errstate(divide="ignore"):
        for t, terms in runs:
            assert max(map(abs, (x0, x1, y0, y1, t.real, t.imag))) < 2.0 ** 240
            field = np.square(xs - t.real)[None, :] + \
                np.square(ys - t.imag)[:, None]
            if sq:
                field *= np.square(xs + t.real)[None, :] + \
                    np.square(ys + t.imag)[:, None]
            out.append((t, np.log(field), terms))
    return out


def _floored_sum(lam, terms):
    """sum_n scale_n max(lam/2 + log|Q_n|, floor_n), term by term."""
    total = None
    for log_q, floor, scale in terms:
        t = scale * np.maximum(0.5 * lam + log_q, floor)
        total = t if total is None else total + t
    return total


def _full_grid_scan(hps, z, wrect, res, sq, delta):
    """(values, median, clamped, dips) of the factored potential over the
    whole grid at once, one run of terms with the same target at a time.

    At and above its top kink 2 max_n (floor_n - log|Q_n|) no floor of a
    run is active, and its sum is slope lam + icpt with slope the fsum of
    scale_n/2 and icpt that of scale_n log|Q_n|; below the kink it is
    the floored sum term by term.  The runs add in order.  The median is
    np.median's and the dip search that of _argwhere_nearest.
    """
    x0, x1, y0, y1 = wrect
    xs, ys = grid_axes(wrect, res)
    vals = None
    for _, lam, terms in _run_fields(hps, z, wrect, res, sq):
        slope = math.fsum(0.5 * s for _, _, s in terms)
        icpt = math.fsum(s * log_q for log_q, _, s in terms)
        kink = max(2.0 * (floor - log_q) for log_q, floor, _ in terms)
        run = np.where(lam < kink, _floored_sum(lam, terms),
                       slope * lam + icpt)
        vals = run if vals is None else vals + run
    clamped = int(np.sum(vals < SENTINEL))
    np.maximum(vals, SENTINEL, out=vals)
    median = float(np.median(vals))
    depth = median - eval_v_on_graph(hps, z)
    reach = 1.5 * math.hypot((x1 - x0) / (res - 1), (y1 - y0) / (res - 1))
    dips = []
    for t in _targets(hps, z, sq):
        best = _argwhere_nearest(vals, xs, ys, t, reach)
        if best is not None and depth >= delta:
            dips.append(Dip(t, best, depth))
    dips.sort(key=lambda p: (p.w.real, p.w.imag))
    return vals, median, clamped, tuple(dips)


# how far a scan value may sit from the term-by-term sum, in units of
# u T with T = sum_n scale_n (|lam/2| + |shift| + |log|Q_n|| + |floor_n|):
# the term-by-term sum rounds each term at most 3 times and adds M terms
# with M - 1 roundings; a run's slope lam + icpt rounds at most 4 times
# with its fsum inputs, a kink rounded by 2 more lets a floor lie below
# it, and the M runs at most add with M - 1 roundings.  That is at most
# 2 (M + 4) u T, and 24 u T while M <= 8.
_SUM_ROUNDINGS = 24


def _term_by_term_values(hps, z, wrect, res, sq):
    """(values, T): the potential summed term by term from 0, as scans
    summed it before the runs, clamped at SENTINEL; and T of
    _SUM_ROUNDINGS per cell, with |lam/2| read as 0 on a target."""
    assert hps.M <= 8
    vals, T = np.zeros((res, res)), np.zeros((res, res))
    for _, lam, terms in _run_fields(hps, z, wrect, res, sq):
        half = np.where(np.isinf(lam), 0.0, 0.5 * np.abs(lam))
        for log_q, floor, scale in terms:
            vals += scale * np.maximum(0.5 * lam + log_q, floor)
            T += scale * (half + abs(log_q) + abs(floor))
    np.maximum(vals, SENTINEL, out=vals)
    return vals, T


def _targets(hps, z, sq):
    f = eval_partial_product(hps.spec, hps.M, z)
    if not sq:
        return [f.to_complex()]
    d = f.sqrt()
    return list(dict.fromkeys([d.to_complex(), (-d).to_complex()]))


def _assert_scan_matches_full_grid(hps, z, wrect, res, sq, delta):
    grid = fiber_scan(hps, z, wrect, res, sq=sq, delta=delta)
    vals, median, clamped, dips = _full_grid_scan(hps, z, grid.wrect, res,
                                                  sq, delta)
    assert np.array_equal(grid.values.view(np.int64), vals.view(np.int64))
    assert np.float64(grid.median).view(np.int64) == \
        np.float64(median).view(np.int64)
    assert grid.clamped == clamped
    assert grid.dips == dips
    return grid


# 1.0 is the root's right end b0 of SPECF, where f vanishes
_SCAN_Z = [2.0 + 0.0j, 0.3 + 0.2j, -0.5 + 0.0j, 0.7 - 0.4j, 1.7 + 0.0j,
           0.5 + 0.01j, 1.0 + 0.0j]


@pytest.mark.parametrize("M", [1, 4])
@pytest.mark.parametrize("res", [64, 128])
@pytest.mark.parametrize("sq", [False, True])
@pytest.mark.parametrize("z", [2.0 + 0.0j, 0.3 + 0.2j])
def test_fiber_scan_matches_full_grid_reference(M, res, sq, z):
    _assert_scan_matches_full_grid(make_hull_spec(SPECF, M), z, WRECT, res,
                                   sq, 1.0)


def _wrect_around(t, res, u, v, cell):
    """A rectangle whose grid puts t at fractional node (u, v)."""
    return (t.real - u * cell, t.real + (res - 1 - u) * cell,
            t.imag - v * cell, t.imag + (res - 1 - v) * cell)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([64, 65, 97, 130, 257]), st.integers(1, 8),
       st.booleans(), st.sampled_from(_SCAN_Z), st.integers(0, 1),
       st.sampled_from(["first", "last", "inside", "outside"]),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(1e-4, 5e-2))
def test_banded_scan_matches_full_grid(res, M, sq, z, which, place, fu, fv,
                                       cell):
    # targets in the first and last interior rows and columns, past the
    # rectangle and anywhere inside it; a delta of -inf keeps every dip
    hps = make_hull_spec(SPECF, M)
    ts = _targets(hps, z, sq)
    t = ts[which % len(ts)]
    edge = {"first": 1.0, "last": res - 2.0, "inside": 0.37 * res,
            "outside": -1.5}[place]
    u = (edge if fu >= 0.0 else res - 1.0 - edge) + fu
    v = (edge if fv < 0.0 else res - 1.0 - edge) + fv
    _assert_scan_matches_full_grid(hps, z, _wrect_around(t, res, u, v, cell),
                                   res, sq, -math.inf)


@pytest.mark.parametrize("M, sq", [(8, True), (3, False)])
def test_banded_scan_matches_full_grid_at_res_1000(M, sq):
    # 1000 rows are not a multiple of the band height
    assert 1000 % (BAND_CELLS // 1000) != 0
    hps = make_hull_spec(SPECF, M)
    grid = _assert_scan_matches_full_grid(hps, 2.0 + 0.0j, WRECT, 1000, sq,
                                          1.0)
    assert len(grid.dips) == (2 if sq else 1)
    t = _targets(hps, 2.0 + 0.0j, sq)[0]
    _assert_scan_matches_full_grid(
        hps, 2.0 + 0.0j, _wrect_around(t, 1000, 998.2, 1.1, 1e-3), 1000, sq,
        -math.inf)


SPEC0 = build_cantor_spec(0.0, 1.0, CRule("factorial", shift=0), N=16)
# just right of SPEC0's first gap: f_1, f_2 and f_3 = ... = f_8 are three
# different doubles, so a scan there takes three runs
_Z3 = SPEC0.b[0] + 1e-3
_RUN_BASES = [(SPECF, 2.0 + 0.0j), (SPECF, 0.3 + 0.2j), (SPEC0, _Z3)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_RUN_BASES), st.integers(1, 8), st.booleans(),
       st.integers(0, 5), st.sampled_from([64, 257]),
       st.sampled_from(["node", "near"]),
       st.sampled_from([1e-13, 1e-12, 3e-9, 1e-3]),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(_RUN_BASES[0], 8, False, 0, 257, "node", 1e-12, 0.0, 0.0)
@example(_RUN_BASES[1], 8, True, 1, 64, "node", 1e-13, 0.0, 0.0)
@example(_RUN_BASES[2], 8, False, 2, 257, "near", 1e-12, 0.4, 0.6)
@example(_RUN_BASES[2], 8, True, 5, 64, "node", 1e-3, 0.0, 0.0)
def test_scan_matches_term_by_term_sum_within_rounding(base, M, sq, which,
                                                       res, place, cell, fu,
                                                       fv):
    # a target on the first node or anywhere inside; cells of 1e-12 and
    # below reach under the top kink of a run, where floors are active
    spec, z = base
    hps = make_hull_spec(spec, M)
    runs = _run_fields(hps, z, WRECT, 64, sq)
    if spec is SPEC0 and M >= 3:
        assert len(runs) == 3
    k = which % len(runs)
    t = runs[k][0] * (-1 if sq and which % 2 else 1)
    u, v = (0.0, 0.0) if place == "node" else \
        (1.0 + fu * (res - 3), 1.0 + fv * (res - 3))
    grid = _assert_scan_matches_full_grid(
        hps, z, _wrect_around(t, res, u, v, cell), res, sq, -math.inf)
    xs, ys = grid_axes(grid.wrect, res)
    runs = _run_fields(hps, z, grid.wrect, res, sq)
    if place == "node":
        assert complex(xs[0], ys[0]) == t and runs[k][1][0, 0] == -math.inf
    if cell <= 1e-12:
        assert any((lam < max(2.0 * (floor - log_q)
                              for log_q, floor, _ in terms)).any()
                   for _, lam, terms in runs)
    ref, T = _term_by_term_values(hps, z, grid.wrect, res, sq)
    assert (np.abs(grid.values - ref) <= _SUM_ROUNDINGS * U * T).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12), st.integers(3, 12),
       st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, -math.inf]),
                min_size=144, max_size=144),
       st.complex_numbers(max_magnitude=14.0), st.floats(0.0, 6.0))
def test_windowed_dip_search_matches_argwhere(ny, nx, pool, t, reach):
    # few distinct values make ties, plateaus and NaN neighbours common
    vals = np.array(pool[:ny * nx]).reshape(ny, nx)
    xs, ys = np.arange(nx, dtype=float), np.arange(ny, dtype=float)
    got = _nearest_local_min(vals, xs, ys, t, reach)
    assert got == _argwhere_nearest(vals, xs, ys, t, reach)


@pytest.mark.parametrize("t", [complex(math.inf, 0.0), complex(0.0, -math.inf),
                               complex(math.nan, 1.0), complex(1.0, math.nan),
                               complex(math.inf, math.nan)])
def test_windowed_dip_search_skips_non_finite_targets(t):
    vals = np.zeros((8, 8))          # every interior cell is a minimum
    xs = ys = np.linspace(-1.0, 1.0, 8)
    assert _nearest_local_min(vals, xs, ys, t, 0.5) is None
    assert _nearest_local_min(vals, xs, ys, 0.1 + 0.1j, 0.5) is not None


def _reference_grid_csv(path, xs, ys, values):
    """grid.csv as hull-scan wrote it through write_csv, one generated
    (x, y, v) row per grid node."""
    def rows():
        for iy in range(len(ys)):
            for ix in range(len(xs)):
                yield xs[ix], ys[iy], values[iy, ix]
    write_csv(path, GRID_HEADER, rows())


@pytest.mark.parametrize("M", [1, 4])
@pytest.mark.parametrize("res", [64, 97])
@pytest.mark.parametrize("sq", [False, True])
def test_grid_csv_matches_row_writer(tmp_path, M, res, sq):
    grid = fiber_scan(make_hull_spec(SPECF, M), 0.3 + 0.2j, WRECT, res,
                      sq=sq)
    xs, ys = grid_axes(grid.wrect, grid.res)
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    _reference_grid_csv(str(ref), xs, ys, grid.values)
    write_grid_csv(str(new), GRID_HEADER, xs, ys, grid.values)
    assert new.read_bytes() == ref.read_bytes()


def test_grid_csv_matches_row_writer_on_special_floats(tmp_path):
    xs, ys = grid_axes((-1e-300, 1e300, -0.1, 7.0), 8)
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300,
                0.1, -2.5]
    values = np.array([[specials[(i + j) % 8] for j in range(8)]
                       for i in range(8)])
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    _reference_grid_csv(str(ref), xs, ys, values)
    write_grid_csv(str(new), GRID_HEADER, xs, ys, values)
    assert new.read_bytes() == ref.read_bytes()
    for v in specials[:5]:
        assert (",%.17g\n" % v).encode() in ref.read_bytes()


def test_hull_scan_grid_csv_hash_matches_row_writer(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_to_json(SPECF))
    out = tmp_path / "scan"
    assert cli.main(["hull-scan", "--spec", str(spec), "--z", "2,0",
                     "--wrect=-1.5,1.5,-1.5,1.5", "--res", "64", "--sq",
                     "--depth", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    grid = fiber_scan(make_hull_spec(SPECF, 6), 2.0 + 0.0j, WRECT, 64,
                      sq=True)
    ref = tmp_path / "ref.csv"
    _reference_grid_csv(str(ref), *grid_axes(WRECT, 64), grid.values)
    assert hashlib.sha256((out / "grid.csv").read_bytes()).hexdigest() == \
        hashlib.sha256(ref.read_bytes()).hexdigest()


def test_grid_csv_memory_stays_at_one_row(tmp_path):
    # values convert to floats one row at a time; converting the whole
    # grid at once would hold ~4 x values.nbytes of Python floats
    grid = fiber_scan(make_hull_spec(SPECF, 4), 2.0 + 0.0j, WRECT, 512)
    xs, ys = grid_axes(grid.wrect, grid.res)
    tracemalloc.start()
    try:
        write_grid_csv(str(tmp_path / "grid.csv"), GRID_HEADER, xs, ys,
                       grid.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.values.nbytes / 4


@pytest.mark.parametrize("M", [2, 3, 4])
@pytest.mark.parametrize("z", [1.7e308, -1.7e308, 1.7e308 + 1j])
def test_on_graph_value_past_the_largest_double_matches_mpmath(M, z):
    # |z - a_n| or |z - b_n| overflows: the value was NaN or inf.  The
    # oracle's gaps sit at the float centers with exact lengths, below
    # an ulp of the centers from gap 2 on
    mpmath = pytest.importorskip("mpmath")
    spec = build_cantor_spec(-4e307, 4e307, RULEF, N=4)
    hps = make_hull_spec(spec, M)
    with mpmath.workdps(50):
        L = [mpmath.exp(l) for l in spec.log_lengths]
        a = [c - x / 2 for c, x in zip(spec.centers, L)]
        w = mpmath.mpc(z)
        # (w - a)/(w - b) = 1 + L/(w - b): the tail f_M/f_n - 1 in log1p
        # form, as 1 + e^-2880/|w - b| is 1 at any workable precision
        u = [x / (w - c - x / 2) for c, x in zip(spec.centers, L)]
        want = mpmath.mpf(0)
        for n in range(1, M + 1):
            vn = -mpmath.inf
            if n < M:
                P = (w - spec.b0) * mpmath.fprod(w - x for x in a[:n])
                tail = mpmath.expm1(mpmath.fsum(mpmath.log1p(x)
                                                for x in u[n:M]))
                vn = mpmath.log(abs(P)) + mpmath.log(abs(tail))
            want += hps.term_scale(n) * max(vn, hps.floor(n))
    assert eval_v_on_graph(hps, z) == pytest.approx(float(want), rel=1e-14)


# a certified E-point of SPECF in its longest remaining piece
_SET_Z = complex((lambda lo, hi: lo + (hi - lo) / 3.0)(
    *max(SPECF.remaining, key=lambda p: p[1] - p[0])))


@pytest.mark.parametrize("z", _SCAN_Z + [_SET_Z,
                                         complex(SPECF.gap(1).b, 1e-300)])
def test_scan_terms_are_prefixes_of_one_factor_log_sum(z):
    terms = _scan_terms(SPECF, 8, z)
    assert len(terms) == 9
    log_q = 0.0
    for n, (fn, lq) in enumerate(terms):
        log_q += LogComplex.from_difference(
            z, SPECF.b[n - 1] if n else SPECF.a0).log_mag
        want = eval_partial_product(SPECF, n, z)
        assert repr((fn.log_mag, fn.arg)) == repr((want.log_mag, want.arg))
        assert lq == log_q


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9),
       st.lists(st.sampled_from([0.0, -0.0, SENTINEL, -1.5, 1.0, 2.5,
                                 5e-324, -5e-324]) | st.floats(-3.0, 3.0),
                min_size=81, max_size=81))
def test_one_partition_median_is_np_median_bit_for_bit(ny, nx, pool):
    # odd and even sizes; signed zeros, SENTINEL-clamped cells and ties.
    # At odd sizes np.median turns -0.0 into 0.0, which part[k] alone
    # would not
    vals = np.array(pool[:ny * nx]).reshape(ny, nx)
    assert np.float64(_median(vals)).view(np.int64) == \
        np.float64(np.median(vals)).view(np.int64)


def test_one_partition_median_turns_negative_zero_positive():
    for vals in (np.full((3, 3), -0.0), np.full((2, 2), -0.0),
                 np.array([[-0.0, SENTINEL, 1.0]])):
        got = _median(vals)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("im", [1e-320, 1e-300, 1e-200])
@pytest.mark.parametrize("sq", [False, True])
def test_scan_next_to_a_pole_answers(im, sq):
    # f_M(z) ~ 1e297 (1e197): the squared offsets from the target would
    # overflow, so the field is taken at a power-of-two scale; at 1e-320
    # f_M itself is past the largest double, and the parent answered all
    hps = make_hull_spec(SPECF, 8)
    z = complex(SPECF.gap(1).b, im)
    grid = fiber_scan(hps, z, WRECT, 64, sq=sq)
    assert np.isfinite(grid.values).all() and math.isfinite(grid.median)
    assert grid.clamped == 0


def test_scan_windows_past_the_largest_double():
    hps = make_hull_spec(SPECF, 8)
    # a window whose points times Q_n(z) overflowed now answers
    grid = fiber_scan(hps, 2.0, (1e308, 1.7e308, -1.5, 1.5), 64, sq=True)
    assert np.isfinite(grid.values).all() and not grid.dips
    far = fiber_scan(hps, 2.0, (1e308, 1.7e308, -1.5, 1.5), 64)
    assert np.isfinite(far.values).all() and not far.dips
    # its span overflows: the grid itself is not finite
    with pytest.raises(PreconditionFailure) as e:
        fiber_scan(hps, 2.0, (-1e308, 1.7e308, -1.5, 1.5), 64)
    assert e.value.field == "wrect"
    # P_n(z) and Q_n(z) overflow
    with pytest.raises(PreconditionFailure) as e:
        fiber_scan(hps, 1e300, WRECT, 64)
    assert e.value.field == "z"


U = 2.0 ** -53


def _oracle_cell(mpmath, hps, P, Q, fh, w, k):
    """(oracle, bound) at grid node w: the 50-digit potential
    sum_n scale_n max(log|w^k Q_n - P_n|, floor_n) on the float gap
    endpoints, and how far the scan may sit from it.

    The scan measures the distance d_n = |W - fh_n| to the represented
    f_n, a double within delta_n = 32 ulps of P_n/Q_n (with sq, to a
    double s_n whose square is), so both its term and the oracle's lie
    in scale_n [max(lq_n + log(d_n - delta_n), floor_n),
    max(lq_n + log(d_n + delta_n), floor_n)], lq_n = log|Q_n|.  Rounding
    in the field, the log-space sum and the accumulation adds at most
    2^-46 scale_n (1 + |lq_n| + |upper end|) per term.
    """
    W = mpmath.mpc(w) ** k
    oracle = bound = mpmath.mpf(0)
    for n in range(1, hps.M + 1):
        scale, floor = hps.term_scale(n), hps.floor(n)
        prod = abs(W * Q[n] - P[n])
        oracle += scale * max(mpmath.log(prod) if prod else -mpmath.inf,
                              floor)
        lq = mpmath.log(abs(Q[n]))
        d = abs(W - mpmath.mpc(fh[n]))
        delta = 32 * U * abs(mpmath.mpc(fh[n]))
        hi = max(lq + mpmath.log(d + delta), floor)
        lo = max(lq + mpmath.log(d - delta), floor) if d > delta else floor
        bound += scale * (hi - lo + 2.0 ** -46 * (1 + abs(lq) + abs(hi)))
    return oracle, bound


# (z, u, v, cell): the target at fractional node (u, v); at integer
# (u, v) it is a node exactly (the dyadic cells make it so for these z)
_ORACLE_CASES = [(z, 31, 31, cell) for z in (2.0 + 0.0j, 0.3 + 0.2j,
                                             0.7 - 0.4j)
                 for cell in (2.0 ** -12, 2.0 ** -9)] + \
    [(z, u, v, cell) for z in (2.0 + 0.0j, 0.3 + 0.2j, 0.7 - 0.4j, _SET_Z)
     for u, v, cell in ((31.3, 30.6, 1e-4), (1.5, 61.7, 3e-3))]


@pytest.mark.parametrize("z, u, v, cell", _ORACLE_CASES)
@pytest.mark.parametrize("sq", [False, True])
def test_scan_near_its_targets_matches_mpmath(z, u, v, cell, sq):
    # cells within two grid steps of the target; on a node the scan's
    # log|W - f_n| is -inf, so its terms sit at their floors
    mpmath = pytest.importorskip("mpmath")
    hps = make_hull_spec(SPECF, 8)
    spec, res = hps.spec, 64
    t = _targets(hps, z, sq)[0]
    grid = fiber_scan(hps, z, _wrect_around(t, res, u, v, cell), res, sq=sq,
                      delta=-math.inf)
    xs, ys = grid_axes(grid.wrect, res)
    if u == int(u):
        assert complex(xs[u], ys[v]) == t
    fh = [None] + [eval_partial_product(spec, n, z).to_complex()
                   for n in range(1, hps.M + 1)]
    with mpmath.workdps(50):
        zz = mpmath.mpc(z)
        P, Q = [zz - spec.b0], [zz - spec.a0]
        for a, b in zip(spec.a[:hps.M], spec.b[:hps.M]):
            P.append(P[-1] * (zz - a))
            Q.append(Q[-1] * (zz - b))
        for n in range(1, hps.M + 1):
            assert abs(mpmath.mpc(fh[n]) - P[n] / Q[n]) <= \
                32 * U * abs(P[n] / Q[n])
        near = [range(max(0, math.floor(c) - 2), min(res, math.ceil(c) + 3))
                for c in (v, u)]
        for iy in near[0]:
            for ix in near[1]:
                oracle, bound = _oracle_cell(mpmath, hps, P, Q, fh,
                                             complex(xs[ix], ys[iy]),
                                             2 if sq else 1)
                assert abs(grid.values[iy, ix] - oracle) <= bound, (ix, iy)
