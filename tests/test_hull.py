import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finehull import cli
from finehull.artifacts import write_csv, write_grid_csv
from finehull.cantor import CRule, build_cantor_spec, spec_to_json
from finehull.errors import (DomainViolation, NoValidWeights, PoleHit,
                             PreconditionFailure)
from finehull.hull import (SENTINEL, Dip, build_weights, eval_v,
                           eval_v_on_graph, fiber_scan, grid_axes,
                           grid_report, make_hull_spec, v_n)
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
    # exact cancellation gives -inf; a float graph point only reaches
    # the rounding floor of the polynomial evaluation
    z = 2.0 + 0.0j
    assert v_n(SPECF, 0, z, 0.5) == float("-inf")
    w = eval_partial_product(SPECF, 3, z).to_complex()
    assert v_n(SPECF, 3, z, w) < -30.0
    assert v_n(SPECF, 3, z, w + 1.0) > 0.0


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



def _stacked_scan(hps, z, res, sq, delta):
    """(values, median, clamped, dips) with per-term temporaries and an
    8-plane neighbour stack."""
    xs = np.linspace(WRECT[0], WRECT[1], res)
    ys = np.linspace(WRECT[2], WRECT[3], res)
    W = xs[None, :] + 1j * ys[:, None]
    Warg = W * W if sq else W
    vals = np.zeros((res, res))
    P, Q = z - hps.spec.b0, z - hps.spec.a0
    with np.errstate(divide="ignore"):
        for n in range(1, hps.M + 1):
            g = hps.spec.gap(n)
            P *= z - g.a
            Q *= z - g.b
            vn = np.log(np.abs(Warg * Q - P))
            vals += hps.term_scale(n) * np.maximum(vn, hps.floor(n))
    clamped = int(np.sum(vals < SENTINEL))
    np.maximum(vals, SENTINEL, out=vals)
    median = float(np.median(vals))
    neigh = np.stack([vals[1 + di:res - 1 + di, 1 + dj:res - 1 + dj]
                      for di in (-1, 0, 1) for dj in (-1, 0, 1)
                      if (di, dj) != (0, 0)])
    mins = np.argwhere(vals[1:-1, 1:-1] <= neigh.min(axis=0)) + 1
    f = eval_partial_product(hps.spec, hps.M, z)
    targets = {f.sqrt().to_complex(), (-f.sqrt()).to_complex()} if sq \
        else {f.to_complex()}
    depth = median - eval_v_on_graph(hps, z)
    reach = 1.5 * math.hypot(3.0 / (res - 1), 3.0 / (res - 1))
    dips = []
    for t in targets:
        nodes = [complex(xs[ix], ys[iy]) for iy, ix in mins]
        best = min(nodes, key=lambda p: abs(p - t), default=None)
        if best is not None and abs(best - t) <= reach and depth >= delta:
            dips.append(Dip(t, best, depth))
    dips.sort(key=lambda p: (p.w.real, p.w.imag))
    return vals, median, clamped, tuple(dips)


@pytest.mark.parametrize("M", [1, 4])
@pytest.mark.parametrize("res", [64, 128])
@pytest.mark.parametrize("sq", [False, True])
@pytest.mark.parametrize("z", [2.0 + 0.0j, 0.3 + 0.2j])
def test_fiber_scan_buffers_match_stacked_reference(M, res, sq, z):
    hps = make_hull_spec(SPECF, M)
    grid = fiber_scan(hps, z, WRECT, res, sq=sq, delta=1.0)
    vals, median, clamped, dips = _stacked_scan(hps, z, res, sq, 1.0)
    assert grid.values.tobytes() == vals.tobytes()
    assert grid.median == median
    assert grid.clamped == clamped
    assert grid.dips == dips


def test_fiber_scan_memory_scales_with_the_grid():
    # one complex and one float buffer per scan; per-term temporaries or
    # an 8-plane neighbour stack would pass 8 grids
    hps = make_hull_spec(SPECF, 8)
    tracemalloc.start()
    try:
        grid = fiber_scan(hps, 2.0 + 0.0j, WRECT, 512, sq=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.values.nbytes


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
