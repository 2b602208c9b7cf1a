import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finehull import potential
from finehull.blaschke import build_blaschke_spec, disk_fine_sets
from finehull.cantor import CRule, build_cantor_spec
from finehull.errors import (DegenerateSet, PreconditionFailure,
                             UnsupportedShape)
from finehull.potential import (FLAT_RATIO, LEJA_MAX_WORK, CompactUnion,
                                arc, cantor_fine_sets, disk, exact_capacity,
                                fine_witness_u, green_eval, interval,
                                leja_points, mesh_size, sample_E,
                                union_capacity_bound)

SPEC5 = build_cantor_spec(0.0, 1.0, CRule("affine", slope=5.0, offset=0.0),
                          N=16)


def test_exact_capacities():
    assert exact_capacity(interval(0.0, 1.0)) == 0.25
    assert exact_capacity(interval(-2.0, 2.0)) == 1.0
    assert exact_capacity(disk(0.0, 0.5)) == 0.5
    assert exact_capacity(arc(0.0, 2.0 * math.pi)) == 1.0
    # proper arcs shrink like sin(opening/4)
    assert exact_capacity(arc(0.0, 0.5 * math.pi)) == \
        pytest.approx(math.sin(math.pi / 8.0), rel=1e-15)


def test_shape_validation():
    with pytest.raises(PreconditionFailure):
        interval(1.0, 0.0)
    with pytest.raises(PreconditionFailure):
        disk(0.0, -1.0)
    with pytest.raises(PreconditionFailure):
        arc(0.0, 7.0)


@pytest.mark.parametrize("shapes,exact,tol", [
    ((interval(0.0, 1.0),), 0.25, 0.05),
    ((arc(0.0, 2.0 * math.pi),), 1.0, 0.02),
    ((interval(-2.0, 2.0),), 1.0, 0.05),
])
def test_greedy_capacity_estimates(shapes, exact, tol):
    model = leja_points(CompactUnion(shapes), n=64)
    assert abs(model.cap_estimate - exact) / exact < tol
    assert len(model.points) == 64


def test_leja_points_lie_on_the_support():
    sets = CompactUnion((interval(0.0, 1.0),))
    model = leja_points(sets, n=32)
    for p in model.points:
        assert 0.0 <= p.real <= 1.0 and p.imag == 0.0


def test_green_grows_logarithmically():
    model = leja_points(CompactUnion((arc(0.0, 2.0 * math.pi),)), n=64)
    g = green_eval(model, 1.0e6 + 0.0j)
    assert g == pytest.approx(math.log(1.0e6 / model.cap_estimate),
                              abs=1e-6)
    # clamped to zero on the set itself
    assert green_eval(model, complex(model.points[0])) == 0.0


def test_union_bound_for_two_small_intervals():
    F = CompactUnion((interval(0.0, 1e-4), interval(0.5, 0.5001)))
    ub = union_capacity_bound(F)
    assert ub.members == 2
    assert exact_capacity(interval(0.0, 1e-4)) < ub.bound < 0.25


def test_union_bound_monotone_in_members():
    one = union_capacity_bound(CompactUnion((interval(0.0, 1e-4),)))
    two = union_capacity_bound(
        CompactUnion((interval(0.0, 1e-4), interval(0.5, 0.5001))))
    assert one.bound < two.bound


def test_fine_sets_chain():
    fs1 = cantor_fine_sets(SPEC5, 1)
    fs2 = cantor_fine_sets(SPEC5, 2)
    assert not fs1.chain_closes
    assert fs2.chain_closes
    assert fs2.fn_bound.bound < fs2.cap_ambient_floor
    assert fs2.sum_disks < math.inf


def test_sample_E_counts():
    rows = sample_E(SPEC5, 6)
    assert len(rows) == 10
    assert sum(r.in_EN for r in rows) == 5
    for r in rows:
        assert SPEC5.a0 <= r.x <= SPEC5.b0
        if r.in_EN:
            assert r.u > 0.0


def test_fine_witness_sign():
    fs = cantor_fine_sets(SPEC5, 2)
    model_F = leja_points(fs.FN)
    model_J = leja_points(fs.JN)
    rows = sample_E(SPEC5, 6)
    x = next(r.x for r in rows if r.in_EN)
    assert fine_witness_u(model_F, model_J, complex(x)) > 0.0


_FS2 = cantor_fine_sets(SPEC5, 2)
_MODEL_F = leja_points(_FS2.FN, n=24)
_MODEL_J = leja_points(_FS2.JN, n=24)


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(0.1, 3.0))
def test_fine_witness_nonnegative(x, y):
    assert fine_witness_u(_MODEL_F, _MODEL_J, complex(x, y)) >= 0.0


def _candidates(sets, n):
    """The Leja candidates of every meshable shape, each of the size
    leja_points gives it."""
    return np.concatenate([s.boundary_mesh(mesh_size(s, n))
                           for s in sets.shapes if s.meshable])


def _dense_leja(sets, n):
    """Leja model with node_tol from the full nodes x mesh matrix."""
    cands = _candidates(sets, n)
    idx = int(np.argmax(np.abs(cands)))
    pts = [cands[idx]]
    with np.errstate(divide="ignore"):
        logprod = np.log(np.abs(cands - pts[0]))
    pair_log = 0.0
    d_seq = []
    for k in range(1, n):
        idx = int(np.argmax(logprod))
        pts.append(cands[idx])
        pair_log += float(logprod[idx])
        with np.errstate(divide="ignore"):
            logprod += np.log(np.abs(cands - cands[idx]))
        d_seq.append(math.exp(2.0 * pair_log / (k * (k + 1))))
    cap_est = math.exp(float(np.max(logprod)) / n)
    points = np.array(pts)
    with np.errstate(divide="ignore"):
        raw = np.mean(np.log(np.abs(cands[None, :] - points[:, None])),
                      axis=0) - math.log(cap_est)
    raw = raw[np.isfinite(raw)]
    node_tol = float(np.max(np.abs(raw))) if raw.size else 0.0
    return points, tuple(d_seq), cap_est, node_tol


_SPECF = build_cantor_spec(0.0, 1.0, CRule("factorial", shift=2), N=16)


@pytest.mark.parametrize("spec", [SPEC5, _SPECF], ids=["affine5", "fact"])
@pytest.mark.parametrize("which", ["FN", "JN"])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_leja_running_node_tol_matches_dense_matrix(spec, which, n):
    sets = getattr(cantor_fine_sets(spec, 2), which)
    model = leja_points(sets, n=n)
    points, d_seq, cap_est, node_tol = _dense_leja(sets, n)
    assert model.node_tol == node_tol
    assert model.cap_estimate == cap_est
    assert model.d_seq == d_seq
    assert model.points.tobytes() == points.tobytes()


def _complex_leja(sets, n):
    """Leja model with every distance in complex arithmetic and node_tol
    from the running log-product."""
    if not any(s.meshable for s in sets.shapes):
        raise DegenerateSet("no meshable shapes in the union")
    cands = _candidates(sets, n)
    idx = int(np.argmax(np.abs(cands)))
    pts = [cands[idx]]
    with np.errstate(divide="ignore"):
        logprod = np.log(np.abs(cands - pts[0]))
    pair_log = 0.0
    d_seq = []
    for k in range(1, n):
        idx = int(np.argmax(logprod))
        pts.append(cands[idx])
        pair_log += float(logprod[idx])
        with np.errstate(divide="ignore"):
            logprod += np.log(np.abs(cands - cands[idx]))
        d_seq.append(math.exp(2.0 * pair_log / (k * (k + 1))))
    cap_est = math.exp(float(np.max(logprod)) / n)
    raw = logprod / n - math.log(cap_est)
    raw = raw[np.isfinite(raw)]
    node_tol = float(np.max(np.abs(raw))) if raw.size else 0.0
    return np.array(pts), tuple(d_seq), cap_est, node_tol


_ARC_SPEC = build_blaschke_spec(0.0, 0.5 * math.pi,
                                CRule("affine", slope=5.0, offset=0.0), 16)
_LEJA_UNIONS = {
    **{f"cantor_{w}{N}": getattr(cantor_fine_sets(SPEC5, N), w)
       for N in range(1, 7) for w in ("FN", "JN")},
    "arc_J1": disk_fine_sets(_ARC_SPEC, 1).JN,
    "arc_J3": disk_fine_sets(_ARC_SPEC, 3).JN,
    "arcs": CompactUnion((arc(0.0, 1.0), arc(2.0, 2.5), arc(3.0, 6.0),
                          disk(0.1 - 0.2j, 0.05))),
    # the disk's theta = 0 node, 2.5 + 0j, is real and the first node
    "real_disk_node": CompactUnion((disk(2.0, 0.5), interval(0.0, 1.0),
                                    interval(-1.0, -0.5))),
    "signed_zeros": CompactUnion((interval(-0.0, 1.0),
                                  interval(-2.0, -0.0))),
    # nodes on the tiny disks are complex, yet the far intervals stay flat
    "tiny_disks": CompactUnion((disk(0.3, 1e-11), interval(1.0, 2.0),
                                interval(-3.0, -2.5), disk(2.0j, 1e-9))),
}


@pytest.mark.parametrize("n", [2, 3, 64, 256])
@pytest.mark.parametrize("name", sorted(_LEJA_UNIONS))
def test_real_axis_distances_match_complex_leja(name, n):
    sets = _LEJA_UNIONS[name]
    try:
        want = _complex_leja(sets, n)
    except DegenerateSet:
        with pytest.raises(DegenerateSet):
            leja_points(sets, n=n)
        return
    model = leja_points(sets, n=n)
    points, d_seq, cap_est, node_tol = want
    assert model.points.tobytes() == points.tobytes()
    assert model.d_seq == d_seq
    assert model.cap_estimate == cap_est
    assert model.node_tol == node_tol


def test_flat_ratio_modulus_is_the_real_offset():
    # the premise of leja_points' float path: complex abs of a + ib is |a|
    # when |b| <= FLAT_RATIO |a|, at every scale and sign
    rng = np.random.default_rng(7)
    for e in range(-1070, 1020, 13):
        a = rng.uniform(1.0, 2.0, 4096) * 2.0 ** e * rng.choice([-1, 1], 4096)
        b = np.abs(a) * FLAT_RATIO * rng.uniform(0.0, 1.0, 4096)
        b[:64] = np.abs(a[:64]) * FLAT_RATIO
        b *= rng.choice([-1, 1], 4096)
        assert np.array_equal(np.abs(a + 1j * b), np.abs(a))


def test_leja_refuses_n():
    sets = CompactUnion((interval(0.0, 1.0),))
    # 4096 nodes over 4 * 4096 + 1 candidates passes the work cap
    assert 4096 * mesh_size(sets.shapes[0], 4096) > LEJA_MAX_WORK
    for n in (4096, 100000):
        with pytest.raises(PreconditionFailure) as exc:
            leja_points(sets, n=n)
        assert exc.value.field == "n"
    # the 17 candidates round to fewer than 5 distinct doubles
    with pytest.raises(DegenerateSet) as exc:
        leja_points(CompactUnion((interval(1e6, 1e6 + 2.5e-10),)), n=4)
    assert exc.value.field == "n"


def test_leja_memory_scales_with_the_mesh():
    # the running log-product keeps the peak at a few mesh-sized arrays;
    # a nodes x mesh matrix at n = 128 would take over 100 MB
    sets = cantor_fine_sets(SPEC5, 2).JN
    tracemalloc.start()
    try:
        leja_points(sets, n=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_green_eval_far_from_a_wide_union():
    # |z - node| passes the largest double for the node at -1e308
    mpmath = pytest.importorskip("mpmath")
    model = leja_points(CompactUnion((interval(-1e308, 5e307),)), n=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = green_eval(model, 1.7e308)
    with mpmath.workdps(30):
        want = mpmath.fsum(mpmath.log(abs(mpmath.mpf(1.7e308) -
                                          mpmath.mpc(p)))
                           for p in model.points) / len(model.points) - \
            mpmath.log(model.cap_estimate)
    assert g == pytest.approx(float(want), rel=1e-12)


def test_leja_on_a_union_at_the_edge_of_the_doubles():
    # im_max + |Im node| passes the largest double: as numpy scalars
    # that sum warned of overflow
    sets = CompactUnion((disk(complex(-1.2e308, -1.2e308), 1e300),
                         disk(complex(-1.19e308, -1.2e308), 1e300)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = leja_points(sets, n=8)
    assert len(model.points) == 8
    assert all(np.isfinite(model.points))


@pytest.mark.parametrize("n", [2, 16, 64])
def test_mesh_sizes_per_kind(n):
    # 4n Chebyshev-Lobatto intervals, 8n points on a circle, and 64n on
    # an arc, which has no certified mesh-to-shape factor yet; the kind
    # and n alone fix the size, so a tiny disk gets a disk's
    shapes = (interval(0.0, 1.0), disk(3.0, 0.5), disk(5.0, 1e-13),
              arc(0.0, 1.0))
    assert [mesh_size(s, n) for s in shapes] == \
        [4 * n + 1, 8 * n, 8 * n, 64 * n]


def _two_intervals(alpha, beta):
    return CompactUnion((interval(-beta, -alpha), interval(alpha, beta)))


# (union, exact capacity at 50 digits, or a lower bound of it)
_CAP_CASES = {
    "unit_interval": (CompactUnion((interval(0.0, 1.0),)),
                      lambda mp: mp.mpf(1) / 4),
    "far_interval": (CompactUnion((interval(-3.5, 1e3),)),
                     lambda mp: (mp.mpf(1e3) + mp.mpf(3.5)) / 4),
    "small_interval": (CompactUnion((interval(0.1, 0.1 + 1e-9),)),
                       lambda mp: (mp.mpf(0.1 + 1e-9) - mp.mpf(0.1)) / 4),
    "disk": (CompactUnion((disk(0.3 - 0.2j, 0.5),)),
             lambda mp: mp.mpf(0.5)),
    "small_disk": (CompactUnion((disk(2.0j, 1e-10),)),
                   lambda mp: mp.mpf(1e-10)),
    "unit_circle": (CompactUnion((arc(0.0, 2.0 * math.pi),)),
                    lambda mp: mp.mpf(1)),
    # cap([-b, -a] u [a, b]) = sqrt(b^2 - a^2)/2, through z -> z^2
    "two_intervals": (_two_intervals(0.5, 1.0),
                      lambda mp: mp.sqrt(mp.mpf(1) - mp.mpf(0.25)) / 2),
    "two_near_intervals": (_two_intervals(1e-3, 2.0),
                           lambda mp: mp.sqrt(4 - mp.mpf(1e-3) ** 2) / 2),
    # unmeshed members only add capacity: cap([0, 1]) = 1/4 bounds it
    "unmeshed_members": (CompactUnion((interval(0.0, 1.0),
                                       disk(2.0, 1e-13),
                                       interval(-1.0, -1.0 + 1e-14))),
                         lambda mp: mp.mpf(1) / 4),
    "cantor_JN2": (cantor_fine_sets(SPEC5, 2).JN, lambda mp: mp.mpf(1) / 4),
}


@pytest.mark.parametrize("n", [2, 16, 64, 256])
@pytest.mark.parametrize("name", sorted(_CAP_CASES))
def test_cap_upper_bounds_the_exact_capacity(name, n):
    mpmath = pytest.importorskip("mpmath")
    sets, exact = _CAP_CASES[name]
    model = leja_points(sets, n=n)
    cap_upper = model.cap_upper
    with mpmath.workdps(50):
        assert mpmath.mpf(cap_upper) >= exact(mpmath)
    # the mesh maximum is part of the bound
    assert model.cap_estimate <= cap_upper


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("shape, factor", [
    (interval(0.0, 1.0), 1.0 / math.cos(math.pi / 8.0)),
    (disk(0.3 - 0.2j, 0.5), 1.0 / (1.0 - math.pi / 8.0)),
])
def test_cap_upper_costs_the_mesh_to_shape_factor(shape, factor, n):
    # the n-th root of the factor, and rounding far below it
    model = leja_points(CompactUnion((shape,)), n=n)
    assert model.cap_upper <= model.cap_estimate * factor ** (1.0 / n) * \
        (1.0 + 1e-9)


def _log_abs_p(mpmath, points, z):
    return mpmath.fsum(mpmath.log(abs(mpmath.mpc(z) - mpmath.mpc(p)))
                       for p in points)


def test_log_sup_bound_holds_on_every_member():
    # |p| at 50 digits on a dense sample of each member, unmeshed ones
    # (a tiny disk and a tiny segment) included, never passes the bound
    mpmath = pytest.importorskip("mpmath")
    shapes = (interval(0.0, 1.0), disk(2.0 + 1.0j, 0.25),
              arc(0.0, 2.0 * math.pi), disk(-1.5, 1e-13),
              interval(3.0, 3.0 + 1e-14))
    model = leja_points(CompactUnion(shapes), n=24)
    bound = model.log_sup_bound()
    t = np.linspace(0.0, 1.0, 997)
    ang = 2.0 * np.pi * t
    samples = [*t, *(2.0 + 1.0j + 0.25 * np.exp(1j * ang)),
               *np.exp(1j * ang), *(-1.5 + 1e-13 * np.exp(1j * ang[::50])),
               3.0, 3.0 + 1e-14, 3.0 + 5e-15]
    with mpmath.workdps(50):
        worst = max(_log_abs_p(mpmath, model.points, z) for z in samples)
        assert worst <= bound
    assert bound - float(worst) < 0.3


@pytest.mark.parametrize("shape, m", [
    (interval(0.0, 1.0), 10), (disk(2.0 + 1.0j, 0.25), 32),
    (arc(0.0, 2.0 * math.pi), 33)], ids=["interval", "disk", "circle"])
def test_log_sup_bound_covers_the_shape_between_mesh_nodes(shape, m):
    # on meshes this coarse (M = 9 > 8 on the interval, 32 > 8 pi circle
    # nodes) |p| between the nodes passes its mesh maximum, and the
    # mesh-to-shape factor carries the mesh bound past it
    mpmath = pytest.importorskip("mpmath")
    nodes = leja_points(CompactUnion((shape,)), n=8).points
    bound = potential._log_mesh_factor(shape, 8, m) + \
        potential._log_prod_upper(shape.boundary_mesh(m),
                                  potential._slack(shape), nodes)
    t = np.linspace(0.0, 1.0, 4001)
    if shape.kind == "interval":
        samples = shape.a + (shape.b - shape.a) * t
    else:
        c, r = (shape.center, shape.radius) if shape.kind == "disk" \
            else (0.0, 1.0)
        samples = c + r * np.exp(2j * np.pi * t)
    with mpmath.workdps(50):
        worst = max(_log_abs_p(mpmath, nodes, z) for z in samples)
        at_mesh = max(_log_abs_p(mpmath, nodes, z)
                      for z in shape.boundary_mesh(m))
        assert worst > at_mesh + 1e-3
        assert worst <= bound


def test_cap_upper_refusals():
    with pytest.raises(UnsupportedShape) as exc:
        leja_points(CompactUnion((arc(0.0, 1.0),)), n=8).cap_upper
    assert exc.value.field == "shapes"
    with pytest.raises(UnsupportedShape) as exc:
        leja_points(CompactUnion((interval(0.0, 1.0),),
                                 tail_inv_log_caps=(50.0,)), n=8).cap_upper
    assert exc.value.field == "tail_inv_log_caps"


def _scanned_candidates(spec, N):
    """sample_E's candidates as a scan of a list gathers them."""
    cands = [spec.a0, spec.b0]
    for x in itertools.chain.from_iterable(zip(spec.a[:N], spec.b[:N])):
        if x not in cands:
            cands.append(x)
    return sorted(cands)


@pytest.mark.parametrize("root, rule, N", [
    # gap 1 has length 0.0 at center +0.0, next to a0 = -0.0
    ((-0.0, 5e-324), CRule("affine", slope=800.0, offset=0.0), 4),
    # gaps 13.. have length 0.0, so a_j == b_j
    ((-0.0, 1.0), CRule("affine", slope=5.0, offset=0.0), 16),
])
def test_sample_E_candidates_match_a_list_scan(monkeypatch, root, rule, N):
    spec = build_cantor_spec(*root, rule, N=N)
    got = []
    monkeypatch.setattr(potential, "_witness_sample",
                        lambda fs, n, cands, *_: got.extend(cands))
    sample_E(spec, N, samples=4096)
    assert [x.hex() for x, _ in got] == \
        [x.hex() for x in _scanned_candidates(spec, N)]


def test_union_of_disks_whose_centers_sum_past_the_largest_double():
    # the mean center overflowed and the union was refused as "shapes"
    mpmath = pytest.importorskip("mpmath")
    centers = (complex(-1.2e308, -1.2e308), complex(-1.19e308, -1.2e308))
    union = CompactUnion(tuple(disk(c, 1.0) for c in centers))
    with mpmath.workdps(50):
        mean = mpmath.fsum(mpmath.mpc(c) for c in centers) / 2
        want = 2 * max(abs(mpmath.mpc(c) - mean) + 1 for c in centers)
    assert union.diameter_bound() == pytest.approx(float(want), rel=1e-15)
    assert math.isfinite(union_capacity_bound(union).log_bound)
