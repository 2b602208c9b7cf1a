"""Logarithmic capacity tools: exact values, union bounds, Leja models.

Shapes carry their size in log form so components far below double
underflow (tiny protection disks) still enter capacity arithmetic
exactly.  Shapes smaller than MESH_RESOLUTION are kept out of point
meshes and contribute to bounds analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cantor import CantorSpec, _seg_distance, condition_sum
from .errors import (BoundVacuous, DegenerateSet, EmptySample,
                     PreconditionFailure, UnsupportedShape)
from .product import certify_en_point

__all__ = [
    "Shape",
    "interval",
    "disk",
    "arc",
    "CompactUnion",
    "exact_log_capacity",
    "exact_capacity",
    "UnionBound",
    "union_capacity_bound",
    "GreenModel",
    "leja_points",
    "green_eval",
    "fine_witness_u",
    "FineSets",
    "cantor_fine_sets",
    "ESample",
    "sample_E",
]

MESH_RESOLUTION = 1e-12
# nodes x candidates of one Leja model: 2**26, over three times the
# largest model in use (n = 256 on 5 shapes of 64*256 nodes)
LEJA_MAX_WORK = 1 << 26
# most witness candidates one sample_E or blaschke_sample_E call scores;
# each costs two Green evaluations and a distance certificate (~0.3 s
# for 4096 arc candidates at N = 1)
MAX_SAMPLES = 4096
_LOG4 = math.log(4.0)


@dataclass(frozen=True)
class Shape:
    """One compact component: interval, disk, or unit-circle arc.

    log_size is log(length) for intervals and log(radius) for disks; the
    plain radius field may be 0.0 when the size underflows.  Arcs sit on
    the unit circle and are parametrized by angle.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    center: complex = 0j
    radius: float = 0.0
    theta1: float = 0.0
    theta2: float = 0.0
    log_size: float = float("-inf")

    def __post_init__(self):
        if self.kind not in ("interval", "disk", "arc"):
            raise UnsupportedShape(f"unknown shape kind {self.kind!r}")

    @property
    def meshable(self) -> bool:
        return self.log_size >= math.log(MESH_RESOLUTION)

    def boundary_mesh(self, m: int) -> np.ndarray:
        """Deterministic closed-form mesh with m nodes on the boundary."""
        if self.kind == "interval":
            # endpoint-clustered nodes resolve the equilibrium density
            t = -np.cos(np.pi * np.arange(m) / (m - 1))
            return 0.5 * (self.a + self.b) + 0.5 * (self.b - self.a) * t + 0j
        if self.kind == "disk":
            ang = 2.0 * np.pi * np.arange(m) / m
            return self.center + self.radius * np.exp(1j * ang)
        ang = self.theta1 + (self.theta2 - self.theta1) * \
            np.arange(m) / (m - 1)
        return np.exp(1j * ang)

    def distance(self, z: complex) -> float:
        if self.kind == "interval":
            return _seg_distance(complex(z), self.a, self.b)
        if self.kind == "disk":
            return max(abs(complex(z) - self.center) - self.radius, 0.0)
        z = complex(z)
        ph = math.atan2(z.imag, z.real)
        lo, hi = min(self.theta1, self.theta2), max(self.theta1, self.theta2)
        for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
            if lo <= ph + shift <= hi:
                return abs(abs(z) - 1.0)
        d1 = abs(z - complex(math.cos(lo), math.sin(lo)))
        d2 = abs(z - complex(math.cos(hi), math.sin(hi)))
        return min(d1, d2)

    def extent(self) -> tuple[complex, float]:
        """(center, outer radius) of a covering disk."""
        if self.kind == "interval":
            return complex(0.5 * (self.a + self.b)), 0.5 * (self.b - self.a)
        if self.kind == "disk":
            return self.center, self.radius
        mid = 0.5 * (self.theta1 + self.theta2)
        c = complex(math.cos(mid), math.sin(mid))
        half = 0.5 * abs(self.theta2 - self.theta1)
        return c, 2.0 * math.sin(0.5 * half) if half < math.pi else 2.0


def interval(a: float, b: float, log_length: float | None = None) -> Shape:
    if log_length is None:
        if not b > a:
            raise PreconditionFailure("interval needs a < b", field="shape")
        log_length = math.log(b - a)
    return Shape("interval", a=a, b=b, log_size=log_length)


def disk(center: complex, radius: float = 0.0,
         log_radius: float | None = None) -> Shape:
    if log_radius is None:
        if not radius > 0.0:
            raise PreconditionFailure("disk needs radius > 0", field="shape")
        log_radius = math.log(radius)
    r = radius if radius > 0.0 else (
        math.exp(log_radius) if log_radius > -744.0 else 0.0)
    return Shape("disk", center=complex(center), radius=r, log_size=log_radius)


def arc(theta1: float, theta2: float) -> Shape:
    if not theta2 > theta1:
        raise PreconditionFailure("arc needs theta1 < theta2", field="shape")
    if theta2 - theta1 > 2.0 * math.pi:
        raise PreconditionFailure("arc angle exceeds a full turn",
                                  field="shape")
    # log_size records the capacity scale sin(angle/4), capped at 1
    return Shape("arc", theta1=theta1, theta2=theta2,
                 log_size=math.log(math.sin(min(
                     0.25 * (theta2 - theta1), 0.5 * math.pi))))


@dataclass(frozen=True)
class CompactUnion:
    """Union of materialized shapes plus analytic-only members.

    Analytic members are carried as values of log(1/capacity); they stand
    for components too small to mesh but still charged in bounds.  They
    are assumed to lie inside the covering frame of the shapes.
    """

    shapes: tuple[Shape, ...]
    tail_inv_log_caps: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.shapes and not self.tail_inv_log_caps:
            raise DegenerateSet("empty union")

    def covering(self) -> tuple[complex, float]:
        exts = [s.extent() for s in self.shapes]
        cx = sum(c.real for c, _ in exts) / len(exts)
        cy = sum(c.imag for c, _ in exts) / len(exts)
        c0 = complex(cx, cy)
        return c0, max(abs(c - c0) + r for c, r in exts)

    def diameter_bound(self) -> float:
        if not self.shapes:
            return 1.0
        _, r = self.covering()
        return 2.0 * r

    def distance(self, z: complex) -> float:
        if not self.shapes:
            raise DegenerateSet("no materialized shapes")
        return min(s.distance(z) for s in self.shapes)


def exact_log_capacity(shape: Shape) -> float:
    """log capacity for the supported closed forms: interval length/4,
    disk radius, unit-circle arc of angle phi sin(phi/4)."""
    if shape.kind == "interval":
        return shape.log_size - _LOG4
    if shape.kind == "disk":
        return shape.log_size
    phi = abs(shape.theta2 - shape.theta1)
    return math.log(math.sin(0.25 * phi))


def exact_capacity(shape: Shape) -> float:
    lc = exact_log_capacity(shape)
    return math.exp(lc) if lc > -744.0 else 0.0


@dataclass(frozen=True)
class UnionBound:
    """Certified capacity upper bound for a union of compact members."""

    log_bound: float
    rescale: float               # frame factor applied to reach diameter 1
    inv_sum: float               # sum of 1/log(1/cap_i) in the unit frame
    members: int

    @property
    def bound(self) -> float:
        return math.exp(self.log_bound) if self.log_bound > -744.0 else 0.0


def _bound_from_invs(neg_log_caps, diam: float,
                     extra_inv: float = 0.0,
                     extra_members: int = 0) -> UnionBound:
    """cap(union) <= exp(-1/sum_i 1/log(1/cap_i)) in a diameter-1 frame.

    neg_log_caps holds log(1/cap_i) in the original frame; rescaling by
    lam = 1/diam turns each into log(1/cap_i) - log lam.  extra_inv is a
    certified upper bound on the inverse-log sum of omitted tail members
    (adding it can only weaken the bound, never break it).
    """
    lam = 1.0 if diam <= 1.0 else 1.0 / diam
    log_lam = math.log(lam) if lam != 1.0 else 0.0
    inv_sum = extra_inv
    count = extra_members
    for v in neg_log_caps:
        adj = v - log_lam
        if adj <= 0.0:
            raise BoundVacuous("a member has capacity >= 1 in the unit frame")
        inv_sum += 1.0 / adj
        count += 1
    if inv_sum == 0.0:
        raise DegenerateSet("no members contribute")
    return UnionBound(-1.0 / inv_sum - log_lam, lam, inv_sum, count)


def union_capacity_bound(sets: CompactUnion) -> UnionBound:
    """Capacity upper bound for a CompactUnion via inverse-log summation.

    The union is rescaled into a diameter-1 frame (where every member
    must have capacity below 1) and the bound is mapped back.  A single
    member reproduces its exact capacity.
    """
    invs = [-exact_log_capacity(s) for s in sets.shapes]
    invs.extend(sets.tail_inv_log_caps)
    return _bound_from_invs(invs, sets.diameter_bound())


@dataclass(frozen=True)
class GreenModel:
    """Discrete equilibrium model from a Leja sequence.

    cap_estimate is the n-th root of the next greedy gain, which tracks
    the Chebyshev constant; the transfinite-diameter sequence d_seq is
    recorded alongside for diagnostics.  node_tol is the largest |ghat|
    over the candidate mesh itself, the natural clamping scale; it is
    read off the greedy loop's running log-product, so no nodes x mesh
    matrix is formed.
    """

    support: CompactUnion
    points: np.ndarray = field(repr=False)
    d_seq: tuple[float, ...]
    cap_estimate: float
    node_tol: float

    @property
    def log_cap_estimate(self) -> float:
        return math.log(self.cap_estimate)


def leja_points(sets: CompactUnion, n: int = 64,
                mesh_per_shape: int | None = None) -> GreenModel:
    """Greedy max-product nodes on the union boundary.

    The candidate mesh has mesh_per_shape nodes (at least 2; default
    64*n) per meshable shape; shapes below MESH_RESOLUTION are excluded
    (they are charged analytically in bounds, not sampled).  The work is
    n times the candidate count, capped at LEJA_MAX_WORK; memory is
    O(|mesh|), since node_tol is read off the greedy loop's running
    log-product.  Deterministic: ties resolve to the lowest candidate
    index.
    """
    if n < 2:
        raise PreconditionFailure("need n >= 2 nodes", field="n")
    if mesh_per_shape is not None and mesh_per_shape < 2:
        raise PreconditionFailure("need mesh >= 2 nodes per shape",
                                  field="mesh")
    m = 64 * n if mesh_per_shape is None else mesh_per_shape
    shapes = [s for s in sets.shapes if s.meshable]
    if not shapes:
        raise DegenerateSet("no meshable shapes in the union")
    if n * m * len(shapes) > LEJA_MAX_WORK:
        raise PreconditionFailure(
            f"n={n} nodes over {m * len(shapes)} candidates exceeds the "
            f"work cap {LEJA_MAX_WORK}", field="n")
    cands = np.concatenate([s.boundary_mesh(m) for s in shapes])

    idx = int(np.argmax(np.abs(cands)))
    pts = [cands[idx]]
    with np.errstate(divide="ignore"):
        logprod = np.log(np.abs(cands - pts[0]))
    pair_log = 0.0
    d_seq: list[float] = []
    for k in range(1, n):
        idx = int(np.argmax(logprod))
        pts.append(cands[idx])
        pair_log += float(logprod[idx])
        with np.errstate(divide="ignore"):
            logprod += np.log(np.abs(cands - cands[idx]))
        d_seq.append(math.exp(2.0 * pair_log / (k * (k + 1))))
    gain_next = float(np.max(logprod))
    if gain_next == -math.inf:
        # every candidate coincides with a node: fewer than n + 1 distinct
        raise DegenerateSet(
            f"candidate mesh needs more than n={n} distinct points",
            field="n")
    cap_est = math.exp(gain_next / n)
    # logprod[i] = sum over the n nodes of log|cand_i - node|
    raw = logprod / n - math.log(cap_est)
    raw = raw[np.isfinite(raw)]
    node_tol = float(np.max(np.abs(raw))) if raw.size else 0.0
    return GreenModel(sets, np.array(pts), tuple(d_seq), cap_est, node_tol)


def green_eval(model: GreenModel, z: complex) -> float:
    """Discrete Green function with pole at infinity, clamped at 0.

    On the support the raw value fluctuates within node_tol around 0;
    clamping keeps witness differences one-signed there.
    """
    with np.errstate(divide="ignore"):
        raw = float(np.mean(np.log(np.abs(complex(z) - model.points))))
    return max(raw - model.log_cap_estimate, 0.0)


def fine_witness_u(model_F: GreenModel, model_J: GreenModel,
                   z: complex) -> float:
    """Green difference g_F - g_J; positive values witness thinness of
    the exceptional set F at z relative to the ambient set J."""
    return green_eval(model_F, z) - green_eval(model_J, z)


@dataclass(frozen=True)
class FineSets:
    """Exceptional set F_N and ambient set J_N of either spec family.

    sum_segments and sum_disks are the two display sums of the capacity
    chain (inverse log capacities of gap segments, 0.0 for a disk spec,
    and of protection disks from index N on) with certified tails
    included; cap_ambient_floor is cap of the root interval or zero arc.
    """

    N: int
    FN: CompactUnion
    JN: CompactUnion
    fn_bound: UnionBound
    sum_segments: float
    sum_disks: float
    cap_ambient_floor: float

    @property
    def chain_closes(self) -> bool:
        return self.fn_bound.bound < self.cap_ambient_floor


def _certified_tail(rule, M: int) -> tuple[int, float]:
    """Horizon H = max(M, 64) for analytic member lists and the certified
    bound on sum_{j > H} 1/(j c_j) that charges the omitted members; an
    explicit rule stops at its materialized prefix with nothing omitted."""
    if rule.max_defined_index is not None:
        return M, 0.0
    H = max(M, 64)
    return H, condition_sum(rule, J=H).tail_bound


def _check_samples(samples: int) -> None:
    if not 1 <= samples <= MAX_SAMPLES:
        raise PreconditionFailure(
            f"need 1 <= samples <= {MAX_SAMPLES}, got {samples}",
            field="samples")


def _witness_sample(fs, leja_n: int, cands, certify, row) -> list:
    """Score (key, z) candidates by the Green witness u = g_F - g_J at z.

    A row is in E_N when u > 0 and certify(key) holds; raises EmptySample
    when no row is.  A Leja size refusal names the setting leja_n.
    """
    try:
        model_F = leja_points(fs.FN, n=leja_n)
        model_J = leja_points(fs.JN, n=leja_n)
    except PreconditionFailure as e:
        if e.field == "n":
            e.field = "leja_n"
        raise
    out = []
    for key, z in cands:
        u = fine_witness_u(model_F, model_J, z)
        out.append(row(key, u, u > 0.0 and certify(key)))
    if not any(s.in_EN for s in out):
        raise EmptySample(
            "no candidate passes both the witness and distance conditions")
    return out


def _pole_disks(rule, poles, N: int,
                tail: float | None) -> tuple[list[Shape], float]:
    """Meshable protection disks of log-radius -j c_j / 2 around the
    materialized poles (j, pole) with j >= N, and sum_disks: 2/(j c_j)
    added in index order, then 2 * tail unless tail is None."""
    disks: list[Shape] = []
    sum_disks = 0.0
    for j, pole in poles:
        if j < N:
            continue
        jcj = rule.jcj(j)
        sum_disks += 2.0 / jcj
        log_r = -0.5 * jcj
        if log_r >= math.log(MESH_RESOLUTION):
            disks.append(disk(pole, log_radius=log_r))
    if tail is not None:
        sum_disks += 2.0 * tail
    return disks, sum_disks


def _fn_analytic_bound(spec: CantorSpec, N: int) -> UnionBound:
    """Union capacity bound for F_N with every member charged analytically.

    Members: gap segments (log(1/cap) = j c_j + log 4) for all j >= 1 and
    protection disks of radius exp(-j c_j / 2) (log(1/cap) = j c_j / 2)
    for j >= N.  The sum runs to a horizon past the materialization; the
    remainder is dominated by 3 * sum_{j>H} 1/(j c_j), certified by the
    rule's closed-form tail.
    """
    rule = spec.c_rule
    H, tail = _certified_tail(rule, spec.max_index)
    extra_inv = 3.0 * tail
    invs: list[float] = []
    for j in range(1, H + 1):
        jcj = rule.jcj(j)
        invs.append(jcj + _LOG4)
        if j >= N:
            invs.append(0.5 * jcj)
    pad = math.exp(spec.log_p(N)) if spec.log_p(N) > -744.0 else 0.0
    diam = spec.root_length + 2.0 * pad
    return _bound_from_invs(invs, diam, extra_inv=extra_inv)


def cantor_fine_sets(spec: CantorSpec, N: int) -> FineSets:
    """Protection system for fine-limit certificates on a gap construction.

    F_N collects every gap segment plus disks of radius exp(-j c_j / 2)
    around the poles b_j for j >= N; J_N adjoins the root interval.  Only
    meshable members are materialized as shapes; the capacity bound is
    computed analytically over the full (infinite) member list, so it is
    independent of mesh admission.
    """
    if not 1 <= N <= spec.max_index:
        raise PreconditionFailure("need 1 <= N <= materialization", field="N")
    segs: list[Shape] = []
    sum_segments = 0.0
    for g in spec.gaps:
        sum_segments += 1.0 / (spec.c_rule.jcj(g.index) + _LOG4)
        if g.log_length >= math.log(MESH_RESOLUTION):
            segs.append(interval(g.a, g.b, log_length=g.log_length))
    cs = condition_sum(spec.c_rule, J=spec.max_index)
    if cs.tail_bound is not None:
        sum_segments += cs.tail_bound      # 1/(jc_j + log4) <= 1/(jc_j)
    disks, sum_disks = _pole_disks(
        spec.c_rule, ((g.index, g.b) for g in spec.gaps), N, cs.tail_bound)
    fn_bound = _fn_analytic_bound(spec, N)
    union_F = CompactUnion(tuple(segs + disks))
    root = interval(spec.a0, spec.b0)
    union_J = CompactUnion((root,) + union_F.shapes)
    cap_floor = math.exp(exact_log_capacity(root))
    return FineSets(N, union_F, union_J, fn_bound,
                    sum_segments, sum_disks, cap_floor)


@dataclass(frozen=True)
class ESample:
    x: float
    u: float
    in_EN: bool


def sample_E(spec: CantorSpec, N: int, samples: int = 32,
             leja_n: int = 64) -> list[ESample]:
    """Fine-membership witnesses at set-approximation points.

    Candidates are the endpoints of the remaining pieces at full
    materialization, thinned to at most samples (1..MAX_SAMPLES) of them.
    Each is scored by the Green witness u = g_F - g_J and by the distance
    conditions for depth N.  Raises EmptySample when no candidate passes
    both; PreconditionFailure when the summability condition is not
    certified below 1/2 or the capacity chain does not close at this N.
    """
    _check_samples(samples)
    cs = condition_sum(spec, J=max(spec.max_index, 64))
    if cs.satisfied is not True:
        raise PreconditionFailure(
            f"summability condition not certified below 1/2 "
            f"(partial sum {cs.partial:.6g})")
    fs = cantor_fine_sets(spec, N)
    if not fs.chain_closes:
        raise PreconditionFailure(
            f"union bound {fs.fn_bound.bound:.3g} does not beat the "
            f"ambient capacity floor {fs.cap_ambient_floor:.3g} at N={N}")
    # endpoints of the remaining intervals at depth N; all lie in the
    # limit set exactly (gap endpoints persist through the construction)
    cands: list[float] = [spec.a0, spec.b0]
    for g in spec.gaps[:N]:
        for x in (g.a, g.b):
            if x not in cands:
                cands.append(x)
    cands.sort()
    if samples < len(cands):
        step = len(cands) / samples
        cands = [cands[int(i * step)] for i in range(samples)]
    return _witness_sample(fs, leja_n, [(x, x) for x in cands],
                           lambda x: certify_en_point(spec, x, N), ESample)
