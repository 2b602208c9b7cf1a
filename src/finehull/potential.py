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

from .cantor import CantorSpec, check_point, condition_sum, exp_cut
from .errors import (BoundVacuous, ChainNotClosed, DegenerateSet,
                     EmptySample, PreconditionFailure, UnsupportedShape)
from .logspace import _gamma
from .product import _exp_or_inf, certify_en_point

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
    "mesh_size",
    "leja_points",
    "green_eval",
    "fine_witness_u",
    "FineSets",
    "cantor_fine_sets",
    "ESample",
    "sample_E",
]

MESH_RESOLUTION = 1e-12
# Leja candidates per meshable shape of an n-node model, by kind, as
# (a, b) for a*n + b, sized so that cap_upper's mesh-to-shape factor for a
# degree-n polynomial stays small: a Chebyshev-Lobatto mesh of 4n
# intervals costs 1/cos(pi/8) (1.0003 on the n-th root at n = 256), 8n
# points on a circle 1/(1 - pi/8) (1.002).  Arcs have no certified factor
# yet and keep 64n.
MESH_PER_NODE = {"interval": (4, 1), "disk": (8, 0), "arc": (64, 0)}
# nodes x candidates of one Leja model: 2**26, 36 times the largest model
# the pipelines and the benchmark use (n = 256 on 3 intervals and 2 disks,
# 7171 candidates); one interval takes n up to 4095, a disk 2896, an arc 1024
LEJA_MAX_WORK = 1 << 26
# when every imaginary offset of a Leja mesh block is at most FLAT_RATIO
# times every real offset, complex abs returns |d.real|: the exact modulus
# exceeds it by at most 2**-55 of it, below half an ulp (2**-54 of it at
# least), and 1 + r*r with r <= FLAT_RATIO rounds to 1 in doubles
FLAT_RATIO = 2.0 ** -27
# most witness candidates one sample_E or blaschke_sample_E call scores;
# each costs two Green evaluations and a distance certificate (~0.3 s
# for 4096 arc candidates at N = 1)
MAX_SAMPLES = 4096
_LOG2 = math.log(2.0)
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
            # endpoint-clustered nodes resolve the equilibrium density:
            # the Chebyshev-Lobatto points of m - 1 intervals
            t = -np.cos(np.pi * np.arange(m) / (m - 1))
            return 0.5 * (self.a + self.b) + 0.5 * (self.b - self.a) * t + 0j
        if self.kind == "disk":
            ang = 2.0 * np.pi * np.arange(m) / m
            return self.center + self.radius * np.exp(1j * ang)
        ang = self.theta1 + (self.theta2 - self.theta1) * \
            np.arange(m) / (m - 1)
        return np.exp(1j * ang)

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


def _finite(name: str, x: float) -> None:
    """Shape sizes are finite doubles; a refusal names the parameter."""
    if not math.isfinite(x):
        raise PreconditionFailure(f"{name} must be finite, got {x!r}",
                                  field=name)


def interval(a: float, b: float, log_length: float | None = None) -> Shape:
    _finite("a", a)
    _finite("b", b)
    if log_length is None:
        if not b > a:
            raise PreconditionFailure("interval needs a < b", field="b")
        _finite("b", b - a)     # the length overflows
        log_length = math.log(b - a)
    _finite("log_length", log_length)
    return Shape("interval", a=a, b=b, log_size=log_length)


def disk(center: complex, radius: float = 0.0,
         log_radius: float | None = None) -> Shape:
    center = complex(center)
    _finite("center", center.real)
    _finite("center", center.imag)
    if log_radius is None:
        _finite("radius", radius)
        if not radius > 0.0:
            raise PreconditionFailure("disk needs radius > 0", field="radius")
        log_radius = math.log(radius)
    _finite("log_radius", log_radius)
    try:
        r = radius if radius > 0.0 else exp_cut(log_radius)
    except OverflowError as e:
        raise PreconditionFailure(
            f"disk radius exp({log_radius!r}) overflows",
            field="log_radius") from e
    return Shape("disk", center=center, radius=r, log_size=log_radius)


def arc(theta1: float, theta2: float) -> Shape:
    _finite("theta1", theta1)
    _finite("theta2", theta2)
    if not theta2 > theta1:
        raise PreconditionFailure("arc needs theta1 < theta2",
                                  field="theta2")
    if theta2 - theta1 > 2.0 * math.pi:
        raise PreconditionFailure("arc angle exceeds a full turn",
                                  field="theta2")
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
            raise DegenerateSet("empty union", field="shapes")
        if not math.isfinite(self.diameter_bound()):
            raise PreconditionFailure("the shapes span more than the "
                                      "largest double", field="shapes")

    def diameter_bound(self) -> float:
        """Diameter of a disk about the mean extent center that covers
        every shape; 1.0 without shapes."""
        if not self.shapes:
            return 1.0
        exts = [s.extent() for s in self.shapes]
        n = len(exts)
        cx = sum(c.real for c, _ in exts) / n
        cy = sum(c.imag for c, _ in exts) / n
        if not (math.isfinite(cx) and math.isfinite(cy)):
            # the sum overflows: add the centers at scale 1/n instead
            cx, cy = sum(c.real / n for c, _ in exts), \
                sum(c.imag / n for c, _ in exts)
        # hypot is complex abs, but gives inf where abs raises
        return 2.0 * max(math.hypot(c.real - cx, c.imag - cy) + r
                         for c, r in exts)


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
    return exp_cut(lc)


@dataclass(frozen=True)
class UnionBound:
    """Certified capacity upper bound for a union of compact members."""

    log_bound: float
    rescale: float               # frame factor applied to reach diameter 1
    inv_sum: float               # sum of 1/log(1/cap_i) in the unit frame
    members: int

    @property
    def bound(self) -> float:
        return exp_cut(self.log_bound)


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
            # a fine-set bound's members all have log(1/cap) > 0
            raise BoundVacuous("a member has capacity >= 1 in the unit "
                               "frame", field="shapes")
        inv_sum += 1.0 / adj
        count += 1
    if inv_sum == 0.0:
        # log(1/cap) = inf for all: a rule whose every j c_j overflows
        raise DegenerateSet("no members contribute", field="c_rule")
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


def mesh_size(shape: Shape, n: int, mesh_per_shape: int | None = None) -> int:
    """Leja candidates on one meshable shape of an n-node model:
    mesh_per_shape when given, else MESH_PER_NODE's size for its kind."""
    if mesh_per_shape is not None:
        return mesh_per_shape
    a, b = MESH_PER_NODE[shape.kind]
    return a * n + b


def _up(x: float) -> float:
    """The next double above x: one rounding taken upward."""
    return math.nextafter(x, math.inf)


def _slack(shape: Shape) -> float:
    """How far boundary_mesh's computed nodes, and a covering disk's float
    center and radius, may lie from their exact values: each formula
    rounds a few times and numpy's cos and exp are within a few ulps, far
    below 2^-46 of the coordinates' scale (for an arc, of its angles')."""
    if shape.kind == "interval":
        scale = abs(shape.a) + abs(shape.b)
    elif shape.kind == "disk":
        scale = math.hypot(shape.center.real, shape.center.imag) + \
            shape.radius
    else:
        scale = 1.0 + abs(shape.theta1) + abs(shape.theta2)
    return _up(2.0 ** -46 * scale)


def _log_mesh_factor(shape: Shape, n: int, m: int) -> float:
    """Upper bound on log c, where max |p| over the shape is at most c
    times max |p| over the exact nodes of boundary_mesh(m), for every
    polynomial p of degree n.

    An interval's mesh is the Chebyshev-Lobatto points of M = m - 1
    intervals: c = 1/cos(pi n/(2M)) = 1/sin(pi (M - n)/(2M)) when M > n
    (Ehlich and Zeller 1964).  A disk's mesh is m equispaced points on its
    circle, so every point of the circle is within pi/m of one in angle,
    Bernstein's |p'| <= n max |p| gives c = 1/(1 - pi n/m) when m > pi n,
    and the maximum principle carries it to the disk.  A full-turn arc is
    the unit circle with m - 1 distinct nodes; a partial arc has no factor
    yet (UnsupportedShape, field shapes).  A mesh too coarse for its
    factor is refused naming mesh.  The ratio, within 4 roundings of
    exact, is moved toward the weaker factor by 2^-50 of itself, and the
    log up by 2^-50 (1 + log c) for sin, log1p and log.
    """
    if shape.kind == "interval":
        M = m - 1
        if M <= n:
            raise PreconditionFailure(
                f"an interval mesh of {m} nodes bounds no polynomial of "
                f"degree {n}: need m - 1 > n", field="mesh")
        log_c = -math.log(math.sin(
            0.5 * math.pi * (M - n) / M * (1.0 - 2.0 ** -50)))
    else:
        if shape.kind == "arc":
            if shape.theta2 - shape.theta1 != 2.0 * math.pi:
                raise UnsupportedShape(
                    "a partial arc has no mesh-to-shape bound",
                    field="shapes")
            m -= 1              # the first and last nodes coincide
        x = math.pi * n / m * (1.0 + 2.0 ** -50)
        if not x < 1.0:
            raise PreconditionFailure(
                f"a circle mesh of {m} distinct nodes bounds no polynomial "
                f"of degree {n}: need m > pi n", field="mesh")
        log_c = -math.log1p(-x)
    return _up(log_c + 2.0 ** -50 * (1.0 + log_c))


def _cover(shape: Shape) -> tuple[complex, float]:
    """A disk (center, radius) holding an unmeshed member: its covering
    disk, whose radius is at least half a segment's exact length
    exp(log_size) and a disk's exact radius, widened by _slack."""
    c, r = shape.extent()
    if shape.kind == "interval":
        r = max(r, exp_cut(shape.log_size - _LOG2))
    elif shape.kind == "disk":
        r = max(r, exp_cut(shape.log_size))
    return c, _up(_up(r) + _slack(shape))


def _log_prod_upper(xs: np.ndarray, pad, nodes: np.ndarray) -> float:
    """Upper bound on the maximum over i of sum_j log(|xs_i - nodes_j| +
    pad_i); pad is positive, one value or one per xs_i.

    The terms are added node by node.  Each computed term l_j lies within
    4u + 2u|l_j| of its exact value, u = 2^-53 (the subtraction and abs,
    the add of pad, libm's log), and the running sum adds at most
    gamma_{n-1} sum|l_j| (Higham 2002, ch. 4); gamma_{n+4} (sum|l_j| + 8n)
    covers both and the bound's own adds.
    """
    n = len(nodes)
    acc = np.zeros(len(xs))
    size = np.zeros(len(xs))
    d = np.empty(len(xs))
    with np.errstate(over="ignore"):
        for p in nodes:
            np.abs(xs - p, out=d)
            np.add(d, pad, out=d)
            np.log(d, out=d)
            np.add(acc, d, out=acc)
            np.abs(d, out=d)
            np.add(size, d, out=size)
        return _up(float(np.max(acc + _gamma(n + 4) * (size + 8.0 * n))))


@dataclass(frozen=True)
class GreenModel:
    """Discrete equilibrium model from a Leja sequence.

    cap_estimate is the n-th root of the next greedy gain, which tracks
    the Chebyshev constant; the transfinite-diameter sequence d_seq is
    recorded alongside for diagnostics.  node_tol is the largest |ghat|
    over the candidate mesh itself, the natural clamping scale; it is
    read off the greedy loop's running log-product, so no nodes x mesh
    matrix is formed.  mesh_sizes holds the candidate count of each
    meshable shape of the support, in order.
    """

    support: CompactUnion
    points: np.ndarray = field(repr=False)
    d_seq: tuple[float, ...]
    cap_estimate: float
    node_tol: float
    mesh_sizes: tuple[int, ...]

    @property
    def log_cap_estimate(self) -> float:
        return math.log(self.cap_estimate)

    def log_sup_bound(self) -> float:
        """Upper bound on log max |p| over the whole support, p(z) =
        prod (z - node) the monic node polynomial.

        A meshed shape rebuilds its mesh and charges the largest
        prod (|c - node| + delta) over its computed nodes c, delta =
        _slack, times its mesh-to-shape factor (_log_mesh_factor).  An
        unmeshed member charges prod (|c - node| + r) over a disk (c, r)
        that holds it (_cover): a tiny segment counts as the disk of its
        half width.  Rounding is charged as _log_prod_upper states.
        Members carried only as tail_inv_log_caps have no place and are
        refused (UnsupportedShape, field tail_inv_log_caps), as are partial
        arcs and meshes too coarse for their factor.
        """
        if self.support.tail_inv_log_caps:
            raise UnsupportedShape("a member without a place bounds no "
                                   "polynomial", field="tail_inv_log_caps")
        n = len(self.points)
        sizes = iter(self.mesh_sizes)
        bound = -math.inf
        covers = []
        for s in self.support.shapes:
            if s.meshable:
                m = next(sizes)
                log_c = _log_mesh_factor(s, n, m)
                bound = max(bound, _up(log_c + _log_prod_upper(
                    s.boundary_mesh(m), _slack(s), self.points)))
            else:
                covers.append(_cover(s))
        if covers:
            centers, radii = zip(*covers)
            bound = max(bound, _log_prod_upper(
                np.array(centers), np.array(radii), self.points))
        return bound

    @property
    def cap_upper(self) -> float:
        """Certified upper bound on the support's capacity: cap(K) <=
        (max_K |p|)^(1/n) for every monic p of degree n (Ransford,
        Potential Theory in the Complex Plane, Thm 5.5.4), with max_K |p|
        from log_sup_bound and each later step rounded up.  Computed on
        each call, never by leja_points."""
        x = _up(self.log_sup_bound() / len(self.points))
        return _up(_up(_exp_or_inf(x)))


class _MeshBlock:
    """One shape's Leja candidates, its slices of the running log-product
    and of the scratch buffers, and the bounds that choose how |cand - p|
    is taken."""

    def __init__(self, cands: np.ndarray, logprod: np.ndarray,
                 dist: np.ndarray, cbuf: np.ndarray):
        self.cands, self.logprod = cands, logprod
        self.dist, self.cbuf = dist, cbuf
        self.reals = cands.real.copy()
        self.re_lo = float(self.reals.min())
        self.re_hi = float(self.reals.max())
        self.im_max = float(np.abs(cands.imag).max())

    def add_log_dist(self, p: complex) -> None:
        """logprod += log|cand - p|, with |cand - p| in the bits of
        complex abs.

        When every imaginary offset is at most FLAT_RATIO times every real
        offset, the modulus is |cand.real - p.real|, taken in float
        arithmetic.  fl(re_lo - p.real) bounds each |fl(c.real - p.real)|
        from below when p lies left of the block, fl(p.real - re_hi) when
        it lies right, and fl(im_max + |p.imag|) bounds every imaginary
        offset from above.
        """
        x = p.real
        dist = self.dist
        gap = self.re_lo - x if x < self.re_lo else \
            x - self.re_hi if x > self.re_hi else 0.0
        if self.im_max + abs(p.imag) > gap * FLAT_RATIO:
            np.subtract(self.cands, p, out=self.cbuf)
            np.abs(self.cbuf, out=dist)
        else:
            np.subtract(self.reals, x, out=dist)
            np.abs(dist, out=dist)
        np.log(dist, out=dist)
        np.add(self.logprod, dist, out=self.logprod)


def leja_points(sets: CompactUnion, n: int = 64,
                mesh_per_shape: int | None = None) -> GreenModel:
    """Greedy max-product nodes on the union boundary.

    Each meshable shape gets mesh_size(shape, n, mesh_per_shape)
    candidates: mesh_per_shape (at least 2) when given, else 4n + 1
    Chebyshev-Lobatto nodes on an interval, 8n on a disk and 64n on an
    arc (MESH_PER_NODE), sizes at which cap_upper's mesh-to-shape factors
    stay small.  Shapes below MESH_RESOLUTION are excluded (they are
    charged analytically in bounds and in cap_upper, not sampled).  The
    work is n times the total candidate count, capped at LEJA_MAX_WORK;
    memory is O(|mesh|), since node_tol is read off the greedy loop's
    running log-product.  Deterministic: ties resolve to the lowest
    candidate index.

    Each node adds log|cand - p| one shape's block at a time, so a
    block's operands stay in cache between the passes.  A block whose
    imaginary offsets from p are all negligible against its real ones
    (an interval and a real node, or a tiny disk far from p) takes its
    distances in float arithmetic, |c.real - p.real|, which are the bits
    complex abs gives; the rest take the complex path.
    """
    if n < 2:
        raise PreconditionFailure("need n >= 2 nodes", field="n")
    if mesh_per_shape is not None and mesh_per_shape < 2:
        raise PreconditionFailure("need mesh >= 2 nodes per shape",
                                  field="mesh")
    shapes = [s for s in sets.shapes if s.meshable]
    if not shapes:
        raise DegenerateSet("no meshable shapes in the union",
                            field="shapes")
    sizes = [mesh_size(s, n, mesh_per_shape) for s in shapes]
    if n * sum(sizes) > LEJA_MAX_WORK:
        raise PreconditionFailure(
            f"n={n} nodes over {sum(sizes)} candidates exceeds the "
            f"work cap {LEJA_MAX_WORK}", field="n")
    cands = np.concatenate([s.boundary_mesh(m)
                            for s, m in zip(shapes, sizes)])
    # 0.0 + log|d| == log|d| (log never returns -0.0), so the first node
    # adds into zeros like every later one
    logprod = np.zeros(len(cands))
    cbuf = np.empty(max(sizes), dtype=complex)
    dist = np.empty(max(sizes))
    blocks = []
    lo = 0
    for m in sizes:
        blocks.append(_MeshBlock(cands[lo:lo + m], logprod[lo:lo + m],
                                 dist[:m], cbuf[:m]))
        lo += m

    idx = int(np.argmax(np.abs(cands)))
    pts = [cands[idx]]
    pair_log = 0.0
    d_seq: list[float] = []
    with np.errstate(divide="ignore"):
        for b in blocks:
            b.add_log_dist(pts[0])
        for k in range(1, n):
            idx = int(logprod.argmax())
            pts.append(cands[idx])
            pair_log += float(logprod[idx])
            for b in blocks:
                b.add_log_dist(cands[idx])
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
    return GreenModel(sets, np.array(pts), tuple(d_seq), cap_est, node_tol,
                      tuple(sizes))


def green_eval(model: GreenModel, z: complex) -> float:
    """Discrete Green function with pole at infinity, clamped at 0.

    On the support the raw value fluctuates within node_tol around 0;
    clamping keeps witness differences one-signed there.
    """
    z = check_point(z, "z")
    with np.errstate(divide="ignore", over="ignore"):
        raw = float(np.mean(np.log(np.abs(z - model.points))))
        if raw == math.inf or math.isnan(raw):
            # a distance past the largest double: take every one at a
            # quarter scale, where each part, and so the modulus, is finite
            raw = float(np.mean(np.log(np.abs(
                0.25 * z - 0.25 * model.points)))) + _LOG4
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
    naming the setting samples when no row is.  A chain that does not
    close at fs.N (ChainNotClosed) and a set with no meshable shape name
    the depth N; a Leja size refusal names the setting leja_n.
    """
    if not fs.chain_closes:
        raise ChainNotClosed(
            f"union bound {fs.fn_bound.bound:.3g} does not beat the ambient "
            f"floor {fs.cap_ambient_floor:.3g} at N={fs.N}", field="N")
    try:
        model_F = leja_points(fs.FN, n=leja_n)
        model_J = leja_points(fs.JN, n=leja_n)
    except PreconditionFailure as e:
        if e.field == "n":
            e.field = "leja_n"
        elif isinstance(e, DegenerateSet):
            e.field = "N"
        raise
    out = []
    for key, z in cands:
        u = fine_witness_u(model_F, model_J, z)
        out.append(row(key, u, u > 0.0 and certify(key)))
    if not any(s.in_EN for s in out):
        raise EmptySample(
            "no candidate passes both the witness and distance conditions",
            field="samples")
    return out


def _pole_disks(jcjs, poles, N: int,
                tail: float | None) -> tuple[list[Shape], float]:
    """Protection disks, meshable or not, of log-radius -j c_j / 2 around
    the poles b_j with j >= N (jcjs[j-1] = j c_j, poles[j-1] = b_j), and
    sum_disks: 2/(j c_j) added in index order, then 2 * tail unless tail
    is None.  A pole whose j c_j overflows has capacity 0 and no disk."""
    disks: list[Shape] = []
    sum_disks = 0.0
    for pole, jcj in zip(poles[N - 1:], jcjs[N - 1:]):
        sum_disks += 2.0 / jcj
        if jcj < math.inf:
            disks.append(disk(pole, log_radius=-0.5 * jcj))
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
    pad = exp_cut(spec.log_p(N))
    diam = spec.root_length + 2.0 * pad
    return _bound_from_invs(invs, diam, extra_inv=extra_inv)


def cantor_fine_sets(spec: CantorSpec, N: int) -> FineSets:
    """Protection system for fine-limit certificates on a gap construction.

    F_N collects every gap segment plus disks of radius exp(-j c_j / 2)
    around the poles b_j for j >= N; J_N adjoins the root interval.  As in
    disk_fine_sets, members below MESH_RESOLUTION stay shapes that
    leja_points skips, and a member whose j c_j overflows (capacity 0) is
    left out.  The capacity bound is computed analytically over the full
    (infinite) member list, so it is independent of mesh admission.
    """
    if not 1 <= N <= spec.max_index:
        raise PreconditionFailure("need 1 <= N <= materialization", field="N")
    segs: list[Shape] = []
    sum_segments = 0.0
    for log_length, a, b in zip(spec.log_lengths, spec.a, spec.b):
        sum_segments += 1.0 / (_LOG4 - log_length)
        if log_length > -math.inf:
            segs.append(interval(a, b, log_length=log_length))
    cs = condition_sum(spec.c_rule, J=spec.max_index)
    if cs.tail_bound is not None:
        sum_segments += cs.tail_bound      # 1/(jc_j + log4) <= 1/(jc_j)
    disks, sum_disks = _pole_disks(spec.jcj, spec.b, N, cs.tail_bound)
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
            f"(partial sum {cs.partial:.6g})", field="spec")
    fs = cantor_fine_sets(spec, N)
    # endpoints of the remaining pieces at depth N, all in the limit set
    # (gap endpoints persist); the set keeps the first of 0.0 and -0.0
    cands = sorted({spec.a0, spec.b0, *spec.a[:N], *spec.b[:N]})
    if samples < len(cands):
        step = len(cands) / samples
        cands = [cands[int(i * step)] for i in range(samples)]
    return _witness_sample(fs, leja_n, [(x, x) for x in cands],
                           lambda x: certify_en_point(spec, x, N), ESample)
