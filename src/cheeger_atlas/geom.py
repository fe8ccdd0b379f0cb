"""Planar convex polygon kernel.

Counterclockwise strictly convex vertex chains are the universal carrier;
every operation is a pure function on immutable polygons.  Points are plain
length-2 arrays (or anything ``np.asarray`` turns into one).  Offsets,
Minkowski sums, form bodies and dilations all work on double precision
coordinates; there is no exact arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInput, NoConvergence, PolygonJsonError, UnboundedRegion

# Angle below which two half-plane normals are treated as parallel and merged.
PARALLEL_EPS = 1e-10
# Relative area below which an offset/intersection result counts as empty.
DEGENERATE_AREA_REL = 1e-18
# Unit-norm check for half-plane normals.
UNIT_EPS = 1e-12
# Chain evaluations ``OffsetMachine.walk`` may make before it gives up.
MAX_WALK_STEPS = 64
# Peel pass of ``_offset_chain`` from which planes eaten by a long edge go too.
CASCADE_PASS = 6


def _as_vertex_array(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise DegenerateInput(f"expected an (n, 2) vertex array, got shape {v.shape}")
    return v


def shoelace(vertices: np.ndarray) -> float:
    """Signed area of a closed vertex chain (positive for counterclockwise)."""
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, vertices counterclockwise.

    Invariants: at least 3 vertices, finite coordinates, positive signed
    area, and every consecutive vertex triple makes a strict left turn.
    Clockwise input is reversed on construction; anything else is rejected.
    """

    vertices: np.ndarray
    _normals: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = _as_vertex_array(self.vertices)
        if len(v) < 3:
            raise DegenerateInput("a polygon needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise DegenerateInput("vertex coordinates must be finite")
        # orientation from coordinates relative to a vertex: far from the
        # origin the absolute shoelace cancels beyond a thin polygon's area
        if shoelace(v - v[0]) < 0.0:
            v = v[::-1]
        cross = _turn_cross(v)
        if np.any(cross <= 0.0):
            bad = int(np.argmin(cross))
            raise DegenerateInput(
                f"vertex chain is not strictly convex near index {bad} "
                f"(turn cross product {cross[bad]:.3e})"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        normals = np.column_stack((edges[:, 1], -edges[:, 0])) / lengths[:, None]
        offsets = np.einsum("ij,ij->i", normals, v)
        normals.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_offsets", offsets)

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def offset_machine(self) -> "OffsetMachine":
        """The polygon's one ``OffsetMachine``, built on first use."""
        return OffsetMachine(self)

    @property
    def edge_normals(self) -> np.ndarray:
        """Outward unit normal of edge i (from vertex i to vertex i+1)."""
        return self._normals

    @property
    def edge_offsets(self) -> np.ndarray:
        """Support value c_i so that the polygon satisfies n_i . x <= c_i."""
        return self._offsets

    def translate(self, delta) -> "ConvexPolygon":
        return ConvexPolygon(self.vertices + np.asarray(delta, dtype=float))

    def scale(self, factor: float) -> "ConvexPolygon":
        if factor <= 0:
            raise DegenerateInput("scale factor must be positive")
        return ConvexPolygon(self.vertices * float(factor))


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {x : x . n <= c} with unit normal n."""

    n: np.ndarray
    c: float

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float).reshape(2)
        if abs(np.hypot(n[0], n[1]) - 1.0) > UNIT_EPS:
            raise DegenerateInput("half-plane normal must have unit norm")
        n.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", float(self.c))


def _turn_cross(v: np.ndarray) -> np.ndarray:
    """Cross product of consecutive edge pairs (positive = strict left turn)."""
    e = np.roll(v, -1, axis=0) - v
    e_next = np.roll(e, -1, axis=0)
    return e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]


def convex_hull(points) -> ConvexPolygon:
    """Strict convex hull (Andrew monotone chain); collinear points dropped."""
    pts = np.unique(_as_vertex_array(points), axis=0)
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 distinct points")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def build(seq):
        chain: list[np.ndarray] = []
        for p in seq:
            while len(chain) >= 2:
                a, b = chain[-2], chain[-1]
                if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("points are collinear")
    return ConvexPolygon(np.array(hull))


def support(poly: ConvexPolygon, direction) -> float:
    """Support function p(y) = max over vertices of x . y (y need not be unit)."""
    d = np.asarray(direction, dtype=float)
    return float(np.max(poly.vertices @ d))


def _strictify(vertices: np.ndarray, scale: float) -> np.ndarray | None:
    """Drop duplicate / non-left-turn vertices so the chain is strictly convex."""
    v = vertices
    for _ in range(64):
        if len(v) < 3:
            return None
        d = np.roll(v, -1, axis=0) - v
        keep = np.hypot(d[:, 0], d[:, 1]) > scale * 1e-13
        if not np.all(keep):
            v = v[keep]
            continue
        cross = _turn_cross(v)
        if np.all(cross > 0.0):
            return v
        v = v[np.roll(cross > 0.0, 1)]
    return None


def halfplane_intersection(planes: list[HalfPlane]) -> ConvexPolygon | None:
    """Bounded intersection of half-planes; None when the interior is empty.

    Raises UnboundedRegion when the intersection is unbounded.  The planes
    and the sides of a huge square go through the offset chain's fan peel
    (``_merge_parallel``, ``_offset_chain``): a side that survives means
    escape to infinity at the working scale.
    """
    if not planes:
        raise DegenerateInput("need at least one half-plane")
    normals = np.concatenate(([p.n for p in planes], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    offsets = np.array([p.c for p in planes])
    size = max(1.0, float(np.max(np.abs(offsets))))
    offsets = np.concatenate((offsets, np.full(4, 1e8 * size)))
    fan = _merge_parallel(normals, offsets)
    chain = _offset_chain(normals[fan], offsets[fan], np.arange(len(fan)), size * 1e-14)
    if chain is None:
        return None
    verts, kept = chain[0], fan[chain[4]]
    if np.any(kept >= len(planes)):
        raise UnboundedRegion("half-plane intersection is unbounded")
    scale = float(np.max(np.abs(verts))) or 1.0
    verts = _strictify(verts, scale)
    if verts is None or abs(shoelace(verts)) <= (scale * scale) * DEGENERATE_AREA_REL:
        return None
    return ConvexPolygon(verts)


def _merge_parallel(normals, offsets) -> np.ndarray:
    """Indices, in angle order, of the half-planes left once those whose
    normals agree within PARALLEL_EPS are merged (the tighter one kept).

    Normals are sorted by angle; a gap of PARALLEL_EPS or more between
    neighbours starts a new group, and the last group joins the first when
    it closes the circle within PARALLEL_EPS.  Each group keeps the plane
    of smallest offset, the earliest one on ties.
    """
    angles = np.arctan2(normals[:, 1], normals[:, 0])
    order = np.argsort(angles, kind="stable")
    cs, angs = offsets[order], angles[order]
    group = np.cumsum(np.concatenate(([False], np.diff(angs) >= PARALLEL_EPS)))
    if group[-1] > 0 and (angs[0] + 2 * np.pi) - angs[-1] < PARALLEL_EPS:
        group[group == group[-1]] = 0
    by_offset = np.lexsort((cs, group))
    first = by_offset[np.concatenate(([True], np.diff(group[by_offset]) != 0))]
    return order[first]


class ChainMeasure(NamedTuple):
    """The inner parallel set at one offset t, as the Cheeger solve reads it.

    Until the next edge of the chain vanishes, the set at t + s has area
    ``area - perimeter * s + tan_sum * s**2``, where ``tan_sum`` sums
    tan(theta / 2) over the exterior angles theta of the chain.  ``reach``
    is the s at which the first edge vanishes.  All four are 0 once the set
    is empty.
    """

    area: float
    perimeter: float
    tan_sum: float
    reach: float


_EMPTY = ChainMeasure(0.0, 0.0, 0.0, 0.0)


def _chain_measure(verts: np.ndarray, ns: np.ndarray, lengths: np.ndarray) -> ChainMeasure:
    """Measure a closed chain whose edge k ends at verts[k] with normal ns[k].

    The shoelace runs about the vertex mean: its rounding is then of the
    chain's own size, not of its distance from the frame origin, and stays
    below the emptiness floor as the chain shrinks to a point.
    """
    centred = verts - verts.sum(axis=0) / len(verts)
    vx, vy = centred[:, 0], centred[:, 1]
    a = 0.5 * (np.dot(vx, np.concatenate((vy[1:], vy[:1])))
               - np.dot(vy, np.concatenate((vx[1:], vx[:1]))))
    n2 = np.concatenate((ns[1:], ns[:1]))
    # exterior angle at vertex k, between edges k and k + 1
    theta = np.arctan2(ns[:, 0] * n2[:, 1] - ns[:, 1] * n2[:, 0],
                       ns[:, 0] * n2[:, 0] + ns[:, 1] * n2[:, 1])
    tans = np.tan(0.5 * theta)
    # edge k shortens at the rate of the tangents at both of its ends
    rates = tans + np.concatenate((tans[-1:], tans[:-1]))
    return ChainMeasure(float(a), float(np.sum(lengths)), float(np.sum(tans)),
                        float(np.min(lengths / rates)))


def falling_root(a: float, b: float, f: float) -> float:
    """Root s nearest 0 of a s^2 - b s + f = 0, for b > 0.

    Taken in the form 2f / (b + sqrt(b^2 - 4af)), which does not cancel.
    """
    return 2.0 * f / (b + math.sqrt(max(b * b - 4.0 * a * f, 0.0)))


def _lhuilier_gap(ns: np.ndarray, cs: np.ndarray, m: ChainMeasure) -> float:
    """P^2 - 4 T A of the chain of planes n_k . x <= c_k measured by ``m``,
    without the cancellation of forming it from P, T and A.

    The gap is 0 for tangential polygons (Lhuilier), where P^2 and 4 T A
    agree to all their digits but T, a sum of tangents, carries the
    rounding of the sharpest angle.  It does not change when every plane
    moves in by the same rho (Steiner), so it is read off the planes moved
    in by rho = P / (2T): there the consecutive-intersection polygon
    (signed, possibly self-crossing) has perimeter near 0 and area
    -gap / (4T) <= 0, and the gap is a sum of two nonnegative terms.  The
    planes are taken about the mean of that polygon's vertices, so a thin
    body's sliver is measured at its own size.
    """
    n2 = np.concatenate((ns[1:], ns[:1]))
    det = _fan_det(ns, n2)

    def vertices(c):
        c2 = np.concatenate((c[1:], c[:1]))
        return np.column_stack(((c * n2[:, 1] - c2 * ns[:, 1]) / det,
                                (ns[:, 0] * c2 - n2[:, 0] * c) / det))

    c = cs - m.perimeter / (2.0 * m.tan_sum)
    c = c - ns @ vertices(c).mean(axis=0)
    v = vertices(c)
    d = v - np.concatenate((v[-1:], v[:-1]))
    lengths = d[:, 1] * ns[:, 0] - d[:, 0] * ns[:, 1]
    p, a = float(np.sum(lengths)), 0.5 * float(np.dot(c, lengths))
    return max(p * p - 4.0 * m.tan_sum * a, 0.0)


def _fan_det(ns: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Cross product of each normal of a fan with the next one, ``n2``."""
    return ns[:, 0] * n2[:, 1] - ns[:, 1] * n2[:, 0]


def _bisector_velocity(ns: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """The d with n . d = n2 . d = 1, at which lines with normals n and n2 moving
    in at unit speed meet; (n + n2) / (|n + n2|^2 / 2) keeps needle tips exact."""
    s = ns + n2
    return s / (0.5 * np.einsum("ij,ij->i", s, s))[:, None]


def _eaten(dead: np.ndarray, vx: np.ndarray, vy: np.ndarray, ns: np.ndarray,
           cs: np.ndarray, eps: float) -> np.ndarray:
    """Planes of a peel pass that a plane across a dead run has cut off.

    A live plane between live neighbours is eaten when its edge, from
    vertex k - 1 to vertex k, lies more than ``eps`` outside the half-plane
    of the first live plane past the next dead run ahead of it, or of the
    last one before the dead run behind it.  Its line then misses the
    region, so it is redundant unless the region is empty.
    """
    live, k, at = ~dead, len(dead), np.arange(2 * len(dead))
    after = live & np.concatenate((dead[-1:], dead[:-1]))  # live planes just past a dead run
    before = live & np.concatenate((dead[1:], dead[:1]))  # and just before one
    ahead = np.minimum.accumulate(np.where(np.tile(after, 2), at, 2 * k)[::-1])[::-1][1:k + 1] % k
    behind = np.maximum.accumulate(np.where(np.tile(before, 2), at, -1))[k - 1:-1] % k
    px, py = np.concatenate((vx[-1:], vx[:-1])), np.concatenate((vy[-1:], vy[:-1]))

    def outside(e):
        nx, ny, c = ns[e, 0], ns[e, 1], cs[e] + eps
        return (nx * px + ny * py > c) & (nx * vx + ny * vy > c)

    return live & ~after & ~before & (outside(ahead) | outside(behind))


def _peel(ns: np.ndarray, cs: np.ndarray, fan: np.ndarray, eps: float, cascade: int):
    """Peel passes over a fan of planes; from pass ``cascade`` on, eaten
    planes (``_eaten``) leave with the dead ones.  Returns the chain (see
    ``_offset_chain``) and a list of arrays of the labels eaten.
    """
    eaten = []
    for passes in range(len(cs)):  # every pass but the last removes a plane
        if len(cs) < 3:
            return None, eaten
        n2 = np.concatenate((ns[1:], ns[:1]))
        det = _fan_det(ns, n2)
        if float(np.min(det)) <= 0.0:
            return None, eaten
        c2 = np.concatenate((cs[1:], cs[:1]))
        vx = (cs * n2[:, 1] - c2 * ns[:, 1]) / det
        vy = (ns[:, 0] * c2 - n2[:, 0] * cs) / det
        adv = -(vx - np.concatenate((vx[-1:], vx[:-1]))) * ns[:, 1] \
            + (vy - np.concatenate((vy[-1:], vy[:-1]))) * ns[:, 0]
        dead = adv <= eps
        if not dead.any():
            return (np.column_stack((vx, vy)), ns, adv, cs, fan), eaten
        if passes >= cascade:
            gone = _eaten(dead, vx, vy, ns, cs, eps)
            eaten.append(fan[gone])
            dead |= gone
        keep = ~dead
        ns, cs, fan = ns[keep], cs[keep], fan[keep]


def _offset_chain(ns: np.ndarray, cs: np.ndarray, fan: np.ndarray, eps: float):
    """Consecutive-intersection chain of the half-planes n_k . x <= c_k.

    The normals are sorted by angle and pairwise non-parallel; ``fan``
    labels the planes in increasing order.  Each pass peels off the planes
    whose edge is not longer than ``eps``; a plane whose neighbour-pair
    vertex already satisfies it is redundant, so this peeling is exact.  A
    long edge that eats a fine arc kills one arc plane per pass, so from
    pass CASCADE_PASS on the arc planes it has cut off (``_eaten``) leave
    too, the whole arc in one pass.  That is sound only when the region is
    not empty, so the result is certified: every eaten plane must hold the
    chain's vertex between the survivors around it, its support point in
    that plane's normal direction.  Otherwise the region is the survivors'
    cut by the eaten planes that fail, and plain passes alone peel that
    short list exactly.  Returns (vertices, normals, edge lengths, offsets,
    labels) of the surviving planes, edge k ending at vertex k, or None
    once the region is empty: fewer than 3 planes survive, or the normal
    fan has a gap (the planes then hold no bounded region).
    """
    chain, eaten = _peel(ns, cs, fan, eps, CASCADE_PASS)
    if chain is not None and eaten:
        labels = np.concatenate(eaten)
        gone = np.searchsorted(fan, labels)
        support = chain[0][np.searchsorted(chain[4], labels) - 1]
        cut = np.einsum("ij,ij->i", ns[gone], support) > cs[gone]
        if cut.any():
            keep = np.sort(np.concatenate((np.searchsorted(fan, chain[4]), gone[cut])))
            chain = _peel(ns[keep], cs[keep], fan[keep], eps, len(cs))[0]
    return chain


class SkeletonWalk(NamedTuple):
    """What ``OffsetMachine.walk`` reads off the straight skeleton, in the
    machine's centred frame: t*, the core's vertices there, the chain
    evaluations made before t* was known, r and the centre."""

    t_star: float
    core: np.ndarray
    evaluations: int
    r: float
    centre: np.ndarray


def _moved(chain, s: float) -> np.ndarray:
    """The chain's vertices, each moved by s along its bisector: the chain
    at s further in, exactly while s is within its reach."""
    verts, ns = chain[:2]
    return verts - s * _bisector_velocity(ns, np.concatenate((ns[1:], ns[:1])))


class OffsetMachine:
    """Repeated inward offsets of one polygon, which holds it as ``offset_machine``.

    The inradius and the Cheeger solve read its one skeleton walk
    (``walk``); the inner parallel sets (``polygon_at``) and their areas
    (``area_at``) read the polygon through it too.  Normal
    merging happens once; each query reruns only the chain of neighbouring
    planes with redundant ones peeled off (``_chain``).  Where two planes are
    neighbours in the polygon, their vertex is the polygon's own moved along
    the bisector, which is exact; only planes that became neighbours when the
    edges between them vanished (or merged) are intersected, and the edge
    lengths (so perimeter and reach) always come from the intersections.
    The chain runs in a frame centred on the vertex mean, with tolerances
    scaled by the intrinsic size ``2A/P`` (between the inradius and twice
    it), so neither where the polygon sits nor how thin it is moves the result.
    """

    def __init__(self, poly: ConvexPolygon):
        # no reference back to poly, whose cache would then hold a cycle
        self.origin = poly.vertices.mean(axis=0)
        self.local = poly.vertices - self.origin
        normals = poly.edge_normals
        offsets = np.einsum("ij,ij->i", normals, self.local)
        edge = _merge_parallel(normals, offsets)
        self.ns, self.cs, self.fan = normals[edge], offsets[edge], np.arange(len(edge))
        # planes k and k + 1 that are neighbours in the polygon meet at its
        # vertex edge[k] + 1, which moves along their bisector
        following = np.concatenate((edge[1:], edge[:1]))
        self.kinetic = following == (edge + 1) % len(normals)
        self.corner = self.local[following].T.copy()
        self.speed = _bisector_velocity(self.ns, np.concatenate((self.ns[1:], self.ns[:1]))).T.copy()
        self.area0 = shoelace(self.local)
        edges = np.roll(self.local, -1, axis=0) - self.local
        perimeter0 = float(np.sum(np.hypot(edges[:, 0], edges[:, 1])))
        self.size = 2.0 * self.area0 / perimeter0
        self.eps = self.size * 1e-14
        self.chain0 = self._chain(0.0)
        # the polygon's own area and edge lengths, not the lines' intersections
        self.measure0 = _chain_measure(*self.chain0[:3])._replace(area=self.area0, perimeter=perimeter0)

    def _chain(self, t: float, prev=None, step: float = 0.0):
        """Local-frame chain of the inner parallel set at t; None once empty.
        From ``prev``, the chain at t - step, only its planes are shifted, by
        the step itself (added to t, a step below t's last bit is lost)."""
        ns, cs, fan = ((self.ns, self.cs - t, self.fan) if prev is None
                       else (prev[1], prev[3] - step, prev[4]))
        chain = _offset_chain(ns, cs, fan, self.eps)
        if chain is None:
            return None
        verts, ns, adv, cs, fan = chain
        corner, speed, kinetic = self.corner, self.speed, self.kinetic
        if len(fan) < len(self.cs):
            corner, speed = corner[:, fan], speed[:, fan]
            kinetic = kinetic[fan] & (np.concatenate((fan[1:], fan[:1])) == (fan + 1) % len(self.cs))
        return np.where(kinetic, corner - t * speed, verts.T).T, ns, adv, cs, fan

    @cached_property
    def walk(self) -> SkeletonWalk:
        """One walk up the straight skeleton from t = 0, to t* and on to r.

        Up to the reach of the chain at t the area is A - P s + T s^2, and T
        only grows at skeleton events, so that quadratic under-estimates the
        area ahead of t and over-estimates it behind.  Until t* is known a
        step goes to the smaller root s of (T - pi) s^2 - (P + 2 pi t) s +
        (A - pi t^2), which passes t* by rounding at most (a step back then
        drops no plane that matters).  Once 0 <= s <= reach, or |s| is below
        1e-14 of t + s, t* = t + s and the core is the chain moved by s.
        Then each step is the larger of the reach and the root of the area
        quadratic, taken just short so that it does not pass the collapse
        on rounding; the step that empties the chain ends at r, and the
        centre is the mean of the last chain moved by it.  Each step
        continues from the planes left (``area_at``).  Nothing bisects:
        NoConvergence is raised when the chain empties before t*, and after
        MAX_WALK_STEPS evaluations.
        """
        t, chain, m = 0.0, self.chain0, self.measure0
        found = None  # (t*, core, evaluations) once t* is known
        for evals in range(MAX_WALK_STEPS):
            if found is None:
                # b^2 - 4af = (P^2 - 4 T A) + 4 pi (A + P t + T t^2)
                disc = _lhuilier_gap(chain[1], chain[3], m) \
                    + 4.0 * math.pi * (m.area + t * (m.perimeter + t * m.tan_sum))
                s = 2.0 * (m.area - math.pi * t * t) / (m.perimeter + 2.0 * math.pi * t + math.sqrt(disc))
                if 0.0 <= s <= m.reach or abs(s) <= 1e-14 * (t + s):
                    found = (t + s, _moved(chain, s), evals)
            if found is not None:
                s = max(m.reach, (1.0 - 1e-6) * falling_root(m.tan_sum, m.perimeter, m.area))
            m, nxt = self.area_at(t + s, chain, s)
            if nxt is None:
                if found is None:
                    raise NoConvergence(f"inner parallel set vanished at t = {t + s!r} before t*")
                return SkeletonWalk(*found, t + s, _moved(chain, s).mean(axis=0))
            t, chain = t + s, nxt
        raise NoConvergence(f"inner parallel set did not vanish in {MAX_WALK_STEPS} "
                            f"skeleton steps (t = {t!r})")

    def area_at(self, t: float, prev=None, step: float = 0.0):
        """Area, perimeter, tan sum and reach of the inner parallel set at t.

        From ``prev``, the chain at t - step, returns (measure, chain), the
        chain None once the set is empty."""
        if t == 0.0 and prev is None:
            return self.measure0
        chain = self._chain(t, prev, step)
        m = None if chain is None else _chain_measure(*chain[:3])
        if m is None or m.area <= self.area0 * DEGENERATE_AREA_REL:
            m, chain = _EMPTY, None
        return m if prev is None else (m, chain)

    def as_polygon(self, local: np.ndarray) -> ConvexPolygon | None:
        """Centred-frame vertices as a polygon in the caller's frame; None
        when they hold no strictly convex polygon."""
        verts = _strictify(local, self.size)
        if verts is None or shoelace(verts) <= self.area0 * DEGENERATE_AREA_REL:
            return None
        return ConvexPolygon(verts + self.origin)

    def polygon_at(self, t: float) -> ConvexPolygon | None:
        """The inner parallel set at t in the caller's frame; None once it is
        empty or does not survive as a strictly convex polygon."""
        chain = self._chain(t)
        return None if chain is None else self.as_polygon(chain[0])


def inner_parallel(poly: ConvexPolygon, t: float) -> ConvexPolygon | None:
    """Inner parallel set at distance t >= 0; None once the body vanishes."""
    if t < 0:
        raise DegenerateInput("offset distance must be nonnegative")
    if t == 0.0:
        return poly
    return poly.offset_machine.polygon_at(t)


def inner_parallel_area(poly: ConvexPolygon, t: float) -> float:
    """Area of the inner parallel set (0 once empty); avoids reconstruction."""
    return poly.offset_machine.area_at(t).area


def _edge_vectors_from_lowest(poly: ConvexPolygon):
    """Edge vectors in CCW order starting at the lowest (then leftmost) vertex."""
    v = poly.vertices
    start = int(np.lexsort((v[:, 0], v[:, 1]))[0])
    v = np.roll(v, -start, axis=0)
    return v[0], np.roll(v, -1, axis=0) - v


def minkowski_sum(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Minkowski sum: the two edge fans merged by angle, edges within 1e-12
    rad of each other added into one."""
    p0, pe = _edge_vectors_from_lowest(p)
    q0, qe = _edge_vectors_from_lowest(q)
    edges = np.concatenate((pe, qe))
    ang = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * np.pi)
    order = np.argsort(ang, kind="stable")
    first = np.concatenate(([True], np.diff(ang[order]) >= 1e-12))
    edges = np.add.reduceat(edges[order], np.flatnonzero(first))
    verts = (p0 + q0) + np.concatenate((np.zeros((1, 2)), np.cumsum(edges[:-1], axis=0)))
    scale = float(np.max(np.abs(verts))) or 1.0
    verts = _strictify(verts, scale)
    if verts is None:
        raise DegenerateInput("degenerate Minkowski sum")
    return ConvexPolygon(verts)


def interpolate(p: ConvexPolygon, q: ConvexPolygon, t: float) -> ConvexPolygon:
    """Minkowski interpolation t*p + (1-t)*q for t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise DegenerateInput("interpolation parameter must lie in [0, 1]")
    if t == 0.0:
        return q
    if t == 1.0:
        return p
    return minkowski_sum(p.scale(t), q.scale(1.0 - t))


def dilate(poly: ConvexPolygon, t: float, arc_segments: int = 4096) -> ConvexPolygon:
    """Polygonal approximation of poly + t*B1 (outer parallel body).

    Every vertex arc is replaced by inscribed chords subtending at most
    2*pi/arc_segments, so the result is contained in the true dilation; the
    area deficit is at most (pi*t^2/6) * (2*pi/arc_segments)^2.
    """
    if t <= 0:
        raise DegenerateInput("dilation radius must be positive")
    if arc_segments < 8:
        raise DegenerateInput("arc_segments must be at least 8")
    ns = poly.edge_normals
    angles = np.arctan2(ns[:, 1], ns[:, 0])
    # the arc at vertex i turns from the normal of edge i - 1 to that of edge i
    start = np.concatenate((angles[-1:], angles[:-1]))
    turn = np.mod(angles - start, 2.0 * np.pi)
    chords = np.maximum(1, np.ceil(turn / (2.0 * np.pi / arc_segments)).astype(int))
    points = chords + 1  # on each arc, both ends included
    arc = np.repeat(np.arange(len(ns)), points)
    j = np.arange(len(arc)) - np.repeat(np.cumsum(points) - points, points)
    phis = start[arc] + turn[arc] * j / chords[arc]
    # the dilation holds a disk of radius t, so t is its intrinsic size
    verts = _strictify(poly.vertices[arc] + t * np.column_stack((np.cos(phis), np.sin(phis))), t)
    if verts is None:
        raise DegenerateInput("degenerate dilation")
    return ConvexPolygon(verts)


def form_body(poly: ConvexPolygon) -> ConvexPolygon:
    """Intersection of {x . u <= 1} over the polygon's edge outward normals."""
    planes = [HalfPlane(n, 1.0) for n in poly.edge_normals]
    result = halfplane_intersection(planes)
    if result is None:
        raise DegenerateInput("form body has empty interior")
    return result


def polygon_to_json(poly: ConvexPolygon) -> str:
    return json.dumps({"vertices": [[x, y] for x, y in poly.vertices.tolist()]})


def polygon_from_json(text: str) -> ConvexPolygon:
    """Parse {"vertices": [[x, y], ...]}, validating all polygon invariants."""
    try:
        doc = json.loads(text, parse_int=float)  # a too-large integer reads as inf
    except json.JSONDecodeError as exc:
        raise PolygonJsonError("bad-json", f"not valid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise PolygonJsonError("missing-vertices", "document must be an object with a 'vertices' key")
    raw = doc["vertices"]
    if (not isinstance(raw, list) or len(raw) < 3
            or not all(isinstance(p, list) and len(p) == 2
                       and all(type(c) is float and math.isfinite(c) for c in p) for p in raw)):
        raise PolygonJsonError("bad-vertex-list",
                               "'vertices' must be a list of [x, y] pairs of finite numbers, length >= 3")
    try:
        return ConvexPolygon(np.array(raw, dtype=float))
    except (DegenerateInput, ValueError) as exc:
        raise PolygonJsonError("not-convex", str(exc)) from exc
