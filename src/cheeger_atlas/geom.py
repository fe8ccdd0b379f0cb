"""Planar convex polygon kernel.

Counterclockwise strictly convex vertex chains are the universal carrier;
every operation is a pure function on immutable polygons.  Points are plain
length-2 arrays (or anything ``np.asarray`` turns into one).  Offsets,
Minkowski sums, form bodies and dilations all work on double precision
coordinates; there is no exact arithmetic.  A form body is its polygon's
own normal fan at offset 1, peeled as an offset chain is (``_fan_region``).

A block of polygons is one ragged column: their vertices or planes lie end
to end in flat arrays cut into one segment per polygon, with neighbours
found by index within a segment.  Each step runs once for the whole
column, every per-polygon sort is a ``lexsort`` by (segment, key), every
per-polygon reduction a ``ufunc.reduceat`` over the segments, and a
running sum or unwrap runs along the rows of a zero-padded array, so a
polygon's numbers have the same bits in any column, and a polygon's
failure stays its own.  One polygon is the block of one.

A block is built as one column (``polygon_block``; ``ConvexPolygon(v)`` is
the block of one): each polygon keeps its edges' lengths, outward normals
and offsets, and its ``origin``, ``area`` and ``perimeter``, which the
offset machine and the walk read.  A block's edge antipodes are found as
one column (``_antipodes``), for the caliper pass of ``functionals``.
Inward offsets run on an ``OffsetMachine`` of a block
(``ConvexPolygon.offset_machine`` for one polygon): each peel pass and
chain measure runs once for the column;
``walk_block`` walks a block's straight skeletons together, and each
polygon keeps its own walk (``ConvexPolygon.walk``).  Cyclic shifts of a
polygon's small arrays slice (``shifted``), not ``np.roll``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInput, NoConvergence, PolygonJsonError

# Angle below which two half-plane normals are treated as parallel and merged.
PARALLEL_EPS = 1e-10
# Relative area below which an offset/intersection result counts as empty.
DEGENERATE_AREA_REL = 1e-18
# Chain evaluations one polygon's skeleton walk may make before it gives up.
MAX_WALK_STEPS = 64
# Peel pass of ``_offset_chain`` from which planes eaten by a long edge go too.
CASCADE_PASS = 6
# Cross product of neighbouring unit normals at or below which an offset chain's
# fan has a gap: a few roundings of 1, so antiparallel neighbours count as one
FAN_GAP_DET = 1e-15


def _as_vertex_array(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise DegenerateInput(f"expected an (n, 2) vertex array, got shape {v.shape}")
    return v


def shifted(a: np.ndarray, k: int = 1) -> np.ndarray:
    """``a`` with its rows moved k places back, row i of the result being
    row i + k (mod n): ``np.roll(a, -k, axis=0)`` for -n < k < n, by slicing,
    at a fraction of np.roll's cost per call on a small array."""
    return np.concatenate((a[k:], a[:k]))


def shoelace(vertices: np.ndarray) -> float:
    """Signed area of a closed vertex chain (positive for counterclockwise), by reduceat as in a column."""
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.add.reduceat(x * shifted(y), [0])[0] - np.add.reduceat(y * shifted(x), [0])[0])


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, vertices counterclockwise.

    Invariants: at least 3 vertices, finite coordinates, positive signed
    area, a strict left turn at every consecutive vertex triple, and edge
    directions that turn once round (those of a star turn more often).
    Clockwise input is reversed on construction; anything else is rejected.
    Construction is the block of one of ``polygon_block``: it derives the
    edge vectors once, for the turn and winding tests, the ``perimeter`` and
    the edge normals and offsets, which it keeps; with them the vertex mean
    ``origin`` and the ``area`` about it.
    """

    vertices: np.ndarray
    origin: np.ndarray = field(init=False, repr=False, compare=False)
    area: float = field(init=False, repr=False, compare=False)
    perimeter: float = field(init=False, repr=False, compare=False)
    _normals: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = _as_vertex_array(self.vertices)
        if len(v) < 3:
            raise DegenerateInput("a polygon needs at least 3 vertices")
        if not np.isfinite(v).all():
            raise DegenerateInput("vertex coordinates must be finite")
        data, = _edge_data(v, np.array([0, len(v)]))
        if isinstance(data, DegenerateInput):
            raise data
        self.__dict__.update(data)

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def offset_machine(self) -> "OffsetMachine":
        """The polygon's one-polygon ``OffsetMachine``, built on first use."""
        return OffsetMachine([self])

    @cached_property
    def _walk(self) -> "SkeletonWalk | NoConvergence":
        return self.offset_machine.walks[0]

    @property
    def walk(self) -> "SkeletonWalk":
        """The polygon's one straight-skeleton walk: its element of the
        column that ``walk_block`` walked, else that of its own machine.
        Raises the NoConvergence that the walk ran into."""
        if isinstance(self._walk, NoConvergence):
            raise self._walk
        return self._walk

    @property
    def edge_normals(self) -> np.ndarray:
        """Outward unit normal of edge i (from vertex i to vertex i+1)."""
        return self._normals

    @property
    def edge_offsets(self) -> np.ndarray:
        """Support value c_i so that the polygon satisfies n_i . x <= c_i."""
        return self._offsets

    def placed(self, local: np.ndarray) -> "ConvexPolygon | None":
        """Vertices about ``origin``, such as the walk's core, as a polygon in the
        caller's frame; None when they hold no strictly convex polygon."""
        verts = _strictify(local, 2.0 * self.area / self.perimeter)
        if verts is None or shoelace(verts) <= self.area * DEGENERATE_AREA_REL:
            return None
        return ConvexPolygon(verts + self.origin)

    def translate(self, delta) -> "ConvexPolygon":
        return ConvexPolygon(self.vertices + np.asarray(delta, dtype=float))

    def scale(self, factor: float) -> "ConvexPolygon":
        if factor <= 0:
            raise DegenerateInput("scale factor must be positive")
        return ConvexPolygon(self.vertices * float(factor))


def _turn_cross(e: np.ndarray) -> np.ndarray:
    """Cross product of each edge vector with the next (positive = strict left turn)."""
    e_next = shifted(e)
    return e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]


def _centred_area(v: np.ndarray, start: np.ndarray, count: np.ndarray, nxt: np.ndarray):
    """(vertex mean, shoelace area about it) of each chain of a column, by ``reduceat``."""
    origin = np.add.reduceat(v, start[:-1], axis=0) / count[:, None]
    centred = v - origin.repeat(count, axis=0)
    x, y = centred[:, 0], centred[:, 1]
    return origin, 0.5 * (np.add.reduceat(x * y.take(nxt), start[:-1])
                          - np.add.reduceat(y * x.take(nxt), start[:-1]))


def _fault(cross: np.ndarray, a: int, b: int, least: float, turns: int,
           area: float) -> DegenerateInput | None:
    """Why the chain of vertices a to b - 1 of a column is not a strictly
    convex polygon, or None if it is: the least turn cross product of its
    vertices, ``least``, is not positive (NaN, where a product overflowed,
    fails too), it turns ``turns`` times round, or its ``area`` overflows."""
    if not least > 0.0:
        bad = int(np.argmin(cross[a:b]))
        fault = "overflows" if math.isnan(least) else "is not strictly convex"
        return DegenerateInput(f"vertex chain {fault} near index {bad} "
                               f"(turn cross product {cross[a + bad]:.3e})")
    if turns > 1:
        return DegenerateInput(f"vertex chain turns {turns} times round: it crosses itself")
    if not math.isfinite(area):
        return DegenerateInput(f"vertex chain's area is {area}: its coordinates are too large")
    return None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # such a chain gets its fault
def _edge_data(v: np.ndarray, start: np.ndarray) -> list:
    """What ``ConvexPolygon`` keeps of each chain of a column of vertex chains,
    chain j holding the vertices start[j] to start[j + 1] - 1 (at least 3,
    all finite): a dict of its attributes, or the DegenerateInput the chain
    fails with.

    Every step runs once for the column, elementwise or as a ``reduceat``
    over the chains, but the perimeter, which is each chain's own ``np.sum``
    (a pairwise sum, which ``reduceat`` is not); so a chain's numbers have
    the bits it has alone.  With every turn a strict left turn, the edge
    directions pass the +x direction once for each time they turn round.
    A chain whose products overflow, or whose edges vanish, fails without
    a numpy warning.
    """
    cut, count = start[:-1], start[1:] - start[:-1]
    nxt = np.arange(1, len(v) + 1)
    nxt[start[1:] - 1] = cut
    origin, area = _centred_area(v, start, count, nxt)
    if any(a < 0.0 for a in area.tolist()):  # clockwise chains are reversed
        seg, at = _segments(start), np.arange(len(v))
        v = v.take(np.where((area < 0.0)[seg], (cut + start[1:] - 1)[seg] - at, at), axis=0)
        origin, area = _centred_area(v, start, count, nxt)
    else:
        v = v.copy()
    edges = v.take(nxt, axis=0) - v
    following = edges.take(nxt, axis=0)
    ex, ey, ex_next, ey_next = edges[:, 0], edges[:, 1], following[:, 0], following[:, 1]
    cross = ex * ey_next - ey * ex_next
    least = np.minimum.reduceat(cross, cut).tolist()
    wraps = (ey < 0.0) > (ey_next < 0.0)
    # a chain of left turns wraps at least once: when there are as many
    # wraps as chains, and only left turns, each chain wraps once
    if all(x > 0.0 for x in least) and np.count_nonzero(wraps) == len(least):
        turns = [1] * len(least)
    else:
        turns = np.add.reduceat(wraps, cut).tolist()
    chains = list(zip(cut.tolist(), start[1:].tolist(), least, turns, area.tolist()))
    faults = [_fault(cross, *chain) for chain in chains]
    if None not in faults:  # all fail, maybe on edges of length 0 to divide by
        return faults
    lengths = np.hypot(ex, ey)
    normals = np.empty((len(v), 2))
    np.divide(ey, lengths, out=normals[:, 0])
    np.divide(-ex, lengths, out=normals[:, 1])
    offsets = np.einsum("ij,ij->i", normals, v)
    for a in (v, origin, normals, offsets):
        a.setflags(write=False)
    return [fault or
            {"vertices": v[a:b], "origin": origin_j, "area": area_j,
             "perimeter": float(np.add.reduce(lengths[a:b])), "_normals": normals[a:b],
             "_offsets": offsets[a:b]}
            for fault, (a, b, _, _, area_j), origin_j in zip(faults, chains, origin)]


def polygon_block(vertices: np.ndarray, start: np.ndarray) -> list:
    """The polygons of a column of vertex chains, chain j holding the
    vertices start[j] to start[j + 1] - 1 (at least 3, all finite), checked
    and given their edge data in one pass (``_edge_data``): each a
    ``ConvexPolygon`` with the bits it has built alone, or the
    DegenerateInput that building it alone raises."""
    out = []
    for data in _edge_data(vertices, start):
        if isinstance(data, dict):
            poly = object.__new__(ConvexPolygon)
            poly.__dict__.update(data)
            data = poly
        out.append(data)
    return out


def _antipodes(normals: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Index, within its polygon, of a vertex farthest from the line of each
    edge of a column of polygons' outward edge normals, polygon j's from
    start[j] to start[j + 1] - 1.

    Vertex i's normal cone spans the unwrapped edge-normal angles
    [a_(i-1), a_i], so the vertex whose cone holds -n_e is the count of
    angles below a_e + pi (less 2 pi past a_0 + 2 pi), mod n: what
    ``searchsorted`` finds in one polygon, here one ``lexsort`` of the
    angles and those targets by (polygon, value), a target before an equal
    angle.  One ``np.unwrap`` runs over the polygons as zero-padded rows,
    which leaves each row's bits as they are alone.
    """
    seg, count = _segments(start), start[1:] - start[:-1]
    m, width = len(seg), int(count.max())
    cell = seg * width + np.arange(m) - start[:-1][seg]
    rows = np.zeros(len(count) * width)
    rows[cell] = np.arctan2(normals[:, 1], normals[:, 0])
    angle = np.unwrap(rows.reshape(-1, width), axis=1).ravel()[cell]
    target = angle + np.pi
    target[target >= (angle[start[:-1]] + 2 * np.pi)[seg]] -= 2 * np.pi
    order = np.lexsort((np.arange(2 * m) >= m, np.concatenate((target, angle)), np.tile(seg, 2)))
    is_angle = order >= m
    below = (np.cumsum(is_angle) - is_angle)[~is_angle]  # angles sorted before each target
    edge = order[~is_angle]
    far = np.empty(m, dtype=np.intp)
    far[edge] = (below - start[:-1][seg[edge]]) % count[seg[edge]]
    return far


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
        d = shifted(v) - v
        keep = np.hypot(d[:, 0], d[:, 1]) > scale * 1e-13
        if not np.all(keep):
            v = v[keep]
            continue
        cross = _turn_cross(d)
        if np.all(cross > 0.0):
            return v
        v = v[shifted(cross > 0.0, -1)]
    return None


def _merge_parallel(normals: np.ndarray, offsets: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Indices, in angle order within each fan of a column (fan j holding
    the half-planes start[j] to start[j + 1] - 1), of the half-planes left
    once those whose normals agree within PARALLEL_EPS are merged (the
    tighter one kept).

    Each fan's normals are sorted by angle; a gap of PARALLEL_EPS or more
    between neighbours starts a new group, and a fan's last group joins its
    first when it closes the circle within PARALLEL_EPS.  Each group keeps
    the plane of smallest offset, the earliest one on ties.  The sorts are
    ``lexsort`` by (fan, key), so a fan's result is the one it has alone.
    """
    angles = np.arctan2(normals[:, 1], normals[:, 0])
    seg = _segments(start)
    order = np.lexsort((angles, seg))
    cs, angs = offsets[order], angles[order]
    new = np.concatenate(([True], np.diff(angs) >= PARALLEL_EPS))
    new[start[:-1]] = True
    group = np.cumsum(new)
    first, last = group[start[:-1]], group[start[1:] - 1]
    join = (last > first) & ((angs[start[:-1]] + 2 * np.pi) - angs[start[1:] - 1] < PARALLEL_EPS)
    if join.any():
        relabel = np.arange(group[-1] + 1)
        relabel[last[join]] = first[join]
        group = relabel[group]
    by_offset = np.lexsort((cs, group))
    return order[by_offset[np.concatenate(([True], np.diff(group[by_offset]) != 0))]]


class ChainMeasure(NamedTuple):
    """The inner parallel set at one offset t, as the Cheeger solve reads it.

    Until the next edge of the chain vanishes, the set at t + s has area
    ``area - perimeter * s + tan_sum * s**2``, where ``tan_sum`` sums
    tan(theta / 2) over the exterior angles theta of the chain.  ``reach``
    is the s at which the first edge vanishes.  All four are 0 once the set
    is empty.  In a column each field holds one value per polygon.
    """

    area: float | np.ndarray
    perimeter: float | np.ndarray
    tan_sum: float | np.ndarray
    reach: float | np.ndarray


def _segments(start: np.ndarray) -> np.ndarray:
    """The segment of each entry of a column cut at ``start``."""
    return np.arange(len(start) - 1).repeat(start[1:] - start[:-1])


def _neighbours(start: np.ndarray):
    """(next, previous) index of each entry of a column cut at ``start``,
    cyclically within its segment."""
    n = start[-1]
    nxt, prv = np.arange(1, n + 1), np.arange(-1, n - 1)
    nxt[start[1:] - 1], prv[start[:-1]] = start[:-1], start[1:] - 1
    return nxt, prv


def _links(start: np.ndarray):
    """(segment, next, previous) index of each entry of a column cut at ``start``."""
    return (_segments(start), *_neighbours(start))


def _seg_sum(x: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-segment sums, by ``reduceat``: a segment's sum has the same bits
    wherever the segment sits in the column (a zero-padded row sum does not)."""
    return np.add.reduceat(x, start[:-1], axis=0)


class _Chain(NamedTuple):
    """The consecutive-intersection chains of a column of plane fans, one
    segment [start[j], start[j + 1]) per region that is not empty: per
    plane the vertex at the end of its edge, the normal, the edge length,
    the offset and the label, and its segment, next and previous plane
    (``_links``).  ``alive`` marks the input fans whose region is not
    empty, ``cascades`` counts the peel passes that ran the cascade rule on
    each input fan, and ``recomputed`` marks the input fans whose cascade failed
    its certificate."""

    verts: np.ndarray
    ns: np.ndarray
    adv: np.ndarray
    cs: np.ndarray
    fan: np.ndarray
    start: np.ndarray
    seg: np.ndarray
    nxt: np.ndarray
    prv: np.ndarray
    alive: np.ndarray
    cascades: np.ndarray
    recomputed: np.ndarray

    def select(self, keep: np.ndarray) -> "_Chain":
        """The chain of the segments that ``keep`` marks; the counts stay
        per input fan."""
        at = np.flatnonzero(keep[self.seg])
        start = np.concatenate(([0], np.cumsum((self.start[1:] - self.start[:-1])[keep])))
        alive = self.alive.copy()
        alive[alive] = keep
        return _Chain(self.verts.take(at, axis=0), self.ns.take(at, axis=0), self.adv[at], self.cs[at],
                      self.fan[at], start, *_links(start), alive, self.cascades, self.recomputed)


def _chain_measure(chain: _Chain) -> ChainMeasure:
    """Measure each chain of a column; edge k ends at verts[k] with normal
    ns[k] and has length adv[k].

    The shoelace runs about the vertex mean: its rounding is then of the
    chain's own size, not of its distance from the frame origin, and stays
    below the emptiness floor as the chain shrinks to a point.
    """
    start, ns, nxt = chain.start, chain.ns, chain.nxt
    _, a = _centred_area(chain.verts, start, start[1:] - start[:-1], nxt)
    n2 = ns.take(nxt, axis=0)
    # exterior angle at vertex k, between edges k and k + 1
    theta = np.arctan2(ns[:, 0] * n2[:, 1] - ns[:, 1] * n2[:, 0],
                       ns[:, 0] * n2[:, 0] + ns[:, 1] * n2[:, 1])
    tans = np.tan(0.5 * theta)
    # edge k shortens at the rate of the tangents at both of its ends
    rates = tans + tans[chain.prv]
    return ChainMeasure(a, _seg_sum(chain.adv, start), _seg_sum(tans, start),
                        np.minimum.reduceat(chain.adv / rates, start[:-1]))


def falling_root(a, b, f):
    """Root s nearest 0 of a s^2 - b s + f = 0, for b > 0 (elementwise).

    Taken in the form 2f / (b + sqrt(b^2 - 4af)), which does not cancel.
    """
    return 2.0 * f / (b + np.sqrt(np.maximum(b * b - 4.0 * a * f, 0.0)))


def _lhuilier_gap(chain: _Chain, m: ChainMeasure) -> np.ndarray:
    """P^2 - 4 T A of each chain of planes n_k . x <= c_k in a column,
    measured by ``m``, without the cancellation of forming it from P, T and A.

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
    ns, start, seg, nxt = chain.ns, chain.start, chain.seg, chain.nxt
    n2 = ns.take(nxt, axis=0)
    det = _fan_det(ns, n2)

    def vertices(c):
        c2 = c[nxt]
        return np.array(((c * n2[:, 1] - c2 * ns[:, 1]) / det, (ns[:, 0] * c2 - n2[:, 0] * c) / det)).T

    c = chain.cs - (m.perimeter / (2.0 * m.tan_sum))[seg]
    mean = _seg_sum(vertices(c), start) / (start[1:] - start[:-1])[:, None]
    c = c - np.einsum("ij,ij->i", ns, mean.take(seg, axis=0))
    v = vertices(c)
    d = v - v.take(chain.prv, axis=0)
    lengths = d[:, 1] * ns[:, 0] - d[:, 0] * ns[:, 1]
    p, a = _seg_sum(lengths, start), 0.5 * _seg_sum(c * lengths, start)
    return np.maximum(p * p - 4.0 * m.tan_sum * a, 0.0)


def _fan_det(ns: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Cross product of each normal of a fan with the next one, ``n2``."""
    return ns[:, 0] * n2[:, 1] - ns[:, 1] * n2[:, 0]


def _bisector_velocity(ns: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """The d with n . d = n2 . d = 1, at which lines with normals n and n2 moving
    in at unit speed meet, as a (2, N) array; (n + n2) / (|n + n2|^2 / 2)
    keeps needle tips exact.  That form has n . d = 1 only for exactly unit
    normals: at an acute corner, where n . n2 < 0, the rounding of |n|^2 is
    divided by 1 + n . n2, so there d comes from Cramer's rule instead.  At
    flat corners Cramer's determinant vanishes, so only acute ones use it."""
    s = (ns + n2).T
    d = s / (0.5 * (s[0] * s[0] + s[1] * s[1]))
    acute = np.flatnonzero(np.einsum("ij,ij->i", ns, n2) < 0.0)
    if acute.size:
        n, m = ns[acute], n2[acute]
        det = _fan_det(n, m)
        d[:, acute] = (m[:, 1] - n[:, 1]) / det, (n[:, 0] - m[:, 0]) / det
    return d


def _flagged(flag: np.ndarray, start: np.ndarray, seg: np.ndarray, later: bool) -> np.ndarray:
    """For each entry, the nearest other flagged entry of its segment after
    it (``later``) or before it, cyclically; the entry itself when it is
    its segment's one flag.  Meaningless in a segment without flags."""
    n, at = len(flag), np.arange(len(flag))
    if later:
        incl = np.minimum.accumulate(np.where(flag, at, n)[::-1])[::-1]
        excl = np.concatenate((incl[1:], [n]))
        return np.where(excl < start[1:][seg], excl, incl[start[:-1]][seg]) % n
    incl = np.maximum.accumulate(np.where(flag, at, -1))
    excl = np.concatenate(([-1], incl[:-1]))
    return np.where(excl >= start[:-1][seg], excl, incl[start[1:] - 1][seg]) % n


def _eaten(dead: np.ndarray, vx: np.ndarray, vy: np.ndarray, ns: np.ndarray, cs: np.ndarray,
           eps: np.ndarray, start: np.ndarray, links: tuple) -> np.ndarray:
    """Planes of a peel pass over a column that a plane across a dead run
    of their own segment has cut off.

    A live plane between live neighbours is eaten when its edge, from
    vertex k - 1 to vertex k, lies more than ``eps`` outside the half-plane
    of the first live plane past the next dead run ahead of it, or of the
    last one before the dead run behind it.  Its line then misses the
    region, so it is redundant unless the region is empty.
    """
    seg, nxt, prv = links
    live = ~dead
    after = live & dead[prv]  # live planes just past a dead run
    before = live & dead[nxt]  # and just before one
    px, py = vx[prv], vy[prv]

    def outside(e):
        nx, ny, c = ns[e, 0], ns[e, 1], cs[e] + eps
        return (nx * px + ny * py > c) & (nx * vx + ny * vy > c)

    return live & ~after & ~before & (outside(_flagged(after, start, seg, True))
                                      | outside(_flagged(before, start, seg, False)))


def _peel(ns: np.ndarray, cs: np.ndarray, fan: np.ndarray, start: np.ndarray,
          eps: np.ndarray, cascade: int) -> tuple[_Chain, list]:
    """Peel passes over a column of plane fans, one segment and one ``eps``
    per fan; from pass ``cascade`` on, eaten planes (``_eaten``) leave with
    the dead ones.  Each pass runs once over the fans still in the column,
    and a fan leaves it once it is empty.  Returns the chain (see
    ``_offset_chain``) and a list of arrays of the labels eaten.
    """
    ids = np.arange(len(start) - 1)  # the input fan of each segment
    cascades = np.zeros(len(ids), dtype=int)
    tol = eps.repeat(start[1:] - start[:-1])
    eaten = []
    with np.errstate(divide="ignore", invalid="ignore"):  # fans with a gap divide by 0
        for at in range(len(cs)):  # every pass but the last removes a plane from each fan it changes
            nxt, prv = _neighbours(start)
            n2 = ns.take(nxt, axis=0)
            det = _fan_det(ns, n2)
            # fewer than 3 planes leave a gap too
            gap = np.minimum.reduceat(det, start[:-1]) <= FAN_GAP_DET
            gapped = gap.any()
            c2 = cs[nxt]
            vx = (cs * n2[:, 1] - c2 * ns[:, 1]) / det
            vy = (ns[:, 0] * c2 - n2[:, 0] * cs) / det
            adv = -(vx - vx[prv]) * ns[:, 1] + (vy - vy[prv]) * ns[:, 0]
            dead = adv <= tol
            seg = _segments(start) if gapped or at >= cascade else None
            if gapped:
                dead &= ~gap[seg]
            if not dead.any():
                alive = np.zeros(len(cascades), dtype=bool)
                alive[ids] = True
                chain = _Chain(np.array((vx, vy)).T, ns, adv, cs, fan, start, _segments(start), nxt, prv,
                               alive, cascades, np.zeros(len(cascades), dtype=bool))
                return (chain.select(~gap) if gapped else chain), eaten
            if at >= cascade:
                peeling = np.logical_or.reduceat(dead, start[:-1])
                cascades[ids] += peeling
                gone = _eaten(dead, vx, vy, ns, cs, tol, start, (seg, nxt, prv)) & peeling[seg]
                eaten.append(fan[gone])
                dead |= gone
            keep = ~dead
            if gapped:
                keep &= ~gap[seg]
            count = np.add.reduceat(keep, start[:-1], dtype=np.intp)
            full = count >= 3  # a fan left with fewer planes is empty
            if not full.all():
                keep &= full[_segments(start)]
                count, ids = count[full], ids[full]
            kept = np.flatnonzero(keep)
            ns, cs, fan, tol = ns.take(kept, axis=0), cs[kept], fan[kept], tol[kept]
            start = np.concatenate(([0], count.cumsum()))
    raise AssertionError("a peel pass removed no plane")  # pragma: no cover


def _offset_chain(ns: np.ndarray, cs: np.ndarray, fan: np.ndarray, start: np.ndarray,
                  eps: np.ndarray) -> _Chain:
    """Consecutive-intersection chains of a column of fans of half-planes
    n_k . x <= c_k, fan j holding the planes start[j] to start[j + 1] - 1.

    Each fan's normals are sorted by angle and pairwise non-parallel;
    ``fan`` labels the planes in increasing order over the whole column.
    Each pass peels off the planes whose edge is not longer than their
    fan's ``eps``; a plane whose neighbour-pair vertex already satisfies it
    is redundant, so this peeling is exact.  A long edge that eats a fine
    arc kills one arc plane per pass, so from pass CASCADE_PASS on the arc
    planes it has cut off (``_eaten``) leave too, the whole arc in one
    pass.  That is sound only when the region is not empty, so the result
    is certified: every eaten plane must hold the chain's vertex between
    the survivors around it, its support point in that plane's normal
    direction.  Otherwise the region is the survivors' cut by the eaten
    planes that fail, and plain passes alone peel that short list exactly.
    A fan's region is empty (not ``alive``) when fewer than 3 planes
    survive or the normal fan has a gap (the planes then hold no bounded
    region).  Neighbours whose cross product is at most FAN_GAP_DET make a
    gap too: normals antiparallel up to rounding leave a strip thinner than
    the rounding of its length, whose far vertex would be noise.  Every
    fan's result, and its failure, is its own: the other fans of the
    column do not change it.
    """
    chain, eaten = _peel(ns, cs, fan, start, eps, CASCADE_PASS)
    if not eaten:
        return chain
    labels = np.concatenate(eaten)
    gone = np.searchsorted(fan, labels)
    owner = np.searchsorted(start, gone, "right") - 1
    held = chain.alive[owner]
    labels, gone, owner = labels[held], gone[held], owner[held]
    # the chain vertex between the survivors around each eaten plane
    seg = (np.cumsum(chain.alive) - 1)[owner]
    at = np.searchsorted(chain.fan, labels)
    support = chain.verts[np.where(at > chain.start[seg], at, chain.start[seg + 1]) - 1]
    cut = np.einsum("ij,ij->i", ns[gone], support) > cs[gone]
    if not cut.any():
        return chain
    keep = np.zeros(len(cs), dtype=bool)
    keep[np.searchsorted(fan, chain.fan)] = True
    keep[gone[cut]] = True
    count = np.add.reduceat(keep, start[:-1], dtype=np.intp)[chain.alive]
    kept = np.flatnonzero(keep)
    again = _peel(ns.take(kept, axis=0), cs[kept], fan[kept], np.concatenate(([0], np.cumsum(count))),
                  eps[chain.alive], len(cs))[0]
    alive = chain.alive.copy()
    alive[alive] = again.alive
    recomputed = np.bincount(owner[cut], minlength=len(start) - 1) > 0
    return again._replace(alive=alive, cascades=chain.cascades, recomputed=recomputed)


class SkeletonWalk(NamedTuple):
    """What ``OffsetMachine.walks`` reads off one polygon's straight
    skeleton, in the frame centred on the polygon's ``origin``: t*, the
    core's vertices there, the chain evaluations made before t* was known,
    r and the centre; then how the walk ran: its steps after t*, the peel
    passes that ran the cascade rule and the chains whose cascade was
    recomputed after a failed certificate."""

    t_star: float
    core: np.ndarray
    evaluations: int
    r: float
    centre: np.ndarray
    steps_after: int
    cascade_passes: int
    recomputes: int


def _moved(chain: _Chain, s: np.ndarray) -> np.ndarray:
    """The chain's vertices, each moved by its segment's s along its
    bisector: the chain at s further in, exactly while s is within its reach."""
    velocity = _bisector_velocity(chain.ns, chain.ns.take(chain.nxt, axis=0))
    return (chain.verts.T - s[chain.seg] * velocity).T


class OffsetMachine:
    """Repeated inward offsets of a column of k polygons; a polygon holds
    its own, k = 1, as ``offset_machine``.

    The column is ragged: the polygons' planes lie end to end in flat
    arrays, polygon i's from start[i] to start[i + 1] - 1, each plane's
    neighbours found by index within its segment, with no padding.  Every
    per-polygon sum, minimum or mean is a ``reduceat`` over the segments
    (a row sum over zero padding would round differently), so a polygon's
    numbers have the same bits in any column, alone included, and what
    fails for one polygon fails for it alone.  The inradius and the Cheeger
    solve read one skeleton walk per polygon (``walks``), all taken
    together; the inner parallel sets (``inner_parallel``) and their areas
    (``area_at``) of a one-polygon machine read it the same way.  The
    set-up, the merging of parallel normals included, is one set of array
    operations for the column; each query reruns only the chains of
    neighbouring planes with redundant ones peeled off (``_chain``).  Where two planes are neighbours in the
    polygon, their vertex is the polygon's own moved along the bisector,
    which is exact; only planes that became neighbours when the edges
    between them vanished (or merged) are intersected, and the edge
    lengths (so perimeter and reach) always come from the intersections.
    Each chain runs in the frame centred on its polygon's ``origin``, with
    tolerances scaled by the intrinsic size ``2A/P`` (between the inradius
    and twice it) of the polygon's ``area`` and ``perimeter``, so neither
    where a polygon sits nor how thin it is moves the result.
    """

    def __init__(self, polys):
        polys = list(polys)
        count = np.array([len(p) for p in polys])
        vstart = np.concatenate(([0], np.cumsum(count)))
        vertices = np.concatenate([p.vertices for p in polys])
        normals = np.concatenate([p.edge_normals for p in polys])
        origin, area, perimeter = (np.array([getattr(p, name) for p in polys])
                                   for name in ("origin", "area", "perimeter"))
        # no reference back to the polygons, whose caches would then hold a cycle
        vseg, vnxt, _ = _links(vstart)
        local = vertices - origin.take(vseg, axis=0)
        offsets = np.einsum("ij,ij->i", normals, local)
        edge = _merge_parallel(normals, offsets, vstart)
        self.start = np.concatenate(([0], np.cumsum(np.bincount(vseg[edge], minlength=len(polys)))))
        self.owner, self.succ, _ = _links(self.start)
        self.ns, self.cs = normals.take(edge, axis=0), offsets[edge]
        # planes k and k + 1 that are neighbours in a polygon meet at its
        # vertex edge[k] + 1, which moves along their bisector
        following = edge[self.succ]
        self.kinetic = following == vnxt[edge]
        self.corner = local.take(following, axis=0).T.copy()
        self.speed = _bisector_velocity(self.ns, self.ns.take(self.succ, axis=0))
        self.floor = area * DEGENERATE_AREA_REL
        self.eps = 2.0 * area / perimeter * 1e-14
        self.chain0 = self._chain(0.0)
        # the polygons' own areas and edge lengths, not the lines' intersections
        m = self._measure(self.chain0)[0]
        self.measure0 = m._replace(area=area, perimeter=perimeter)

    def _chain(self, t, prev: _Chain | None = None, step=0.0) -> _Chain:
        """Local-frame chains of the inner parallel sets at t, one per polygon,
        or, from ``prev``, the chains at t - step, one per segment of prev;
        t and ``step`` are one value or one per chain.  From ``prev`` only
        its planes are shifted, by the step itself (added to t, a step
        below t's last bit is lost)."""
        if prev is None:
            start, ns, fan = self.start, self.ns, np.arange(len(self.cs))
            t = t + np.zeros(len(start) - 1)
            cs = self.cs - t[self.owner]
        else:
            start, ns, fan = prev.start, prev.ns, prev.fan
            cs = prev.cs - step[prev.seg]
        chain = _offset_chain(ns, cs, fan, start, self.eps[self.owner[fan[start[:-1]]]])
        corner, speed, kinetic = self.corner, self.speed, self.kinetic
        if len(chain.fan) < len(self.cs):
            corner, speed = corner.take(chain.fan, axis=1), speed.take(chain.fan, axis=1)
            kinetic = kinetic[chain.fan] & (chain.fan[chain.nxt] == self.succ[chain.fan])
        t = t[chain.alive][chain.seg]
        return chain._replace(verts=np.where(kinetic, corner - t * speed, chain.verts.T).T)

    def _measure(self, chain: _Chain):
        """(measure of each input segment of ``chain``, the chain of the sets
        that are not empty): a set is empty once its chain is, or its area
        is below DEGENERATE_AREA_REL of its polygon's."""
        m = np.zeros((4, len(chain.alive)))
        if len(chain.fan):
            measured = np.array(_chain_measure(chain))
            full = measured[0] > self.floor[self.owner[chain.fan[chain.start[:-1]]]]
            m[:, chain.alive] = np.where(full, measured, 0.0)
            if not full.all():
                chain = chain.select(full)
        return ChainMeasure(*m), chain

    @cached_property
    def walks(self) -> list:
        """Each polygon's one walk up its straight skeleton from t = 0, to t*
        and on to r: a SkeletonWalk, or the NoConvergence it ran into, which
        ``ConvexPolygon.walk`` raises when it is read.

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

        The polygons walk as one column: each step evaluates the chains of
        all the polygons still walking in one ``area_at`` call, and a
        polygon leaves the column when its chain empties.  Every count and
        failure is the polygon's own, MAX_WALK_STEPS included.
        """
        k = len(self.floor)
        out: list = [NoConvergence("the polygon's own offset chain is empty")] * k
        live = np.flatnonzero(self.chain0.alive)
        t, chain = np.zeros(len(live)), self.chain0
        m = ChainMeasure(*(x[live] for x in self.measure0))
        found, t_star, evals = np.zeros(k, dtype=bool), np.zeros(k), np.zeros(k, dtype=int)
        core: list = [None] * k
        cascades, recomputes = chain.cascades.copy(), chain.recomputed.astype(int)
        for steps in range(MAX_WALK_STEPS if len(live) else 0):
            s = np.maximum(m.reach, (1.0 - 1e-6) * falling_root(m.tan_sum, m.perimeter, m.area))
            seek = ~found[live]
            if seek.any():
                # b^2 - 4af = (P^2 - 4 T A) + 4 pi (A + P t + T t^2)
                disc = _lhuilier_gap(chain, m) \
                    + 4.0 * math.pi * (m.area + t * (m.perimeter + t * m.tan_sum))
                root = 2.0 * (m.area - math.pi * t * t) / (m.perimeter + 2.0 * math.pi * t + np.sqrt(disc))
                hit = seek & (((0.0 <= root) & (root <= m.reach)) | (np.abs(root) <= 1e-14 * (t + root)))
                if hit.any():
                    cores = np.split(_moved(chain, root), chain.start[1:-1])
                    for j in np.flatnonzero(hit):
                        core[live[j]] = cores[j]
                    found[live[hit]], t_star[live[hit]], evals[live[hit]] = True, (t + root)[hit], steps
                s = np.where(seek & ~hit, root, s)
            m, nxt = self.area_at(t + s, chain, s)
            cascades[live] += nxt.cascades
            recomputes[live] += nxt.recomputed
            done = ~nxt.alive
            if done.any():
                count = chain.start[1:] - chain.start[:-1]
                centres = _seg_sum(_moved(chain, s), chain.start) / count[:, None]
                for j in np.flatnonzero(done):
                    i, r = live[j], float(t[j] + s[j])
                    out[i] = (SkeletonWalk(float(t_star[i]), core[i], int(evals[i]), r, centres[j],
                                           steps + 1 - int(evals[i]), int(cascades[i]), int(recomputes[i]))
                              if found[i] else
                              NoConvergence(f"inner parallel set vanished at t = {r!r} before t*"))
                if done.all():
                    return out
                live, t, s = live[~done], t[~done], s[~done]
                m = ChainMeasure(*(x[~done] for x in m))
            t, chain = t + s, nxt
        for j, i in enumerate(live):
            out[i] = NoConvergence(f"inner parallel set did not vanish in {MAX_WALK_STEPS} "
                                   f"skeleton steps (t = {float(t[j])!r})")
        return out

    def area_at(self, t, prev: _Chain | None = None, step=0.0):
        """Area, perimeter, tan sum and reach of the inner parallel sets at t,
        one per polygon, each field an array.

        From ``prev``, the chains at t - step (t and ``step`` one value per
        chain), returns (measure, chain): one measure per chain of prev, and
        the chains of the sets that are not empty, ``alive`` marking them."""
        if prev is None and np.all(np.asarray(t) == 0.0):
            return self.measure0
        m, chain = self._measure(self._chain(t, prev, step))
        return m if prev is None else (m, chain)


def walk_block(polys: list[ConvexPolygon]) -> None:
    """Walk the straight skeletons of ``polys`` as one column: each polygon
    that has no walk yet takes its own element of the column's
    ``OffsetMachine.walks``, which has the same bits as the walk it takes
    alone; a lone polygon walks on its own machine (``offset_machine``)
    when its walk is first read.  A polygon whose walk failed raises when
    its own walk is read; the others are unaffected."""
    todo = [p for p in polys if "_walk" not in p.__dict__]
    if len(todo) > 1:
        for poly, walk in zip(todo, OffsetMachine(todo).walks):
            poly.__dict__["_walk"] = walk


def inner_parallel(poly: ConvexPolygon, t: float) -> ConvexPolygon | None:
    """Inner parallel set at distance t >= 0; None once the body vanishes."""
    if not t >= 0:
        raise DegenerateInput("offset distance must be nonnegative")
    if t == 0.0:
        return poly
    chain = poly.offset_machine._chain(t)
    alive, = chain.alive
    return poly.placed(chain.verts) if alive else None


def inner_parallel_area(poly: ConvexPolygon, t: float) -> float:
    """Area of the inner parallel set (0 once empty); avoids reconstruction."""
    return float(poly.offset_machine.area_at(t).area[0])


def _edge_vectors_from_lowest(poly: ConvexPolygon):
    """Edge vectors in CCW order starting at the lowest (then leftmost) vertex."""
    v = poly.vertices
    start = int(np.lexsort((v[:, 0], v[:, 1]))[0])
    v = shifted(v, start)
    return v[0], shifted(v) - v


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
    if not t > 0:
        raise DegenerateInput("dilation radius must be positive")
    if not arc_segments >= 8:
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


def _fan_region(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray | None:
    """Vertices of the region {x : n_k . x <= c_k} of one fan of half-planes,
    such as a polygon's own edge normals at other offsets, or None when it
    is empty.  A fan with a gap, whose region is unbounded, reads as empty.

    The offset chain's fan peel (``_merge_parallel``, ``_offset_chain`` with
    eps = max(1, max |c_k|) * 1e-14), then ``_strictify``; a region whose
    area is at most DEGENERATE_AREA_REL of its squared size is empty.
    """
    fan = _merge_parallel(normals, offsets, np.array([0, len(offsets)]))
    eps = max(1.0, float(np.max(np.abs(offsets)))) * 1e-14
    chain = _offset_chain(normals[fan], offsets[fan], np.arange(len(fan)), np.array([0, len(fan)]),
                          np.array([eps]))
    alive, = chain.alive
    if not alive:
        return None
    scale = float(np.max(np.abs(chain.verts))) or 1.0
    verts = _strictify(chain.verts, scale)
    if verts is None or abs(shoelace(verts)) <= (scale * scale) * DEGENERATE_AREA_REL:
        return None
    return verts


def form_body(poly: ConvexPolygon) -> ConvexPolygon:
    """Intersection of {x . u <= 1} over the polygon's edge outward normals:
    its own normal fan, all offsets 1, through ``_fan_region``."""
    verts = _fan_region(poly.edge_normals, np.ones(len(poly)))
    if verts is None:
        raise DegenerateInput("form body has empty interior")
    return ConvexPolygon(verts)


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
