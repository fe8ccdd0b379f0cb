"""The six geometric functionals of a convex polygon, and its one record.

Area and perimeter are the polygon's own, derived at construction and read
by its skeleton walk too. Diameter and minimal width come from one caliper
pass over the antipodal pairs (rotating calipers, Toussaint 1983): the
vertex farthest from each edge is the count of increasing edge-normal
angles below the opposite normal angle, found at once for all edges of a
block of polygons, and each polygon keeps the record of its diameter pair
and its width (``_calipers``), which ``diameter``, ``min_width`` and
``circumradius`` read. Diameter, width, circumradius and ``measure`` take
one polygon or a block (a list), which they measure as one column; one
polygon is the block of one, and a polygon's numbers do not depend on its
block. The inradius is the depth of the point at which the inner parallel
set vanishes, found by walking its straight-skeleton events (Aichholzer
et al. 1995) on the offset chain the Cheeger solve uses; no second solve
refines it. The circumradius is the minimal enclosing circle of the
vertices: the diameter pair settles every polygon whose vertices its
circle holds, at R = d/2, and the rest take farthest-violator steps over
a support set of at most three points (Elzinga & Hearn 1972) as rows of
one array, a polygon leaving the column once its circle holds every
vertex.

``measure`` is the one measuring call: the record (A, P, r, R, d, omega)
with h = 1/t*, read off the walk it shares with r, of a polygon, or of a
block as one record of columns.

A record scales with its body: ``Functionals.normalized`` gives the record
of the body (of each body of a column) scaled so that one functional is 1,
by the powers in ``EXPONENT``, without building or measuring a polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheeger import cheeger_constant
from .errors import CheegerAtlasError, NoConvergence
from .geom import ConvexPolygon, _antipodes, walk_block

# Relative slack allowed when validating the functional chain inequalities.
CHAIN_TOL = 1e-7
# Field of a record by short id, in the order of ``Functionals``' fields.
FIELDS = {"A": "area", "P": "perimeter", "r": "inradius", "R": "circumradius", "d": "diameter",
          "w": "min_width", "h": "cheeger"}
# Power of the scale factor in each functional: scaling a body by s multiplies
# its area by s**2 and each length by s (and h by 1/s).
EXPONENT = {"A": 2.0, "P": 1.0, "r": 1.0, "R": 1.0, "d": 1.0, "w": 1.0}
# Bound on the farthest-violator steps of `circumradius` per block: every row
# of a block steps at once, so this bounds each polygon's steps. Each step
# grows the circle; 4,000 census polygons took at most 7, and the sharpness
# bodies that the diameter pair does not settle (the triangles) at most 2.
MAX_CIRCLE_STEPS = 64


@dataclass(frozen=True)
class Functionals:
    """Record of (A, P, r, R, d, omega) and optionally h: of one body, each
    field a float; of a column of bodies, each a 1-d array of one length.

    Construction enforces, record by record, the chain 2r <= omega <= 2R,
    omega <= d <= 2R, r <= R, that each is positive and finite and, when the
    Cheeger constant is present, 1/r <= h <= 2/r (which no infinite or NaN h
    meets); the first record that fails raises the ValueError it raises alone.
    """

    area: float | np.ndarray
    perimeter: float | np.ndarray
    inradius: float | np.ndarray
    circumradius: float | np.ndarray
    diameter: float | np.ndarray
    min_width: float | np.ndarray
    cheeger: float | np.ndarray | None = None

    def __post_init__(self):
        fields = A, P, r, R, d, w, h = [getattr(self, name) for name in FIELDS.values()]
        tol = CHAIN_TOL
        positive = np.logical_and.reduce([(0.0 < x) & (x < math.inf) for x in fields[:6]])  # NaN fails too
        chain = ((2 * r <= w * (1 + tol)) & (w <= 2 * R * (1 + tol)) & (w <= d * (1 + tol))
                 & (d <= 2 * R * (1 + tol)) & (r <= R * (1 + tol)))
        with np.errstate(divide="ignore"):  # r = 0 fails as not positive
            in_range = h is None or (np.divide(1.0, r) * (1 - tol) <= h) & (h <= np.divide(2.0, r) * (1 + tol))
        ok = positive & chain & in_range
        if not np.all(ok):
            i = int(np.argmin(ok))  # the first record that fails raises what it raises alone
            A, P, r, R, d, w, h = (None if x is None else np.ravel(x)[i].item() for x in fields)
            raise ValueError("all functionals must be positive and finite" if not np.ravel(positive)[i]
                             else f"functional chain violated: A={A} P={P} r={r} R={R} d={d} w={w}"
                             if not np.ravel(chain)[i] else f"cheeger constant h={h} outside [1/r, 2/r]")

    def normalized(self, key: str) -> "Functionals":
        """The record of the body scaled by 1/s so that functional ``key``
        (A, P, r, R, d or w) is 1, where s = value(key) ** (1 / EXPONENT[key]):
        each length is divided by s, the area by s * s, and h multiplied by s;
        each row of a column by its own s, with the bits it has alone."""
        s = np.power(self.value(key), 1.0 / EXPONENT[key])
        s = s if np.ndim(s) else float(s)  # a record of floats stays one
        return Functionals(self.area / (s * s), self.perimeter / s, self.inradius / s,
                           self.circumradius / s, self.diameter / s, self.min_width / s,
                           None if self.cheeger is None else self.cheeger * s)

    def value(self, key: str):
        """A functional by its short id (A, P, r, R, d, w or h): a float, or a column's array."""
        v = getattr(self, FIELDS[key])
        if v is None:
            raise ValueError("cheeger constant not populated")
        return v


def area(poly: ConvexPolygon) -> float:
    """The polygon's ``area``: a shoelace about its vertex mean, so its rounding
    is of the polygon's size wherever it sits; its walk reads the same number."""
    return poly.area


def perimeter(poly: ConvexPolygon) -> float:
    """The polygon's ``perimeter``, the sum of its edge lengths, as its walk reads it."""
    return poly.perimeter


def _block(poly) -> tuple[list[ConvexPolygon], bool]:
    """(the polygons of ``poly``, a polygon or a block (list) of them, and
    whether it was one polygon)."""
    return ([poly], True) if isinstance(poly, ConvexPolygon) else (list(poly), False)


def _first(x: np.ndarray, best: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Column index of the first entry of each segment equal to its ``best``."""
    hit = np.flatnonzero(x == best.repeat(start[1:] - start[:-1]))
    return hit[np.searchsorted(hit, start[:-1])]


# the pairs diameter compares for edge i: vertex i or i + 1 (_ENDS) with the
# antipode or a neighbour of it (_NEAR)
_ENDS = np.array([0, 0, 0, 1, 1, 1])
_NEAR = np.array([-1, 0, 1, -1, 0, 1])


def _calipers(polys: list[ConvexPolygon]) -> list[tuple[float, int, int, float, int]]:
    """Each polygon's caliper record (d, i, j, w, k): its diameter d =
    |v[i] - v[j]| and its minimal width w, attained at edge k.  The
    polygons that have no record yet are measured as one column, and each
    keeps its record, with the bits it has alone, for ``diameter``,
    ``min_width`` and ``circumradius`` to read.

    The antipode of each edge (``geom._antipodes``) is widened by one
    vertex each way to absorb rounding at parallel edges.  Every antipodal
    vertex pair joins an endpoint of some edge to that window, so d is the
    longest of those pairs; w is the least over edges of the farthest
    window vertex's distance from the edge's line.  Ties go to the first in
    column order: the smallest edge index, then vertex i before i + 1 and
    the window from antipode - 1 up.
    """
    todo = [p for p in polys if "_calipers" not in p.__dict__]
    if todo:
        count = np.array([len(p) for p in todo])
        start = np.concatenate(([0], np.cumsum(count)))
        v = np.concatenate([p.vertices for p in todo])
        ns = np.concatenate([p.edge_normals for p in todo])
        cs = np.concatenate([p.edge_offsets for p in todo])
        n, base = count.repeat(count)[:, None], start[:-1].repeat(count)[:, None]
        far = _antipodes(ns, start)[:, None]
        a = ((np.arange(len(v))[:, None] - base + _ENDS) % n + base).ravel()
        b = ((far + _NEAR) % n + base).ravel()
        gap = v.take(a, axis=0) - v.take(b, axis=0)
        dist = np.hypot(gap[:, 0], gap[:, 1])
        at = _first(dist, np.maximum.reduceat(dist, 6 * start[:-1]), 6 * start)
        near = v.take((far + _NEAR[:3]) % n + base, axis=0)
        widths = (cs[:, None] - np.einsum("ik,ijk->ij", ns, near)).max(axis=1)
        edge = _first(widths, np.minimum.reduceat(widths, start[:-1]), start)
        records = zip(dist[at].tolist(), (a[at] - start[:-1]).tolist(),
                      (b[at] - start[:-1]).tolist(), widths[edge].tolist(),
                      (edge - start[:-1]).tolist())
        for poly, record in zip(todo, records):
            poly.__dict__["_calipers"] = record
    return [p.__dict__["_calipers"] for p in polys]


def diameter(poly):
    """Max vertex distance; returns (d, p, q).

    Of a block (a list of polygons), the list of each one's result, found
    as one column (``_calipers``).
    """
    polys, one = _block(poly)
    out = [(d, p.vertices[i], p.vertices[j]) for p, (d, i, j, _, _) in zip(polys, _calipers(polys))]
    return out[0] if one else out


def min_width(poly):
    """Minimal width: min over edges of the farthest vertex distance.

    The farthest vertex of an edge is its antipode or a neighbour of it.
    Returns (width, outward unit normal of the attaining edge); ties go to
    the smallest edge index.  Of a block (a list of polygons), the list of
    each one's result, found as one column (``_calipers``).
    """
    polys, one = _block(poly)
    out = [(w, p.edge_normals[k]) for p, (_, _, _, w, k) in zip(polys, _calipers(polys))]
    return out[0] if one else out


def inradius(poly: ConvexPolygon):
    """Largest inscribed disc; returns (r, center).

    The centre x is where the polygon's one straight-skeleton walk
    (``ConvexPolygon.walk``, which also gives the Cheeger solve its t*)
    ends, at the offset where the inner parallel set vanishes, and r is the
    depth min(c_i - n_i . x) of that centre.  So the disc returned always
    lies in the polygon.
    """
    x = poly.walk.centre + poly.origin
    return float(np.min(poly.edge_offsets - poly.edge_normals @ x)), x


def circumradius(poly):
    """Minimal enclosing circle of the vertices; returns (R, center).

    Of a block (a list of polygons), the list of each one's result, found
    as one column of rows: each polygon's vertices about v[0], scaled by
    2^-e to an extent in [0.5, 1) and padded with copies of v[0] (the row's
    origin, so padding never changes a maximum or its first index).  So a
    polygon's position does not matter, the three-point circle's cubic
    products neither overflow nor underflow, and R has the same bits at any
    scale where it fits, and in any block.

    The diameter pair (``_calipers``) settles every polygon whose vertices all
    lie in that pair's circle: R = d/2 exactly, about the pair's midpoint.
    The rest take farthest-violator steps (Elzinga & Hearn 1972) from v[0]
    and the vertex farthest from it, all rows at once: each step adds the
    farthest vertex outside the current circle to the support and keeps
    the smallest circle through it and one or two support points that
    holds them all; a polygon leaves the column once its circle holds every
    vertex.  A pair circle's radius is taken in the caller's frame, so
    R == d/2 whenever a diameter pair supports it.
    """
    polys, one = _block(poly)
    raw = np.empty((2, len(polys), max(map(len, polys))))
    for row, v in enumerate(p.vertices for p in polys):
        raw[:, row, :len(v)], raw[:, row, len(v):] = v.T, v[0, :, None]
    local = raw - raw[:, :, :1]
    e = np.frexp(np.maximum.reduce(np.abs(local), axis=(0, 2)))[1]
    xy = np.ldexp(local, -e[:, None])

    # each row's support, three vertex slots (a pair circle repeats its
    # second), and circle: centre, reach (``_reach`` of the radius) and the
    # vector whose length is the radius.  The first circles are those on the
    # diameter pair, which settles the rows it holds, and on v[0] and the
    # vertex farthest from it, the first step of the rest.
    at = np.arange(len(polys))
    far = np.hypot(xy[0], xy[1]).argmax(axis=1)
    ends = np.array([(i, 0, j, k) for (_, i, j, _, _), k in zip(_calipers(polys), far.tolist())])
    points = xy[:, at[:, None], ends]
    p, q = points[..., :2], points[..., 2:]
    w = q - p
    pairs = np.concatenate(((p + q) / 2.0, _reach(np.hypot(w[:1], w[1:]) / 2.0), w))
    out, k = _violators(xy[:, :, None], pairs)
    settled = ~out[:, 0]
    support = np.where(settled[:, None], ends.take(_DIAMETER_PAIR, axis=1),
                       ends.take(_V0_PAIR, axis=1))
    circle = np.where(settled, pairs[..., 0], pairs[..., 1])
    rows = np.flatnonzero(out[:, 0] & out[:, 1])
    k = k[rows, 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # no centre through collinear points
        for _ in range(MAX_CIRCLE_STEPS - 1):
            if not len(rows):
                break
            near = xy.take(rows, axis=1)
            support[rows], circle[:, rows] = grown = _grow(near, support[rows], k)
            out, k = _violators(near, grown[1])
            rows, k = rows[out], k[out]
    if len(rows):
        raise NoConvergence(f"enclosing circle not found in {MAX_CIRCLE_STEPS} steps")

    pair = raw[:, at[:, None], support[:, :2]]
    gap = pair[..., 0] - pair[..., 1]
    R = np.hypot(gap[0], gap[1]) / 2.0
    triple = np.flatnonzero(support[:, 1] != support[:, 2])
    if len(triple):
        R[triple] = np.ldexp([math.hypot(*u) for u in circle[3:, triple].T.tolist()], e[triple])
    found = list(zip(R.tolist(), (np.ldexp(circle[:2], e) + raw[:, :, 0]).T))
    return found[0] if one else found


def _reach(radius):
    """The distance from a circle's centre up to which a point lies in it (slack 1e-12)."""
    return radius * (1 + 1e-12) + 1e-300


def _violators(xy, circle):
    """Whether each circle (cx, cy, reach, ...) misses a vertex of its row of
    ``xy``, and the vertex farthest from its centre."""
    gap = xy - circle[:2, ..., None]
    dist = np.hypot(gap[0], gap[1])
    return np.maximum.reduce(dist, axis=-1) > circle[2], dist.argmax(axis=-1)


# The candidate circles of a support grown by a point, as slots 0-3 of which
# 3 is the new point: on each slot and it, then through two slots and it, in
# the order of the support's combinations.  Each candidate's first and second
# point (the third is slot 3) and the slots it keeps; a pair circle's centre
# and radius are half of p + q and |q - p|, a three-point circle's p + u and
# |u|; and the pair candidate whose vector leads from each three-point
# candidate's first point to the new point.
_FIRST = np.array([0, 1, 2, 0, 0, 1])
_SECOND = np.array([3, 3, 3, 1, 2, 2])
_KEPT = np.array([[0, 3, 3], [1, 3, 3], [2, 3, 3], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
_HALF = np.array([0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
_PAIR_OF_FIRST = np.array([0, 0, 1])
_DIAMETER_PAIR, _V0_PAIR = np.array([0, 2, 2]), np.array([1, 3, 3])


def _grow(xy, support, k):
    """Each row's support with vertex k added, and the smallest candidate
    circle that holds the support, as rows (cx, cy, reach, v) where the
    radius is |v| (v is q - p of a pair circle on pq, or a three-point
    circle's centre about its first point).  The repeated slot of a pair
    support makes copies of the candidates before them, which lose every
    tie, and a three-point candidate with no centre."""
    at = np.arange(len(k))[:, None]
    slots = np.concatenate((support, k[:, None]), axis=1)
    p = xy[:, at, slots]
    a, q = p.take(_FIRST, axis=2), p.take(_SECOND, axis=2)
    w = q - a
    # u, a three-point circle's centre about its first point, from b and c,
    # which lead from that point to the second and to the new point
    (bx, by), (cx, cy) = w[:, :, 3:], w.take(_PAIR_OF_FIRST, axis=2)
    den = 2.0 * (bx * cy - by * cx)
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    ux, uy = (cy * bb - by * cc) / den, (bx * cc - cx * bb) / den
    w[0, :, 3:], w[1, :, 3:] = q[0, :, 3:], q[1, :, 3:] = ux, uy
    r = np.hypot(w[0], w[1]) * _HALF
    cand = np.concatenate(((a + q) * _HALF, _reach(r)[None], w))
    gap = p[:, :, None] - cand[:2, ..., None]
    holds = np.logical_and.reduce(np.hypot(gap[0], gap[1]) <= cand[2, ..., None], axis=2)
    best = np.where(holds, r, np.inf).argmin(axis=1)
    return slots[at, _KEPT[best]], cand[:, at[:, 0], best]


def measure(poly):
    """The record of a polygon: its six functionals and its Cheeger constant.
    Of a block (a list of polygons), one record of columns, with the
    skeletons walked (``geom.walk_block``) and the diameters, widths and
    circumradii found as one column each.  A record that fails its own
    checks raises a CheegerAtlasError with its message."""
    polys, one = _block(poly)
    walk_block(polys)
    rows = [(area(p), perimeter(p), inradius(p)[0], R, d, w, cheeger_constant(p).h)
            for p, (d, _, _), (w, _), (R, _) in zip(polys, diameter(polys), min_width(polys),
                                                    circumradius(polys))]
    try:
        return Functionals(*(rows[0] if one else (np.array(col, dtype=float) for col in zip(*rows))))
    except ValueError as exc:
        raise CheegerAtlasError(str(exc)) from exc
