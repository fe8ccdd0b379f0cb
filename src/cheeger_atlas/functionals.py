"""The six geometric functionals of a convex polygon, and its one record.

Area and perimeter are the polygon's own, derived at construction and read
by its skeleton walk too. Diameter and minimal width read the antipodal
pairs (rotating calipers, Toussaint 1983): the vertex farthest from each
edge is the count of increasing edge-normal angles below the opposite
normal angle, found at once for all edges of a block of polygons
(``geom.find_antipodes``, cached on each polygon, which both functionals
read). Diameter, width and ``measure`` take one polygon or a block (a
list), which they measure as one column; one polygon is the block of one,
and a polygon's numbers do not depend on its block. The inradius is the
depth of the point at which the inner parallel set vanishes, found by
walking its straight-skeleton events (Aichholzer et al. 1995) on the
offset chain the Cheeger solve uses; no second solve refines it. The
circumradius is the minimal enclosing circle of the vertices, found by
farthest-violator iteration over a support set of at most three points
(Elzinga & Hearn 1972).

``measure`` is the one measuring call: the record (A, P, r, R, d, omega)
of each polygon with h = 1/t*, read off the walk it shares with r.

A record scales with its body: ``Functionals.normalized`` gives the record
of the body scaled so that one functional is 1, by the powers in
``EXPONENT``, without building or measuring the scaled polygon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cheeger import cheeger_constant
from .errors import NoConvergence
from .geom import ConvexPolygon, find_antipodes, walk_block

# Relative slack allowed when validating the functional chain inequalities.
CHAIN_TOL = 1e-7
# Power of the scale factor in each functional: scaling a body by s multiplies
# its area by s**2 and each length by s (and h by 1/s).
EXPONENT = {"A": 2.0, "P": 1.0, "r": 1.0, "R": 1.0, "d": 1.0, "w": 1.0}
# Bound on the farthest-violator steps of `circumradius`. Each step grows the
# circle; 4,000 census polygons took at most 7, the sharpness bodies 16.
MAX_CIRCLE_STEPS = 64


@dataclass(frozen=True)
class Functionals:
    """Record of (A, P, r, R, d, omega) and optionally h for one body.

    Construction enforces the chain 2r <= omega <= 2R, omega <= d <= 2R,
    r <= R, that each is positive and finite and, when the Cheeger constant
    is present, 1/r <= h <= 2/r (which no infinite or NaN h meets).
    """

    area: float
    perimeter: float
    inradius: float
    circumradius: float
    diameter: float
    min_width: float
    cheeger: float | None = None

    def __post_init__(self):
        A, P, r, R = self.area, self.perimeter, self.inradius, self.circumradius
        d, w = self.diameter, self.min_width
        if not all(0.0 < x < math.inf for x in (A, P, r, R, d, w)):  # NaN fails too
            raise ValueError("all functionals must be positive and finite")
        tol = CHAIN_TOL
        checks = [
            2 * r <= w * (1 + tol),
            w <= 2 * R * (1 + tol),
            w <= d * (1 + tol),
            d <= 2 * R * (1 + tol),
            r <= R * (1 + tol),
        ]
        if not all(checks):
            raise ValueError(
                f"functional chain violated: A={A} P={P} r={r} R={R} d={d} w={w}"
            )
        h = self.cheeger
        if h is not None and not (1 / r) * (1 - tol) <= h <= (2 / r) * (1 + tol):
            raise ValueError(f"cheeger constant h={h} outside [1/r, 2/r]")

    def normalized(self, key: str) -> "Functionals":
        """The record of the body scaled by 1/s so that functional ``key``
        (A, P, r, R, d or w) is 1, where s = value(key) ** (1 / EXPONENT[key]):
        each length is divided by s, the area by s * s, and h multiplied by s."""
        s = self.value(key) ** (1.0 / EXPONENT[key])
        return Functionals(self.area / (s * s), self.perimeter / s, self.inradius / s,
                           self.circumradius / s, self.diameter / s, self.min_width / s,
                           None if self.cheeger is None else self.cheeger * s)

    def value(self, key: str) -> float:
        """Look a functional up by its short id: A, P, r, R, d, w or h."""
        v = {"A": self.area, "P": self.perimeter, "r": self.inradius,
             "R": self.circumradius, "d": self.diameter, "w": self.min_width,
             "h": self.cheeger}[key]
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


def _calipers(polys: list[ConvexPolygon]):
    """The block's vertices end to end, with the start of each polygon, and
    for each edge its polygon's size and start and its antipode, as an index
    within the polygon (found for the block as one column by
    ``geom.find_antipodes``)."""
    find_antipodes(polys)
    count = np.array([len(p) for p in polys])
    start = np.concatenate(([0], np.cumsum(count)))
    v = np.concatenate([p.vertices for p in polys])
    far = np.concatenate([p.antipodes for p in polys])
    return v, start, count.repeat(count)[:, None], start[:-1].repeat(count)[:, None], far[:, None]


def _first(x: np.ndarray, best: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Column index of the first entry of each segment equal to its ``best``."""
    hit = np.flatnonzero(x == best.repeat(start[1:] - start[:-1]))
    return hit[np.searchsorted(hit, start[:-1])]


# the pairs diameter compares for edge i: vertex i or i + 1 (_ENDS) with the
# antipode or a neighbour of it (_NEAR)
_ENDS = np.array([0, 0, 0, 1, 1, 1])
_NEAR = np.array([-1, 0, 1, -1, 0, 1])


def diameter(poly):
    """Max vertex distance; returns (d, p, q).

    Every antipodal vertex pair joins an endpoint of some edge to that
    edge's antipode, so only those pairs are compared, with the antipode
    widened by one vertex each way to absorb rounding at parallel edges.
    Of a block (a list of polygons), the list of each one's result, found
    as one column.
    """
    polys, one = _block(poly)
    v, start, n, base, far = _calipers(polys)
    a = ((np.arange(len(v))[:, None] - base + _ENDS) % n + base).ravel()
    b = ((far + _NEAR) % n + base).ravel()
    gap = v.take(a, axis=0) - v.take(b, axis=0)
    dist = np.hypot(gap[:, 0], gap[:, 1])
    at = _first(dist, np.maximum.reduceat(dist, 6 * start[:-1]), 6 * start)
    out = list(zip(dist[at].tolist(), v.take(a[at], axis=0), v.take(b[at], axis=0)))
    return out[0] if one else out


def min_width(poly):
    """Minimal width: min over edges of the farthest vertex distance.

    The farthest vertex of an edge is its antipode or a neighbour of it.
    Returns (width, outward unit normal of the attaining edge); ties go to
    the smallest edge index.  Of a block (a list of polygons), the list of
    each one's result, found as one column.
    """
    polys, one = _block(poly)
    v, start, n, base, far = _calipers(polys)
    ns = np.concatenate([p.edge_normals for p in polys])
    cs = np.concatenate([p.edge_offsets for p in polys])
    near = v.take((far + _NEAR[:3]) % n + base, axis=0)
    widths = (cs[:, None] - np.einsum("ik,ijk->ij", ns, near)).max(axis=1)
    at = _first(widths, np.minimum.reduceat(widths, start[:-1]), start)
    out = list(zip(widths[at].tolist(), ns.take(at, axis=0)))
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


def circumradius(poly: ConvexPolygon):
    """Minimal enclosing circle of the vertices; returns (R, center).

    Farthest-violator iteration (Elzinga & Hearn 1972) from v[0] and the
    vertex farthest from it: each step keeps the support of the smallest
    circle holding the support set and the farthest vertex outside the
    current circle. It runs in the frame of v[0] scaled by 2^-e to an
    extent in [0.5, 1), so the polygon's position does not matter and the
    three-point circle's cubic products neither overflow nor underflow; the
    scaling is exact, so R has the same bits at any scale where it fits. A
    pair circle's radius is taken in the caller's frame, which makes
    R == d/2 exactly when the diameter pair supports it.
    """
    v = poly.vertices
    local = v - v[0]
    e = math.frexp(np.abs(local).max())[1]
    local = np.ldexp(local, -e)
    support = np.array([0, int(np.argmax(np.hypot(local[:, 0], local[:, 1])))])
    for _ in range(MAX_CIRCLE_STEPS):
        (cx, cy, R), kept = _smallest_circle(local[support])
        support = support[kept]
        dist = np.hypot(local[:, 0] - cx, local[:, 1] - cy)
        k = int(np.argmax(dist))
        if _in_circle(dist[k], R):
            R = (np.hypot(*(v[support[0]] - v[support[1]])) / 2.0 if len(support) == 2
                 else math.ldexp(R, e))
            return float(R), np.array([math.ldexp(cx, e), math.ldexp(cy, e)]) + v[0]
        support = np.append(support, k)
    raise NoConvergence(f"enclosing circle not found in {MAX_CIRCLE_STEPS} steps")


def _in_circle(dist, radius):
    """Whether a point at distance ``dist`` from a circle's center lies in it (slack 1e-12)."""
    return dist <= radius * (1 + 1e-12) + 1e-300


def _smallest_circle(pts: np.ndarray):
    """Smallest circle through 2 or 3 of ``pts`` holding them all.

    Returns ((cx, cy, R), support indices into pts).
    """
    pts = pts.tolist()
    best, support = (0.0, 0.0, math.inf), []
    for idx in itertools.chain(*(itertools.combinations(range(len(pts)), k) for k in (2, 3))):
        c = _circle(*(pts[i] for i in idx))
        if c[2] < best[2] and all(_in_circle(math.hypot(x - c[0], y - c[1]), c[2])
                                  for x, y in pts):
            best, support = c, list(idx)
    return best, support


def _circle(p, q, s=None):
    """The circle on diameter pq, or through p, q, s (infinite if collinear)."""
    if s is None:
        return (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0, math.hypot(p[0] - q[0], p[1] - q[1]) / 2.0
    bx, by, cx, cy = q[0] - p[0], q[1] - p[1], s[0] - p[0], s[1] - p[1]
    den = 2.0 * (bx * cy - by * cx)
    if den == 0.0:
        return 0.0, 0.0, math.inf
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    ux, uy = (cy * bb - by * cc) / den, (bx * cc - cx * bb) / den
    return p[0] + ux, p[1] + uy, math.hypot(ux, uy)


def measure(poly):
    """The record of a polygon: its six functionals and its Cheeger constant.
    Of a block (a list of polygons), the list of each one's record, with the
    skeletons walked (``geom.walk_block``) and the diameters and widths found
    as one column."""
    polys, one = _block(poly)
    walk_block(polys)
    out = [Functionals(area(p), perimeter(p), inradius(p)[0], circumradius(p)[0], d, w,
                       cheeger_constant(p).h)
           for p, (d, _, _), (w, _) in zip(polys, diameter(polys), min_width(polys))]
    return out[0] if one else out
