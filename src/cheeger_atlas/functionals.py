"""The six geometric functionals of a convex polygon.

Area and perimeter come straight from the vertex chain; diameter and minimal
width use rotating calipers over the antipodal pairs; the inradius is the
Chebyshev-center linear program over the edge half-planes; the circumradius
is the minimal enclosing circle of the vertices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .cheeger import cheeger_constant
from .errors import DegenerateInput
from .geom import ConvexPolygon, shoelace

# Relative slack allowed when validating the functional chain inequalities.
CHAIN_TOL = 1e-7


@dataclass(frozen=True)
class Functionals:
    """Record of (A, P, r, R, d, omega) and optionally (h, t*) for one body.

    Construction enforces the chain 2r <= omega <= 2R, omega <= d <= 2R,
    r <= R, positivity and, when the Cheeger constant is present,
    1/r <= h <= 2/r and t* = 1/h.
    """

    area: float
    perimeter: float
    inradius: float
    circumradius: float
    diameter: float
    min_width: float
    cheeger: float | None = None
    cheeger_t: float | None = None

    def __post_init__(self):
        A, P, r, R = self.area, self.perimeter, self.inradius, self.circumradius
        d, w = self.diameter, self.min_width
        if min(A, P, r, R, d, w) <= 0.0:
            raise ValueError("all functionals must be positive")
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
        if self.cheeger is not None:
            h = self.cheeger
            if not (1 / r) * (1 - tol) <= h <= (2 / r) * (1 + tol):
                raise ValueError(f"cheeger constant h={h} outside [1/r, 2/r]")
            if self.cheeger_t is None or abs(self.cheeger_t * h - 1.0) > 1e-12:
                raise ValueError("cheeger_t must equal 1/h")

    def with_cheeger(self, h: float, t_star: float) -> "Functionals":
        return Functionals(self.area, self.perimeter, self.inradius,
                           self.circumradius, self.diameter, self.min_width,
                           cheeger=h, cheeger_t=t_star)

    def value(self, key: str) -> float:
        """Look a functional up by its short id: A, P, r, R, d, w or h."""
        v = {"A": self.area, "P": self.perimeter, "r": self.inradius,
             "R": self.circumradius, "d": self.diameter, "w": self.min_width,
             "h": self.cheeger}[key]
        if v is None:
            raise ValueError("cheeger constant not populated")
        return v


def area(poly: ConvexPolygon) -> float:
    """Shoelace area."""
    return shoelace(poly.vertices)


def perimeter(poly: ConvexPolygon) -> float:
    edges = np.roll(poly.vertices, -1, axis=0) - poly.vertices
    return float(np.sum(np.hypot(edges[:, 0], edges[:, 1])))


def diameter(poly: ConvexPolygon):
    """Max vertex distance via rotating calipers; returns (d, p, q)."""
    v = poly.vertices
    n = len(v)
    if n == 3:
        return _diameter_brute(v)
    best = -1.0
    best_pair = (v[0], v[1])
    edge = np.roll(v, -1, axis=0) - v
    j = 1
    budget = 4 * n  # total caliper advancement is linear; bail out otherwise
    for i in range(n):
        while budget > 0:
            j1 = (j + 1) % n
            cur = edge[i, 0] * (v[j, 1] - v[i, 1]) - edge[i, 1] * (v[j, 0] - v[i, 0])
            adv = edge[i, 0] * (v[j1, 1] - v[i, 1]) - edge[i, 1] * (v[j1, 0] - v[i, 0])
            if adv > cur:
                j = j1
                budget -= 1
            else:
                break
        if budget <= 0:
            return _diameter_brute(v)
        for a, b in ((i, j), ((i + 1) % n, j), (i, (j + 1) % n)):
            dd = float(np.hypot(*(v[a] - v[b])))
            if dd > best:
                best = dd
                best_pair = (v[a].copy(), v[b].copy())
    return best, best_pair[0], best_pair[1]


def _diameter_brute(v: np.ndarray):
    diff = v[:, None, :] - v[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    i, j = np.unravel_index(np.argmax(dist), dist.shape)
    return float(dist[i, j]), v[i].copy(), v[j].copy()


def min_width(poly: ConvexPolygon):
    """Minimal width: min over edges of the farthest vertex distance.

    Returns (width, outward unit normal of the attaining edge); ties go to
    the smallest edge index.
    """
    v = poly.vertices
    n = len(v)
    if n <= 8:
        return min_width_brute(poly)
    ns = poly.edge_normals
    cs = poly.edge_offsets
    # farthest vertex from edge i advances monotonically with i
    j = int(np.argmax(cs[0] - v @ ns[0]))
    best_w = np.inf
    best_i = 0
    budget = 4 * n
    for i in range(n):
        ni, ci = ns[i], cs[i]
        while budget > 0:
            j1 = (j + 1) % n
            if -float(ni @ v[j1]) > -float(ni @ v[j]):
                j = j1
                budget -= 1
            else:
                break
        if budget <= 0:
            return min_width_brute(poly)
        w = ci - float(ni @ v[j])
        if w < best_w:
            best_w = w
            best_i = i
    return float(best_w), ns[best_i].copy()


def min_width_brute(poly: ConvexPolygon):
    """O(n^2) minimax oracle: min over edges, max over vertices."""
    v = poly.vertices
    ns, cs = poly.edge_normals, poly.edge_offsets
    depths = cs[:, None] - ns @ v.T
    widths = depths.max(axis=1)
    i = int(np.argmin(widths))
    return float(widths[i]), ns[i].copy()


def inradius(poly: ConvexPolygon):
    """Chebyshev center: maximize t s.t. n_i . x <= c_i - t; returns (r, center).

    The LP solution is polished by re-solving the active constraint set
    exactly, so the result is accurate to machine precision in regular cases.
    """
    ns, cs = poly.edge_normals, poly.edge_offsets
    m = len(cs)
    A_ub = np.column_stack((ns, np.ones(m)))
    res = linprog(np.array([0.0, 0.0, -1.0]), A_ub=A_ub, b_ub=cs,
                  bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs")
    if not res.success:
        raise DegenerateInput(f"inradius LP failed: {res.message}")
    x, t = res.x[:2], res.x[2]
    scale = max(1.0, float(np.max(np.abs(poly.vertices))))
    polished = _polish_chebyshev(ns, cs, x, t, scale)
    if polished is not None:
        x, t = polished
    return float(t), np.asarray(x, dtype=float)


def _polish_chebyshev(ns, cs, x, t, scale):
    resid = cs - ns @ x - t
    cand = [int(i) for i in np.argsort(resid)[:4] if resid[i] < 1e-6 * scale]
    best = None
    for combo in list(itertools.combinations(cand, 3)) + list(itertools.combinations(cand, 2)):
        if len(combo) == 3:
            M = np.column_stack((ns[list(combo)], np.ones(3)))
            try:
                sol = np.linalg.solve(M, cs[list(combo)])
            except np.linalg.LinAlgError:
                continue
            xx, tt = sol[:2], sol[2]
        else:
            i, j = combo
            cross = ns[i, 0] * ns[j, 1] - ns[i, 1] * ns[j, 0]
            if abs(cross) > 1e-9 or float(ns[i] @ ns[j]) > 0.0:
                continue  # only an antiparallel pair pins t by itself
            tt = (cs[i] + cs[j]) / 2.0
            xx = x + (cs[i] - tt - float(ns[i] @ x)) * ns[i]
        if tt < t - 1e-9 * scale:
            continue
        if np.all(ns @ xx + tt <= cs + 1e-11 * scale):
            if best is None or tt > best[1]:
                best = (xx, tt)
    return best


def circumradius(poly: ConvexPolygon):
    """Minimal enclosing circle of the vertices; returns (R, center)."""
    pts = [tuple(p) for p in poly.vertices.tolist()]
    rnd = random.Random(0x5EED)
    rnd.shuffle(pts)
    c = None
    for i, p in enumerate(pts):
        if c is None or not _in_circle(c, p):
            c = _mec_with_one(pts[: i + 1], p)
    return float(c[2]), np.array([c[0], c[1]])


def _in_circle(c, p, slack=1e-12):
    return np.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1 + slack) + 1e-300


def _mec_with_one(pts, p):
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if not _in_circle(c, q):
            if c[2] == 0.0:
                c = _circle_two(p, q)
            else:
                c = _mec_with_two(pts[:i], p, q)
    return c


def _mec_with_two(pts, p, q):
    c = _circle_two(p, q)
    for s in pts:
        if not _in_circle(c, s):
            c = _circle_three(p, q, s)
    return c


def _circle_two(p, q):
    cx, cy = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
    return (cx, cy, np.hypot(p[0] - cx, p[1] - cy))


def _circle_three(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        # collinear; fall back to the widest pair
        pairs = [(a, b), (a, c), (b, c)]
        return max((_circle_two(p, q) for p, q in pairs), key=lambda t: t[2])
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    return (ux, uy, np.hypot(ax - ux, ay - uy))


def circumradius_brute(poly: ConvexPolygon):
    """O(n^3) oracle over all vertex pairs and triples."""
    pts = [tuple(p) for p in poly.vertices.tolist()]
    best = None
    for p, q in itertools.combinations(pts, 2):
        c = _circle_two(p, q)
        if all(_in_circle(c, s) for s in pts):
            if best is None or c[2] < best[2]:
                best = c
    for p, q, s in itertools.combinations(pts, 3):
        c = _circle_three(p, q, s)
        if all(_in_circle(c, t_) for t_ in pts):
            if best is None or c[2] < best[2]:
                best = c
    return float(best[2]), np.array([best[0], best[1]])


def measure(poly: ConvexPolygon) -> Functionals:
    """All six functionals of a polygon (Cheeger fields left unset)."""
    d, _, _ = diameter(poly)
    w, _ = min_width(poly)
    r, _ = inradius(poly)
    R, _ = circumradius(poly)
    return Functionals(area(poly), perimeter(poly), r, R, d, w)


def measure_with_cheeger(poly: ConvexPolygon) -> Functionals:
    """All six functionals of a polygon and its Cheeger constant."""
    f = measure(poly)
    res = cheeger_constant(poly, with_set=False)
    return f.with_cheeger(res.h, res.t_star)
