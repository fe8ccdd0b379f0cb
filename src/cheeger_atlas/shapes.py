"""Extremal shape families: construction, closed forms, parameter solving.

Every family builds a counterclockwise polygon whose vertices lie ON the
true boundary (inscribed discretization), centered at the origin with the
diameter along the x-axis where the family has a canonical one.  Arcs are
sampled with chords subtending at most 2*pi/arc_segments.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .cheeger import _bracketed_root
from .errors import InvalidParam, NonMonotone, Unreachable, Unsupported
from .functionals import EXPONENT, Functionals, measure
from .geom import ConvexPolygon, convex_hull

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Resolution:
    """Discretization fineness: chords per full circle equivalent."""

    arc_segments: int = 4096

    def __post_init__(self):
        if self.arc_segments < 16:
            raise InvalidParam("arc_segments must be at least 16")


def _number(name, value) -> float:
    """``value`` as a float; InvalidParam unless it is a finite real number
    (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise InvalidParam(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _positive(name, value) -> float:
    if _number(name, value) <= 0:
        raise InvalidParam(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Ball:
    radius: float

    def __post_init__(self):
        _positive("radius", self.radius)


@dataclass(frozen=True)
class Stadium:
    """Convex hull of two balls of equal radius centered at (+-center_gap/2, 0)."""

    radius: float
    center_gap: float

    def __post_init__(self):
        _positive("radius", self.radius)
        if _number("center_gap", self.center_gap) < 0:
            raise InvalidParam("center_gap must be nonnegative")


@dataclass(frozen=True)
class TwoCup:
    """Convex hull of a ball and two tips (+-tip_dist, 0); tip_dist >= radius."""

    radius: float
    tip_dist: float

    def __post_init__(self):
        _positive("radius", self.radius)
        if _number("tip_dist", self.tip_dist) < self.radius:
            raise InvalidParam("tip_dist must be at least the radius")


@dataclass(frozen=True)
class Slice:
    """Ball of radius diameter/2 cut by a centered strip of halfwidth inradius."""

    inradius: float
    diameter: float

    def __post_init__(self):
        _positive("inradius", self.inradius)
        if _number("diameter", self.diameter) < 2 * self.inradius:
            raise InvalidParam("diameter must be at least twice the inradius")


@dataclass(frozen=True)
class SubequilateralTriangle:
    """Isosceles triangle with base angles above pi/3 (height >= sqrt(3)/2 * base)."""

    base: float
    height: float

    def __post_init__(self):
        _positive("base", self.base)
        if _number("height", self.height) < SQRT3 * self.base / 2 * (1 - 1e-12):
            raise InvalidParam("height must be at least sqrt(3)/2 times the base")


@dataclass(frozen=True)
class Yamanouti:
    """Hull of an equilateral triangle and three vertex-centered arcs.

    arc_radius ranges over (0, side]; below the triangle height the hull
    degenerates to the triangle itself, at arc_radius = side it is the
    Reuleaux triangle.
    """

    side: float
    arc_radius: float

    def __post_init__(self):
        _positive("side", self.side)
        if not 0 < _number("arc_radius", self.arc_radius) <= self.side:
            raise InvalidParam("arc_radius must lie in (0, side]")


@dataclass(frozen=True)
class SmoothedNonagon:
    """Three-fold body of given inradius and diameter: 3 segments + 6 arcs."""

    inradius: float
    diameter: float

    def __post_init__(self):
        _positive("inradius", self.inradius)
        r, d = self.inradius, _number("diameter", self.diameter)
        if not 2 * r < d < 2 * SQRT3 * r:
            raise InvalidParam("diameter must lie in (2r, 2*sqrt(3)*r)")


@dataclass(frozen=True)
class ConstantWidthNonagon:
    """Nine-arc constant width body from concentric incircle/circumcircle.

    Constructible for inner_radius in [width*(1 - 1/sqrt(3)), width/2); the
    lower end is the Reuleaux triangle, the upper end the ball.
    """

    width: float
    inner_radius: float

    def __post_init__(self):
        _positive("width", self.width)
        w, r = self.width, _number("inner_radius", self.inner_radius)
        if not w * (1 - 1 / SQRT3) - 1e-15 * w <= r < w / 2:
            raise InvalidParam("inner_radius must lie in [width*(1-1/sqrt 3), width/2)")


@dataclass(frozen=True)
class Polygon:
    vertices: tuple

    def __post_init__(self):
        for p in self.vertices:
            for c in p:
                _number("a vertex coordinate", c)
        ConvexPolygon(np.asarray(self.vertices, dtype=float))


ShapeSpec = (Ball | Stadium | TwoCup | Slice | SubequilateralTriangle
             | Yamanouti | SmoothedNonagon | ConstantWidthNonagon | Polygon)

_FAMILY_NAMES = {
    Ball: "ball", Stadium: "stadium", TwoCup: "two_cup", Slice: "slice",
    SubequilateralTriangle: "subequilateral_triangle", Yamanouti: "yamanouti",
    SmoothedNonagon: "smoothed_nonagon", ConstantWidthNonagon: "constant_width_nonagon",
    Polygon: "polygon",
}
_FAMILY_BY_NAME = {v: k for k, v in _FAMILY_NAMES.items()}


def spec_to_json(spec: ShapeSpec) -> str:
    params = {f.name: getattr(spec, f.name) for f in fields(spec)}
    if isinstance(spec, Polygon):
        params["vertices"] = [list(p) for p in params["vertices"]]
    return json.dumps({"family": _FAMILY_NAMES[type(spec)], "params": params})


def spec_from_json(text: str) -> ShapeSpec:
    """The spec of {"family": name, "params": {...}}, with the same rule for
    numbers as polygon JSON: every parameter (every vertex coordinate of a
    polygon) must be a finite JSON number, not a boolean.  A bad number, a
    missing or unknown parameter, or an unknown family raises InvalidParam."""
    doc = json.loads(text, parse_int=float)  # a too-large integer reads as inf
    family = doc.get("family") if isinstance(doc, dict) else None
    cls = _FAMILY_BY_NAME.get(family)
    if cls is None:
        raise InvalidParam(f"unknown family {family!r}")
    params, names = doc.get("params"), {f.name for f in fields(cls)}
    if not isinstance(params, dict) or set(params) != names:
        raise InvalidParam(f"{family} takes the parameters {sorted(names)}, got {params!r}")
    if cls is Polygon:
        raw = params["vertices"]
        if not (isinstance(raw, list) and all(isinstance(p, list) and len(p) == 2 for p in raw)):
            raise InvalidParam("'vertices' must be a list of [x, y] pairs")
        params["vertices"] = tuple(tuple(p) for p in raw)
    return cls(**params)


def _arc(center, radius, a0, a1, step):
    """Inscribed arc samples from angle a0 to a1 (CCW), endpoints included."""
    span = a1 - a0
    k = max(1, int(math.ceil(span / step)))
    phis = a0 + span * np.arange(k + 1) / k
    return np.asarray(center) + radius * np.column_stack((np.cos(phis), np.sin(phis)))


def _dedupe(chunks, scale):
    """Join boundary chunks, dropping each point within 1e-12*scale of the
    one before it and a last point that closes onto the first."""
    pts = np.concatenate(chunks)
    gap = np.diff(pts, axis=0)
    pts = pts[np.concatenate(([True], np.hypot(gap[:, 0], gap[:, 1]) > 1e-12 * scale))]
    if np.hypot(*(pts[-1] - pts[0])) <= 1e-12 * scale:
        pts = pts[:-1]
    return pts


def build(spec: ShapeSpec, res: Resolution | int = Resolution()) -> ConvexPolygon:
    """Discretize a shape spec into a strictly convex polygon."""
    m = res.arc_segments if isinstance(res, Resolution) else Resolution(int(res)).arc_segments
    step = 2 * math.pi / m
    if isinstance(spec, Polygon):
        return ConvexPolygon(np.asarray(spec.vertices, dtype=float))
    if isinstance(spec, Ball):
        return ConvexPolygon(_arc((0.0, 0.0), spec.radius, 0.0, 2 * math.pi - 2 * math.pi / m, step))
    if isinstance(spec, Stadium):
        r, half = spec.radius, spec.center_gap / 2.0
        chunks = [_arc((half, 0.0), r, -math.pi / 2, math.pi / 2, step),
                  _arc((-half, 0.0), r, math.pi / 2, 3 * math.pi / 2, step)]
        return ConvexPolygon(_dedupe(chunks, r + half))
    if isinstance(spec, TwoCup):
        r, k = spec.radius, spec.tip_dist
        alpha = math.acos(min(1.0, r / k))
        chunks = [np.array([[k, 0.0]]),
                  _arc((0.0, 0.0), r, alpha, math.pi - alpha, step),
                  np.array([[-k, 0.0]]),
                  _arc((0.0, 0.0), r, math.pi + alpha, 2 * math.pi - alpha, step)]
        return ConvexPolygon(_dedupe(chunks, k))
    if isinstance(spec, Slice):
        r, d = spec.inradius, spec.diameter
        beta = math.asin(min(1.0, 2 * r / d))
        chunks = [_arc((0.0, 0.0), d / 2, -beta, beta, step),
                  _arc((0.0, 0.0), d / 2, math.pi - beta, math.pi + beta, step)]
        return ConvexPolygon(_dedupe(chunks, d / 2))
    if isinstance(spec, SubequilateralTriangle):
        b, height = spec.base, spec.height
        return ConvexPolygon(np.array([[-b / 2, -height / 3], [b / 2, -height / 3], [0.0, 2 * height / 3]]))
    if isinstance(spec, Yamanouti):
        return _build_yamanouti(spec, step)
    if isinstance(spec, SmoothedNonagon):
        return _build_smoothed_nonagon(spec, step)
    if isinstance(spec, ConstantWidthNonagon):
        return _build_cw_nonagon(spec, step)
    raise InvalidParam(f"unknown spec {spec!r}")


def _build_yamanouti(spec: Yamanouti, step: float) -> ConvexPolygon:
    s, rho = spec.side, spec.arc_radius
    v = np.array([[-s / 2, -s / (2 * SQRT3)], [s / 2, -s / (2 * SQRT3)], [0.0, s / SQRT3]])
    chunks = [v]
    for i in range(3):
        center = v[i]
        to_next = v[(i + 1) % 3] - center
        to_prev = v[(i + 2) % 3] - center
        a0 = math.atan2(to_next[1], to_next[0])
        a1 = math.atan2(to_prev[1], to_prev[0])
        if a1 < a0:
            a1 += 2 * math.pi
        # arc endpoints lie exactly on the triangle edges; keep the open arc
        # so collinear points cannot survive into the hull
        pts = _arc(center, rho, a0, a1, step)
        if len(pts) > 2:
            chunks.append(pts[1:-1])
    return convex_hull(np.concatenate(chunks))


def _build_smoothed_nonagon(spec: SmoothedNonagon, step: float) -> ConvexPolygon:
    r, d = spec.inradius, spec.diameter
    dd = d / r  # build at inradius 1, scale at the end
    tau = (3.0 + math.sqrt(dd * dd - 3.0)) / 2.0
    seg = SQRT3 * (tau - 2.0)  # segment half-length; equals sqrt(dd^2 - tau^2)
    eta = np.array([math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6])
    contact = np.column_stack((np.cos(eta), np.sin(eta)))
    tangent = np.column_stack((-np.sin(eta), np.cos(eta)))
    a_pts = contact - seg * tangent
    b_pts = contact + seg * tangent
    m_pts = (1.0 - tau) * contact
    centers = (b_pts + m_pts) / 2.0

    def arc_piece(start, end, center):
        a0 = math.atan2(start[1] - center[1], start[0] - center[0])
        a1 = math.atan2(end[1] - center[1], end[0] - center[0])
        if a1 < a0:
            a1 += 2 * math.pi
        return _arc(center, dd / 2.0, a0, a1, step)

    chunks = []
    for i in range(3):
        j = (i + 2) % 3  # previous index cyclically (i-1)
        chunks.append(np.array([a_pts[i]]))
        chunks.append(np.array([b_pts[i]]))
        chunks.append(arc_piece(b_pts[i], m_pts[j], centers[i]))
        chunks.append(arc_piece(m_pts[j], a_pts[(i + 1) % 3], centers[j]))
    verts = _dedupe(chunks, dd)
    return ConvexPolygon(verts * r)


def _build_cw_nonagon(spec: ConstantWidthNonagon, step: float) -> ConvexPolygon:
    w, r_in = spec.width, spec.inner_radius
    big_r = w - r_in
    theta = np.array([math.pi / 2 + 2 * math.pi * i / 3 for i in range(3)])
    v = big_r * np.column_stack((np.cos(theta), np.sin(theta)))
    u = math.sqrt(max(0.0, w * w - 3 * big_r * big_r)) / 2.0

    def chord_center(i, j):
        mid = (v[i] + v[j]) / 2.0
        mhat = mid / np.hypot(*mid) if np.hypot(*mid) > 0 else np.array([0.0, 0.0])
        return (big_r / 2.0 - u) * mhat

    # half opening angle of the corner's normal cone
    o_prev = chord_center(0, 2)
    delta = math.atan2(*(v[0] - o_prev)[::-1]) - math.pi / 2

    chunks = []
    for i in range(3):
        t0 = theta[i]
        prev_i, next_i = (i + 2) % 3, (i + 1) % 3
        chunks.append(np.array([v[i]]))
        chunks.append(_arc(chord_center(i, prev_i), w / 2, t0 + delta, t0 + math.pi / 3 - delta, step))
        chunks.append(_arc(v[prev_i], w, t0 + math.pi / 3 - delta, t0 + math.pi / 3 + delta, step))
        chunks.append(_arc(chord_center(next_i, prev_i), w / 2,
                           t0 + math.pi / 3 + delta, t0 + 2 * math.pi / 3 - delta, step))
    return ConvexPolygon(_dedupe(chunks, w))


def slice_area(d, w):
    """Area of the spherical slice with diameter d and width w (w <= d).

    Accepts arrays; d <= 0 gives area 0.
    """
    d, w = np.asarray(d, dtype=float), np.asarray(w, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_d = np.where(d <= 0.0, 1.0, d)
        val = (w / 2) * np.sqrt(np.maximum(d * d - w * w, 0.0)) \
            + (d * d / 2) * np.arcsin(np.clip(w / safe_d, -1.0, 1.0))
    out = np.where(d <= 0.0, 0.0, val)
    return float(out) if out.ndim == 0 else out


def nonagon_area(d, r):
    """Area of the smoothed nonagon with diameter d and inradius r
    (2r <= d <= 2*sqrt(3)*r).  Accepts arrays; d <= 0 gives area 0."""
    d, r = np.asarray(d, dtype=float), np.asarray(r, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_d = np.where(d <= 0.0, 1.0, d)
        val = (3 * SQRT3 * r / 2) * (np.sqrt(np.maximum(d * d - 3 * r * r, 0.0)) - r) \
            + (3 * d * d / 2) * (math.pi / 3 - np.arccos(np.clip(SQRT3 * r / safe_d, -1.0, 1.0)))
    out = np.where(d <= 0.0, 0.0, val)
    return float(out) if out.ndim == 0 else out


def two_cup_area(r, k):
    """Area of the two-cup body with inradius r and tip distance k (k >= r).
    Accepts arrays."""
    r, k = np.asarray(r, dtype=float), np.asarray(k, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = r * np.sqrt(np.maximum(4 * k * k - 4 * r * r, 0.0)) \
            + r * r * (math.pi - 2 * np.arccos(np.minimum(1.0, r / k)))
    return float(out) if out.ndim == 0 else out


def closed_form(spec: ShapeSpec) -> Functionals:
    """Exact functionals where the family admits them (ball, stadium,
    two-cup, slice); the first three also carry the exact Cheeger constant."""
    if isinstance(spec, Ball):
        rho = spec.radius
        return Functionals(math.pi * rho * rho, 2 * math.pi * rho, rho, rho,
                           2 * rho, 2 * rho, cheeger=2 / rho, cheeger_t=rho / 2)
    if isinstance(spec, Stadium):
        r, gap = spec.radius, spec.center_gap
        A = math.pi * r * r + 2 * r * gap
        P = 2 * math.pi * r + 2 * gap
        h = P / A  # stadiums are Cheeger sets of themselves
        return Functionals(A, P, r, r + gap / 2, 2 * r + gap, 2 * r,
                           cheeger=h, cheeger_t=1 / h)
    if isinstance(spec, TwoCup):
        r, k = spec.radius, spec.tip_dist
        A = two_cup_area(r, k)
        P = 2 * A / r  # homothetic to its form body
        h = 1 / r + math.sqrt(math.pi / A)
        return Functionals(A, P, r, k, 2 * k, 2 * r, cheeger=h, cheeger_t=1 / h)
    if isinstance(spec, Slice):
        r, d = spec.inradius, spec.diameter
        P = 2 * math.sqrt(max(0.0, d * d - 4 * r * r)) + 2 * d * math.asin(min(1.0, 2 * r / d))
        return Functionals(slice_area(d, 2 * r), P, r, d / 2, d, 2 * r)
    raise Unsupported(f"no closed form for {_FAMILY_NAMES.get(type(spec), '?')}")


def triangle_values(base, height) -> dict:
    """Exact functionals of isosceles triangles by id (A, P, r, R, d, w, h).

    Accepts arrays.  Valid for the subequilateral regime (legs at least as
    long as the base); triangles are form-body homothets, so
    h = 1/r + sqrt(pi/A).
    """
    b, hh = np.asarray(base, dtype=float), np.asarray(height, dtype=float)
    s = np.hypot(hh, b / 2)
    A = b * hh / 2
    r = b * hh / (b + 2 * s)
    return {"A": A, "P": b + 2 * s, "r": r, "R": s * s / (2 * hh), "d": s,
            "w": b * hh / s, "h": 1 / r + np.sqrt(math.pi / A)}


def triangle_functionals(base: float, height: float) -> Functionals:
    """Exact functionals of the isosceles triangle, Cheeger constant included."""
    v = {k: float(x) for k, x in triangle_values(base, height).items()}
    return Functionals(v["A"], v["P"], v["r"], v["R"], v["d"], v["w"],
                       cheeger=v["h"], cheeger_t=1 / v["h"])


# ---------------------------------------------------------------------------
# parameter solving: one dimensionless shape parameter + one scale
# ---------------------------------------------------------------------------

SCAN_POINTS = 65  # points of each family's one scan of its shape parameter
SCAN_RES = 8192  # arc segments of the members measured off a built polygon
_FAR_SIGMA = 64 * 4.0 ** 11  # far end of the scan of an unbounded shape parameter


def _far_scan(lo):
    """Scan from lo to _FAR_SIGMA, geometrically spaced in 1 + sigma - lo."""
    return lo + (np.geomspace(1.0, _FAR_SIGMA - lo + 1.0, SCAN_POINTS) - 1.0)


# family name -> (scan of the shape parameter sigma, unit spec builder)
_SIGMA = {
    "stadium": (_far_scan(0.0), lambda s: Stadium(1.0, s)),
    "two_cup": (_far_scan(1.0), lambda s: TwoCup(1.0, s)),
    "slice": (_far_scan(1.0), lambda s: Slice(1.0, 2.0 * s)),
    "subequilateral_triangle": (_far_scan(SQRT3 / 2), lambda s: SubequilateralTriangle(1.0, s)),
    "yamanouti": (np.linspace(1e-6, 1.0, SCAN_POINTS), lambda s: Yamanouti(1.0, s)),
    "smoothed_nonagon": (np.linspace(2.0 + 1e-9, 2 * SQRT3 - 1e-9, SCAN_POINTS),
                         lambda s: SmoothedNonagon(1.0, s)),
    "constant_width_nonagon": (np.linspace(1 - 1 / SQRT3, 0.5 - 1e-9, SCAN_POINTS),
                               lambda s: ConstantWidthNonagon(1.0, s)),
}

def _scale_spec(spec: ShapeSpec, factor: float) -> ShapeSpec:
    vals = {f.name: getattr(spec, f.name) * factor for f in fields(spec)}
    return type(spec)(**vals)


@lru_cache(maxsize=16384)
def _unit_functionals(family: str, sigma: float) -> Functionals:
    spec = _SIGMA[family][1](sigma)
    try:
        return closed_form(spec)
    except Unsupported:
        return measure(build(spec, Resolution(SCAN_RES)))


def _unit_values(family: str, sigmas) -> dict:
    """Functionals by id of the unit members at shape parameters ``sigmas``,
    as arrays shaped like ``sigmas`` (the triangles in closed form; NaN at
    a NaN shape parameter)."""
    sigmas = np.asarray(sigmas, dtype=float)
    if family == "subequilateral_triangle":
        return triangle_values(1.0, sigmas)
    out = {k: np.full(sigmas.shape, np.nan) for k in EXPONENT}
    for idx, s in np.ndenumerate(sigmas):
        if math.isfinite(s):
            f = _unit_functionals(family, float(s))
            for k, col in out.items():
                col[idx] = f.value(k)
    return out


def _scaled(u, tid, fid, fv):
    """Target functional ``tid`` of the unit members ``u`` scaled so that
    functional ``fid`` is ``fv``."""
    return u[tid] * ((fv / u[fid]) ** (1.0 / EXPONENT[fid])) ** EXPONENT[tid]


@lru_cache(maxsize=None)
def _scan(family: str, tid: str, fid: str):
    """The family's one scan for a (target, fixed) pair of ids: the unit
    members' functionals on the scan grid (read-only) and whether the target
    functional of the members scaled to a unit fixed one is monotone there."""
    u = _unit_values(family, _SIGMA[family][0])
    for col in u.values():
        col.setflags(write=False)
    unit = _scaled(u, tid, fid, 1.0)
    tol = 1e-12 * float(np.max(np.abs(unit)))
    return u, not (np.any(np.diff(unit) > tol) and np.any(np.diff(unit) < -tol))


def solve_param(family, target, fixed):
    """Find the family member matching ``target`` once ``fixed`` is imposed.

    ``target`` and ``fixed`` are (functional id, value) pairs with ids from
    {A, P, r, R, d, w}.  The family is reduced to one dimensionless shape
    parameter sigma; for each trial value the ``fixed`` functional pins the
    scale and the target functional is driven to its value by the bracketed
    root finder, to 1e-13 in the shape parameter.

    Values may be arrays (broadcast together): a column of matches.  The
    scale cancels in the target functional of the members scaled to a unit
    fixed functional, which depends on sigma alone, so one fixed scan of
    sigma (SCAN_POINTS points: linear over a bounded range, geometric up to
    sigma = 64 * 4**11 for an unbounded one) brackets every element, and
    one vectorised root loop then solves all elements.  The scan and its
    monotonicity test depend only on (family, target id, fixed id), so
    each is computed once per triple and cached for the process
    (``_scan``).  A float call returns the spec; it raises InvalidParam
    for a value that is not positive, NonMonotone when the scan is not
    monotone, and Unreachable when the target lies outside the scanned
    range.  A column call returns a list of specs, with None for each
    element that one of those would have failed, or whose root solve did
    not converge; the other elements are unaffected.
    """
    fam = family if isinstance(family, str) else _FAMILY_NAMES[family]
    if fam not in _SIGMA:
        raise InvalidParam(f"family {fam!r} has no parameter solver")
    tid, tval = target
    fid, fval = fixed
    scalar = np.ndim(tval) == 0 and np.ndim(fval) == 0
    tval, fval = (np.array(v, dtype=float).reshape(-1)
                  for v in np.broadcast_arrays(np.asarray(tval), np.asarray(fval)))
    bad = (fval <= 0) | (tval <= 0)
    if scalar and bad[0]:
        raise InvalidParam("target and fixed values must be positive")
    grid, make = _SIGMA[fam]
    u, monotone = _scan(fam, tid, fid)
    if scalar and not monotone:
        raise NonMonotone(f"{tid} is not monotone in the {fam} shape parameter")
    k = np.flatnonzero(~bad & monotone)  # the elements the scan can bracket
    t = tval[k]
    row = _scaled(u, tid, fid, fval[k, None])  # one row per element
    vmin, vmax = row.min(axis=1), row.max(axis=1)
    inside = (vmin - 1e-12 * vmax <= t) & (t <= vmax + 1e-12 * vmax)
    if scalar and not inside[0]:
        raise Unreachable(f"target {tid}={t[0]} outside scanned range [{vmin[0]}, {vmax[0]}]")
    k, vals = k[inside], (row - t[:, None])[inside]
    # the first sign change; a target within the scan's relative slack
    # of an end has none and is taken at the nearest grid point
    change = vals[:, :-1] * vals[:, 1:] <= 0.0
    has = change.any(axis=1)
    i = np.where(has, change.argmax(axis=1), np.abs(vals).argmin(axis=1))
    j = np.where(has, i + 1, i)
    a, fa, b, fb, xtol = (np.full(tval.shape, np.nan) for _ in range(5))
    a[k], b[k] = grid[i], grid[j]
    fa[k], fb[k] = (np.where(has, vals[np.arange(k.size), x], 0.0) for x in (i, j))
    xtol[k] = 1e-13 * np.maximum(1.0, np.abs(b[k]))

    fv, tv = (fval[0], tval[0]) if scalar else (fval, tval)
    sigma = _bracketed_root(lambda s: _scaled(_unit_values(fam, s), tid, fid, fv) - tv,
                            *(v[0] if scalar else v for v in (a, fa, b, fb, xtol)))
    sigma = np.atleast_1d(sigma)
    specs = [None] * sigma.size
    solved = np.flatnonzero(np.isfinite(sigma))
    scale = (fval[solved] / _unit_values(fam, sigma[solved])[fid]) ** (1.0 / EXPONENT[fid])
    for k, c in zip(solved, scale):
        specs[k] = _scale_spec(make(float(sigma[k])), float(c))
    return specs[0] if scalar else specs
