"""Extremal shape families: construction, closed forms, the subequilateral
triangle match.

Every family builds a counterclockwise polygon whose vertices lie ON the
true boundary (inscribed discretization), centered at the origin with the
diameter along the x-axis where the family has a canonical one.  Arcs are
sampled with chords subtending at most 2*pi/arc_segments.  Each family
lays its boundary out in order and takes no hull: the Yamanouti set keeps
the arc samples that bound it by two turn tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, Unreachable, Unsupported
from .functionals import EXPONENT, FIELDS, Functionals
from .geom import ConvexPolygon

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Resolution:
    """Discretization fineness: chords per full circle equivalent."""

    arc_segments: int = 4096

    def __post_init__(self):
        if not self.arc_segments >= 16:
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


ShapeSpec = (Ball | Stadium | TwoCup | Slice | SubequilateralTriangle
             | Yamanouti | SmoothedNonagon | ConstantWidthNonagon)


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


def _turn(a, b, c):
    """(b - a) x (c - a), row by row: positive where a, b, c turn strictly left."""
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])


def _build_yamanouti(spec: Yamanouti, step: float) -> ConvexPolygon:
    """The hull of the triangle and its arcs, built in order: each triangle
    vertex a, then the open arc about the opposite vertex, from a to the
    next vertex b, where it bounds the hull.  Those are the arc samples
    beyond the edge ab that turn strictly left both from a to the next such
    sample (or b) and from the one before (or a) to b: along a circle the
    turn seen from a point outside it changes sign once, at its tangent, so
    the two tests keep the samples between the tangents from a and b."""
    s, rho = spec.side, spec.arc_radius
    v = np.array([[-s / 2, -s / (2 * SQRT3)], [s / 2, -s / (2 * SQRT3)], [0.0, s / SQRT3]])
    chunks = []
    for i in range(3):
        a, b, center = v[i], v[(i + 1) % 3], v[(i + 2) % 3]
        to_a, to_b = a - center, b - center
        a0 = math.atan2(to_a[1], to_a[0])
        a1 = math.atan2(to_b[1], to_b[0])
        if a1 < a0:
            a1 += 2 * math.pi
        # the arc's end points lie on the triangle's edges
        pts = _arc(center, rho, a0, a1, step)[1:-1]
        pts = pts[_turn(a, b, pts) < 0.0]
        after, before = np.concatenate((pts, [b]))[1:], np.concatenate(([a], pts))[:-1]
        chunks += [a[None], pts[(_turn(a, pts, after) > 0.0) & (_turn(before, pts, b) > 0.0)]]
    return ConvexPolygon(np.concatenate(chunks))


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
                           2 * rho, 2 * rho, cheeger=2 / rho)
    if isinstance(spec, Stadium):
        r, gap = spec.radius, spec.center_gap
        A = math.pi * r * r + 2 * r * gap
        P = 2 * math.pi * r + 2 * gap
        h = P / A  # stadiums are Cheeger sets of themselves
        return Functionals(A, P, r, r + gap / 2, 2 * r + gap, 2 * r, cheeger=h)
    if isinstance(spec, TwoCup):
        r, k = spec.radius, spec.tip_dist
        A = two_cup_area(r, k)
        P = 2 * A / r  # homothetic to its form body
        h = 1 / r + math.sqrt(math.pi / A)
        return Functionals(A, P, r, k, 2 * k, 2 * r, cheeger=h)
    if isinstance(spec, Slice):
        r, d = spec.inradius, spec.diameter
        P = 2 * math.sqrt(max(0.0, d * d - 4 * r * r)) + 2 * d * math.asin(min(1.0, 2 * r / d))
        return Functionals(slice_area(d, 2 * r), P, r, d / 2, d, 2 * r)
    raise Unsupported(f"no closed form for {type(spec).__name__}")


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


def _u_from_sin(rho):
    """u = sin(theta/2) where sin(theta) = rho, which is w / d and w^2 / (2A)."""
    return np.sin(0.5 * np.arcsin(rho))


def _u_from_wR(q):
    """The root u in (0, 1/2] of u^3 - u + q = 0, where q = w / (4R).  It lies
    between the outer roots t0 > 0 > t2, which the trigonometric formula
    gives to full precision, and is -q / (t0 t2) by Vieta: the formula's own
    middle root loses digits at a small q."""
    phi = np.arccos(-1.5 * SQRT3 * q) / 3
    return -q / ((2 / SQRT3) ** 2 * np.cos(phi) * np.cos(phi - 4 * math.pi / 3))


def _u_from_wP(rho):
    """u = x1 / k, where x1 is the positive middle root of
    x^3 - k x^2 + x + k = 0 and k = P / w = 1 / rho.  The largest root
    x0 = k y0 comes from the trigonometric formula; the other two have
    x1 + x2 = (1 + k/x0) / x0 and x1 x2 = -k/x0, and x1 is the positive root
    of that quadratic.  Written in rho, so that no power of k overflows."""
    s = np.sqrt(1 - 3 * rho * rho)
    y0 = (1 + 2 * s * np.cos(np.arccos(np.clip((1 - 18 * rho * rho) / s ** 3, -1.0, 1.0)) / 3)) / 3
    x_sum = rho * (1 + 1 / y0) / y0
    return 0.5 * rho * (x_sum + np.sqrt(x_sum * x_sum + 4 / y0))


# X -> (the ratio rho of w and X that fixes a triangle's shape, rising to the
# equilateral end, its value there, u from rho)
_SUBEQ_BY = {
    "d": (lambda w, d: w / d, SQRT3 / 2, _u_from_sin),
    "A": (lambda w, A: w * w / (2 * A), SQRT3 / 2, _u_from_sin),
    "R": (lambda w, R: w / (4 * R), 3 / 8, _u_from_wR),
    "P": (lambda w, P: w / P, 1 / (2 * SQRT3), _u_from_wP),
}


def subeq_from(pair, fixed, target):
    """Base and height of the subequilateral triangles matching values of a
    pair of functional ids, ``pair = (fixed id, target id)``: the width w
    and one of d, A, R, P, in either order.

    The one inversion of the family, in closed form.  With u = sin(theta/2),
    theta <= pi/3 the apex angle, the triangle of leg 1 has
    w = 2u sqrt(1 - u^2), A = u sqrt(1 - u^2), P = 2 + 2u and
    R = 1 / (2 sqrt(1 - u^2)), so a ratio of w and X gives u (``_SUBEQ_BY``)
    and the fixed value the scale.  Values are arrays (broadcast together);
    NaN marks an element with no match, or with a value that is not
    positive.  A ratio within 1e-12 (relative) past the equilateral end is
    taken at that end.
    """
    fid, tid = pair
    key = tid if fid == "w" else fid
    if "w" not in pair or key not in _SUBEQ_BY:
        raise InvalidParam(f"subequilateral triangles are matched by w and one of "
                           f"{', '.join(_SUBEQ_BY)}, not by {fid} and {tid}")
    fval, tval = np.broadcast_arrays(np.asarray(fixed, dtype=float), np.asarray(target, dtype=float))
    w, x = (fval, tval) if fid == "w" else (tval, fval)
    ratio, end, to_u = _SUBEQ_BY[key]
    with np.errstate(all="ignore"):
        rho = ratio(w, x)
        match = (w > 0) & (x > 0) & (rho <= end * (1 + 1e-12))
        u = np.where(match, to_u(np.minimum(rho, end)), np.nan)
        c = np.sqrt(1 - u * u)
        unit = {"w": 2 * u * c, "d": 1.0, "A": u * c, "R": 0.5 / c, "P": 2 + 2 * u}[fid]
        leg = (fval / unit) ** (1.0 / EXPONENT[fid])
        return 2 * u * leg, c * leg


def triangle_functionals(base: float, height: float) -> Functionals:
    """Exact functionals of the isosceles triangle, Cheeger constant included."""
    return Functionals(**{FIELDS[k]: float(x) for k, x in triangle_values(base, height).items()})


def solve_param(target, fixed):
    """The subequilateral triangle matching ``target`` once ``fixed`` is
    imposed: the checked entry to ``subeq_from``.

    ``target`` and ``fixed`` are (functional id, value) pairs, the width w
    and one of d, A, R, P, in either order.  A float call returns the
    ``SubequilateralTriangle``; it raises InvalidParam for a value that is
    not a positive finite number, and Unreachable when no triangle matches
    (or its base or height under- or overflows).  A column call, with
    either value an array, returns ``subeq_from``'s (base, height) arrays,
    NaN where a float call would have raised.
    """
    (tid, tval), (fid, fval) = target, fixed
    scalar = np.ndim(tval) == 0 and np.ndim(fval) == 0
    if scalar:
        tval, fval = _positive(tid, tval), _positive(fid, fval)
    base, height = subeq_from((fid, tid), fval, tval)
    found = (base > 0) & np.isfinite(base) & np.isfinite(height)
    if not scalar:
        return np.where(found, base, np.nan), np.where(found, height, np.nan)
    if not found:
        raise Unreachable(f"no subequilateral triangle has {tid}={tval} and {fid}={fval}")
    return SubequilateralTriangle(float(base), float(height))
