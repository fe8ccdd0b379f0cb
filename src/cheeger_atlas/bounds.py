"""Every sharp bound on the Cheeger constant, as a queryable registry.

Each inequality gets a symbolic id, a direction (lower/upper bound on h), an
applicability predicate on the six functionals, and an evaluator.  The
registry is evaluated on columns: ``evaluate_all(*records)`` gathers each
functional of all records into one numpy array, and every predicate and
value is computed once on those arrays.  The areas of the extremal bodies
(slice, smoothed nonagon, two-cup) come from their closed forms in
``shapes``: psi, chi, phi and g1..g4 are such areas, and the two-cup
bounds the h of a two-cup.  The four implicit bounds are the crossings
g(t) = pi t^2 of g1..g4, solved for a column in one ``smallest_crossing``
call over the 4n elements stacked from the four families (g1 through psi,
g2..g4 through one slice_area call per step), each bound reading its own
quarter; a diagram curve (``bound_value``) solves only its own family.
Triangle-valued bounds match the column's subequilateral triangles in one
``shapes.solve_param`` call and use the triangle identity
h = 1/r + sqrt(pi/A).
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import shapes
from .cheeger import ImplicitRootProblem, _bracketed_root, cheeger_constant, smallest_crossing
from .errors import DomainError
from .functionals import EXPONENT, Functionals
from .shapes import (Resolution, SmoothedNonagon, nonagon_area, slice_area, triangle_values,
                     two_cup_area)

SQRT3 = math.sqrt(3.0)
PI = math.pi
_DOMAIN_TOL = 1e-9


def _to_arrays(*vals):
    arrs = [np.asarray(v, dtype=float) for v in vals]
    scalar = all(a.ndim == 0 for a in arrs)
    return arrs, scalar


def _in_domain(out, bad, scalar, message):
    """``out`` as a float, or DomainError, for scalar arguments; for arrays,
    ``out`` with NaN where ``bad`` marks an element outside the domain."""
    if scalar:
        if bad:
            raise DomainError(message)
        return float(out)
    return np.where(bad, np.nan, out)


def psi(d, r):
    """Largest area of a convex body with diameter d and inradius r.

    Two branches split at d = r * dstar(): the smoothed-nonagon branch below,
    the spherical-slice branch above.  Accepts arrays; r = 0 is allowed as
    the degenerate limit (area 0).
    """
    (d, r), scalar = _to_arrays(d, r)
    out = np.where(d <= r * dstar(), nonagon_area(d, r), slice_area(d, 2 * r))
    bad = (r < -0.0) | (d + _DOMAIN_TOL * np.maximum(1.0, d) < 2 * r)
    return _in_domain(out, bad, scalar, "psi needs d >= 2r >= 0")


def chi(omega, R):
    """Largest area of a convex body with minimal width omega and circumradius R."""
    (w, R), scalar = _to_arrays(omega, R)
    bad = (w < -0.0) | (w > 2 * R * (1 + _DOMAIN_TOL) + _DOMAIN_TOL)
    return _in_domain(slice_area(2 * R, w), bad, scalar, "chi needs 0 <= omega <= 2R")


def phi(R, r):
    """Largest area of a convex body with circumradius R and inradius r."""
    (R, r), scalar = _to_arrays(R, r)
    bad = (r < -0.0) | (r > R * (1 + _DOMAIN_TOL) + _DOMAIN_TOL)
    return _in_domain(slice_area(2 * R, 2 * r), bad, scalar, "phi needs 0 <= r <= R")


def arcsinc(x):
    """Inverse of sin(y)/y on [0, pi): the unique y with sinc(y) = x.

    Accepts an array, solved in one root loop, with NaN outside (0, 1].
    The loop starts from the Taylor bracket of the root: sinc falls on
    [0, pi], and 1 - y^2/6 <= sinc y <= 1 - y^2/6 + y^4/120 puts the root
    between sqrt(6(1 - x)) and min(pi, sqrt(10 - sqrt(100 - 120(1 - x))))
    (pi for x < 1/6).  Both ends are read in one call; an end whose value
    rounds to the wrong sign (x within about 1e-5 of 1) falls back to 0
    or pi, where sinc is known.
    """
    (x,), scalar = _to_arrays(x)
    x = _in_domain(x, ~((0.0 < x) & (x <= 1.0)), scalar, "arcsinc is defined on (0, 1]")

    def f(y):
        return np.sin(y) / y - x

    with np.errstate(invalid="ignore"):  # at x = 1 both ends are 0, where sinc is 0/0
        ends = np.stack((np.sqrt(6 * (1 - x)),
                         np.minimum(PI, np.sqrt(10 - np.sqrt(np.maximum(100 - 120 * (1 - x), 0.0))))))
        fa, fb = f(ends)
    a, fa = np.where(fa >= 0.0, ends[0], 0.0), np.where(fa >= 0.0, fa, 1.0 - x)
    b, fb = np.where(fb <= 0.0, ends[1], PI), np.where(fb <= 0.0, fb, -x)
    return _bracketed_root(f, a, fa, b, fb, 1e-14)


@lru_cache(maxsize=1)
def dstar() -> float:
    """Branch-switch constant of psi: the interior root in (2, 2*sqrt(3)).

    Both branches also agree at d = 2r (the ball), so the root bracket
    starts strictly above 2.
    """

    def gap(x):
        return nonagon_area(x, 1.0) - slice_area(x, 2.0)

    lo, hi = 2.05, 2 * SQRT3
    return _bracketed_root(gap, lo, gap(lo), hi, gap(hi), 1e-13)


_D0_CACHE: dict[int, float] = {}


def d0(res: int = 4096) -> float:
    """Diameter/inradius ratio where the (d, h, r) lower-boundary minimizer
    switches from smoothed nonagons to spherical slices.

    Root of (D* - x)/(D* - 2) = 1/h(N_{1,x}) on (2, D*); the left side
    decreases and the right side increases, so the root is bracketed and
    unique.  Solved to a bracket of 1e-6 and memoized per resolution.
    """
    if res in _D0_CACHE:
        return _D0_CACHE[res]
    ds = dstar()

    def q(x):
        poly = shapes.build(SmoothedNonagon(1.0, x), Resolution(res))
        h = cheeger_constant(poly).h
        return (ds - x) / (ds - 2.0) - 1.0 / h

    lo, hi = 2.0 + 1e-9, ds - 1e-9
    _D0_CACHE[res] = _bracketed_root(q, lo, q(lo), hi, q(hi), 1e-6)
    return _D0_CACHE[res]


# family -> (parameter names, the column fields they are, domain message,
# outside-domain test, (x, y, upper) maker: the body at t = 0, (d, r) of
# psi for g1 and (D, W) of the slice for g2..g4, and the domain's end)
_IMPLICIT = {
    "g1": (("d", "r"), ("diameter", "inradius"), "g1 needs d >= 2r",
           lambda d, r: d < 2 * r - _DOMAIN_TOL, lambda d, r: (d, r, r)),
    "g2": (("R", "r"), ("circumradius", "inradius"), "g2 needs R >= r",
           lambda R, r: R < r - _DOMAIN_TOL, lambda R, r: (2 * R, 2 * r, r)),
    "g3": (("d", "w"), ("diameter", "min_width"), "g3 needs d >= omega",
           lambda d, w: d < w - _DOMAIN_TOL, lambda d, w: (d, w, w / 2)),
    "g4": (("w", "R"), ("min_width", "circumradius"), "g4 needs 2R >= omega",
           lambda w, R: 2 * R < w - _DOMAIN_TOL, lambda w, R: (2 * R, w, w / 2)),
}


def _psi_g(d, r):
    """g1(t) = psi(d - 2t, r - t)."""
    return lambda t: psi(d - 2 * t, np.maximum(r - t, 0.0))


def _slice_g(D, W):
    """g(t) = area of the slice of diameter D - 2t and width W - 2t."""
    return lambda t: slice_area(D - 2 * t, np.maximum(W - 2 * t, 0.0))


def implicit_g(family: str, **params) -> ImplicitRootProblem:
    """The four implicit envelope problems g1..g4 from the lower bounds.

    g1(d, r):  psi(d - 2t, r - t)                   on [0, r]
    g2(R, r):  slice_area(2R - 2t, 2r - 2t) = phi   on [0, r]
    g3(d, w):  slice_area(d - 2t, w - 2t)           on [0, w/2]
    g4(w, R):  slice_area(2R - 2t, w - 2t) = chi    on [0, w/2]

    g2..g4 are the areas of the slices with the shrunk functionals.  Array
    parameters (broadcast together) give a column of problems; an element
    outside the family's domain gets a NaN domain end, so its crossing
    comes back NaN instead of raising DomainError.
    """
    if family not in _IMPLICIT:
        raise DomainError(f"unknown implicit family {family!r}")
    names, _, message, outside, body = _IMPLICIT[family]
    p, q = np.broadcast_arrays(*(np.asarray(params[k], dtype=float) for k in names))
    scalar = p.ndim == 0
    if scalar:
        p, q = float(p), float(q)
    x, y, upper = body(p, q)
    g = _psi_g(x, y) if family == "g1" else _slice_g(x, y)
    return ImplicitRootProblem(g, _in_domain(upper, outside(p, q), scalar, message))


def _crossing_h(f, families) -> dict:
    """h = 1/t at the crossings g(t) = pi t^2 of ``families`` (of g1..g4)
    over the column ``f``, by family, NaN where there is none.

    All are solved in one ``smallest_crossing`` call over the column stacked
    from the families: g1, first, through psi on its part, and the slice
    families through one slice_area call on the rest.
    """
    families = sorted(families)
    dims, xs, ys, uppers = [], [], [], []
    for fam in families:
        _, fields, _, outside, body = _IMPLICIT[fam]
        p, q = np.broadcast_arrays(*(getattr(f, k) for k in fields))
        x, y, upper = body(p.ravel(), q.ravel())
        dims.append(p.shape)
        xs.append(x)
        ys.append(y)
        uppers.append(np.where(outside(p, q).ravel(), np.nan, upper))
    k = xs[0].size if families[0] == "g1" else 0
    x, y = np.concatenate(xs), np.concatenate(ys)
    g1, slices = _psi_g(x[:k], y[:k]), _slice_g(x[k:], y[k:])
    t = smallest_crossing(ImplicitRootProblem(
        lambda t: np.concatenate((g1(t[..., :k]), slices(t[..., k:])), axis=-1), np.concatenate(uppers)))
    cuts = np.cumsum([a.size for a in xs])[:-1]
    return {fam: 1.0 / part.reshape(dim) for fam, part, dim in zip(families, np.split(t, cuts), dims)}


def _triangle_h_from_wd(w, d):
    """h of the subequilateral triangles with widths w and diameters d (w <= sqrt(3)d/2)."""
    b2 = 2 * d * d - 2 * d * np.sqrt(np.maximum(d * d - w * w, 0.0))
    height = np.sqrt(np.maximum(d * d - b2 / 4, 0.0))
    return triangle_values(np.sqrt(b2), height)["h"]


def _triangle_h_matched(fixed_id: str, fixed_val, target_id: str, target_val) -> np.ndarray:
    """h of the subequilateral triangles matching a column of (fixed, target)
    values, in one ``solve_param`` call; NaN where no triangle matches."""
    specs = shapes.solve_param("subequilateral_triangle", (target_id, np.atleast_1d(target_val)),
                               (fixed_id, fixed_val))
    base, height = (np.array([np.nan if s is None else getattr(s, k) for s in specs])
                    for k in ("base", "height"))
    return triangle_values(base, height)["h"]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundDef:
    id: str
    direction: str  # "lower" or "upper" bound on h
    condition: str  # human-readable applicability predicate ("" = always)
    formula_id: str
    extremal: str

    def __post_init__(self):
        assert self.direction in ("lower", "upper")


@dataclass(frozen=True)
class BoundResult:
    """One evaluated inequality against one Functionals record."""

    id: str
    direction: str
    value: float | None
    status: str  # "ok" | "not-applicable" | "no-root"
    slack: float | None  # h - value (lower) or value - h (upper), when known

    @property
    def applicable(self) -> bool:
        return self.status != "not-applicable"


# the six functionals of a column of records, one array each in the order of
# EXPONENT, and the h of its g1..g4 crossings by family once evaluate_all has
# solved them
_Column = namedtuple("_Column", "area perimeter inradius circumradius diameter min_width crossings",
                     defaults=(None,))
_FUNCTIONALS = _Column._fields[:6]


def _implicit_h(f: _Column, family: str) -> np.ndarray:
    """h of the ``family`` crossings over the column ``f``."""
    return (f.crossings or _crossing_h(f, [family]))[family]


def _build_registry():
    reg: list[tuple[BoundDef, callable, callable]] = []

    def add(bid, direction, cond_str, formula_id, extremal, pred, value):
        reg.append((BoundDef(bid, direction, cond_str, formula_id, extremal), pred, value))

    always = lambda f: np.ones(f.area.shape, dtype=bool)

    add("HRA_LO", "lower", "", "h-r-area-lower", "stadiums", always,
        lambda f: 1 / f.inradius + PI * f.inradius / f.area)
    add("HRA_UP", "upper", "", "h-r-area-upper", "form-body homothets", always,
        lambda f: 1 / f.inradius + np.sqrt(PI / f.area))
    add("HPA_LO", "lower", "", "h-perim-area-lower", "form-body homothets", always,
        lambda f: (f.perimeter + np.sqrt(4 * PI * f.area)) / (2 * f.area))
    add("HPA_UP", "upper", "", "h-perim-area-upper", "bodies Cheeger of themselves", always,
        lambda f: f.perimeter / f.area)
    add("ONEQ_A", "lower", "", "h-area-only", "balls", always,
        lambda f: 2 * np.sqrt(PI / f.area))
    add("ONEQ_P", "lower", "", "h-perimeter-only", "balls", always,
        lambda f: 4 * PI / f.perimeter)
    add("ONEQ_D", "lower", "", "h-diameter-only", "balls", always,
        lambda f: 4 / f.diameter)
    add("ONEQ_R_LO", "lower", "", "h-circumradius-only", "balls", always,
        lambda f: 2 / f.circumradius)
    add("ONEQ_R_UP2", "upper", "", "h-inradius-only", "balls", always,
        lambda f: 2 / f.inradius)
    add("HRP_LO", "lower", "", "h-r-perim-lower", "stadiums", always,
        lambda f: 1 / f.inradius + PI / (f.perimeter - PI * f.inradius))
    add("HRP_UP", "upper", "", "h-r-perim-upper", "form-body homothets", always,
        lambda f: 1 / f.inradius + np.sqrt(2 * PI / (f.perimeter * f.inradius)))

    add("HDR_UP", "upper", "", "h-d-r-upper", "two-cup bodies", always,
        lambda f: 1 / f.inradius + np.sqrt(PI / two_cup_area(f.inradius, f.diameter / 2)))
    add("HDR_LO_IMPLICIT", "lower", "", "g1-crossing", "slices / smoothed nonagons", always,
        lambda f: _implicit_h(f, "g1"))

    def hdr_lo_exp(f):
        d, r = f.diameter, f.inradius
        return (4 - PI) / (d + 2 * r - np.sqrt((d + 2 * r) ** 2 - 2 * (4 - PI) * d * r))
    add("HDR_LO_EXPLICIT", "lower", "", "h-d-r-lower-explicit", "thinning rectangles", always, hdr_lo_exp)

    add("HRR_UP", "upper", "", "h-R-r-upper", "two-cup bodies", always,
        lambda f: 1 / f.inradius + np.sqrt(PI / two_cup_area(f.inradius, f.circumradius)))
    add("HRR_LO_IMPLICIT", "lower", "", "g2-crossing", "slices", always,
        lambda f: _implicit_h(f, "g2"))

    def hrr_lo_exp(f):
        R, r = f.circumradius, f.inradius
        return (4 - PI) / (2 * (R + r) - np.sqrt(4 * (R + r) ** 2 - 4 * (4 - PI) * R * r))
    add("HRR_LO_EXPLICIT", "lower", "", "h-R-r-lower-explicit", "thinning rectangles", always, hrr_lo_exp)

    add("HDW_LO_IMPLICIT", "lower", "", "g3-crossing", "slices", always,
        lambda f: _implicit_h(f, "g3"))
    add("HDW_UP_TRI", "upper", "omega <= sqrt(3)/2 * d", "h-w-d-upper-triangle",
        "subequilateral triangles",
        lambda f: f.min_width <= SQRT3 / 2 * f.diameter,
        lambda f: _triangle_h_from_wd(f.min_width, f.diameter))

    def hdw_up_yam(f):
        w, d = f.min_width, f.diameter
        ac = np.arccos(np.minimum(1.0, w / d))
        den = PI * w * w - SQRT3 * d * d + 6 * w * w * (np.tan(ac) - ac)
        return SQRT3 / (SQRT3 * w - d) + np.sqrt(2 * PI / den)
    add("HDW_UP_YAM", "upper", "sqrt(3)/2 * d <= omega <= d", "h-w-d-upper-yamanouti",
        "equilateral triangles",
        lambda f: SQRT3 / 2 * f.diameter <= f.min_width,
        hdw_up_yam)

    def hdw_lo_exp(f):
        w, d = f.min_width, f.diameter
        inv = 1 / w + 1 / d
        return inv + np.sqrt(inv * inv - (4 - PI) / (w * d))
    add("HDW_LO_EXPLICIT", "lower", "", "h-w-d-lower-explicit", "thinning rectangles", always, hdw_lo_exp)

    add("HRW_LO_IMPLICIT", "lower", "", "g4-crossing", "slices", always,
        lambda f: _implicit_h(f, "g4"))
    add("HRW_UP_TRI", "upper", "omega <= 3R/2", "h-w-R-upper-triangle",
        "subequilateral triangles",
        lambda f: f.min_width <= 1.5 * f.circumradius,
        lambda f: _triangle_h_matched("R", f.circumradius, "w", f.min_width))
    add("HRW_UP_EXPLICIT", "upper", "", "h-w-R-upper-explicit", "equilateral triangles", always,
        lambda f: 3 / f.min_width + np.sqrt(2 * PI / (SQRT3 * f.circumradius * f.min_width)))

    def hrw_lo_exp(f):
        R, w = f.circumradius, f.min_width
        return (4 - PI) / ((2 * R + w) - np.sqrt((2 * R + w) ** 2 - 2 * (4 - PI) * R * w))
    add("HRW_LO_EXPLICIT", "lower", "", "h-w-R-lower-explicit", "thinning rectangles", always, hrw_lo_exp)

    add("HAW_LO", "lower", "", "h-w-area-lower", "stadiums", always,
        lambda f: 2 / f.min_width + PI * f.min_width / (2 * f.area))
    add("HAW_UP_TRI", "upper", "sqrt(3)*A >= omega^2", "h-w-area-upper-triangle",
        "subequilateral triangles",
        lambda f: SQRT3 * f.area >= f.min_width ** 2 * (1 - 1e-12),
        lambda f: _triangle_h_matched("w", f.min_width, "A", f.area))
    add("HAW_UP1", "upper", "", "h-w-area-upper-1", "equilateral triangles", always,
        lambda f: 2 / f.min_width + f.min_width / (SQRT3 * f.area) + np.sqrt(PI / f.area))
    add("HAW_UP2", "upper", "", "h-w-area-upper-2", "thin subequilateral triangles", always,
        lambda f: 2 / (f.min_width - f.min_width ** 3 / (4 * f.area)) + np.sqrt(PI / f.area))

    add("HWP_LO", "lower", "", "h-w-perim-lower", "stadiums", always,
        lambda f: 2 / f.min_width + 2 * PI / (2 * f.perimeter - PI * f.min_width))
    add("HWP_UP_TRI", "upper", "P >= 2*sqrt(3)*omega", "h-w-perim-upper-triangle",
        "subequilateral triangles",
        lambda f: f.perimeter >= 2 * SQRT3 * f.min_width,
        lambda f: _triangle_h_matched("w", f.min_width, "P", f.perimeter))

    def hrd_up(f):
        R, d = f.circumradius, f.diameter
        root = np.sqrt(np.maximum(4 * R * R - d * d, 0.0))
        return 2 * R * (2 * R + root) / (d * d * root) + np.sqrt(4 * PI * R * R / (d ** 3 * root))
    add("HRD_UP", "upper", "sqrt(3)*R <= d < 2R", "h-R-d-upper", "subequilateral triangles",
        lambda f: f.diameter < 2 * f.circumradius, hrd_up)

    def hwr_lo(f):
        r, w = f.inradius, f.min_width
        inner = PI * np.maximum(1 - 2 * r / w, 0.0) * np.sqrt(np.maximum(4 * r / w - 1, 0.0))
        return 1 / r + np.sqrt(inner) / r
    add("HWR_LO", "lower", "", "h-w-r-lower", "subequilateral triangles", always, hwr_lo)
    add("HWR_UP", "upper", "", "h-w-r-upper", "equilateral triangles", always,
        lambda f: 1 / f.inradius + math.sqrt(PI * SQRT3) / f.min_width)

    add("RHA_UP", "upper", "", "h-R-area-upper", "thinning rectangles", always,
        lambda f: 1 / f.circumradius + 4 * f.circumradius / f.area)
    add("RHA_LO", "lower", "", "h-R-area-lower", "balls", always,
        lambda f: 1 / (2 * f.circumradius) + PI * f.circumradius / (2 * f.area)
        + np.sqrt(PI / f.area))

    add("PHR_UP", "upper", "P > 4R", "h-P-R-upper", "thinning rectangles",
        lambda f: f.perimeter > 4 * f.circumradius,
        lambda f: f.perimeter / (f.circumradius * (f.perimeter - 4 * f.circumradius)))

    def phr_lo(f):
        P, R = f.perimeter, f.circumradius
        x = arcsinc(np.minimum(1.0, 4 * R / P))
        den = P - 4 * R * np.cos(x)
        return 4 * x / den + np.sqrt(8 * PI * x / (P * den))
    add("PHR_LO", "lower", "P > 4R", "h-P-R-lower", "balls",
        lambda f: f.perimeter > 4 * f.circumradius, phr_lo)

    add("PHD_UP1", "upper", "2d < P < 3d", "h-P-d-upper-1", "",
        lambda f: (2 * f.diameter < f.perimeter) & (f.perimeter < 3 * f.diameter),
        lambda f: 4 / (f.perimeter - 2 * f.diameter) + np.sqrt(
            4 * PI / ((f.perimeter - 2 * f.diameter)
                      * np.sqrt(f.perimeter * (4 * f.diameter - f.perimeter)))))
    add("PHD_UP2", "upper", "3d <= P <= pi*d", "h-P-d-upper-2", "",
        lambda f: (3 * f.diameter <= f.perimeter) & (f.perimeter <= PI * f.diameter * (1 + 1e-12)),
        lambda f: 4 / (f.perimeter - 2 * f.diameter) + np.sqrt(
            4 * PI / (SQRT3 * f.diameter * (f.perimeter - 2 * f.diameter))))

    def phd_lo(f):
        P, d = f.perimeter, f.diameter
        y = arcsinc(np.minimum(1.0, 2 * d / P))
        den = P - 2 * d * np.cos(y)
        return 4 * y / den + np.sqrt(8 * PI * y / (P * den))
    add("PHD_LO", "lower", "P > 2d", "h-P-d-lower", "balls",
        lambda f: f.perimeter > 2 * f.diameter, phd_lo)

    add("DHA_UP1", "upper", "", "h-d-area-upper-1", "", always,
        lambda f: 4 / f.diameter + 2 * f.diameter / f.area)
    add("DHA_UP2", "upper", "", "h-d-area-upper-2", "", always,
        lambda f: 2 * f.diameter / f.area + np.sqrt(PI / f.area))
    add("DHA_LO", "lower", "", "h-d-area-lower", "thinning two-cup bodies", always,
        lambda f: f.diameter / f.area + np.sqrt(PI / f.area))

    return reg


_REGISTRY = _build_registry()
BOUND_IDS = tuple(d.id for d, _, _ in _REGISTRY)
_VALUES = {d.id: value for d, _, value in _REGISTRY}


def bound_value(bid: str, **column) -> np.ndarray:
    """Value formula of bound ``bid`` (no applicability test) on functionals
    given by short id (A, P, r, R, d, w), such as ``r=1.0``; unread ones may
    be left out."""
    return _VALUES[bid](_Column(*(np.asarray(column.get(k, np.nan), dtype=float) for k in EXPONENT)))


def evaluate_all(*records: Functionals) -> list[BoundResult]:
    """Evaluate every registered inequality against one or more Functionals records.

    The records form one column: each predicate and each value is computed
    once, on numpy arrays over the records (values only over the records
    the predicate admits).  The result is record-major, ``len(BOUND_IDS)``
    results per record in ``BOUND_IDS`` order.  The column solves mark a
    record they cannot serve with NaN instead of raising, so per-record
    failures (a non-finite value, a missing crossing, an unmatched
    triangle) surface as that record's no-root results and leave the other
    records' values untouched.  When a record carries the Cheeger constant
    each of its results also reports its slack (nonnegative slack = the
    inequality holds).
    """
    n = len(records)
    cols = _Column(*(np.array([getattr(f, k) for f in records], dtype=float)
                     for k in _FUNCTIONALS))
    table = []
    with np.errstate(all="ignore"):
        cols = cols._replace(crossings=_crossing_h(cols, _IMPLICIT))  # g1..g4 in one loop
        for bdef, pred, value_fn in _REGISTRY:
            admitted = pred(cols)
            vals = np.full(n, np.nan)
            if admitted.any():
                sub = cols if admitted.all() else _Column(*(c[admitted] for c in cols[:6]))
                vals[admitted] = value_fn(sub)
            table.append((bdef, admitted, vals))
    out = []
    for i, f in enumerate(records):
        h = f.cheeger
        for bdef, admitted, vals in table:
            if not admitted[i]:
                out.append(BoundResult(bdef.id, bdef.direction, None, "not-applicable", None))
                continue
            val = float(vals[i])
            if not math.isfinite(val):
                out.append(BoundResult(bdef.id, bdef.direction, None, "no-root", None))
                continue
            slack = None
            if h is not None:
                slack = (h - val) if bdef.direction == "lower" else (val - h)
            out.append(BoundResult(bdef.id, bdef.direction, val, "ok", slack))
    return out


def registry_csv(f: Functionals) -> str:
    """CSV export of the registry evaluated at one record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "direction", "condition", "formula-id", "value", "slack"])
    defs = {d.id: d for d, _, _ in _REGISTRY}
    for r in evaluate_all(f):
        d = defs[r.id]
        val = r.status if r.status != "ok" else format(r.value, ".17g")
        slack = "" if r.slack is None else format(r.slack, ".17g")
        writer.writerow([r.id, r.direction, d.condition, d.formula_id, val, slack])
    return buf.getvalue()
