"""Every sharp bound on the Cheeger constant, as a queryable registry.

``_REGISTRY`` holds one ``Bound`` row per inequality: id, direction (lower
or upper bound on h), condition, formula id, extremal bodies, predicate and
value formula; the last two read a column of records by the paper's short
ids (f.A, f.P, f.r, f.R, f.d, f.w), as ``bound_value`` takes them.
``evaluate_all(*records)`` evaluates the registry on a column of records,
each functional one numpy array, and answers in arrays of ids by records
(``BoundTable``; its ``results()`` are ``BoundResult`` objects).  psi,
g1..g4 and the two-cup bounds use the areas of the extremal bodies
(slice, smoothed nonagon, two-cup) in closed form, from ``shapes``.  A
column's root solves run once for all its bounds, in one root loop
(``_solve``): the crossings g(t) = pi t^2 of g1..g4 in one
``smallest_crossing`` call, with the arcsinc of PHR_LO and PHD_LO riding
in its loop; a diagram curve (``bound_value``) solves only its own.
Triangle bounds match the column's subequilateral triangles in closed form
(``shapes.subeq_from``; for w and A, R or P through its checked column
entry ``shapes.solve_param``) and use h = 1/r + sqrt(pi/A).
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import shapes
from .cheeger import ImplicitRootProblem, _bracketed_root, cheeger_constant, smallest_crossing
from .functionals import EXPONENT, FIELDS, Functionals
from .shapes import (Resolution, SmoothedNonagon, nonagon_area, slice_area, triangle_values,
                     two_cup_area)

SQRT3 = math.sqrt(3.0)
PI = math.pi
_DOMAIN_TOL = 1e-9


def psi(d, r):
    """Largest area of a convex body with diameter d and inradius r.

    Two branches split at d = r * dstar(): the smoothed-nonagon branch below,
    the spherical-slice branch above.  Elementwise, in the broadcast shape
    of d and r (0-d for floats), with NaN outside d >= 2r >= 0; r = 0 is
    allowed as the degenerate limit (area 0).
    """
    d, r = np.asarray(d, dtype=float), np.asarray(r, dtype=float)
    return _psi(d, r, slice_area(d, 2 * r))


def _psi(d, r, slices):
    """psi(d, r) given ``slices``, the areas of the slices of diameter d and width 2r."""
    out = np.where(d <= r * dstar(), nonagon_area(d, r), slices)
    return np.where((r < -0.0) | (d + _DOMAIN_TOL * np.maximum(1.0, d) < 2 * r), np.nan, out)


def arcsinc(x):
    """Inverse of sin(y)/y on [0, pi): the unique y with sinc(y) = x.

    Elementwise, in the shape of x (0-d for a float), solved in one root
    loop from ``_arcsinc_bracket``, with NaN outside (0, 1].
    """
    return _bracketed_root(*_arcsinc_bracket(x))


def _arcsinc_bracket(x):
    """The root column of arcsinc(x), as ``_bracketed_root`` takes it:
    (f, a, fa, b, fb, xtol) with f(y) = sinc y - x, NaN ends outside (0, 1].

    The bracket is the Taylor bracket of the root: sinc falls on [0, pi],
    and 1 - y^2/6 <= sinc y <= 1 - y^2/6 + y^4/120 puts the root between
    sqrt(6(1 - x)) and min(pi, sqrt(10 - sqrt(100 - 120(1 - x)))) (pi for
    x < 1/6).  Both ends are read in one call; an end whose value rounds to
    the wrong sign (x within about 1e-5 of 1) falls back to 0 or pi, where
    sinc is known.
    """
    x = np.asarray(x, dtype=float)
    x = np.where((0.0 < x) & (x <= 1.0), x, np.nan)

    def f(y):
        return np.sin(y) / y - x

    with np.errstate(invalid="ignore"):  # at x = 1 both ends are 0, where sinc is 0/0
        ends = np.stack((np.sqrt(6 * (1 - x)),
                         np.minimum(PI, np.sqrt(10 - np.sqrt(np.maximum(100 - 120 * (1 - x), 0.0))))))
        fa, fb = f(ends)
    a, fa = np.where(fa >= 0.0, ends[0], 0.0), np.where(fa >= 0.0, fa, 1.0 - x)
    b, fb = np.where(fb <= 0.0, ends[1], PI), np.where(fb <= 0.0, fb, -x)
    return f, a, fa, b, fb, 1e-14


@lru_cache(maxsize=1)
def dstar() -> float:
    """Branch-switch constant of psi: the interior root in (2, 2*sqrt(3)).

    Both branches also agree at d = 2r (the ball), so the root bracket
    starts strictly above 2.
    """

    def gap(x):
        return nonagon_area(x, 1.0) - slice_area(x, 2.0)

    lo, hi = 2.05, 2 * SQRT3
    return float(_bracketed_root(gap, lo, gap(lo), hi, gap(hi), 1e-13))


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
        poly = shapes.build(SmoothedNonagon(1.0, float(x)), Resolution(res))
        h = cheeger_constant(poly).h
        return (ds - x) / (ds - 2.0) - 1.0 / h

    lo, hi = 2.0 + 1e-9, ds - 1e-9
    _D0_CACHE[res] = float(_bracketed_root(q, lo, q(lo), hi, q(hi), 1e-6))
    return _D0_CACHE[res]


# PHR_LO and PHD_LO by name: c, where x = arcsinc(c / P) and h >= 4x / den
# + sqrt(8 pi x / (P den)), den = P - c cos x
_ARCSINC = {"PHR": lambda f: 4 * f.R, "PHD": lambda f: 2 * f.d}

# family -> (the column fields of its parameters (p, q), outside-domain test,
# (D, W, upper) maker: the diameter and width of the slice at t = 0, for g1
# the slice branch of psi(D, W/2), and the domain's end)
_IMPLICIT = {
    "g1": (("d", "r"), lambda d, r: d < 2 * r - _DOMAIN_TOL, lambda d, r: (d, 2 * r, r)),
    "g2": (("R", "r"), lambda R, r: R < r - _DOMAIN_TOL, lambda R, r: (2 * R, 2 * r, r)),
    "g3": (("d", "w"), lambda d, w: d < w - _DOMAIN_TOL, lambda d, w: (d, w, w / 2)),
    "g4": (("w", "R"), lambda w, R: 2 * R < w - _DOMAIN_TOL, lambda w, R: (2 * R, w, w / 2)),
}


def _solve(f, names) -> dict:
    """The root solves ``names`` over the column ``f`` by name, NaN where
    there is no root: h = 1/t at the crossings g(t) = pi t^2 of g1..g4 in
    one ``smallest_crossing`` call over the column stacked from the
    families, g1 first, with the arcsinc of the ``_ARCSINC`` columns riding
    in its root loop (alone, without a crossing).  At t the slices have
    diameter D - 2t and width W - 2t, all areas in one slice_area call;
    g2..g4 are those areas, g1(t) = psi(D - 2t, (W - 2t)/2)."""
    sincs = [k for k in names if k in _ARCSINC]
    x = np.minimum(1.0, np.stack([_ARCSINC[k](f) / f.P for k in sincs])) if sincs else None
    families = sorted(k for k in names if k in _IMPLICIT)
    if not families:
        return dict(zip(sincs, arcsinc(x)))
    dims, diameters, widths, uppers = [], [], [], []
    for fam in families:
        fields, outside, body = _IMPLICIT[fam]
        p, q = np.broadcast_arrays(*(getattr(f, k) for k in fields))
        D, W, upper = body(p.ravel(), q.ravel())
        dims.append(p.shape)
        diameters.append(D)
        widths.append(W)
        uppers.append(np.where(outside(p, q).ravel(), np.nan, upper))
    k = diameters[0].size if families[0] == "g1" else 0
    D, W = np.concatenate(diameters), np.concatenate(widths)

    def g(t):
        dia, wid = D - 2 * t, np.maximum(W - 2 * t, 0.0)
        slices = slice_area(dia, wid)
        g1 = _psi(dia[..., :k], 0.5 * wid[..., :k], slices[..., :k])
        return np.concatenate((g1, slices[..., k:]), axis=-1)
    problem = ImplicitRootProblem(g, np.concatenate(uppers))
    t, *roots = smallest_crossing(problem, *([_arcsinc_bracket(x)] if sincs else []))
    cuts = np.cumsum([a.size for a in diameters])[:-1]
    return dict(zip(sincs, *roots)) | {fam: 1.0 / part.reshape(dim)
                                       for fam, part, dim in zip(families, np.split(t, cuts), dims)}


def _triangle_h_matched(fixed_id: str, fixed_val, target_id: str, target_val) -> np.ndarray:
    """h of the subequilateral triangles matching a column of (fixed, target)
    values, in one ``solve_param`` call; NaN where no triangle matches."""
    return triangle_values(*shapes.solve_param((target_id, np.atleast_1d(target_val)),
                                               (fixed_id, fixed_val)))["h"]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

STATUSES = ("ok", "not-applicable", "no-root")
OK, NOT_APPLICABLE, NO_ROOT = range(len(STATUSES))  # a BoundTable's status codes


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


# the six functionals of a column of records by short id, one array each, and
# its root solves by name once evaluate_all has solved them
_Column = namedtuple("_Column", [*EXPONENT, "solved"], defaults=(None,))


def _solved(f: _Column, name: str) -> np.ndarray:
    """The root solve ``name`` over the column ``f``."""
    return (f.solved or _solve(f, [name]))[name]


class Bound(NamedTuple):
    """One inequality: h >= value(f) ("lower") or h <= value(f) ("upper")
    on the records of a column ``f`` that ``admits`` (None: every record),
    ``condition`` in words ("" = always); ``extremal`` names the bodies
    that attain it, "" where the paper gives none."""

    id: str
    direction: str
    condition: str
    formula_id: str
    extremal: str
    admits: Callable | None
    value: Callable


def _hdw_up_yam(f):
    w, d = f.w, f.d
    ac = np.arccos(np.minimum(1.0, w / d))
    den = PI * w * w - SQRT3 * d * d + 6 * w * w * (np.tan(ac) - ac)
    return SQRT3 / (SQRT3 * w - d) + np.sqrt(2 * PI / den)


def _hdw_lo_exp(f):
    inv = 1 / f.w + 1 / f.d
    return inv + np.sqrt(inv * inv - (4 - PI) / (f.w * f.d))


def _hrd_up(f):
    R, d = f.R, f.d
    root = np.sqrt(np.maximum(4 * R * R - d * d, 0.0))
    return 2 * R * (2 * R + root) / (d * d * root) + np.sqrt(4 * PI * R * R / (d ** 3 * root))


def _hwr_lo(f):
    r, w = f.r, f.w
    inner = PI * np.maximum(1 - 2 * r / w, 0.0) * np.sqrt(np.maximum(4 * r / w - 1, 0.0))
    return 1 / r + np.sqrt(inner) / r


def _p_lower(name):
    """The value of PHR_LO or PHD_LO, by its ``_ARCSINC`` name."""
    def value(f):
        c, x = _ARCSINC[name](f), _solved(f, name)
        den = f.P - c * np.cos(x)
        return 4 * x / den + np.sqrt(8 * PI * x / (f.P * den))
    return value


def _p_over_4r(f):  # PHR_UP and PHR_LO share it, so a column runs it once
    return f.P > 4 * f.R


_REGISTRY = (
    Bound("HRA_LO", "lower", "", "h-r-area-lower", "stadiums", None, lambda f: 1 / f.r + PI * f.r / f.A),
    Bound("HRA_UP", "upper", "", "h-r-area-upper", "form-body homothets", None,
          lambda f: 1 / f.r + np.sqrt(PI / f.A)),
    Bound("HPA_LO", "lower", "", "h-perim-area-lower", "form-body homothets", None,
          lambda f: (f.P + np.sqrt(4 * PI * f.A)) / (2 * f.A)),
    Bound("HPA_UP", "upper", "", "h-perim-area-upper", "bodies Cheeger of themselves", None,
          lambda f: f.P / f.A),
    Bound("ONEQ_A", "lower", "", "h-area-only", "balls", None, lambda f: 2 * np.sqrt(PI / f.A)),
    Bound("ONEQ_P", "lower", "", "h-perimeter-only", "balls", None, lambda f: 4 * PI / f.P),
    Bound("ONEQ_D", "lower", "", "h-diameter-only", "balls", None, lambda f: 4 / f.d),
    Bound("ONEQ_R_LO", "lower", "", "h-circumradius-only", "balls", None, lambda f: 2 / f.R),
    Bound("ONEQ_R_UP2", "upper", "", "h-inradius-only", "balls", None, lambda f: 2 / f.r),
    Bound("HRP_LO", "lower", "", "h-r-perim-lower", "stadiums", None,
          lambda f: 1 / f.r + PI / (f.P - PI * f.r)),
    Bound("HRP_UP", "upper", "", "h-r-perim-upper", "form-body homothets", None,
          lambda f: 1 / f.r + np.sqrt(2 * PI / (f.P * f.r))),
    Bound("HDR_UP", "upper", "", "h-d-r-upper", "two-cup bodies", None,
          lambda f: 1 / f.r + np.sqrt(PI / two_cup_area(f.r, f.d / 2))),
    Bound("HDR_LO_IMPLICIT", "lower", "", "g1-crossing", "slices / smoothed nonagons", None,
          lambda f: _solved(f, "g1")),
    Bound("HDR_LO_EXPLICIT", "lower", "", "h-d-r-lower-explicit", "thinning rectangles", None,
          lambda f: (4 - PI) / (f.d + 2 * f.r - np.sqrt((f.d + 2 * f.r) ** 2 - 2 * (4 - PI) * f.d * f.r))),
    Bound("HRR_UP", "upper", "", "h-R-r-upper", "two-cup bodies", None,
          lambda f: 1 / f.r + np.sqrt(PI / two_cup_area(f.r, f.R))),
    Bound("HRR_LO_IMPLICIT", "lower", "", "g2-crossing", "slices", None, lambda f: _solved(f, "g2")),
    Bound("HRR_LO_EXPLICIT", "lower", "", "h-R-r-lower-explicit", "thinning rectangles", None,
          lambda f: (4 - PI) / (2 * (f.R + f.r) - np.sqrt(4 * (f.R + f.r) ** 2 - 4 * (4 - PI) * f.R * f.r))),
    Bound("HDW_LO_IMPLICIT", "lower", "", "g3-crossing", "slices", None, lambda f: _solved(f, "g3")),
    Bound("HDW_UP_TRI", "upper", "omega <= sqrt(3)/2 * d", "h-w-d-upper-triangle", "subequilateral triangles",
          lambda f: f.w <= SQRT3 / 2 * f.d,
          lambda f: triangle_values(*shapes.subeq_from(("d", "w"), f.d, f.w))["h"]),
    Bound("HDW_UP_YAM", "upper", "sqrt(3)/2 * d <= omega <= d", "h-w-d-upper-yamanouti",
          "equilateral triangles", lambda f: SQRT3 / 2 * f.d <= f.w, _hdw_up_yam),
    Bound("HDW_LO_EXPLICIT", "lower", "", "h-w-d-lower-explicit", "thinning rectangles", None, _hdw_lo_exp),
    Bound("HRW_LO_IMPLICIT", "lower", "", "g4-crossing", "slices", None, lambda f: _solved(f, "g4")),
    Bound("HRW_UP_TRI", "upper", "omega <= 3R/2", "h-w-R-upper-triangle", "subequilateral triangles",
          lambda f: f.w <= 1.5 * f.R, lambda f: _triangle_h_matched("R", f.R, "w", f.w)),
    Bound("HRW_UP_EXPLICIT", "upper", "", "h-w-R-upper-explicit", "equilateral triangles", None,
          lambda f: 3 / f.w + np.sqrt(2 * PI / (SQRT3 * f.R * f.w))),
    Bound("HRW_LO_EXPLICIT", "lower", "", "h-w-R-lower-explicit", "thinning rectangles", None,
          lambda f: (4 - PI) / ((2 * f.R + f.w) - np.sqrt((2 * f.R + f.w) ** 2 - 2 * (4 - PI) * f.R * f.w))),
    Bound("HAW_LO", "lower", "", "h-w-area-lower", "stadiums", None,
          lambda f: 2 / f.w + PI * f.w / (2 * f.A)),
    Bound("HAW_UP_TRI", "upper", "sqrt(3)*A >= omega^2", "h-w-area-upper-triangle",
          "subequilateral triangles", lambda f: SQRT3 * f.A >= f.w ** 2 * (1 - 1e-12),
          lambda f: _triangle_h_matched("w", f.w, "A", f.A)),
    Bound("HAW_UP1", "upper", "", "h-w-area-upper-1", "equilateral triangles", None,
          lambda f: 2 / f.w + f.w / (SQRT3 * f.A) + np.sqrt(PI / f.A)),
    Bound("HAW_UP2", "upper", "", "h-w-area-upper-2", "thin subequilateral triangles", None,
          lambda f: 2 / (f.w - f.w ** 3 / (4 * f.A)) + np.sqrt(PI / f.A)),
    Bound("HWP_LO", "lower", "", "h-w-perim-lower", "stadiums", None,
          lambda f: 2 / f.w + 2 * PI / (2 * f.P - PI * f.w)),
    Bound("HWP_UP_TRI", "upper", "P >= 2*sqrt(3)*omega", "h-w-perim-upper-triangle",
          "subequilateral triangles", lambda f: f.P >= 2 * SQRT3 * f.w,
          lambda f: _triangle_h_matched("w", f.w, "P", f.P)),
    Bound("HRD_UP", "upper", "sqrt(3)*R <= d < 2R", "h-R-d-upper", "subequilateral triangles",
          lambda f: f.d < 2 * f.R, _hrd_up),
    Bound("HWR_LO", "lower", "", "h-w-r-lower", "subequilateral triangles", None, _hwr_lo),
    Bound("HWR_UP", "upper", "", "h-w-r-upper", "equilateral triangles", None,
          lambda f: 1 / f.r + math.sqrt(PI * SQRT3) / f.w),
    Bound("RHA_UP", "upper", "", "h-R-area-upper", "thinning rectangles", None,
          lambda f: 1 / f.R + 4 * f.R / f.A),
    Bound("RHA_LO", "lower", "", "h-R-area-lower", "balls", None,
          lambda f: 1 / (2 * f.R) + PI * f.R / (2 * f.A) + np.sqrt(PI / f.A)),
    Bound("PHR_UP", "upper", "P > 4R", "h-P-R-upper", "thinning rectangles", _p_over_4r,
          lambda f: f.P / (f.R * (f.P - 4 * f.R))),
    Bound("PHR_LO", "lower", "P > 4R", "h-P-R-lower", "balls", _p_over_4r, _p_lower("PHR")),
    Bound("PHD_UP1", "upper", "2d < P < 3d", "h-P-d-upper-1", "", lambda f: (2 * f.d < f.P) & (f.P < 3 * f.d),
          lambda f: 4 / (f.P - 2 * f.d) + np.sqrt(
              4 * PI / ((f.P - 2 * f.d) * np.sqrt(f.P * (4 * f.d - f.P))))),
    Bound("PHD_UP2", "upper", "3d <= P <= pi*d", "h-P-d-upper-2", "",
          lambda f: (3 * f.d <= f.P) & (f.P <= PI * f.d * (1 + 1e-12)),
          lambda f: 4 / (f.P - 2 * f.d) + np.sqrt(4 * PI / (SQRT3 * f.d * (f.P - 2 * f.d)))),
    Bound("PHD_LO", "lower", "P > 2d", "h-P-d-lower", "balls", lambda f: f.P > 2 * f.d, _p_lower("PHD")),
    Bound("DHA_UP1", "upper", "", "h-d-area-upper-1", "", None, lambda f: 4 / f.d + 2 * f.d / f.A),
    Bound("DHA_UP2", "upper", "", "h-d-area-upper-2", "", None, lambda f: 2 * f.d / f.A + np.sqrt(PI / f.A)),
    Bound("DHA_LO", "lower", "", "h-d-area-lower", "thinning two-cup bodies", None,
          lambda f: f.d / f.A + np.sqrt(PI / f.A)),
)
BOUND_IDS = tuple(b.id for b in _REGISTRY)
_LOWER = np.array([[b.direction == "lower"] for b in _REGISTRY])
_PREDICATES = {b.admits for b in _REGISTRY}  # each once; None admits every record
_VALUES = {b.id: b.value for b in _REGISTRY}


def bound_value(bid: str, **column) -> np.ndarray:
    """Value formula of bound ``bid`` (no applicability test) on functionals
    given by short id (A, P, r, R, d, w), such as ``r=1.0``; unread ones may
    be left out."""
    return _VALUES[bid](_Column(*(np.asarray(column.get(k, np.nan), dtype=float) for k in EXPONENT)))


@dataclass(frozen=True)
class BoundTable:
    """The registry on a column of records: arrays of ids (``BOUND_IDS``
    order) by records.  ``value`` is NaN where the status is not ok, and
    ``slack`` (h - value for a lower bound, value - h for an upper one;
    nonnegative where the inequality holds) also where the record has no h.
    ``status`` holds codes into ``STATUSES``.  Iterating it yields ``results()``."""

    value: np.ndarray
    slack: np.ndarray
    status: np.ndarray

    def results(self) -> list[BoundResult]:
        """The record-major view, NaN as None: ``len(BOUND_IDS)`` per record."""
        value, slack = (np.where(np.isnan(a), None, a).T.tolist() for a in (self.value, self.slack))
        return [BoundResult(b.id, b.direction, v, STATUSES[c], s)
                for vs, ss, cs in zip(value, slack, self.status.T.tolist())
                for b, v, s, c in zip(_REGISTRY, vs, ss, cs)]

    def __iter__(self):
        return iter(self.results())


def evaluate_all(*records: Functionals) -> BoundTable:
    """Every registered inequality against one or more Functionals records,
    each one record or a column of them, joined into one column on numpy
    arrays (a predicate that bounds share runs once) into a ``BoundTable``
    of ids by records, whose ``results()`` are the record-major view.  A
    record that a column solve cannot serve gets NaN, not an exception: its
    failures (a non-finite value, a missing crossing, an unmatched
    triangle) are its own no-root results.

    Each record is evaluated at the power-of-two scale 2^-e that puts its
    perimeter in [0.5, 1), so the products of its lengths neither overflow
    nor underflow however large or small its body is, and each value, an
    inverse length, is scaled back by 2^-e exactly."""
    # each field joined over the records, each one record or a column; a missing h fills NaN
    field = {k: np.concatenate([np.full(np.size(f.area), getattr(f, name), dtype=float) for f in records])
             for k, name in FIELDS.items()}
    e = np.frexp(field["P"])[1]
    cols = _Column(**{k: np.ldexp(field[k], -int(power) * e) for k, power in EXPONENT.items()})
    with np.errstate(all="ignore"):
        cols = cols._replace(solved=_solve(cols, [*_IMPLICIT, *_ARCSINC]))
        value = np.ldexp([b.value(cols) for b in _REGISTRY], -e)
        admitted = {p: np.ones(len(e), dtype=bool) if p is None else p(cols) for p in _PREDICATES}
    status = np.where(np.array([admitted[b.admits] for b in _REGISTRY]),
                      np.where(np.isfinite(value), OK, NO_ROOT), NOT_APPLICABLE).astype(np.int8)
    value[status != OK] = np.nan
    return BoundTable(value, np.where(_LOWER, field["h"] - value, value - field["h"]), status)


def registry_csv(f: Functionals) -> str:
    """CSV export of the registry evaluated at one record; a column of any
    other number of records raises ValueError."""
    if np.size(f.area) != 1:
        raise ValueError(f"registry_csv takes one record, not a column of {np.size(f.area)}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "direction", "condition", "formula-id", "value", "slack"])
    for b, r in zip(_REGISTRY, evaluate_all(f).results()):
        val = r.status if r.status != "ok" else format(r.value, ".17g")
        slack = "" if r.slack is None else format(r.slack, ".17g")
        writer.writerow([r.id, r.direction, b.condition, b.formula_id, val, slack])
    return buf.getvalue()
