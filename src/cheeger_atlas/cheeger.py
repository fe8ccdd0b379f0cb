"""Cheeger constant and Cheeger set of a convex polygon.

For a planar convex body the Cheeger problem reduces to a scalar equation:
there is a unique t* > 0 with |inner_parallel(poly, t*)| = pi t*^2, the
constant is h = 1/t*, and the Cheeger set is the inner core dilated back by
t*.  Between the edge-vanishing events of the straight skeleton the inner
parallel area is exactly quadratic, |poly_{-t-s}| = A - P s + T s^2 with
T = sum of tan(theta/2) over the exterior angles (Kawohl & Lachand-Robert,
Pacific J. Math. 225 (2006)), so t* is read off the one skeleton walk per
polygon (``geom.ConvexPolygon.walk``) that also gives the inradius, on the
piece where |poly_{-t}| - pi t^2 changes sign, with no bracket and no
bisection.

The module also holds the package's one root finder for monotone scalar
equations: ``_bracketed_root`` starts from a sign bracket and shrinks it
with Illinois (modified regula falsi) steps, on a column of brackets at
once (a float is a 0-d column), each element taking the steps it would
take alone, NaN where there is no root.  A secant point that rounds onto
an end of its bracket moves half the tolerance inside that end (Brent
1973), so a step that has all but hit the root closes the bracket,
instead of leaving it one-sided to be bisected down to the tolerance; the
census crossings take 5 to 7 steps.
``smallest_crossing`` uses it for the implicit inequalities g(t) = pi t^2
of the bound registry, all four families of a whole column in one call;
``bounds.arcsinc`` solves its column with it, and the constants
``bounds.dstar`` and ``bounds.d0`` are its 0-d columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InvalidParam, NoConvergence
from .geom import ConvexPolygon, dilate

# A crossing is solved until its bracket is below this fraction of the domain.
CROSSING_REL_TOL = 1e-13
# Steps one bracketed root solve may take before it gives up.
MAX_ROOT_STEPS = 100
# Chords per full circle when discretizing the Cheeger set boundary.
DEFAULT_ARC_SEGMENTS = 4096


@dataclass(frozen=True)
class CheegerResult:
    """Cheeger data of one polygon: h = 1/t_star, and the two witness bodies
    built on first read, the inner core at t_star and the Cheeger set (the
    core dilated back by t_star, ``arc_segments`` chords per circle).
    Reading a core that is no strictly convex polygon raises NoConvergence,
    or DegenerateInput when it is thinner than the rounding of the caller's
    coordinates.
    """

    h: float
    t_star: float
    _poly: ConvexPolygon = field(repr=False, compare=False)
    _arc_segments: int = field(repr=False, compare=False)

    @cached_property
    def inner_core(self) -> ConvexPolygon:
        # the polygon's own origin, area and perimeter: its walk's frame and size in any block
        core = self._poly.placed(self._poly.walk.core)
        if core is None:
            raise NoConvergence(f"the inner core at t* = {self.t_star!r} is not a strictly convex polygon")
        return core

    @cached_property
    def cheeger_set(self) -> ConvexPolygon:
        return dilate(self.inner_core, self.t_star, self._arc_segments)


@dataclass(frozen=True)
class ImplicitRootProblem:
    """A column of equations g(t) = pi t^2, each on [0, upper] for its
    element of ``upper``.

    ``g`` maps an array of t, of the column's shape or of shape (2, n) for
    both ends at once, to the values there elementwise.  It is the caller's
    job to make g(t) - pi t^2 continuous and non-increasing on each domain;
    an element whose ``upper`` is not positive has no crossing.
    """

    g: Callable[[np.ndarray], np.ndarray]
    upper: float | np.ndarray


def cheeger_constant(poly: ConvexPolygon,
                     arc_segments: int = DEFAULT_ARC_SEGMENTS) -> CheegerResult:
    """Cheeger constant read off the polygon's one straight-skeleton walk
    (``ConvexPolygon.walk``), which also gives the inradius and counts how
    the solve ran; the inner core and the Cheeger set are built only when read."""
    if not arc_segments >= 8:
        raise InvalidParam("arc_segments must be at least 8")
    t_star = poly.walk.t_star
    return CheegerResult(1.0 / t_star, t_star, poly, arc_segments)


def _bracketed_root(f: Callable, a, fa, b, fb, xtol):
    """Roots of continuous functions between a and b, where fa = f(a) and fb = f(b).

    The arguments are arrays (broadcast together; a float is a 0-d array)
    with one bracket per element; f maps an array of points, one per
    element, to the values there.  fa and fb must not share a strict sign;
    either may be the positive one.  Illinois steps (regula falsi that halves the
    value kept at an end that survives twice running) shrink every
    unconverged bracket at once.  The secant point lies in the closed
    bracket up to rounding, so one that rounds onto or past an end is moved
    ``xtol``/2 inside that end; only a point that is then still not inside
    the open bracket (with ``xtol`` = 0, say), or is not finite, bisects
    instead.  An element's result is the midpoint once its bracket
    is at most ``xtol`` wide, and it takes exactly the steps it would take
    alone: a finished element is held at the midpoint of its bracket, and
    the values f returns there are ignored.  An element without a sign
    change, or still unconverged after MAX_ROOT_STEPS evaluations of f,
    comes back NaN.
    """
    a, fa, b, fb, xtol = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, fa, b, fb, xtol))
    root = np.full(a.shape, np.nan)
    root[fb == 0.0] = b[fb == 0.0]
    root[fa == 0.0] = a[fa == 0.0]
    active = np.isnan(root) & ((fa > 0.0) != (fb > 0.0)) & np.isfinite(fa) & np.isfinite(fb)
    kept = np.zeros(a.shape)  # +1 where the last step kept a, -1 where it kept b
    with np.errstate(divide="ignore", invalid="ignore"):  # finished elements may divide 0 by 0
        for _ in range(MAX_ROOT_STEPS):
            done = active & (np.abs(b - a) <= xtol)
            root[done] = 0.5 * (a[done] + b[done])
            active &= ~done
            if not active.any():
                break
            x = (a * fb - b * fa) / (fb - fa)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            finite = np.isfinite(x)
            x = np.where(x <= lo, lo + 0.5 * xtol, np.where(x >= hi, hi - 0.5 * xtol, x))
            x = np.where(active & finite & (lo < x) & (x < hi), x, 0.5 * (a + b))
            fx = np.asarray(f(x), dtype=float).reshape(a.shape)
            hit = active & (fx == 0.0)
            root[hit] = x[hit]
            active &= ~hit
            to_b = active & ((fx > 0.0) == (fb > 0.0))
            to_a = active ^ to_b
            np.multiply(fa, 0.5, out=fa, where=to_b & (kept == 1))
            np.multiply(fb, 0.5, out=fb, where=to_a & (kept == -1))
            for end, f_end, moved in ((a, fa, to_a), (b, fb, to_b)):
                np.copyto(end, x, where=moved)
                np.copyto(f_end, fx, where=moved)
            kept[to_b] = 1
            kept[to_a] = -1
    return root


def smallest_crossing(problem: ImplicitRootProblem):
    """The crossings t in (0, upper] of g(t) = pi t^2, all in one root loop.

    F(t) = g(t) - pi t^2 is read at both ends of every domain in one call
    of g.  An element with F(0) > 0 >= F(upper) has a unique crossing, since
    F is non-increasing, solved to CROSSING_REL_TOL * upper; any other
    element (a touch at t = 0 carries no information, since 1/t blows up),
    and one whose solve fails, comes back NaN; a float ``upper`` is a 0-d
    column.
    """
    upper = np.asarray(problem.upper, dtype=float)
    ends = np.stack((np.zeros_like(upper), upper))
    f0, f1 = np.asarray(problem.g(ends), dtype=float) - np.pi * ends * ends
    falls = (upper > 0.0) & (f0 > 0.0) & (f1 <= 0.0)

    def F(t):
        return np.asarray(problem.g(t), dtype=float) - np.pi * t * t

    f0, f1 = (np.where(falls, f, np.nan) for f in (f0, f1))  # NaN ends: no root, no steps
    return _bracketed_root(F, 0.0, f0, upper, f1, CROSSING_REL_TOL * upper)
