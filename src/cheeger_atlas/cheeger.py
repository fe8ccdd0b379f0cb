"""Cheeger constant and Cheeger set of a convex polygon.

For a planar convex body the Cheeger problem reduces to a scalar equation:
there is a unique t* > 0 with |inner_parallel(poly, t*)| = pi t*^2, the
constant is h = 1/t*, and the Cheeger set is the inner core dilated back by
t*.  Between the edge-vanishing events of the straight skeleton the inner
parallel area is exactly quadratic, |poly_{-t-s}| = A - P s + T s^2 with
T = sum of tan(theta/2) over the exterior angles (Kawohl & Lachand-Robert,
Pacific J. Math. 225 (2006)), so the solve steps to the root of that
quadratic rather than bisecting.

The module also holds the package's one root finder for monotone scalar
equations: ``_bracketed_root`` starts from a sign bracket and shrinks it
with Illinois (modified regula falsi) steps, for one bracket or for an
array of brackets at once, each element taking the steps it would take
alone.  ``smallest_crossing`` uses it for the implicit inequalities
g(t) = pi t^2 of the bound registry, a whole column of them per call; the
bound constants and the shape-parameter solve use it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NoConvergence, NoRoot
from .geom import ConvexPolygon, OffsetMachine, dilate, falling_root, shoelace

# A crossing is solved until its bracket is below this fraction of the domain.
CROSSING_REL_TOL = 1e-13
# Steps one bracketed root solve may take before it gives up.
MAX_ROOT_STEPS = 100
# Chords per full circle when discretizing the Cheeger set boundary.
DEFAULT_ARC_SEGMENTS = 4096
# The Cheeger solve ends once a step moves t by less than this fraction of t.
STEP_REL_TOL = 1e-14
# Offset-chain evaluations one Cheeger solve may make before it gives up.
MAX_EVALS = 64


@dataclass(frozen=True)
class SolveDiagnostics:
    """How one Cheeger solve went; never part of a deterministic output.

    ``evaluations`` counts offset-chain evaluations (calls of
    ``OffsetMachine.area_at`` on the polygon's machine, which the inradius
    shares) and ``bisections`` the steps that left the sign bracket and
    halved it instead.  ``bracket_width`` is hi - lo of the sign bracket
    when the solve ended, and ``residual`` is |A(t*) - pi t*^2| on the
    returned core.
    """

    evaluations: int
    bisections: int
    bracket_width: float
    residual: float


@dataclass(frozen=True)
class CheegerResult:
    """Cheeger data of one polygon: h = 1/t_star and the two witness bodies."""

    h: float
    t_star: float
    cheeger_set: ConvexPolygon
    inner_core: ConvexPolygon
    diagnostics: SolveDiagnostics = field(compare=False)


@dataclass(frozen=True)
class ImplicitRootProblem:
    """The equation g(t) = pi t^2 on [0, upper].

    ``g`` must accept numpy arrays and scalars.  It is the caller's job to
    make g(t) - pi t^2 continuous and non-increasing on the domain.  An
    array ``upper`` makes a column of problems: g then maps t of the
    column's shape (or of shape (2, n), both ends at once) elementwise.
    A float ``upper`` must be positive; in a column an element whose
    ``upper`` is not positive has no crossing.
    """

    g: Callable[[np.ndarray], np.ndarray]
    upper: float | np.ndarray

    def __post_init__(self):
        if np.ndim(self.upper) == 0 and self.upper <= 0:
            raise ValueError("domain upper end must be positive")


def _model_step(t: float, m) -> float:
    """Smaller root s of (T - pi) s^2 - (P + 2 pi t) s + (A - pi t^2) = 0.

    The quadratic is F(t + s) on the skeleton piece that holds t; the root
    is taken in the form that does not cancel (``geom.falling_root``).
    """
    return falling_root(m.tan_sum - np.pi, m.perimeter + 2.0 * np.pi * t,
                        m.area - np.pi * t * t)


def _solve(machine: OffsetMachine):
    """Root t* of F(t) = |poly_{-t}| - pi t^2; returns (t*, evals, bisections, width).

    F(0) > 0, and F(2A/P) < 0 because 2A/P is at least the inradius, where
    the body vanishes.  T only grows at skeleton events, so the quadratic
    model from t under-estimates F ahead of t and over-estimates it behind:
    model steps approach the root from either side without crossing it, and
    a forward step within the reach of the current piece lands on the root
    exactly.  A step that leaves the sign bracket [lo, hi], or starts from an
    empty chain, bisects instead.
    """
    lo, hi = 0.0, machine.size
    t, m = 0.0, machine.measure0
    evals = bisections = 0
    while True:
        f = m.area - np.pi * t * t
        if f > 0.0:
            lo = t
        elif f < 0.0:
            hi = t
        else:
            return t, evals, bisections, hi - lo
        nxt = None
        if m.area > 0.0:
            s = _model_step(t, m)
            if 0.0 <= s <= m.reach:
                return t + s, evals, bisections, hi - lo
            nxt = t + s
        if nxt is None or not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            bisections += 1
        if abs(nxt - t) <= STEP_REL_TOL * nxt:
            return nxt, evals, bisections, hi - lo
        if evals == MAX_EVALS:
            raise NoConvergence(f"Cheeger solve took {MAX_EVALS} chain evaluations "
                                f"without converging (bracket [{lo!r}, {hi!r}])")
        t, m = nxt, machine.area_at(nxt)
        evals += 1


def cheeger_constant(poly: ConvexPolygon,
                     arc_segments: int = DEFAULT_ARC_SEGMENTS,
                     with_set: bool = True) -> CheegerResult:
    """Cheeger constant from guarded quadratic steps on |poly_{-t}| - pi t^2.

    Each step evaluates the offset chain of the polygon's one
    ``OffsetMachine`` (``poly.offset_machine``, shared with the inradius)
    once and moves to the root of the exact local quadratic (see
    ``_solve``); the sign bracket starts as [0, 2A/P] and catches steps
    that would leave it.  NoConvergence is raised when the core at t* does
    not survive as a strictly convex polygon.  ``with_set=False`` skips
    building the discretized Cheeger set (the ``cheeger_set`` field then
    repeats the inner core).
    """
    machine = poly.offset_machine
    t_star, evals, bisections, width = _solve(machine)
    core = machine.polygon_at(t_star)
    if core is None:
        raise NoConvergence(f"the inner core at t* = {t_star!r} is not a strictly convex polygon")
    residual = abs(shoelace(core.vertices - machine.origin) - math.pi * t_star * t_star)
    cheeger_set = dilate(core, t_star, arc_segments) if with_set else core
    return CheegerResult(h=1.0 / t_star, t_star=t_star, cheeger_set=cheeger_set,
                         inner_core=core,
                         diagnostics=SolveDiagnostics(evals, bisections, width, residual))


def _bracketed_root(f: Callable, a, fa, b, fb, xtol):
    """Roots of continuous functions between a and b, where fa = f(a) and fb = f(b).

    The arguments are floats, or arrays (broadcast together) with one
    bracket per element; f maps an array of points, one per element, to
    the values there.  fa and fb must not share a strict sign; either may
    be the positive one.  Illinois steps (regula falsi that halves the
    value kept at an end that survives twice running) shrink every
    unconverged bracket at once; a step that leaves the open bracket
    bisects instead.  An element's result is the midpoint once its bracket
    is at most ``xtol`` wide, and it takes exactly the steps it would take
    alone: a finished element is held at the midpoint of its bracket, and
    the values f returns there are ignored.

    For float arguments f is called with floats and the root is returned
    as a float; NoRoot is raised without a sign change and NoConvergence
    after MAX_ROOT_STEPS evaluations of f.  For arrays those elements come
    back as NaN.
    """
    scalar = all(np.ndim(v) == 0 for v in (a, fa, b, fb, xtol))
    a, fa, b, fb, xtol = (np.array(v, dtype=float).reshape(-1) if scalar else np.array(v, dtype=float)
                          for v in np.broadcast_arrays(a, fa, b, fb, xtol))
    root = np.full(a.shape, np.nan)
    root[fb == 0.0] = b[fb == 0.0]
    root[fa == 0.0] = a[fa == 0.0]
    active = np.isnan(root) & ((fa > 0.0) != (fb > 0.0)) & np.isfinite(fa) & np.isfinite(fb)
    if scalar and np.isnan(root[0]) and not active[0]:
        raise NoRoot(f"no sign change between {a[0]!r} and {b[0]!r}")
    kept = np.zeros(a.shape)  # +1 where the last step kept a, -1 where it kept b
    with np.errstate(divide="ignore", invalid="ignore"):  # finished elements may divide 0 by 0
        for _ in range(MAX_ROOT_STEPS):
            done = active & (np.abs(b - a) <= xtol)
            root[done] = 0.5 * (a[done] + b[done])
            active &= ~done
            if not active.any():
                break
            x = (a * fb - b * fa) / (fb - fa)
            x = np.where(active & (np.minimum(a, b) < x) & (x < np.maximum(a, b)), x, 0.5 * (a + b))
            fx = np.asarray(f(float(x[0])) if scalar else f(x), dtype=float).reshape(a.shape)
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
    if scalar:
        if active[0]:
            raise NoConvergence(f"root bracket [{a[0]!r}, {b[0]!r}] still wider than "
                                f"{xtol[0]!r} after {MAX_ROOT_STEPS} steps")
        return float(root[0])
    return root


def smallest_crossing(problem: ImplicitRootProblem):
    """The crossing t in (0, upper] of g(t) = pi t^2.

    F(t) = g(t) - pi t^2 is read at both ends of the domain in one call of
    g; it must satisfy F(0) > 0 >= F(upper), else NoRoot is raised (a touch
    at t = 0 carries no information, since 1/t blows up).  F is
    non-increasing, so the crossing is unique; it is solved to
    CROSSING_REL_TOL * upper.

    With an array ``upper`` (a column of problems, which g evaluates
    elementwise) every crossing is solved in one call and an array is
    returned, with NaN where the domain is empty, the sign change is
    missing or the solve fails.
    """
    upper = np.asarray(problem.upper, dtype=float)
    ends = np.stack((np.zeros_like(upper), upper))
    f0, f1 = np.asarray(problem.g(ends), dtype=float) - np.pi * ends * ends
    falls = (upper > 0.0) & (f0 > 0.0) & (f1 <= 0.0)
    if upper.ndim == 0 and not falls:
        raise NoRoot("g(t) - pi t^2 does not fall from positive to nonpositive on the domain")

    def F(t):
        return np.asarray(problem.g(t), dtype=float) - np.pi * t * t

    f0, f1 = (np.where(falls, f, np.nan) for f in (f0, f1))  # NaN ends: no root, no steps
    return _bracketed_root(F, 0.0, f0, upper, f1, CROSSING_REL_TOL * upper)
