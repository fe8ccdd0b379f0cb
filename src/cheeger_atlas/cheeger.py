"""Cheeger constant and Cheeger set of a convex polygon.

For a planar convex body the Cheeger problem reduces to a scalar equation:
there is a unique t* > 0 with |inner_parallel(poly, t*)| = pi t*^2, the
constant is h = 1/t*, and the Cheeger set is the inner core dilated back by
t*.  Between the edge-vanishing events of the straight skeleton the inner
parallel area is exactly quadratic, |poly_{-t-s}| = A - P s + T s^2 with
T = sum of tan(theta/2) over the exterior angles (Kawohl & Lachand-Robert,
Pacific J. Math. 225 (2006)), so the solve steps to the root of that
quadratic rather than bisecting.  The same module solves the implicit
inequalities g(t) = pi t^2 used by the bound registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NoConvergence, NoRoot
from .geom import ConvexPolygon, OffsetMachine, dilate, shoelace

# Bisection stops when the bracket is below this fraction of the domain size.
BISECT_REL_TOL = 1e-13
# Uniform samples used to locate a sign change before bisecting.
SCAN_SAMPLES = 1024
# Chords per full circle when discretizing the Cheeger set boundary.
DEFAULT_ARC_SEGMENTS = 4096
# The Cheeger solve ends once a step moves t by less than this fraction of t.
STEP_REL_TOL = 1e-14
# Offset-chain evaluations one Cheeger solve may make before it gives up.
MAX_EVALS = 64
# Inward retries of t* (each by the factor 1 - NUDGE_REL) for a core that
# does not survive as a strictly convex polygon.
MAX_NUDGES = 16
NUDGE_REL = 1e-12


@dataclass(frozen=True)
class SolveDiagnostics:
    """How one Cheeger solve went; never part of a deterministic output.

    ``evaluations`` counts offset-chain evaluations (calls of
    ``OffsetMachine.area_at``), ``bisections`` the steps that left the sign
    bracket and halved it instead, and ``nudges`` the inward retries of t*.
    ``bracket_width`` is hi - lo of the sign bracket when the solve ended,
    and ``residual`` is |A(t*) - pi t*^2| on the returned core.
    """

    evaluations: int
    bisections: int
    nudges: int
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
    """Solve g(t) = pi t^2 on [0, upper] for the smallest or largest root.

    ``g`` must accept numpy arrays (scalars are broadcast); it is the
    caller's job to guarantee continuity on the domain.
    """

    g: Callable[[np.ndarray], np.ndarray]
    upper: float
    mode: str = "smallest"

    def __post_init__(self):
        if self.mode not in ("smallest", "largest"):
            raise ValueError("mode must be 'smallest' or 'largest'")
        if self.upper <= 0:
            raise ValueError("domain upper end must be positive")


def _model_step(t: float, m) -> float:
    """Smaller root s of (T - pi) s^2 - (P + 2 pi t) s + (A - pi t^2) = 0.

    The quadratic is F(t + s) on the skeleton piece that holds t; the root
    is taken in the form 2F / (b + sqrt(b^2 - 4aF)), which does not cancel.
    """
    f = m.area - np.pi * t * t
    a = m.tan_sum - np.pi
    b = m.perimeter + 2.0 * np.pi * t
    return 2.0 * f / (b + math.sqrt(max(b * b - 4.0 * a * f, 0.0)))


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

    Each step evaluates the offset chain once and moves to the root of the
    exact local quadratic (see ``_solve``); the sign bracket starts as
    [0, 2A/P] and catches steps that would leave it.  A core at t* that
    does not survive as a strictly convex polygon moves t* inward by at most
    MAX_NUDGES relative steps of NUDGE_REL before NoConvergence is raised.
    ``with_set=False`` skips building the discretized Cheeger set (the
    ``cheeger_set`` field then repeats the inner core).
    """
    machine = OffsetMachine(poly)
    t_star, evals, bisections, width = _solve(machine)
    core = machine.polygon_at(t_star)
    nudges = 0
    while core is None:
        if nudges == MAX_NUDGES:
            raise NoConvergence(f"no strictly convex core within {MAX_NUDGES} nudges "
                                f"of t* = {t_star!r}")
        t_star *= 1.0 - NUDGE_REL
        nudges += 1
        core = machine.polygon_at(t_star)
    residual = abs(shoelace(core.vertices - machine.origin) - math.pi * t_star * t_star)
    cheeger_set = dilate(core, t_star, arc_segments) if with_set else core
    return CheegerResult(h=1.0 / t_star, t_star=t_star, cheeger_set=cheeger_set,
                         inner_core=core,
                         diagnostics=SolveDiagnostics(evals, bisections, nudges, width, residual))


def smallest_crossing(problem: ImplicitRootProblem,
                      samples: int = SCAN_SAMPLES) -> float:
    """First (or last) crossing of g(t) = pi t^2 on [0, upper].

    A uniform scan with ``samples`` points locates a sign change of
    F(t) = g(t) - pi t^2, which is then bisected to BISECT_REL_TOL * upper.
    A root pair closer than the grid step can be missed.
    """
    upper = problem.upper
    ts = np.linspace(0.0, upper, samples + 1)
    gs = np.asarray(problem.g(ts), dtype=float)
    fs = gs - np.pi * ts * ts

    # a zero at t = 0 exactly is vacuous (1/t blows up); require t > 0
    zero_hits = np.flatnonzero((fs == 0.0) & (ts > 0.0))
    signs = np.sign(fs)
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    candidates = []
    if zero_hits.size:
        candidates.extend(("zero", int(i)) for i in zero_hits)
    candidates.extend(("flip", int(i)) for i in flips)
    if not candidates:
        raise NoRoot("g(t) - pi t^2 has no sign change on the domain")

    def key(c):
        kind, i = c
        return ts[i] if kind == "zero" else ts[i] + 1e-30
    chosen = min(candidates, key=key) if problem.mode == "smallest" else max(candidates, key=key)
    kind, i = chosen
    if kind == "zero":
        return float(ts[i])

    # refine by repeated 64-fold subdivision (vectorized g evaluations)
    lo, hi = float(ts[i]), float(ts[i + 1])
    flo = float(fs[i])
    tol = BISECT_REL_TOL * upper
    for _ in range(40):
        if hi - lo <= tol:
            break
        grid = np.linspace(lo, hi, 65)
        vals = np.asarray(problem.g(grid), dtype=float) - np.pi * grid * grid
        matches = vals > 0.0 if flo > 0.0 else vals < 0.0
        flips = np.flatnonzero(~matches)
        k = int(flips[0])
        if k == 0:
            return lo
        lo, hi, flo = float(grid[k - 1]), float(grid[k]), float(vals[k - 1])
    return 0.5 * (lo + hi)


def implicit_bound_value(problem: ImplicitRootProblem, samples: int = SCAN_SAMPLES) -> float:
    """1 / crossing: a lower bound on h for mode='smallest', upper otherwise."""
    return 1.0 / smallest_crossing(problem, samples=samples)

