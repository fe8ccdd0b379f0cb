"""Blaschke-Santalo diagram boundaries, membership tests, and rendering.

``DIAGRAM_IDS`` holds one row per diagram: its alias, axes, unit, x-range
and the registry bound ids of its proven curves.  The three solved
diagrams (P, h, r), (R, h, r) and (d, h, r) have complete lower/upper
curves; the partially solved width diagrams expose only their proven
pieces and answer "unknown" in between.  ``curve`` evaluates one with the
unit functional 1, on a whole grid of abscissae at once, NaN where it has
no value: an implicit lower curve is one column crossing, a triangle upper
curve the closed-form match of the grid's subequilateral triangles
(``shapes.subeq_from``).  A cloud is rendered from its x and y columns.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import bounds
from .errors import DomainError

PI = math.pi
SQRT3 = math.sqrt(3.0)


class Diagram(NamedTuple):
    """One diagram, drawn with the unit functional 1.  An x-range upper end
    of None is unbounded.  ``lower`` and ``upper`` are sharp registry bounds
    at the unit; None: unproven; a pair: the first up to x = sqrt(3)/2."""

    alias: str
    x: str
    y: str
    unit: str
    x_range: tuple[float, float | None]
    lower: str | None
    upper: str | tuple[str, str]
    solved: bool = False


DIAGRAM_IDS = {
    "D1_PHR": Diagram("phr", "P", "h", "r", (2 * PI, None), "HRP_LO", "HRP_UP", solved=True),
    "D2_RHR": Diagram("rhr", "R", "h", "r", (1.0, None), "HRR_LO_IMPLICIT", "HRR_UP", solved=True),
    "D3_DHR": Diagram("dhr", "d", "h", "r", (2.0, None), "HDR_LO_IMPLICIT", "HDR_UP", solved=True),
    "HWD": Diagram("hwd", "w", "h", "d", (0.0, 1.0), "HDW_LO_IMPLICIT", ("HDW_UP_TRI", "HDW_UP_YAM")),
    "HWR_CIRC": Diagram("hwr-circ", "w", "h", "R", (0.0, 2.0), "HRW_LO_IMPLICIT", "HRW_UP_TRI"),
    "HWP": Diagram("hwp", "w", "h", "P", (0.0, 1.0 / PI), "HWP_LO", "HWP_UP_TRI"),
    "HWA": Diagram("hwa", "w", "h", "A", (0.0, 3.0 ** 0.25), "HAW_LO", "HAW_UP_TRI"),
    "HRD": Diagram("hrd", "R", "h", "d", (0.5, 1.0 / SQRT3), None, "HRD_UP"),
    "HWR_IN": Diagram("hwr-in", "w", "h", "r", (2.0, 3.0), "HWR_LO", "HWR_UP"),
}

# cap for log-spaced grids on unbounded ranges, relative to the left endpoint
UNBOUNDED_SPAN = 100.0
MEMBERSHIP_TOL = 1e-9


def _diagram(diagram_id: str) -> Diagram:
    try:
        return DIAGRAM_IDS[diagram_id]
    except KeyError:
        raise DomainError(f"unknown diagram id {diagram_id!r}") from None


def x_grid(diagram_id: str, x_range: tuple[float, float] | None = None,
           grid: int = 512) -> np.ndarray:
    """``grid`` abscissae of a diagram, evenly over ``x_range``, a finite,
    non-empty range inside the diagram's; without one over the diagram's
    range, log-spaced up to ``UNBOUNDED_SPAN`` times its left end when it is
    unbounded.  A grid of fewer than 2 points, or a range that is not
    finite, is empty or reversed, or leaves the diagram's, raises DomainError.
    """
    lo, hi = _diagram(diagram_id).x_range
    if grid < 2:
        raise DomainError("grid must have at least 2 points")
    if x_range is None and hi is None:
        # log spacing keeps detail near the ball point
        return np.exp(np.linspace(np.log(lo), np.log(lo * UNBOUNDED_SPAN), grid))
    if x_range is None:
        return np.linspace(lo if lo > 0 else hi * 1e-3, hi, grid)
    a, b = x_range
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"x-range {x_range} is not finite")
    if not a < b:
        raise DomainError(f"x-range {x_range} is empty or reversed")
    if a < lo or (hi is not None and b > hi * (1 + 1e-12)):
        raise DomainError(f"x-range {x_range} outside admissible [{lo}, {hi}]")
    return np.linspace(a, b, grid)


def curve(diagram_id: str, side: str, x):
    """The proven ``side`` ("lower" or "upper") curve of a diagram at x: its
    row's bound with the diagram's x functional at x and unit functional 1.

    A float x gives a float and an array x an array, NaN where there is no
    value, such as past the equilateral end of a triangle curve.  An
    unknown diagram id or side raises DomainError.
    """
    row = _diagram(diagram_id)
    if side not in ("lower", "upper"):
        raise DomainError(f"unknown curve side {side!r}: expected 'lower' or 'upper'")
    bid = row.lower if side == "lower" else row.upper
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.full(xs.shape, np.nan)
    value = lambda b: bounds.bound_value(b, **{row.x: xs, row.unit: 1.0})
    with np.errstate(all="ignore"):
        if isinstance(bid, tuple):
            ys = np.where(xs <= SQRT3 / 2, value(bid[0]), value(bid[1]))
        elif bid is not None:
            ys = np.asarray(value(bid), dtype=float)
    return ys if np.ndim(x) else float(ys[0])


def boundary(diagram_id: str, x_range: tuple[float, float] | None = None,
             grid: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) curves as (k, 2) arrays of samples on ``x_grid``;
    empty where unproven.

    Each curve is computed on the whole grid at once.  The grid points
    where it has no value (such as x = 0 of a width diagram) are left out;
    a solved diagram has none to leave out, and raises DomainError at the
    first x where a curve has no value (past x ~ 1e154, where a crossing's
    squares overflow).  For D3 the implicit lower curve automatically
    realizes the smoothed nonagon branch below d0() and the slice branch
    above it.
    """
    xs = x_grid(diagram_id, x_range, grid)
    ys = np.array([curve(diagram_id, side, xs) for side in ("lower", "upper")])
    missing = ~np.isfinite(ys)
    if DIAGRAM_IDS[diagram_id].solved and missing.any():
        i, side = np.argwhere(missing.T)[0]
        raise DomainError(f"the {('lower', 'upper')[side]} curve of {diagram_id} has no value "
                          f"at x = {xs[i]:.17g}")
    return tuple(np.column_stack((xs, y))[ok] for y, ok in zip(ys, ~missing))


def membership(diagram_id: str, x: float, y: float) -> str:
    """'inside' / 'outside' for the solved diagrams, else possibly 'unknown'.

    The point (x, y) is compared against the diagram's proven curves with
    tolerance ``MEMBERSHIP_TOL``; for the partially solved diagrams the
    region between proven pieces is unknown.  An unknown diagram id or a
    non-finite x or y raises DomainError.
    """
    row = _diagram(diagram_id)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"point ({x}, {y}) is not finite")
    lo_x, hi_x = row.x_range
    tol = MEMBERSHIP_TOL
    if x < lo_x - tol or (hi_x is not None and x > hi_x + tol):
        return "outside"
    lo = curve(diagram_id, "lower", max(x, lo_x))
    up = curve(diagram_id, "upper", max(x, lo_x))
    if y < lo - tol or y > up + tol:
        return "outside"
    return "inside" if row.solved else "unknown"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

VIEW_W, VIEW_H = 1000, 700
_MARGIN = 70.0


def _ticks(lo: float, hi: float) -> list[float]:
    """Round values from lo to hi, a step of 1, 2 or 5 times a power of 10
    apart: at most six, as the step is at least a fifth of the span.  A
    step below the rounding of the values does not move them, and gives
    one tick."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    out = []
    v = math.ceil(lo / step) * step
    for _ in range(6):
        if v > hi + 1e-9 * span:
            break
        out.append(round(v, 12))
        v += step
    return list(dict.fromkeys(out))


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi), with a range of one value widened each way by 0.5 or by 5e-4
    of its magnitude, whichever is larger, which the value's rounding does
    not lose."""
    if hi - lo > 0:
        return lo, hi
    half = max(0.5, 5e-4 * abs(lo))
    return lo - half, hi + half


def render_csv(x, y, provenance, curves: list[np.ndarray] | None = None) -> str:
    """The cloud's columns x, y and provenance, one row per point, then the
    curves' samples labelled by side."""
    rows = list(zip(np.column_stack((x, y)).tolist(), provenance))
    for label, c in zip(("curve:lower", "curve:upper"), curves or []):
        rows += [(xy, label) for xy in c.tolist()]
    return "x,y,provenance\n" + "".join(f"{px:.17g},{py:.17g},{label}\n" for (px, py), label in rows)


def render_svg(x, y, curves: list[np.ndarray] | None = None) -> str:
    """Deterministic standalone SVG of the cloud's columns x and y: 1px
    dots, polyline curves, labeled axes."""
    cloud = np.column_stack((x, y))
    curves = [c for c in (curves or []) if len(c)]
    points = np.concatenate([cloud, *curves])
    if not len(points):
        raise ValueError("nothing to render")
    (x0, y0), (x1, y1) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    x0, x1 = _widened(x0, x1)
    y0, y1 = _widened(y0, y1)
    padx, pady = 0.04 * (x1 - x0), 0.04 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def sx(x):
        return _MARGIN + (x - x0) / (x1 - x0) * (VIEW_W - 2 * _MARGIN)

    def sy(y):
        return VIEW_H - _MARGIN - (y - y0) / (y1 - y0) * (VIEW_H - 2 * _MARGIN)

    fmt = lambda v: f"{v:.3f}"
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_W} {VIEW_H}">',
           f'<rect width="{VIEW_W}" height="{VIEW_H}" fill="white"/>']
    ax = (f'M {fmt(_MARGIN)} {fmt(_MARGIN)} L {fmt(_MARGIN)} {fmt(VIEW_H - _MARGIN)} '
          f'L {fmt(VIEW_W - _MARGIN)} {fmt(VIEW_H - _MARGIN)}')
    out.append(f'<path d="{ax}" stroke="black" fill="none" stroke-width="1"/>')
    for tx in _ticks(x0, x1):
        px = sx(tx)
        out.append(f'<line x1="{fmt(px)}" y1="{fmt(VIEW_H - _MARGIN)}" '
                   f'x2="{fmt(px)}" y2="{fmt(VIEW_H - _MARGIN + 5)}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{fmt(px)}" y="{fmt(VIEW_H - _MARGIN + 20)}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y0, y1):
        py = sy(ty)
        out.append(f'<line x1="{fmt(_MARGIN - 5)}" y1="{fmt(py)}" '
                   f'x2="{fmt(_MARGIN)}" y2="{fmt(py)}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{fmt(_MARGIN - 8)}" y="{fmt(py + 4)}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{ty:g}</text>')
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    for i, c in enumerate(curves):
        pts = " ".join(f"{fmt(sx(float(x)))},{fmt(sy(float(y)))}" for x, y in c)
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{palette[i % len(palette)]}" stroke-width="1.5"/>')
    for px, py in cloud.tolist():
        out.append(f'<circle cx="{fmt(sx(px))}" cy="{fmt(sy(py))}" r="1" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render(x, y, provenance, curves, fmt: str, path: str) -> None:
    """Write a cloud's columns + curves to ``path`` as csv or svg
    (byte-deterministic); the svg draws no provenance."""
    if fmt == "csv":
        text = render_csv(x, y, provenance, curves)
    elif fmt == "svg":
        text = render_svg(x, y, curves)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", newline="") as fh:
        fh.write(text)
