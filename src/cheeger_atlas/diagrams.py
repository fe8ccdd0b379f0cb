"""Blaschke-Santalo diagram boundaries, membership tests, and rendering.

The three solved diagrams (P, h, r), (R, h, r) and (d, h, r) have complete
lower/upper curves; the partially solved width diagrams expose only their
proven pieces and answer "unknown" in between.  ``DIAGRAM_IDS`` holds each
diagram's x, y and unit functionals, ``CURVES`` the registry bound ids of
its proven curves.  ``curve`` evaluates one with the unit functional 1, on
a whole grid of abscissae at once, NaN where it has no value: an implicit
lower curve is one column crossing, a triangle upper curve the closed-form
match of the grid's subequilateral triangles (``shapes.subeq_from``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import DomainError

PI = math.pi
SQRT3 = math.sqrt(3.0)

# diagram id -> (x functional, y functional, unit functional, x-range): the
# one table of a diagram's axes; its curves and clouds are drawn with the unit
# functional 1. An x-range upper bound of None means unbounded to the right
DIAGRAM_IDS = {
    "D1_PHR": ("P", "h", "r", (2 * PI, None)),
    "D2_RHR": ("R", "h", "r", (1.0, None)),
    "D3_DHR": ("d", "h", "r", (2.0, None)),
    "HWD": ("w", "h", "d", (0.0, 1.0)),
    "HWR_CIRC": ("w", "h", "R", (0.0, 2.0)),
    "HWP": ("w", "h", "P", (0.0, 1.0 / PI)),
    "HWA": ("w", "h", "A", (0.0, 3.0 ** 0.25)),
    "HRD": ("R", "h", "d", (0.5, 1.0 / SQRT3)),
    "HWR_IN": ("w", "h", "r", (2.0, 3.0)),
}

SOLVED = ("D1_PHR", "D2_RHR", "D3_DHR")

# diagram id -> (lower, upper) registry bound ids: every proven boundary piece
# is one of the sharp inequalities at the diagram's unit.  None: no proven
# lower curve.  HWD's upper curve is the triangle bound up to x = sqrt(3)/2
# and the Yamanouti bound past it
CURVES = {
    "D1_PHR": ("HRP_LO", "HRP_UP"),
    "D2_RHR": ("HRR_LO_IMPLICIT", "HRR_UP"),
    "D3_DHR": ("HDR_LO_IMPLICIT", "HDR_UP"),
    "HWD": ("HDW_LO_IMPLICIT", ("HDW_UP_TRI", "HDW_UP_YAM")),
    "HWR_CIRC": ("HRW_LO_IMPLICIT", "HRW_UP_TRI"),
    "HWP": ("HWP_LO", "HWP_UP_TRI"),
    "HWA": ("HAW_LO", "HAW_UP_TRI"),
    "HRD": (None, "HRD_UP"),
    "HWR_IN": ("HWR_LO", "HWR_UP"),
}

# cap for log-spaced grids on unbounded ranges, relative to the left endpoint
UNBOUNDED_SPAN = 100.0
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class DiagramSpec:
    """A named diagram with a concrete x-grid."""

    id: str
    x_range: tuple[float, float] | None = None
    grid: int = 512

    def __post_init__(self):
        if self.id not in DIAGRAM_IDS:
            raise DomainError(f"unknown diagram id {self.id!r}")
        lo, hi = DIAGRAM_IDS[self.id][3]
        if self.x_range is not None:
            a, b = self.x_range
            if not (lo <= a < b and (hi is None or b <= hi * (1 + 1e-12))):
                raise DomainError(f"x-range {self.x_range} outside admissible [{lo}, {hi}]")
        if self.grid < 2:
            raise DomainError("grid must have at least 2 points")

    def xs(self) -> np.ndarray:
        lo, hi = DIAGRAM_IDS[self.id][3]
        if self.x_range is not None:
            a, b = self.x_range
            return np.linspace(a, b, self.grid)
        if hi is None:
            # log spacing keeps detail near the ball point
            return np.exp(np.linspace(np.log(lo), np.log(lo * UNBOUNDED_SPAN), self.grid))
        lo_eff = lo if lo > 0 else hi * 1e-3
        return np.linspace(lo_eff, hi, self.grid)


@dataclass(frozen=True)
class DiagramPoint:
    x: float
    y: float
    provenance: str = ""


def curve(diagram_id: str, side: str, x):
    """The proven ``side`` ("lower" or "upper") curve of a diagram at x: its
    ``CURVES`` bound with the diagram's x functional at x and unit functional 1.

    A float x gives a float and an array x an array, NaN where there is no
    value, such as past the equilateral end of a triangle curve.
    """
    x_key, _, unit, _ = DIAGRAM_IDS[diagram_id]
    bid = CURVES[diagram_id][("lower", "upper").index(side)]
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.full(xs.shape, np.nan)
    value = lambda b: bounds.bound_value(b, **{x_key: xs, unit: 1.0})
    with np.errstate(all="ignore"):
        if isinstance(bid, tuple):
            ys = np.where(xs <= SQRT3 / 2, value(bid[0]), value(bid[1]))
        elif bid is not None:
            ys = np.asarray(value(bid), dtype=float)
    return ys if np.ndim(x) else float(ys[0])


def _points(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    keep = np.isfinite(ys)
    return np.column_stack((xs[keep], ys[keep]))


def boundary(spec: DiagramSpec) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) curves as (k, 2) arrays of samples; empty where unproven.

    Each curve is computed on the whole grid at once, and the grid points
    where it has no value (such as x = 0 of a width diagram) are left out.
    For D3 the implicit lower curve automatically realizes the smoothed
    nonagon branch below d0() and the slice branch above it.
    """
    xs = spec.xs()
    return _points(xs, curve(spec.id, "lower", xs)), _points(xs, curve(spec.id, "upper", xs))


def membership(diagram_id: str, x: float, y: float) -> str:
    """'inside' / 'outside' for the solved diagrams, else possibly 'unknown'.

    The point (x, y) is compared against the diagram's proven curves with
    tolerance ``MEMBERSHIP_TOL``; for the partially solved diagrams the
    region between proven pieces is unknown.  An unknown diagram id or a
    non-finite x or y raises DomainError.
    """
    if diagram_id not in DIAGRAM_IDS:
        raise DomainError(f"unknown diagram id {diagram_id!r}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"point ({x}, {y}) is not finite")
    lo_x, hi_x = DIAGRAM_IDS[diagram_id][3]
    tol = MEMBERSHIP_TOL
    if x < lo_x - tol or (hi_x is not None and x > hi_x + tol):
        return "outside"
    lo = curve(diagram_id, "lower", max(x, lo_x))
    up = curve(diagram_id, "upper", max(x, lo_x))
    if y < lo - tol or y > up + tol:
        return "outside"
    return "inside" if diagram_id in SOLVED else "unknown"


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


def render_csv(cloud: list[DiagramPoint],
               curves: list[np.ndarray] | None = None) -> str:
    lines = ["x,y,provenance"]
    for p in cloud:
        lines.append(f"{format(p.x, '.17g')},{format(p.y, '.17g')},{p.provenance}")
    for label, c in zip(("curve:lower", "curve:upper"), curves or []):
        for x, y in c:
            lines.append(f"{format(float(x), '.17g')},{format(float(y), '.17g')},{label}")
    return "\n".join(lines) + "\n"


def render_svg(cloud: list[DiagramPoint],
               curves: list[np.ndarray] | None = None) -> str:
    """Deterministic standalone SVG: 1px dots, polyline curves, labeled axes."""
    curves = [c for c in (curves or []) if len(c)]
    xs = [p.x for p in cloud] + [float(v) for c in curves for v in c[:, 0]]
    ys = [p.y for p in cloud] + [float(v) for c in curves for v in c[:, 1]]
    if not xs:
        raise ValueError("nothing to render")
    x0, x1 = _widened(min(xs), max(xs))
    y0, y1 = _widened(min(ys), max(ys))
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
    for p in cloud:
        out.append(f'<circle cx="{fmt(sx(p.x))}" cy="{fmt(sy(p.y))}" r="1" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render(cloud: list[DiagramPoint], curves, fmt: str, path: str) -> None:
    """Write a cloud + curves to ``path`` as csv or svg (byte-deterministic)."""
    if fmt == "csv":
        text = render_csv(cloud, curves)
    elif fmt == "svg":
        text = render_svg(cloud, curves)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", newline="") as fh:
        fh.write(text)
