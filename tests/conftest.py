import numpy as np
import pytest

from cheeger_atlas.cheeger import _bracketed_root
from cheeger_atlas.errors import DegenerateInput
from cheeger_atlas.functionals import area
from cheeger_atlas.geom import ConvexPolygon
from cheeger_atlas.sampler import valtr
from cheeger_atlas.shapes import TwoCup, two_cup_area


@pytest.fixture
def unit_square():
    return ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def right_triangle():
    return ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def equilateral():
    return ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


def regular_ngon(n: int, radius: float = 1.0) -> ConvexPolygon:
    ang = 2.0 * np.pi * np.arange(n) / n
    return ConvexPolygon(radius * np.column_stack((np.cos(ang), np.sin(ang))))


def area_normalized(poly: ConvexPolygon) -> ConvexPolygon:
    """The polygon scaled to unit area."""
    return poly.scale(1 / np.sqrt(area(poly)))


def two_cup_of_perimeter(x0: float) -> TwoCup:
    """The two-cup of inradius 1 and perimeter x0 > 2 pi.  Its perimeter
    is twice its area, which rises with the tip distance k from pi at
    k = 1; at k = x0/4 + 1 the straight sides alone are longer than x0."""
    def gap(k):
        return 2 * two_cup_area(1.0, k) - x0

    hi = x0 / 4 + 1
    return TwoCup(1.0, float(_bracketed_root(gap, 1.0, gap(1.0), hi, gap(hi), 1e-13)))


def random_polygons(count: int, seed: int = 0, n_min: int = 3, n_max: int = 16):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        yield valtr(n, int(rng.integers(0, 2**63)))


def monotone_hull(points) -> ConvexPolygon:
    """Strict convex hull of a point set (Andrew's monotone chain, one point
    at a time), collinear points dropped, starting at the lowest x, then y:
    an oracle for ``minkowski_sum`` and the Yamanouti build that shares no
    code with them."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 distinct points")

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0.0:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    if len(hull) < 3:
        raise DegenerateInput("points are collinear")
    return ConvexPolygon(np.array(hull))
