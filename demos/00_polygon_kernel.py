"""The polygon kernel: checked polygons, offsets, Minkowski sums, dilation, form bodies.

Everything downstream (Cheeger constants, bounds, diagrams) reduces to a
handful of exact polygon operations shown here.
"""

import math

import numpy as np

from cheeger_atlas.errors import DegenerateInput
from cheeger_atlas.functionals import area, inradius, perimeter
from cheeger_atlas.geom import ConvexPolygon, dilate, form_body, inner_parallel, minkowski_sum, support


def main():
    print("-- a polygon is checked strictly convex and keeps its edge data --")
    square = ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])
    print(f"clockwise input is reversed: {square.vertices.tolist()}, area {area(square)}, "
          f"support along (1, 1): {support(square, (1, 1))}")
    try:
        ConvexPolygon([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]])
    except DegenerateInput as exc:
        print(f"a collinear vertex is rejected: {exc}")

    print("\n-- inner parallel sets shrink every functional linearly --")
    for t in (0.1, 0.25, 0.4, 0.49):
        p = inner_parallel(square, t)
        print(f"  t={t:4.2f}: area {area(p):8.6f} perimeter {perimeter(p):8.6f}")
    print(f"  t=0.50: {inner_parallel(square, 0.5)}   (the square vanishes at its inradius)")

    print("\n-- Minkowski sums add support functions and perimeters --")
    ang = 2 * np.pi * np.arange(6) / 6
    hexa = ConvexPolygon(np.column_stack((np.cos(ang), np.sin(ang))))
    hexb = ConvexPolygon(np.column_stack((np.cos(ang + np.pi / 6), np.sin(ang + np.pi / 6))))
    s = minkowski_sum(hexa, hexb)
    print(f"hexagon (+) rotated hexagon: {len(s)} edges, perimeter {perimeter(s):.12f} (= 6 + 6)")
    u = (0.6, 0.8)
    print(f"support additivity along {u}: {support(s, u):.12f} "
          f"= {support(hexa, u):.12f} + {support(hexb, u):.12f}")

    print("\n-- dilation approaches the Steiner formula from below --")
    exact = 1 + 4 + math.pi
    for m in (64, 512, 4096):
        d = dilate(square, 1.0, m)
        print(f"  arc_segments={m:5d}: area {area(d):.9f} (exact {exact:.9f}, deficit "
              f"{exact - area(d):.2e})")

    print("\n-- the form body rescales all edge offsets to 1 --")
    rect = ConvexPolygon([[0, 0], [3, 0], [3, 1], [0, 1]])
    fb = form_body(rect)
    r, _ = inradius(fb)
    print(f"form body of a 3x1 rectangle: square with inradius {r} (same normal fan)")


if __name__ == "__main__":
    main()
