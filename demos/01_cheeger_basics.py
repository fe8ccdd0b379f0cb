"""Cheeger constants of simple bodies, and what the constant means.

For a planar convex body the Cheeger problem collapses to one scalar
equation: there is a unique t* with |inner_parallel(body, t*)| = pi t*^2,
the constant is h = 1/t*, and the optimal subset ("Cheeger set") is the
inner core inflated back by t*.  This script walks through that picture on
a square, a disk, and a triangle.
"""

import math

import numpy as np

from cheeger_atlas import ConvexPolygon, cheeger_constant, inner_parallel
from cheeger_atlas.functionals import area, inradius, measure, perimeter


def main():
    square = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    res = cheeger_constant(square)
    print("== unit square ==")
    print(f"h          = {res.h:.12f}")
    print(f"2 + sqrt(pi) = {2 + math.sqrt(math.pi):.12f}   (closed form)")
    print(f"t*         = {res.t_star:.12f} = 1/h")
    core = res.inner_core
    print(f"|core| = {area(core):.12f}  vs  pi t*^2 = {math.pi * res.t_star**2:.12f}")
    c = res.cheeger_set
    print(f"Cheeger set: P/A = {perimeter(c) / area(c):.9f}  (equals h up to discretization)")
    print(f"Cheeger set inradius = {inradius(c)[0]:.9f}  (equals r(square) = 0.5)")

    print("\n== disk (256-gon) ==")
    ang = 2 * np.pi * np.arange(256) / 256
    disk = ConvexPolygon(np.column_stack((np.cos(ang), np.sin(ang))))
    res = cheeger_constant(disk)
    print(f"h = {res.h:.6f}   (a disk of radius r has h = 2/r; it is its own Cheeger set)")

    print("\n== equilateral triangle, side 1 ==")
    tri = ConvexPolygon([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
    f = measure(tri)
    print(f"h measured    = {f.cheeger:.12f}")
    print(f"1/r + sqrt(pi/A) = {1 / f.inradius + math.sqrt(math.pi / f.area):.12f}")
    print("(triangles touch their incircle on every side, so the h-r-A upper")
    print(" bound is an equality for them)")

    print("\n== the scalar equation, by hand ==")
    for t in np.linspace(0.05, 0.45, 9):
        core = inner_parallel(square, float(t))
        lhs = area(core) if core is not None else 0.0
        print(f"  t = {t:.3f}   |O_-t| = {lhs:.6f}   pi t^2 = {math.pi * t * t:.6f}")


if __name__ == "__main__":
    main()
