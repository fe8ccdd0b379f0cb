"""A tour of the extremal families and their closed forms.

Each family below is the equality case of some sharp inequality: stadiums
for the h-r-P lower bound, two-cup bodies for the h-d-r and h-R-r upper
bounds, slices for the implicit lower bounds, subequilateral triangles for
the width-constrained upper bounds, smoothed nonagons for the small-d part
of the (d, h, r) diagram, and constant-width nonagons for a conjectured
(R, h, d) lower boundary.
"""

import math

import numpy as np

from cheeger_atlas.functionals import measure
from cheeger_atlas.geom import support
from cheeger_atlas.shapes import (Ball, ConstantWidthNonagon, Resolution, Slice,
                                  SmoothedNonagon, Stadium, SubequilateralTriangle,
                                  TwoCup, Yamanouti, build, closed_form)

RES = Resolution(4096)


def show(name, spec):
    f = measure(build(spec, RES))
    print(f"{name:34s} A={f.area:9.5f} P={f.perimeter:9.5f} r={f.inradius:7.5f} "
          f"R={f.circumradius:7.5f} d={f.diameter:8.5f} w={f.min_width:7.5f} h={f.cheeger:9.6f}")
    return f


def main():
    print("-- measured functionals (res 4096) --")
    show("ball r=1", Ball(1.0))
    show("stadium r=1 gap=2", Stadium(1.0, 2.0))
    show("two-cup r=1 tips at +-2", TwoCup(1.0, 2.0))
    show("slice r=1 d=3", Slice(1.0, 3.0))
    show("subequilateral b=1 H=2", SubequilateralTriangle(1.0, 2.0))
    show("Yamanouti s=1 rho=0.95", Yamanouti(1.0, 0.95))
    show("smoothed nonagon r=1 d=2.3", SmoothedNonagon(1.0, 2.3))
    show("constant-width nonagon w=1", ConstantWidthNonagon(1.0, 0.45))

    print("\n-- closed forms vs measurement --")
    for name, spec in [("stadium", Stadium(1.0, 2.0)), ("two-cup", TwoCup(1.0, 2.0)),
                       ("slice", Slice(1.0, 3.0))]:
        cf = closed_form(spec)
        m = measure(build(spec, RES))
        print(f"{name:8s} exact A = {cf.area:.10f}   measured A = {m.area:.10f}  "
              f"(rel err {abs(m.area - cf.area) / cf.area:.1e})")

    print("\n-- constant width, checked over 360 directions --")
    poly = build(ConstantWidthNonagon(1.0, 0.45), RES)
    widths = [support(poly, (math.cos(a), math.sin(a)))
              + support(poly, (-math.cos(a), -math.sin(a)))
              for a in np.linspace(0, math.pi, 360, endpoint=False)]
    print(f"width range: [{min(widths):.8f}, {max(widths):.8f}]  (target 1)")

    print("\n-- a two-cup with d = 5, r = 1: its tips lie d/2 from the centre --")
    spec = TwoCup(1.0, 2.5)
    print(f"spec: {spec}")
    print(f"its closed-form diameter: {closed_form(spec).diameter:.12f}")


if __name__ == "__main__":
    main()
