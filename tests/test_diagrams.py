import math

import numpy as np
import pytest

from cheeger_atlas.cheeger import cheeger_constant
from cheeger_atlas.bounds import _REGISTRY, BOUND_IDS
from cheeger_atlas.diagrams import (CURVES, DIAGRAM_IDS, SOLVED, DiagramPoint, DiagramSpec,
                                    _ticks, boundary, curve, membership, render_csv, render_svg)
from cheeger_atlas.errors import DomainError
from cheeger_atlas.functionals import measure
from cheeger_atlas.shapes import Resolution, Slice, Stadium, TwoCup, build, closed_form
from conftest import two_cup_of_perimeter

PI = math.pi


class TestBoundaryValues:
    def test_d1_ball_point(self):
        spec = DiagramSpec("D1_PHR", x_range=(2 * PI, 4 * PI), grid=3)
        lower, upper = boundary(spec)
        assert lower[0] == pytest.approx([2 * PI, 2.0], abs=1e-12)
        assert upper[0] == pytest.approx([2 * PI, 2.0], abs=1e-12)

    def test_d1_at_4pi(self):
        spec = DiagramSpec("D1_PHR", x_range=(4 * PI, 8 * PI), grid=2)
        lower, upper = boundary(spec)
        assert lower[0][1] == pytest.approx(4 / 3, abs=1e-12)
        assert upper[0][1] == pytest.approx(1 + math.sqrt(0.5), abs=1e-12)

    def test_d2_ball_point(self):
        spec = DiagramSpec("D2_RHR", x_range=(1.0, 2.0), grid=2)
        lower, upper = boundary(spec)
        assert lower[0][1] == pytest.approx(2.0, abs=1e-9)
        assert upper[0][1] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("did", ["D1_PHR", "D2_RHR", "D3_DHR"])
    def test_lower_below_upper(self, did):
        lower, upper = boundary(DiagramSpec(did, grid=80))
        assert len(lower) == len(upper) == 80
        gap = upper[:, 1] - lower[:, 1]
        assert np.all(gap >= -1e-9)
        # strict separation away from the ball point
        assert np.all(gap[5:] > 1e-4)

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            DiagramSpec("D1_PHR", x_range=(1.0, 2.0))
        with pytest.raises(DomainError):
            DiagramSpec("NOPE")


class TestMembership:
    def test_ball_point_inside(self):
        assert membership("D1_PHR", 2 * PI, 2.0) == "inside"

    def test_above_upper_outside(self):
        assert membership("D1_PHR", 2 * PI, 3.0) == "outside"

    def test_left_of_domain_outside(self):
        assert membership("D1_PHR", 6.0, 2.0) == "outside"

    def test_unknown_band_is_between_curves(self):
        x = 0.5
        lo = curve("HWD", "lower", x)
        up = curve("HWD", "upper", x)
        assert membership("HWD", x, lo - 1e-3) == "outside"
        assert membership("HWD", x, up + 1e-3) == "outside"
        assert membership("HWD", x, (lo + up) / 2) == "unknown"

    @pytest.mark.parametrize("did, x, y", [("D1_PHR", math.nan, 2.0), ("D1_PHR", 7.0, math.nan),
                                           ("HWD", 0.5, math.nan), ("D2_RHR", math.inf, 2.0)])
    def test_non_finite_point_raises(self, did, x, y):
        with pytest.raises(DomainError):
            membership(did, x, y)


@pytest.mark.parametrize("did", DIAGRAM_IDS)
def test_curves_are_registry_bounds(did):
    # each proven curve is a registry bound on its side; a solved diagram has both
    direction = {d.id: d.direction for d, _, _ in _REGISTRY}
    assert did not in SOLVED or None not in CURVES[did]
    for side, bids in zip(("lower", "upper"), CURVES[did]):
        for bid in bids if isinstance(bids, tuple) else (bids,):
            assert bid is None or (bid in BOUND_IDS and direction[bid] == side), bid


class TestExtremalSweeps:
    def test_stadium_on_d1_lower(self):
        for gap in (0.3, 2.0, 8.0):
            f = closed_form(Stadium(1.0, gap))
            lower_y = 1 + PI / (f.perimeter - PI)
            assert f.cheeger == pytest.approx(lower_y, rel=1e-12)

    def test_two_cup_on_upper_curves(self):
        for k in (1.5, 3.0):
            poly = build(TwoCup(1.0, k), Resolution(4096))
            f = measure(poly)
            h = cheeger_constant(poly).h
            r = f.inradius
            for did, x in (("D1_PHR", f.perimeter), ("D2_RHR", f.circumradius),
                           ("D3_DHR", f.diameter)):
                y = curve(did, "upper", x / r)
                assert abs(h * r - y) / (h * r) < 1e-4, did

    def test_slice_on_d2_lower(self):
        for d in (2.4, 4.0):
            poly = build(Slice(1.0, d), Resolution(4096))
            f = measure(poly)
            h = cheeger_constant(poly).h
            y = curve("D2_RHR", "lower", f.circumradius / f.inradius)
            assert abs(h * f.inradius - y) / h < 1e-4

    def test_nonagon_on_d3_lower_below_d0(self):
        from cheeger_atlas.bounds import d0
        from cheeger_atlas.shapes import SmoothedNonagon
        cutoff = d0(1024)
        for x in (2.05, cutoff - 0.05):
            poly = build(SmoothedNonagon(1.0, x), Resolution(2048))
            h = cheeger_constant(poly).h
            y = curve("D3_DHR", "lower", x)
            assert abs(h - y) / h < 1e-3

    def test_slice_on_d3_lower_above_d0(self):
        from cheeger_atlas.bounds import d0
        for x in (d0(1024) + 0.1, 3.5):
            poly = build(Slice(1.0, x), Resolution(4096))
            h = cheeger_constant(poly).h
            y = curve("D3_DHR", "lower", x)
            assert abs(h - y) / h < 1e-4

    def test_interpolation_stays_inside_d1(self):
        from cheeger_atlas.geom import interpolate
        x0 = 3 * PI
        stad = Stadium(1.0, (x0 - 2 * PI) / 2)
        cup = two_cup_of_perimeter(x0)
        ps = build(stad, Resolution(2048))
        pc = build(cup, Resolution(2048))
        for t in np.linspace(0.0, 1.0, 5):
            k = interpolate(ps, pc, float(t))
            f = measure(k)
            h = cheeger_constant(k).h
            assert f.perimeter == pytest.approx(x0, abs=1e-5)
            assert f.inradius == pytest.approx(1.0, abs=1e-5)
            assert membership("D1_PHR", f.perimeter / f.inradius, h * f.inradius) == "inside"


class TestRender:
    def test_csv(self):
        text = render_csv([DiagramPoint(1.0, 2.0, "seed:9")])
        assert text == "x,y,provenance\n1,2,seed:9\n"

    def test_svg_single_dot(self):
        svg = render_svg([DiagramPoint(1.0, 2.0)])
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert '<circle' in svg

    def test_svg_deterministic(self):
        lower, upper = boundary(DiagramSpec("D1_PHR", grid=32))
        pts = [DiagramPoint(7.0, 1.8, "a"), DiagramPoint(9.0, 1.6, "b")]
        assert render_svg(pts, [lower, upper]) == render_svg(pts, [lower, upper])

    def test_ticks(self):
        assert _ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        assert _ticks(7.0, 12.0) == [7.0, 8.0, 9.0, 10.0, 11.0, 12.0]
        assert _ticks(3.0, 3.0) == [3.0]
        # a step of 5000 does not move 1e20, whose rounding is 16384
        assert _ticks(1e20, 1e20 + 16384.0) == [1e20]

    def test_svg_far_from_zero(self):
        # two x apart by the rounding of 1e20, and two equal x there, which
        # 0.5 does not widen
        for x2 in (1e20 + 16384.0, 1e20):
            svg = render_svg([DiagramPoint(1e20, 1.0), DiagramPoint(x2, 2.0)])
            assert svg.count("<circle") == 2

    def test_cloud_between_curves(self):
        from cheeger_atlas.sampler import sample_cloud
        recs = sample_cloud(25, 3, 20, ("P", "h", "r"), seed=8, workers=2)
        for rec in recs:
            assert membership("D1_PHR", rec.x, rec.y) == "inside"
