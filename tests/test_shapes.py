import math
import warnings

import numpy as np
import pytest

from cheeger_atlas.cheeger import cheeger_constant
from cheeger_atlas.errors import InvalidParam, Unreachable, Unsupported
from cheeger_atlas.functionals import measure
from cheeger_atlas import shapes
from cheeger_atlas.geom import support
from cheeger_atlas.shapes import (Ball, ConstantWidthNonagon, Resolution, Slice,
                                  SmoothedNonagon, Stadium, SubequilateralTriangle, TwoCup,
                                  Yamanouti, build, closed_form, nonagon_area, solve_param,
                                  triangle_functionals)
from conftest import monotone_hull

PI = math.pi
SQRT3 = math.sqrt(3.0)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestClosedForms:
    def test_ball(self):
        f = closed_form(Ball(2.0))
        assert (f.area, f.perimeter) == (4 * PI, 4 * PI)
        assert (f.inradius, f.circumradius, f.diameter, f.min_width) == (2, 2, 4, 4)
        assert f.cheeger == 1.0

    def test_stadium(self):
        f = closed_form(Stadium(1.0, 2.0))
        assert f.area == pytest.approx(PI + 4)
        assert f.perimeter == pytest.approx(2 * PI + 4)
        assert f.cheeger == pytest.approx((2 * PI + 4) / (PI + 4), abs=1e-15)
        assert f.cheeger == pytest.approx(1.439901, abs=5e-7)

    def test_two_cup(self):
        # oracle: area/perimeter identities evaluated by hand at k = 2
        f = closed_form(TwoCup(1.0, 2.0))
        P = 2 * (math.sqrt(12.0) + 2 * math.asin(0.5))
        assert f.perimeter == pytest.approx(P, abs=1e-14)
        assert f.area == pytest.approx(P / 2, abs=1e-14)
        assert f.cheeger == pytest.approx(1 + math.sqrt(2 * PI / P), abs=1e-14)
        # frozen from a 30-digit evaluation of the same identities
        assert f.cheeger == pytest.approx(1.83449573658746699, abs=1e-15)

    def test_slice(self):
        f = closed_form(Slice(1.0, 3.0))
        assert f.area == pytest.approx(math.sqrt(5) + 4.5 * math.asin(2 / 3), abs=1e-14)
        assert f.perimeter == pytest.approx(2 * math.sqrt(5) + 6 * math.asin(2 / 3), abs=1e-14)
        assert f.cheeger is None
        assert (f.inradius, f.circumradius, f.diameter, f.min_width) == (1.0, 1.5, 3.0, 2.0)

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            closed_form(Yamanouti(1.0, 0.9))


class TestBuildMatchesClosedForm:
    CASES = [
        (Ball(1.5), 2e-7),
        (Stadium(1.0, 0.1), 2e-7), (Stadium(1.0, 2.0), 2e-7), (Stadium(0.5, 5.0), 2e-7),
        (TwoCup(1.0, 1.2), 5e-7), (TwoCup(1.0, 2.0), 5e-7), (TwoCup(2.0, 9.0), 5e-7),
        (Slice(1.0, 2.2), 5e-7), (Slice(1.0, 4.0), 5e-7), (Slice(0.5, 3.0), 5e-7),
    ]

    @pytest.mark.parametrize("spec,tol", CASES)
    def test_grid(self, spec, tol):
        cf = closed_form(spec)
        m = measure(build(spec, Resolution(8192)))
        for key in ("A", "P", "r", "R", "d", "w"):
            assert rel(m.value(key), cf.value(key)) < max(tol, 5e-5), key

    @pytest.mark.parametrize("d", [2.1, 2.3, 3.0, 3.4])
    def test_nonagon_area(self, d):
        # the closed form behind psi's nonagon branch is the built body's area
        m = measure(build(SmoothedNonagon(1.5, 1.5 * d), Resolution(8192)))
        assert rel(m.area, nonagon_area(1.5 * d, 1.5)) < 5e-7

    def test_degenerate_two_cup_is_ball(self):
        m = measure(build(TwoCup(1.0, 1.0), Resolution(1024)))
        b = closed_form(Ball(1.0))
        for key in ("A", "P", "r", "R", "d", "w"):
            assert rel(m.value(key), b.value(key)) < 1e-5

    def test_degenerate_slice_is_ball(self):
        m = measure(build(Slice(1.0, 2.0), Resolution(1024)))
        b = closed_form(Ball(1.0))
        for key in ("A", "P", "r", "R", "d", "w"):
            assert rel(m.value(key), b.value(key)) < 1e-5

    def test_stadium_res4096_within_1e5(self):
        cf = closed_form(Stadium(1.0, 2.0))
        m = measure(build(Stadium(1.0, 2.0), Resolution(4096)))
        assert rel(m.area, cf.area) < 1e-5
        assert rel(m.perimeter, cf.perimeter) < 1e-5


class TestTriangle:
    def test_subequilateral_functionals(self):
        b, H = 1.0, 2.0
        f = triangle_functionals(b, H)
        s = math.hypot(H, b / 2)
        assert f.area == pytest.approx(1.0)
        assert f.perimeter == pytest.approx(1 + 2 * s)
        assert f.diameter == pytest.approx(s)
        assert f.min_width == pytest.approx(b * H / s)
        assert f.circumradius == pytest.approx(s * s / (2 * H))
        m = measure(build(SubequilateralTriangle(b, H), Resolution(16)))
        for key in ("A", "P", "r", "R", "d", "w"):
            assert rel(m.value(key), f.value(key)) < 1e-12

    def test_triangle_cheeger_identity(self):
        # triangles are form-body homothets: h = 1/r + sqrt(pi/A)
        f = triangle_functionals(1.0, 3.0)
        poly = build(SubequilateralTriangle(1.0, 3.0), Resolution(16))
        res = cheeger_constant(poly)
        assert res.h == pytest.approx(f.cheeger, rel=1e-11)

    def test_param_validation(self):
        with pytest.raises(InvalidParam):
            SubequilateralTriangle(1.0, 0.5)


class TestNonagons:
    @pytest.mark.parametrize("d", [2.05, 2.2, 2.8, 3.2, 3.44])
    def test_smoothed_round_trip(self, d):
        m = measure(build(SmoothedNonagon(1.0, d), Resolution(4096)))
        assert rel(m.inradius, 1.0) < 5e-4
        assert rel(m.diameter, d) < 5e-4

    def test_smoothed_scaling(self):
        m = measure(build(SmoothedNonagon(2.0, 5.0), Resolution(2048)))
        assert rel(m.inradius, 2.0) < 1e-3
        assert rel(m.diameter, 5.0) < 1e-3

    def test_smoothed_param_range(self):
        with pytest.raises(InvalidParam):
            SmoothedNonagon(1.0, 2.0)
        with pytest.raises(InvalidParam):
            SmoothedNonagon(1.0, 2 * SQRT3)

    @pytest.mark.parametrize("r", [0.43, 0.46, 0.499])
    def test_constant_width(self, r):
        poly = build(ConstantWidthNonagon(1.0, r), Resolution(4096))
        dirs = np.linspace(0, PI, 360, endpoint=False)
        widths = [support(poly, (math.cos(a), math.sin(a)))
                  + support(poly, (-math.cos(a), -math.sin(a))) for a in dirs]
        assert (max(widths) - min(widths)) / 1.0 < 1e-3
        m = measure(poly)
        assert rel(m.min_width, m.circumradius + m.inradius) < 1e-3

    def test_cw_param_range(self):
        with pytest.raises(InvalidParam):
            ConstantWidthNonagon(1.0, 0.5)
        with pytest.raises(InvalidParam):
            ConstantWidthNonagon(1.0, 0.40)


class TestYamanouti:
    def test_reuleaux_constant_width(self):
        poly = build(Yamanouti(1.0, 1.0), Resolution(4096))
        dirs = np.linspace(0, PI, 180, endpoint=False)
        widths = [support(poly, (math.cos(a), math.sin(a)))
                  + support(poly, (-math.cos(a), -math.sin(a))) for a in dirs]
        assert max(widths) == pytest.approx(1.0, abs=1e-5)
        assert min(widths) == pytest.approx(1.0, abs=1e-5)

    def test_small_radius_degenerates_to_triangle(self):
        poly = build(Yamanouti(1.0, 0.6), Resolution(512))
        assert len(poly) == 3
        m = measure(poly)
        assert m.min_width == pytest.approx(SQRT3 / 2, abs=1e-12)
        assert m.diameter == pytest.approx(1.0, abs=1e-12)

    def test_width_equality_line(self):
        # omega - r = d / sqrt(3) along the family
        for rho in (0.88, 0.95, 1.0):
            m = measure(build(Yamanouti(1.0, rho), Resolution(4096)))
            assert m.min_width - m.inradius == pytest.approx(1.0 / SQRT3, abs=1e-4)

    @pytest.mark.parametrize("res", [512, 2048, 8192])
    def test_is_the_hull_of_triangle_and_arcs(self, res):
        # the ordered build against the strict hull of the triangle and the
        # open arcs about its vertices: the same vertices, bit for bit, and
        # the same start, across 65 arc radii up to the side and on both
        # sides of the triangle height sqrt(3)/2
        step = 2 * PI / res
        for side in (1.0, 2.0):
            v = np.array([[-side / 2, -side / (2 * SQRT3)], [side / 2, -side / (2 * SQRT3)],
                          [0.0, side / SQRT3]])
            for rho in side * np.concatenate((np.linspace(1e-6, 1.0, 65), [0.6, 0.88, 0.95])):
                pts = [v]
                for i in range(3):
                    c, to_next, to_prev = v[i], v[(i + 1) % 3] - v[i], v[(i + 2) % 3] - v[i]
                    a0, a1 = math.atan2(to_next[1], to_next[0]), math.atan2(to_prev[1], to_prev[0])
                    pts.append(shapes._arc(c, rho, a0, a1 + 2 * PI if a1 < a0 else a1, step)[1:-1])
                got = build(Yamanouti(side, float(rho)), Resolution(res)).vertices
                assert np.array_equal(got, monotone_hull(np.concatenate(pts)).vertices), (side, rho)


class TestSolveParam:
    def test_subeq_w_d(self):
        spec = solve_param(("w", 1.0), ("d", 3.0))
        f = triangle_functionals(spec.base, spec.height)
        assert f.min_width == pytest.approx(1.0, abs=1e-8)
        assert f.diameter == pytest.approx(3.0, abs=1e-8)
        # the triangles the registry matches by width and A, P or R, from
        # the equilateral end on
        for key in ("A", "P", "R"):
            for height in (SQRT3 / 2, 1.0, 2.0, 5.0):
                want = triangle_functionals(1.0, height)
                spec = solve_param((key, want.value(key)), ("w", want.min_width))
                assert spec.base == pytest.approx(1.0, rel=1e-10)
                assert spec.height == pytest.approx(height, rel=1e-10)
        # the closed form takes the width and one of d, A, R, P
        with pytest.raises(InvalidParam, match="matched by w"):
            solve_param(("r", 0.2), ("d", 3.0))

    def test_unreachable(self):
        with pytest.raises(Unreachable):
            # below the area of the equilateral triangle of width 1
            solve_param(("A", 0.5 / SQRT3), ("w", 1.0))

    def test_float_values_are_positive_finite_numbers(self):
        # a bool, NaN, an infinity or a negative value is no functional
        # value, on either side, and raises before any arithmetic warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (True, math.nan, math.inf, -1.0):
                for target, fixed in ((("w", bad), ("d", 3.0)), (("w", 1.0), ("d", bad))):
                    with pytest.raises(InvalidParam):
                        solve_param(target, fixed)


class TestSpecNumbers:
    def test_bool_is_no_number(self):
        # bool is an int subclass; a spec, like polygon JSON, takes no bool for a number
        for make in (lambda: Ball(True), lambda: Stadium(1.0, False), lambda: Slice(1.0, math.nan)):
            with pytest.raises(InvalidParam):
                make()


class TestTwoCupAreaIdentity:
    @pytest.mark.parametrize("r,k", [(1.0, 1.3), (1.0, 2.0), (0.7, 3.0)])
    def test_del2cap_equality(self, r, k):
        # |C| = r sqrt(d^2-4r^2) + r^2 (pi - 2 acos(2r/d)) at d = 2k
        d = 2 * k
        expect = r * math.sqrt(d * d - 4 * r * r) + r * r * (PI - 2 * math.acos(2 * r / d))
        m = measure(build(TwoCup(r, k), Resolution(8192)))
        assert rel(m.area, expect) < 5e-5


def dedupe_loop(chunks, scale):
    """Reference for shapes._dedupe: compare each point with the last kept one."""
    pts = np.concatenate(chunks)
    keep = [0]
    for i in range(1, len(pts)):
        if np.hypot(*(pts[i] - pts[keep[-1]])) > 1e-12 * scale:
            keep.append(i)
    if np.hypot(*(pts[keep[-1]] - pts[keep[0]])) <= 1e-12 * scale:
        keep.pop()
    return pts[keep]


class TestDedupe:
    SPECS = [
        Stadium(1.0, 0.0), Stadium(1.0, 1e-13), Stadium(1.0, 2.0), Stadium(0.5, 5.0),
        TwoCup(1.0, 1.0), TwoCup(1.0, 1.0 + 1e-13), TwoCup(1.0, 2.0), TwoCup(2.0, 9.0),
        Slice(1.0, 2.0), Slice(1.0, 2.0 + 1e-13), Slice(1.0, 3.0), Slice(0.5, 3.0),
        SmoothedNonagon(1.0, 2.0 + 1e-9), SmoothedNonagon(1.0, 2.8),
        SmoothedNonagon(1.0, 2 * SQRT3 - 1e-9),
        ConstantWidthNonagon(1.0, 1 - 1 / SQRT3), ConstantWidthNonagon(1.0, 0.46),
        ConstantWidthNonagon(1.0, 0.5 - 1e-9),
    ]

    @pytest.mark.parametrize("res", [16, 17, 64, 1000, 4096, 8192])
    def test_matches_loop(self, res, monkeypatch):
        fast = [build(spec, res).vertices for spec in self.SPECS]
        monkeypatch.setattr(shapes, "_dedupe", dedupe_loop)
        for spec, v in zip(self.SPECS, fast):
            assert np.array_equal(build(spec, res).vertices, v), spec
