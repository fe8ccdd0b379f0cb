import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cheeger_atlas.bounds import _arcsinc_bracket, psi
from cheeger_atlas.cheeger import (MAX_ROOT_STEPS, ImplicitRootProblem, _bracketed_root,
                                   cheeger_constant, smallest_crossing)
from cheeger_atlas.errors import DegenerateInput, InvalidParam, NoConvergence
from cheeger_atlas.functionals import area, diameter, inradius, measure, perimeter
from cheeger_atlas.geom import (ConvexPolygon, OffsetMachine, dilate, inner_parallel,
                               inner_parallel_area, shoelace)
from cheeger_atlas.sampler import seeded_polygon, seeded_polygons, valtr
from cheeger_atlas.shapes import Resolution
from conftest import area_normalized, random_polygons, regular_ngon

PI = math.pi


def square_t_star() -> float:
    # analytic oracle for the unit square: (1 - 2t)^2 = pi t^2
    return 1.0 / (2.0 + math.sqrt(PI))


def triangle_t_star(A: float, r: float) -> float:
    # homothetic shrinking: A (1 - t/r)^2 = pi t^2
    return math.sqrt(A) / (math.sqrt(PI) + math.sqrt(A) / r)


class TestCheegerConstant:
    def test_unit_square_analytic(self, unit_square):
        res = cheeger_constant(unit_square)
        assert res.h == pytest.approx(2.0 + math.sqrt(PI), abs=1e-9)
        assert res.t_star == pytest.approx(square_t_star(), abs=1e-12)

    def test_ball_256(self):
        res = cheeger_constant(regular_ngon(256))
        assert res.h == pytest.approx(2.0, abs=2e-3)
        assert res.t_star == pytest.approx(0.5, abs=1e-3)

    def test_equilateral_form_body_equality(self, equilateral):
        # form-body homothets satisfy h = 1/r + sqrt(pi/A) exactly
        res = cheeger_constant(equilateral)
        expect = 2 * math.sqrt(3) + 2 * math.sqrt(PI / math.sqrt(3))
        assert res.h == pytest.approx(expect, abs=1e-9)
        f = measure(equilateral)
        t = triangle_t_star(f.area, f.inradius)
        assert res.t_star == pytest.approx(t, abs=1e-12)

    def test_defining_equation(self, right_triangle):
        res = cheeger_constant(right_triangle)
        assert res.h * res.t_star == pytest.approx(1.0, abs=1e-12)
        core_area = area(res.inner_core)
        assert core_area == pytest.approx(PI * res.t_star ** 2, rel=1e-9)

    def test_cheeger_set_structure(self, unit_square):
        res = cheeger_constant(unit_square, arc_segments=4096)
        c = res.cheeger_set
        assert perimeter(c) / area(c) == pytest.approx(res.h, rel=1e-6)
        r, _ = inradius(c)
        assert r == pytest.approx(0.5, abs=1e-5)
        assert diameter(c)[0] <= math.sqrt(2) + 1e-9

    def test_scaling(self):
        poly = valtr(9, 123)
        h1 = cheeger_constant(poly).h
        for t in (0.5, 2.0):
            h2 = cheeger_constant(poly.scale(t)).h
            assert h2 == pytest.approx(h1 / t, rel=1e-9)

    def test_monotone_under_inclusion(self):
        for poly in random_polygons(10, seed=2):
            r, _ = inradius(poly)
            inner = inner_parallel(poly, 0.3 * r)
            h_out = cheeger_constant(poly).h
            h_in = cheeger_constant(inner).h
            assert h_in >= h_out - 1e-9 * h_out

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30))
    def test_inradius_bracket(self, seed, n):
        poly = valtr(n, seed)
        r, _ = inradius(poly)
        h = cheeger_constant(poly).h
        assert 1 / r - 1e-9 / r <= h <= 2 / r + 1e-9 / r


def rectangle_t_star(a: float) -> float:
    # 1 x a rectangle: (1 - 2t)(a - 2t) = pi t^2, smaller root without cancellation
    return a / ((1 + a) + math.sqrt((1 + a) ** 2 - (4 - PI) * a))


def rotate(poly, angle):
    c, s = math.cos(angle), math.sin(angle)
    return ConvexPolygon(poly.vertices @ np.array([[c, s], [-s, c]]))


class TestRobustness:
    @pytest.mark.parametrize("a", [1e-6, 1e-8, 1e-10])
    def test_thin_rectangle(self, a):
        # the core at t* is about 0.785 a^2 high: numerically a segment
        res = cheeger_constant(ConvexPolygon([[0, 0], [1, 0], [1, a], [0, a]]))
        assert res.t_star == pytest.approx(rectangle_t_star(a), rel=1e-12)
        assert res.h * res.t_star == pytest.approx(1.0, rel=1e-15)

    # h from a 50-digit evaluation built from the float vertices: unit normals
    # and offsets of the lines through consecutive vertices, the inner
    # parallel area by intersecting those lines shifted by t, and 200
    # bisection steps on |K_-t| = pi t^2 (mpmath, 50 digits)
    @pytest.mark.parametrize("poly, h", [
        # census seed 1 record 1394, a 25-gon: line intersections left h 1.5e-13 low
        (area_normalized(seeded_polygon(1, 1394, 3, 30)[2]), 3.708574461605630037),
        # two edges turning by 9.0e-8 rad: line intersections left h 1.8e-11 low
        (valtr(21, 5217), 4.2783184415090518534),
    ])
    def test_high_precision_oracle(self, poly, h):
        assert cheeger_constant(poly).h == pytest.approx(h, rel=1e-14)

    # h of [[0, 0], [1, 0], [0.7, b], [0.2, 0.6 b]] turned by 40 degrees, from
    # the float vertices: 60-digit mpmath, clipping by every edge line shifted
    # by t, shoelace, then 230 bisection steps on |K_-t| = pi t^2.  Corner
    # velocities formed for unit normals at its acute corners left h 8.9e-10,
    # 4.7e-8 and 1.2e-5 high
    @pytest.mark.parametrize("b, h", [
        (1e-4, 20201.337361391908306868144387975588),
        (1e-5, 200636.68423329462090828065517000858),
        (1e-6, 2002013.3723977513767290225733166800),
    ])
    def test_thin_quadrilateral_oracle(self, b, h):
        poly = rotate(ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.7, b], [0.2, 0.6 * b]]), math.radians(40))
        assert cheeger_constant(poly).h == pytest.approx(h, rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(aspect=st.floats(2.0, 6.0), p=st.floats(0.1, 0.9), f=st.floats(0.05, 0.9),
           g=st.floats(0.1, 0.9), angle=st.floats(0.0, 2 * math.pi),
           s=st.floats(1e-3, 1e3), vx=st.floats(-10.0, 10.0), vy=st.floats(-10.0, 10.0))
    def test_thin_quadrilateral_invariance(self, aspect, p, f, g, angle, s, vx, vy):
        # the quadrilateral [[0, 0], [1, 0], [p, b], [q, y b]] is convex for
        # q < y p; rounding its scaled vertices reshapes it by about eps / b,
        # and 8,000 random ones kept h within 1.3e-16 / b
        b = 10.0 ** -aspect
        q = f * p
        poly = rotate(ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [p, b], [q, (f + (1 - f) * g) * b]]), angle)
        h = cheeger_constant(poly).h
        assert cheeger_constant(poly.scale(s)).h * s == pytest.approx(h, rel=1e-15 / b)
        # shifting back is exact, so both solves see one shape
        moved = poly.translate([vx, vy])
        assert cheeger_constant(moved).h == pytest.approx(
            cheeger_constant(moved.translate([-vx, -vy])).h, rel=1e-15 / b)

    # triangles are tangential, so h = P / (2A) + sqrt(pi / A), with A the
    # exact area of the float vertices; on these needles (h 330 and 540)
    # P^2 - 4 T A formed from P, T and A left h 3.4e-10 high and 5.3e-9 low
    @pytest.mark.parametrize("seed", [187, 693])
    def test_thin_triangle_closed_form(self, seed):
        poly = area_normalized(valtr(3, seed))
        v = [[Fraction(x) for x in p] for p in poly.vertices.tolist()]
        a = float(sum(v[i - 1][0] * v[i][1] - v[i][0] * v[i - 1][1] for i in range(3)) / 2)
        p = math.fsum(math.dist(poly.vertices[i - 1], poly.vertices[i]) for i in range(3))
        assert cheeger_constant(poly).h == pytest.approx(p / (2 * a) + math.sqrt(PI / a), rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30),
           vx=st.floats(-1e6, 1e6), vy=st.floats(-1e6, 1e6))
    # a thin triangle whose core at t* is 3.3e-5 in area: at 1e6 the
    # shoelace of the absolute coordinates once read it as clockwise
    @example(seed=36740072, n=3, vx=865761.25, vy=662398.53125)
    def test_translation_invariant(self, seed, n, vx, vy):
        # shifting back is exact, so both solves see one shape and only the
        # solver's own dependence on position is measured
        moved = valtr(n, seed).translate([vx, vy])
        h = cheeger_constant(moved.translate([-vx, -vy])).h
        assert cheeger_constant(moved).h == pytest.approx(h, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30), k=st.integers(-30, 30))
    def test_scale_covariant(self, seed, n, k):
        # powers of two scale without rounding, so the solve must be covariant
        poly = valtr(n, seed)
        h = cheeger_constant(poly).h
        assert cheeger_constant(poly.scale(2.0 ** k)).h == pytest.approx(h / 2.0 ** k, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30),
           angle=st.floats(0.0, 2 * math.pi))
    def test_rotation_invariant(self, seed, n, angle):
        # rounding the rotated vertices reshapes a needle by about eps * d / r
        poly = valtr(n, seed)
        f = measure(poly)
        h = cheeger_constant(poly).h
        assert cheeger_constant(rotate(poly, angle)).h == pytest.approx(
            h, rel=1e-13 * f.diameter / f.inradius)

    def test_lost_core_raises(self, monkeypatch, unit_square):
        # h comes without the core; a core that does not survive raises when
        # it is read, and is not retried at another t
        asked = []

        def lost(self, local):
            asked.append(local)
            return None
        monkeypatch.setattr(ConvexPolygon, "placed", lost)
        res = cheeger_constant(unit_square)
        assert res.t_star == pytest.approx(square_t_star(), rel=1e-15)
        assert asked == []
        with pytest.raises(NoConvergence):
            res.inner_core
        with pytest.raises(NoConvergence):
            res.cheeger_set
        assert shoelace(asked[0]) == pytest.approx(PI * res.t_star ** 2, rel=1e-14)

    @pytest.mark.parametrize("a, shift", [(1e-6, (1e6, 1e6)), (1e-10, (1e3, 1e3))])
    def test_thin_far_rectangle(self, a, shift):
        # the core at t* is about 0.785 a^2 high, below the rounding of the
        # shifted coordinates: h is still exact, and reading the core raises
        poly = ConvexPolygon([[0, 0], [1, 0], [1, a], [0, a]]).translate(shift)
        res = cheeger_constant(poly)
        home = cheeger_constant(poly.translate([-shift[0], -shift[1]]))
        assert res.h == home.h
        assert len(home.inner_core) == 4
        with pytest.raises(DegenerateInput):
            res.inner_core


@pytest.mark.parametrize("call, error, message", [
    (lambda p: inner_parallel(p, math.nan), DegenerateInput, "offset distance"),
    (lambda p: dilate(p, 0.1, arc_segments=math.nan), DegenerateInput, "arc_segments"),
    (lambda p: dilate(p, math.nan), DegenerateInput, "dilation radius"),
    (lambda p: cheeger_constant(p, arc_segments=math.nan).cheeger_set, InvalidParam, "arc_segments"),
    (lambda p: Resolution(math.nan), InvalidParam, "arc_segments"),
], ids=["inner_parallel", "dilate_arc_segments", "dilate_radius", "cheeger_constant", "Resolution"])
def test_nan_parameter_rejected(call, error, message):
    # NaN fails each range check itself, instead of slipping past a comparison
    with pytest.raises(error, match=message):
        call(valtr(12, 3))


class TestDiagnostics:
    # how a solve ran is read off the polygon's walk, the solve's one record
    def test_census_set_needs_few_evaluations(self):
        # drawn as verify.census draws its records; blind bisection took 45
        worst = 0
        for i in range(200):
            poly = area_normalized(seeded_polygon(2024, i, 3, 30)[2])
            cheeger_constant(poly)
            worst = max(worst, poly.walk.evaluations)
        assert worst <= 8

    def test_record(self, unit_square):
        res = cheeger_constant(unit_square)
        walk = unit_square.walk
        assert res.t_star == walk.t_star
        assert walk.evaluations >= 0
        assert min(walk.steps_after, walk.cascade_passes, walk.recomputes) >= 0
        assert abs(shoelace(walk.core) - PI * walk.t_star ** 2) <= 1e-14

    def test_evaluations_are_area_at_calls(self, monkeypatch):
        # the walk's evaluations before t* are counted; the rest go on to r
        calls = []
        original = OffsetMachine.area_at

        def counted(self, t, *args):
            calls.append(t)
            return original(self, t, *args)
        monkeypatch.setattr(OffsetMachine, "area_at", counted)
        poly = regular_ngon(7).translate([0.3, 0.1]).scale(2.0)
        poly = ConvexPolygon(poly.vertices * np.array([1.0, 0.4]))
        res = cheeger_constant(poly)
        k = poly.walk.evaluations
        assert len(calls) > k >= 1
        assert max(calls[:k]) < res.t_star < min(calls[k:])
        assert calls[-1] == pytest.approx(inradius(poly)[0], rel=1e-12)

    def test_solve_runs_no_shoelace(self, monkeypatch):
        # h is read off the walk: no shoelace of the core checks it afterwards
        block = seeded_polygons(1, 0, 10, 3, 30)[2]
        poly = regular_ngon(9)

        def refused(*args):
            raise AssertionError("shoelace called")
        for name, module in list(sys.modules.items()):
            if name.startswith("cheeger_atlas") and getattr(module, "shoelace", None) is shoelace:
                monkeypatch.setattr(module, "shoelace", refused)
        assert [rec.cheeger for rec in measure(block)] == [1 / p.walk.t_star for p in block]
        assert cheeger_constant(poly).h == 1 / poly.walk.t_star


class TestSmallestCrossing:
    def test_symmetric_parabola(self):
        p = ImplicitRootProblem(g=lambda t: PI * (1 - t) ** 2, upper=1.0)
        assert smallest_crossing(p)[0] == pytest.approx(0.5, abs=1e-13)
        assert 1 / smallest_crossing(p)[0] == pytest.approx(2.0, abs=1e-12)

    def test_square_offset_area(self, unit_square):
        p = ImplicitRootProblem(
            g=lambda t: np.asarray([inner_parallel_area(unit_square, float(x)) for x in np.atleast_1d(t)]),
            upper=0.5)
        assert smallest_crossing(p)[0] == pytest.approx(square_t_star(), abs=1e-12)

    def test_no_root(self):
        assert np.isnan(smallest_crossing(ImplicitRootProblem(g=lambda t: -np.ones_like(t), upper=1.0))[0])

    def test_touch_at_zero_is_vacuous(self):
        # g below pi t^2 everywhere except at t = 0 carries no information
        assert np.isnan(smallest_crossing(ImplicitRootProblem(g=lambda t: -np.asarray(t), upper=1.0))[0])

    def test_replaced_g_sees_every_evaluation(self):
        # the benchmark counts g points through dataclasses.replace(problem, g=...)
        inner, outer = [], []
        # g1 at d = 3, r = 1: psi(d - 2t, r - t) on [0, r]
        base = ImplicitRootProblem(lambda t: psi(3.0 - 2 * t, np.maximum(1.0 - t, 0.0)), 1.0)

        def g(t):
            inner.append(np.size(t))
            return base.g(t)

        def counting_g(t):
            outer.append(np.size(t))
            return g(t)
        problem = ImplicitRootProblem(g, base.upper)
        t = smallest_crossing(dataclasses.replace(problem, g=counting_g))[0]
        assert t == smallest_crossing(base)[0]
        assert sum(outer) == sum(inner) <= 8

    def test_bracket_columns_ride_bit_for_bit(self):
        # further bracket columns solved in the crossing loop come back as each
        # solved alone, whatever their shapes and however many steps each takes
        d = np.array([3.0, 2.5, 2.0])
        problem = ImplicitRootProblem(lambda t: psi(d - 2 * t, np.maximum(1.0 - t, 0.0)), np.ones(3))
        sinc = _arcsinc_bracket(np.array([[0.05, 0.5, 1.0], [0.9, 2.0, 1 - 1e-9]]))
        step = lambda x: np.where(x < 1.0 / 3.0, 1.0, -1.0)
        endless = (step, 0.0, 1.0, 1.0, -1.0, 0.0)  # xtol 0: out of steps long after the rest
        line = (lambda x: x - 1.0, 0.0, -1.0, 2.0, 1.0, 1e-12)  # its first step lands on the root
        got = smallest_crossing(problem, sinc, endless, line)
        want = (smallest_crossing(problem)[0], *(_bracketed_root(*c) for c in (sinc, endless, line)))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == np.shape(w) and g.tobytes() == np.asarray(w).tobytes()


class TestBracketedRoot:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_either_orientation(self, sign):
        f = lambda x: sign * (math.exp(x) - 2.0)
        for a, b in ((0.0, 3.0), (3.0, 0.0)):
            root = _bracketed_root(f, a, f(a), b, f(b), 1e-14)
            assert root == pytest.approx(math.log(2.0), abs=1e-14)

    def test_zero_at_an_end(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0
        assert _bracketed_root(f, 1.0, 0.0, 2.0, 1.0, 1e-12) == 1.0
        assert _bracketed_root(f, 0.0, -1.0, 1.0, 0.0, 1e-12) == 1.0
        assert calls == []
        # a step that lands on the root exactly is the last evaluation
        assert _bracketed_root(f, 0.0, -1.0, 2.0, 1.0, 1e-12) == 1.0
        assert calls == [1.0]
        got = _bracketed_root(lambda x: np.asarray(f(x)), np.array([1.0, 0.0]), np.array([0.0, -1.0]),
                              np.array([2.0, 2.0]), np.array([1.0, 1.0]), 1e-12)
        assert list(got) == [1.0, 1.0] and len(calls) == 2

    def test_secant_on_an_end_steps_inside(self):
        # F(1) = 1e-20 against F = -1 at the other end: the secant rounds
        # onto x = 1, so the step goes xtol/2 inside that end and the bracket
        # closes at once, where bisecting it down to xtol takes 40 steps
        for s in (1.0, -1.0):
            calls = []

            def f(x):
                calls.append(x)
                return 1e-20 - s * (x - 1.0)
            root = _bracketed_root(f, 1.0, f(1.0), 1.0 + s, f(1.0 + s), 1e-12)
            assert calls[2:] == [1.0 + s * 0.5e-12]
            assert abs(root - 1.0) <= 0.5e-12
        signs = np.array([1.0, -1.0])
        calls = []

        def column(x):
            calls.append(x)
            return 1e-20 - signs * (x - 1.0)
        got = _bracketed_root(column, 1.0, 1e-20, 1.0 + signs, 1e-20 - 1.0, 1e-12)
        assert len(calls) == 1 and np.all(np.abs(got - 1.0) <= 0.5e-12)

    def test_no_sign_change(self):
        assert np.isnan(_bracketed_root(lambda x: 1.0, 0.0, 1.0, 1.0, 1.0, 1e-12))

    def test_runs_out_of_steps(self):
        # a bracket of two neighbouring floats never gets below xtol = 0
        calls = []

        def step(x):
            calls.append(x)
            return 1.0 if x < 1.0 / 3.0 else -1.0
        assert np.isnan(_bracketed_root(step, 0.0, 1.0, 1.0, -1.0, 0.0))
        assert len(calls) == MAX_ROOT_STEPS

    def test_float_is_a_0d_column(self):
        # a float bracket is a 0-d column: the same steps and bits as its one-element column
        f = lambda x: np.exp(x) - 2.0
        got = _bracketed_root(f, 0.0, f(0.0), 3.0, f(3.0), 1e-14)
        column = _bracketed_root(f, np.array([0.0]), f(np.array([0.0])), np.array([3.0]),
                                 f(np.array([3.0])), 1e-14)
        assert np.shape(got) == () and column.shape == (1,)
        assert got == column[0]
