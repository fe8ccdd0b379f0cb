import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import cheeger_atlas
from cheeger_atlas import functionals, geom, verify
from cheeger_atlas.bounds import evaluate_all
from cheeger_atlas.cheeger import cheeger_constant
from cheeger_atlas.errors import DegenerateInput, NoConvergence
from cheeger_atlas.functionals import (Functionals, area, circumradius, diameter, inradius, measure,
                                       min_width, perimeter)
from cheeger_atlas.geom import ConvexPolygon, inner_parallel, inner_parallel_area
from cheeger_atlas.sampler import measured_block, mix, seeded_polygon, seeded_polygons, valtr
from cheeger_atlas.shapes import build
from conftest import area_normalized, random_polygons, regular_ngon

SQRT3 = math.sqrt(3.0)


def min_width_brute(poly: ConvexPolygon):
    """O(n^2) minimax oracle: min over edges, max over vertices."""
    v = poly.vertices
    ns, cs = poly.edge_normals, poly.edge_offsets
    depths = cs[:, None] - ns @ v.T
    widths = depths.max(axis=1)
    i = int(np.argmin(widths))
    return float(widths[i]), ns[i].copy()


def inradius_brute(poly: ConvexPolygon):
    """Oracle: the deepest of the points equidistant from three edge lines.

    Every edge triple gives one such point, solved in one batch of 3x3
    systems; the Chebyshev centre is among them.  Returns (r, center).
    """
    ns, cs = poly.edge_normals, poly.edge_offsets
    triples = np.array(list(itertools.combinations(range(len(cs)), 3)))
    M = np.concatenate((ns[triples], np.ones(triples.shape + (1,))), axis=2)
    centers = np.linalg.solve(M, cs[triples][..., None])[:, :2, 0]
    depth = np.concatenate([np.min(cs - part @ ns.T, axis=1)
                            for part in np.array_split(centers, len(centers) // 4096 + 1)])
    k = int(np.argmax(depth))
    return float(depth[k]), centers[k]


def area_exact(poly: ConvexPolygon) -> float:
    """Oracle: the shoelace of the float vertices in rational arithmetic."""
    v = [[Fraction(x) for x in p] for p in poly.vertices.tolist()]
    return float(sum(v[i - 1][0] * v[i][1] - v[i][0] * v[i - 1][1] for i in range(len(v))) / 2)


def circumradius_brute(poly: ConvexPolygon):
    """Oracle: of the centres of the circles on every vertex pair and through
    every vertex triple, the one whose farthest vertex is nearest; that
    distance is R, and (R, centre) is returned."""
    v = poly.vertices - poly.vertices[0]
    pairs = np.array(list(itertools.combinations(range(len(v)), 2)))
    centres = [(v[pairs[:, 0]] + v[pairs[:, 1]]) / 2]
    if len(v) > 2:
        p, q, s = (v[idx] for idx in np.array(list(itertools.combinations(range(len(v)), 3))).T)
        b, c = q - p, s - p
        den = 2 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        keep = den != 0
        bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
        u = np.column_stack((c[:, 1] * bb - b[:, 1] * cc, b[:, 0] * cc - c[:, 0] * bb))
        centres.append(p[keep] + u[keep] / den[keep, None])
    centres = np.concatenate(centres)
    reach = np.hypot(*(v[None] - centres[:, None]).transpose(2, 0, 1)).max(axis=1)
    k = int(np.argmin(reach))
    return float(reach[k]), centres[k] + poly.vertices[0]


class TestBasics:
    def test_square(self, unit_square):
        f = measure(unit_square)
        assert f.area == 1.0
        assert f.perimeter == 4.0
        assert f.inradius == pytest.approx(0.5, abs=1e-12)
        assert f.circumradius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert f.diameter == pytest.approx(math.sqrt(2), abs=1e-15)
        assert f.min_width == pytest.approx(1.0, abs=1e-12)

    def test_right_triangle(self, right_triangle):
        assert area(right_triangle) == pytest.approx(0.5)
        assert perimeter(right_triangle) == pytest.approx(2 + math.sqrt(2), abs=1e-15)
        # r = A / s oracle for triangles
        r_oracle = 0.5 / ((2 + math.sqrt(2)) / 2)
        r, center = inradius(right_triangle)
        assert r == pytest.approx(r_oracle, abs=1e-12)
        assert r == pytest.approx((2 - math.sqrt(2)) / 2, abs=1e-12)
        assert center == pytest.approx([r, r], abs=1e-9)

    def test_equilateral(self, equilateral):
        f = measure(equilateral)
        assert f.area == pytest.approx(SQRT3 / 4, abs=1e-15)
        assert f.perimeter == pytest.approx(3.0, abs=1e-15)
        assert f.inradius == pytest.approx(SQRT3 / 6, abs=1e-12)
        assert f.circumradius == pytest.approx(1 / SQRT3, abs=1e-12)
        assert f.diameter == pytest.approx(1.0, abs=1e-15)
        assert f.min_width == pytest.approx(SQRT3 / 2, abs=1e-12)

    def test_hexagon_area(self):
        hexa = regular_ngon(6)  # side 1
        assert area(hexa) == pytest.approx(3 * SQRT3 / 2, abs=1e-12)
        assert perimeter(hexa) == pytest.approx(6.0, abs=1e-12)

    def test_rect_width_normal(self):
        rect = ConvexPolygon([[0, 0], [2, 0], [2, 1], [0, 1]])
        w, n = min_width(rect)
        assert w == pytest.approx(1.0, abs=1e-12)
        assert abs(n[0]) == pytest.approx(0.0, abs=1e-12)
        assert abs(n[1]) == pytest.approx(1.0, abs=1e-12)

    def test_diameter_64gon(self):
        poly = regular_ngon(64)
        d, p, q = diameter(poly)
        # brute-force O(n^2) oracle
        diff = poly.vertices[:, None] - poly.vertices[None, :]
        oracle = float(np.hypot(diff[..., 0], diff[..., 1]).max())
        assert d == pytest.approx(oracle, abs=1e-12)
        assert d == pytest.approx(2.0, abs=1e-12)
        assert np.hypot(*(p - q)) == pytest.approx(d, abs=1e-15)

    def test_obtuse_triangle_circumradius(self):
        poly = ConvexPolygon([[0, 0], [4, 0], [1, 1]])
        R, c = circumradius(poly)
        Rb, cb = circumradius_brute(poly)
        assert R == pytest.approx(Rb, abs=1e-12)
        assert R == pytest.approx(2.0, abs=1e-12)
        assert c == pytest.approx([2.0, 0.0], abs=1e-9)


class TestMeasureInvariants:
    def test_homogeneity(self):
        for poly in random_polygons(8, seed=21):
            f1 = measure(poly)
            for t in (0.5, 3.0):
                f2 = measure(poly.scale(t))
                assert f2.area == pytest.approx(t * t * f1.area, rel=1e-9)
                assert f2.perimeter == pytest.approx(t * f1.perimeter, rel=1e-9)
                assert f2.inradius == pytest.approx(t * f1.inradius, rel=1e-9)
                assert f2.circumradius == pytest.approx(t * f1.circumradius, rel=1e-9)
                assert f2.diameter == pytest.approx(t * f1.diameter, rel=1e-9)
                assert f2.min_width == pytest.approx(t * f1.min_width, rel=1e-9)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30))
    def test_chain(self, seed, n):
        f = measure(valtr(n, seed))
        slack = 1e-9 * f.diameter
        assert 2 * f.inradius <= f.min_width + slack
        assert f.min_width <= 2 * f.circumradius + slack
        assert f.min_width <= f.diameter + slack
        assert f.diameter <= 2 * f.circumradius + slack
        assert f.inradius <= f.circumradius + slack
        assert f.perimeter > 2 * f.diameter - slack

    @pytest.mark.parametrize("k", [-480, -400, -340, -300, 300, 340, 400, 500])
    def test_power_of_two_scaling_is_exact(self, k):
        # a body scaled by 2^k has each field times 2^(k * exponent), bit for
        # bit; R was infinite beyond about 2^+-340 on three-point circles
        polys = seeded_polygons(1, 0, 100, 3, 30)[2]
        f, g = measure(polys), measure([ConvexPolygon(np.ldexp(p.vertices, k)) for p in polys])
        for key, exponent in functionals.EXPONENT.items():
            assert np.array_equal(g.value(key), np.ldexp(f.value(key), int(k * exponent))), key
        assert np.array_equal(g.cheeger, np.ldexp(f.cheeger, -k))

    def test_diameter_circle_radius_is_half_diameter(self):
        # a minimal enclosing circle on the diameter pair has R == d/2 exactly,
        # so the "d < 2R" applicability of HRD_UP does not flip on rounding
        hits = 0
        for i in range(200):
            f = measure(area_normalized(seeded_polygon(1, i, 3, 30)[2]))
            if abs(f.circumradius - f.diameter / 2) <= 1e-12 * f.diameter:
                hits += 1
                assert f.circumradius == f.diameter / 2
                status = {r.id: r.status for r in evaluate_all(f)}
                assert status["HRD_UP"] == "not-applicable"
        assert hits > 0

    def test_monotone_under_inclusion(self):
        for poly in random_polygons(15, seed=33):
            r, _ = inradius(poly)
            inner = inner_parallel(poly, 0.35 * r)
            fo, fi = measure(poly), measure(inner)
            assert fi.area <= fo.area + 1e-12
            assert fi.perimeter <= fo.perimeter + 1e-12
            assert fi.inradius <= fo.inradius + 1e-12
            assert fi.circumradius <= fo.circumradius + 1e-9
            assert fi.diameter <= fo.diameter + 1e-9
            assert fi.min_width <= fo.min_width + 1e-9


def moved(poly, shift, angle):
    """The polygon rotated by ``angle`` about the origin, then shifted."""
    c, s = math.cos(angle), math.sin(angle)
    try:
        return ConvexPolygon(poly.vertices @ np.array([[c, s], [-s, c]]) + np.asarray(shift))
    except DegenerateInput:  # rounding flattened a needle; nothing to compare
        reject()


# |shift| <= 1e6
def turned(vertices, angle, scale):
    """The vertices rotated by ``angle`` about the origin, then scaled."""
    c, s = math.cos(angle), math.sin(angle)
    return ConvexPolygon(np.asarray(vertices, dtype=float) @ np.array([[c, s], [-s, c]]) * scale)


CHAMFERED_STRIP = [[0, 0], [1, 0], [1, .006], [0.996, .01], [0, .01]]
THIN_HEPTAGON = [[0, 0], [1, 0], [1.0004, 0.0005], [1.0005, 0.0018], [1, 0.002], [0, 0.002],
                 [-0.0002, 0.0001]]
SHIFTS = st.tuples(st.floats(-7e5, 7e5), st.floats(-7e5, 7e5))
THIN_FAR = ConvexPolygon([[1e6, 1e6], [1e6 + 1, 1e6], [1e6 + 1, 1e6 + 1e-9], [1e6, 1e6 + 1e-9]])


class TestAgainstBruteForce:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(4, 300), shift=SHIFTS,
           angle=st.floats(0.0, 2 * math.pi))
    def test_width_and_diameter(self, seed, n, shift, angle):
        poly = valtr(n, seed)
        for p in (poly, moved(poly, shift, angle), THIN_FAR):
            # the edge offsets c_i carry rounding of the coordinates' size
            tol = 1e-12 * max(1.0, 1e-3 * float(np.abs(p.vertices).max()))
            w, _ = min_width(p)
            wb, _ = min_width_brute(p)
            assert w == pytest.approx(wb, abs=tol)
            d, _, _ = diameter(p)
            diff = p.vertices[:, None] - p.vertices[None, :]
            db = float(np.hypot(diff[..., 0], diff[..., 1]).max())
            assert d == pytest.approx(db, abs=tol)
        height = THIN_FAR.vertices[2, 1] - THIN_FAR.vertices[1, 1]
        assert min_width(THIN_FAR)[0] == height
        assert diameter(THIN_FAR)[0] == math.hypot(1.0, height)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 40), shift=SHIFTS,
           angle=st.floats(0.0, 2 * math.pi))
    def test_area(self, seed, n, shift, angle):
        # a shoelace of the caller's coordinates was up to 3.5e-3 off at
        # |shift| 1e6, and read THIN_FAR's area as 0
        poly = valtr(n, seed)
        for p in (poly, moved(poly, shift, angle), THIN_FAR):
            tol = 1e-12 * max(1.0, 1e-3 * float(np.abs(p.vertices).max()))
            assert area(p) == pytest.approx(area_exact(p), rel=tol)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 40), shift=SHIFTS,
           angle=st.floats(0.0, 2 * math.pi))
    def test_circumradius(self, seed, n, shift, angle):
        poly = valtr(n, seed)
        for p in (poly, moved(poly, shift, angle)):
            R, _ = circumradius(p)
            Rb, _ = circumradius_brute(p)
            assert R == pytest.approx(Rb, abs=1e-9)

    def test_diameter_never_exceeds_twice_circumradius(self):
        # exactly: the diameter pair settles every polygon its circle holds
        # at R = d/2, where the three slices stopped on a shorter pair within
        # the 1e-12 slack (R = 1.1 against d/2 = 1.1000000000000003)
        for _, spec, _, _ in verify._sharpness_bodies():
            poly = build(spec, 8192)
            assert 2 * circumradius(poly)[0] >= diameter(poly)[0]
        polys = seeded_polygons(1, 0, 2000, 3, 30)[2]
        for (R, _), (d, _, _) in zip(circumradius(polys), diameter(polys)):
            assert 2 * R >= d

    def test_circle_does_not_depend_on_its_block(self):
        # census blocks of 10 and of 1000, and a block whose rows are padded
        # to an 8194-gon stadium's length: the four triangles and ten census
        # polygons, each R and centre bit for bit its own
        census = seeded_polygons(1, 0, 1000, 3, 30)[2]
        bodies = {label: build(spec, 8192) for label, spec, _, _ in verify._sharpness_bodies()}
        mixed = [bodies["stadium(r=1,l=1)"]] + [p for p in bodies.values() if len(p) == 3]
        mixed += census[:10]
        assert len(mixed) == 15 and len(mixed[0]) == 8194
        blocks = [census[i:i + 10] for i in range(0, 1000, 10)] + [census, mixed]
        alone = {id(p): circumradius(ConvexPolygon(p.vertices)) for p in census + mixed}
        for block in blocks:
            for poly, (R, centre) in zip(block, circumradius(block)):
                assert R == alone[id(poly)][0]
                assert np.array_equal(centre, alone[id(poly)][1])

    def test_circumradius_step_bound(self, equilateral, monkeypatch):
        # a pair circle first, then the third vertex: two steps
        assert circumradius(equilateral)[0] == pytest.approx(1 / SQRT3, abs=1e-15)
        monkeypatch.setattr(functionals, "MAX_CIRCLE_STEPS", 1)
        with pytest.raises(NoConvergence):
            circumradius(equilateral)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 40), tag=st.sampled_from(["none", "area"]),
           shift=SHIFTS, angle=st.floats(0.0, 2 * math.pi))
    # a 100-gon whose depth is flat to 1e-7 near its centre; a sharp triangle
    # (census seed 90210, record 1742) whose chain ends far from the frame
    # origin; a heptagon moved by 5e5, where a former polish's tolerance,
    # taken from |v|, accepted an infeasible triple 7e-7 too deep
    @example(seed=1708, n=100, tag="none", shift=(0.0, 0.0), angle=0.0)
    @example(seed=mix(90210, 1742), n=3, tag="area", shift=(0.0, 0.0), angle=0.0)
    @example(seed=352998337988516388, n=7, tag="none",
             shift=(302332.7306981236, -403362.5905221078), angle=3.8393576035975197)
    def test_inradius_offset_root_oracle(self, seed, n, tag, shift, angle):
        # the offset-root method: r is where |poly_{-t}| hits zero; the
        # shoelace noise floor limits the root to ~sqrt(eps), so the oracle
        # itself only resolves r to about 1e-7
        poly = area_normalized(valtr(n, seed)) if tag == "area" else valtr(n, seed)
        r, center = inradius(poly)
        lo, hi = 0.0, min_width(poly)[0] / 2 + 1e-9
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if inner_parallel_area(poly, mid) > 0:
                lo = mid
            else:
                hi = mid
        assert r == pytest.approx(0.5 * (lo + hi), abs=1e-7)
        # returned center realizes the clearance
        depth = float(np.min(poly.edge_offsets - poly.edge_normals @ center))
        assert depth == pytest.approx(r, abs=1e-9)
        for p in (poly, moved(poly, shift, angle), THIN_FAR):
            tol = 1e-12 * max(1.0, 1e-3 * float(np.abs(p.vertices).max()))
            assert inradius(p)[0] == pytest.approx(inradius_brute(p)[0], abs=tol)

    def test_inradius_no_deeper_than_centre(self):
        # r is the depth of the walk's centre, so the disc of the returned r
        # about the returned centre lies in the polygon, and r is the walk's
        # own r up to the depth's rounding (worst measured 1.2e-11 relative,
        # the res-8192 two-cup with k = 5)
        polys = [build(spec, 8192) for _, spec, _, _ in verify._sharpness_bodies()]
        polys += [area_normalized(seeded_polygon(1, i, 3, 30)[2]) for i in range(200)]
        for poly in polys:
            r, center = inradius(poly)
            assert r == float(np.min(poly.edge_offsets - poly.edge_normals @ center))
            assert abs(r - poly.walk.r) <= 1e-10 * r

    def test_inradius_step_bound(self, monkeypatch):
        # the walk's first step reaches the piece that holds t*, its second
        # empties the chain; the incircle touches the axes and the line
        # x + 2y = 6
        quad = ConvexPolygon([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 3.0]])
        assert inradius(quad)[0] == pytest.approx(6 / (3 + math.sqrt(5)), abs=1e-15)
        monkeypatch.setattr(geom, "MAX_WALK_STEPS", 1)
        with pytest.raises(NoConvergence):
            inradius(ConvexPolygon(quad.vertices))  # a new polygon: the walk is cached

    # rotated and scaled copies of a 1 x 0.01 strip with one corner cut and of
    # a 7-gon of width 0.002: the last chain of their walks once held two
    # antiparallel neighbours, whose vertex lay about 1 away; the centre
    # followed it, and r came out -0.2186, -0.098 and -0.186 times the scale
    @pytest.mark.parametrize("vertices, degrees, scale", [
        (CHAMFERED_STRIP, 120, 1.0),
        (THIN_HEPTAGON, 322, 1e3),
        (THIN_HEPTAGON, 322, 1e-3),
    ])
    def test_inradius_thin_turned(self, vertices, degrees, scale):
        poly = turned(vertices, math.radians(degrees), scale)
        r, center = inradius(poly)
        assert r == pytest.approx(inradius_brute(poly)[0], rel=1e-12)
        assert float(np.min(poly.edge_offsets - poly.edge_normals @ center)) >= r

    @settings(max_examples=60, deadline=None)
    @given(width=st.floats(-3.0, -1.0), cut=st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9)),
           angle=st.floats(0.0, 2 * math.pi), scale=st.floats(-3.0, 3.0))
    @example(width=-2.0, cut=(0.4, 0.4), angle=math.radians(120), scale=0.0)
    def test_inradius_thin_strips(self, width, cut, angle, scale):
        # r and the centre do not depend on how a thin strip is turned or scaled
        w = 10.0 ** width
        strip = [[0, 0], [1, 0], [1, w * (1 - cut[1])], [1 - w * cut[0], w], [0, w]]
        poly = turned(strip, angle, 10.0 ** scale)
        r, center = inradius(poly)
        assert r == pytest.approx(inradius_brute(poly)[0], rel=1e-12)
        assert float(np.min(poly.edge_offsets - poly.edge_normals @ center)) >= r


class TestFunctionalsRecord:
    def test_invariant_rejection(self):
        with pytest.raises(ValueError):
            Functionals(1.0, 4.0, 0.9, 1.0, 1.5, 1.0)  # 2r > w

    @pytest.mark.parametrize("fields", [(1.0, 4.0, 0.25, math.inf, 1.0, 0.5),
                                        (math.nan, 4.0, 0.25, 0.5, 1.0, 0.5),
                                        (1.0, math.nan, 0.25, 0.5, 1.0, 0.5),
                                        (1.0, 4.0, 0.25, 0.5, 1.0, 0.5, math.inf),
                                        (1.0, 4.0, 0.25, 0.5, 1.0, 0.5, math.nan)])
    def test_non_finite_rejected(self, fields):
        # an infinite R passed every <= of the chain, and a NaN A or P
        # entered no comparison at all
        with pytest.raises(ValueError):
            Functionals(*fields)

    def test_cheeger_consistency(self):
        f = Functionals(math.pi, 2 * math.pi, 1.0, 1.0, 2.0, 2.0, cheeger=2.0)
        assert f.value("h") == 2.0
        for h in (0.99, 2.01):  # outside [1/r, 2/r]
            with pytest.raises(ValueError):
                Functionals(math.pi, 2 * math.pi, 1.0, 1.0, 2.0, 2.0, cheeger=h)

    def test_block_is_measured_as_one_column(self, monkeypatch):
        # one machine walks the block's skeletons into one record of
        # columns, and each of its rows, h included, has the bits of its
        # polygon measured alone, whose record holds floats
        polys = [seeded_polygon(1, i, 3, 30)[2] for i in range(20)]
        built = []
        init = geom.OffsetMachine.__init__

        def counted(self, block):
            built.append(block)
            init(self, block)
        monkeypatch.setattr(geom.OffsetMachine, "__init__", counted)
        record = measure(polys)
        assert len(built) == 1 and built[0] == polys
        for i, poly in enumerate(polys):
            alone = measure(ConvexPolygon(poly.vertices))
            for key in functionals.FIELDS:
                assert type(alone.value(key)) is float
                assert record.value(key).shape == (20,) and record.value(key)[i] == alone.value(key), key

    def test_failing_column_names_its_first_failing_record(self):
        # record 3 breaks the chain (2r > w) and record 5 has a NaN area: the
        # column raises what record 3 raises alone
        fields = np.tile([math.pi, 2 * math.pi, 1.0, 1.0, 2.0, 2.0, 2.0], (8, 1))
        fields[3, 2], fields[5, 0] = 1.5, math.nan
        with pytest.raises(ValueError) as alone:
            Functionals(*fields[3].tolist())
        assert str(alone.value).startswith("functional chain violated: ")
        with pytest.raises(ValueError) as column:
            Functionals(*fields.T)
        assert str(column.value) == str(alone.value)
        with pytest.raises(ValueError, match="positive and finite"):
            Functionals(*fields[4:].T)


class TestNormalized:
    """A record scales with its body: the measured record of a polygon,
    normalized, is the measured record of the polygon scaled."""

    FIELDS = ("area", "perimeter", "inradius", "circumradius", "diameter", "min_width",
              "cheeger")

    def test_matches_scaled_polygon(self):
        for i in range(40):
            poly = seeded_polygon(1, i, 3, 30)[2]
            f = measure(poly)
            for key in functionals.EXPONENT:
                s = f.value(key) ** (1.0 / functionals.EXPONENT[key])
                expect = measure(poly.scale(1.0 / s))
                got = f.normalized(key)
                assert got.value(key) == pytest.approx(1.0, rel=1e-15)
                for name in self.FIELDS:
                    assert getattr(got, name) == pytest.approx(getattr(expect, name), rel=1e-12, abs=0.0)

    def test_block_does_not_matter(self):
        # a 20-polygon block's record of columns, normalized in one
        # expression, has each polygon's bits measured and normalized alone;
        # the block holds census record 642 of seed 1, whose sqrt(A) is one
        # ulp from Python's A ** 0.5
        polys = seeded_polygons(1, 640, 660, 3, 30)[2]
        column = measure(polys)
        for key in functionals.EXPONENT:
            scaled = column.normalized(key)
            for i, poly in enumerate(polys):
                alone = measure(ConvexPolygon(poly.vertices)).normalized(key)
                for name in self.FIELDS:
                    assert type(getattr(alone, name)) is float
                    assert getattr(scaled, name)[i] == getattr(alone, name), (key, name, i)

    def test_block_walked_inner_core(self):
        polys = [seeded_polygon(2, i, 3, 30)[2] for i in range(20)]
        geom.walk_block(polys)
        for poly in polys:
            core = cheeger_constant(poly).inner_core
            alone = cheeger_constant(ConvexPolygon(poly.vertices)).inner_core
            assert np.array_equal(core.vertices, alone.vertices)


def _roll(a):
    return np.roll(a, -1, axis=0)


def _roll_edge_data(poly):
    """Perimeter, diameter and width by the formulas that used ``np.roll``
    and an ``np.unwrap`` per functional: (P, (d, p, q), (w, normal))."""
    v = poly.vertices
    edges = _roll(v) - v
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    ns = np.column_stack((edges[:, 1], -edges[:, 0])) / lengths[:, None]
    cs = np.einsum("ij,ij->i", ns, v)
    angle = np.unwrap(np.arctan2(ns[:, 1], ns[:, 0]))
    target = angle + np.pi
    target[target >= angle[0] + 2 * np.pi] -= 2 * np.pi
    far = np.searchsorted(angle, target) % len(ns)
    n = len(v)
    a = ((np.arange(n)[:, None] + [0, 0, 0, 1, 1, 1]) % n).ravel()
    b = ((far[:, None] + [-1, 0, 1, -1, 0, 1]) % n).ravel()
    dist = np.hypot(*(v[a] - v[b]).T)
    k = int(np.argmax(dist))
    near = v[(far[:, None] + np.arange(-1, 2)) % n]
    widths = (cs[:, None] - np.einsum("ik,ijk->ij", ns, near)).max(axis=1)
    i = int(np.argmin(widths))
    return (float(np.sum(lengths)), (float(dist[k]), v[a[k]], v[b[k]]), (float(widths[i]), ns[i]))


class TestEdgeData:
    """A polygon derives its edge data once (edge vectors, lengths, the
    antipodes) and shifts arrays by slicing; the bits are those of the
    ``np.roll`` formulas."""

    @pytest.mark.parametrize("n", [3, 4, 17])
    def test_shifted_is_roll(self, n):
        rng = np.random.default_rng(n)
        for a in (rng.random(n), rng.random((n, 2)), rng.random(n) > 0.5):
            assert np.array_equal(geom.shifted(a), _roll(a))
            for k in range(-n + 1, n):
                assert np.array_equal(geom.shifted(a, k), np.roll(a, -k, axis=0))

    def test_matches_roll_formulas(self):
        polys = [seeded_polygon(1, i, 3, 30)[2] for i in range(200)]
        polys += [turned(CHAMFERED_STRIP, math.radians(120), 1.0), valtr(1024, 11)]
        for poly in polys:
            P, (d, p, q), (w, normal) = _roll_edge_data(poly)
            assert perimeter(poly) == P
            got_d, got_p, got_q = diameter(poly)
            assert got_d == d and np.array_equal(got_p, p) and np.array_equal(got_q, q)
            got_w, got_normal = min_width(poly)
            assert got_w == w and np.array_equal(got_normal, normal)

    def test_numpy_call_counts(self, monkeypatch):
        # a census block of 10 records, from its draw to its Cheeger
        # constants: no np.roll and one np.unwrap (the block's antipodes,
        # shared by diameter and width); the np.roll formulas made 11 and 2
        # per record, the antipodes of one polygon at a time 0 and 1
        calls = _counted(monkeypatch, np, "roll", "unwrap")
        measured_block((0, 10, 1, 3, 30), "A")
        assert calls == {"roll": 0, "unwrap": 1}

    def test_one_caliper_pass_per_block(self, monkeypatch):
        # a census block of 10 records: ``diameter`` makes the block's one
        # caliper pass, after which ``min_width`` only reads each polygon's
        # record (it once concatenated the block's caliper arrays again),
        # and ``measure`` finds the antipodes once
        block = seeded_polygons(1, 0, 10, 3, 30)[2]
        diameter(block)
        calls = _counted(monkeypatch, np, "concatenate", "einsum")
        min_width(block)
        assert calls == {"concatenate": 0, "einsum": 0}
        calls = _counted(monkeypatch, functionals, "_antipodes")
        measure(seeded_polygons(1, 0, 10, 3, 30)[2])
        assert calls == {"_antipodes": 1}


def _counted(monkeypatch, module, *names):
    """Count the calls of each of ``module``'s functions ``names`` from now
    on, in the dict returned."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


_IMPORTS = """
import sys
before = set(sys.modules)
import cheeger_atlas, cheeger_atlas.cli
cheeger_atlas.evaluate_all(cheeger_atlas.measure(cheeger_atlas.valtr(12, 3)))
assert len(cheeger_atlas.sample_cloud(40, 3, 30, "A", 1, workers=2)[2].area) == 40  # two forked blocks
assert "multiprocessing" not in sys.modules
# modules the import system found; not the aliases and runtime objects that
# Cython extensions put in sys.modules
new = {name.partition(".")[0] for name, module in list(sys.modules.items())
       if name not in before and getattr(module, "__spec__", None) is not None}
from importlib.metadata import packages_distributions
dists = packages_distributions()
dists.setdefault("cheeger_atlas", ["cheeger-atlas"])  # mapped only when installed
print(" ".join(sorted({d for m in new - sys.stdlib_module_names for d in dists.get(m, [m])})))
"""


class TestImport:
    def test_numpy_is_the_one_runtime_dependency(self):
        # a fresh interpreter imports the package and its CLI, measures
        # one record and samples a cloud in two forked blocks, without
        # multiprocessing; every module this brings in that is not in the
        # standard library comes from numpy or the package itself
        src = os.path.dirname(os.path.dirname(cheeger_atlas.__file__))
        out = subprocess.run([sys.executable, "-c", _IMPORTS], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert set(out.stdout.split()) <= {"numpy", "cheeger-atlas"}
