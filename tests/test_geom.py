import json
import math
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cheeger_atlas import functionals, geom, verify
from cheeger_atlas.cheeger import cheeger_constant
from cheeger_atlas.errors import DegenerateInput, NoConvergence, PolygonJsonError
from cheeger_atlas.functionals import (area, circumradius, diameter, inradius, measure,
                                      min_width, perimeter)
from cheeger_atlas.geom import (PARALLEL_EPS, ConvexPolygon, OffsetMachine, _fan_region,
                                _merge_parallel, dilate, form_body, inner_parallel,
                                inner_parallel_area, interpolate, minkowski_sum,
                                polygon_block, polygon_from_json, polygon_to_json, support,
                                walk_block)
from cheeger_atlas.sampler import seeded_polygon, valtr
from cheeger_atlas.shapes import (Resolution, Slice, SmoothedNonagon, Stadium,
                                  SubequilateralTriangle, TwoCup, build, solve_param)
from cheeger_atlas.verify import SLICE_DIAMETERS, STADIUM_GAPS, SUBEQ_DIAMETERS, TWOCUP_TIPS
from conftest import monotone_hull, random_polygons, regular_ngon


# the star (cos 4 pi k / 5, sin 4 pi k / 5): a left turn at every vertex
PENTAGRAM = [[math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)] for k in range(5)]
# a non-convex dart and a square whose turn cross products or area overflow
OVERFLOW_DART = [[0, 0], [2e160, 0], [0.5e160, 0.5e160], [0, 2e160]]
OVERFLOW_SQUARE = [[1e160, 1e160], [-1e160, 1e160], [-1e160, -1e160], [1e160, -1e160]]


class TestConvexPolygon:
    def test_orientation_normalized(self):
        cw = ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])
        assert area(cw) > 0

    def test_rejects_collinear(self):
        with pytest.raises(DegenerateInput):
            ConvexPolygon([[0, 0], [1, 0], [2, 0], [1, 1]])

    def test_rejects_too_few(self):
        with pytest.raises(DegenerateInput):
            ConvexPolygon([[0, 0], [1, 0]])

    def test_rejects_nonconvex(self):
        with pytest.raises(DegenerateInput):
            ConvexPolygon([[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]])

    def test_rejects_pentagram(self):
        # every turn is a left turn, but the edge directions turn twice round
        with pytest.raises(DegenerateInput, match="turns 2 times round"):
            ConvexPolygon(PENTAGRAM)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("vertices, fault", [(OVERFLOW_DART, "overflows near index 1"),
                                                 (OVERFLOW_SQUARE, "area is inf")])
    def test_rejects_overflow(self, vertices, fault):
        # the dart's turn cross products are NaN and the square's area is
        # inf; both were once accepted (NaN passes ``least <= 0``)
        with pytest.raises(DegenerateInput, match=fault):
            ConvexPolygon(vertices)


class TestConvexHull:
    """The test-only hull oracle, ``conftest.monotone_hull``."""

    def test_triangle_passthrough(self):
        h = monotone_hull([(0, 0), (1, 0), (0, 1)])
        assert len(h) == 3

    def test_interior_point_dropped(self):
        h = monotone_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert len(h) == 4
        assert area(h) == pytest.approx(1.0, abs=1e-15)

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInput):
            monotone_hull([(0, 0), (1, 0), (2, 0)])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 14))
    def test_idempotent(self, seed, n):
        from cheeger_atlas.sampler import seeded_polygon, valtr
        p = valtr(n, seed)
        h = monotone_hull(p.vertices)
        assert len(h) == len(p)
        assert abs(area(h) - area(p)) <= 1e-12 * area(p)


class TestSupport:
    def test_square_axes(self, unit_square):
        assert support(unit_square, (1, 0)) == 1.0
        assert support(unit_square, (-1, 0)) == 0.0

    def test_triangle_diagonal(self, right_triangle):
        s = support(right_triangle, (1 / math.sqrt(2), 1 / math.sqrt(2)))
        assert s == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_minkowski_additive(self):
        polys = list(random_polygons(4, seed=11))
        rng = np.random.default_rng(0)
        for p, q in zip(polys[::2], polys[1::2]):
            s = minkowski_sum(p, q)
            for _ in range(100):
                th = rng.uniform(0, 2 * math.pi)
                u = (math.cos(th), math.sin(th))
                assert support(s, u) == pytest.approx(support(p, u) + support(q, u), abs=1e-9)


def _clip_oracle(planes):
    """Sutherland-Hodgman clip of a huge square by the half-planes [(n, c)]:
    the polygon, or None when empty.  An oracle that shares no code with the
    offset chain's fan peel, which ``OffsetMachine`` and ``geom._fan_region``
    (so ``form_body``) run.  Each edge keeps the id of the plane that
    supports it, so every vertex is recomputed from its two supporting lines."""
    big = 1e8 * max(1.0, max(abs(c) for _, c in planes))
    verts = [np.array(p) for p in ([-big, -big], [big, -big], [big, big], [-big, big])]
    ids = [-1, -2, -3, -4]
    lines = {i: (np.asarray(n, dtype=float), float(c)) for i, (n, c) in enumerate(planes)}
    for i, p in enumerate(verts):
        e = verts[(i + 1) % 4] - p
        n = np.array([e[1], -e[0]]) / np.hypot(e[0], e[1])
        lines[ids[i]] = (n, float(n @ p))
    for pid, (n, c) in enumerate(planes):
        dist = np.asarray([c - float(n @ v) for v in verts])
        if np.all(dist >= -max(1.0, abs(c)) * 1e-14):
            continue
        new_verts, new_ids = [], []
        for i in range(len(verts)):
            j = (i + 1) % len(verts)
            if dist[i] >= 0.0:
                new_verts.append(verts[i])
                new_ids.append(ids[i])
            if (dist[i] >= 0.0) != (dist[j] >= 0.0):
                n_edge, c_edge = lines[ids[i]]
                det = n_edge[0] * n[1] - n_edge[1] * n[0]
                if abs(det) > 1e-300:
                    pt = np.array([(c_edge * n[1] - c * n_edge[1]) / det,
                                   (n_edge[0] * c - n[0] * c_edge) / det])
                else:
                    pt = verts[i] + dist[i] / (dist[i] - dist[j]) * (verts[j] - verts[i])
                new_verts.append(pt)
                new_ids.append(ids[i] if dist[j] >= 0.0 else pid)
        # a vertex whose two edges share a plane is interior to that line
        verts, ids = [], []
        for v, i in zip(new_verts, new_ids):
            if not ids or ids[-1] != i:
                verts.append(v)
                ids.append(i)
        while len(ids) >= 2 and ids[0] == ids[-1]:
            verts.pop(0)
            ids.pop(0)
        if len(verts) < 3:
            return None
    assert min(ids) >= 0, "unbounded"
    scale = float(np.max(np.abs(verts))) or 1.0
    verts = geom._strictify(np.array(verts), scale)
    if verts is None or abs(geom.shoelace(verts)) <= scale * scale * geom.DEGENERATE_AREA_REL:
        return None
    return ConvexPolygon(verts)


def _fan_polygon(planes):
    """``geom._fan_region`` of the half-planes [(n, c)] as a polygon, or None."""
    verts = _fan_region(np.array([n for n, _ in planes], dtype=float), np.array([c for _, c in planes]))
    return None if verts is None else ConvexPolygon(verts)


class TestHalfplaneIntersection:
    """A fan's region, ``geom._fan_region``."""

    def test_unit_square(self):
        poly = _fan_polygon([((0, -1), 0), ((1, 0), 1), ((0, 1), 1), ((-1, 0), 0)])
        assert area(poly) == pytest.approx(1.0, abs=1e-12)

    def test_empty(self):
        # a strip's fan has a gap, so has a quadrant's (unbounded), and the
        # offsets of a triangle's fan can leave no room
        assert _fan_polygon([((1, 0), 0), ((-1, 0), -1)]) is None
        assert _fan_polygon([((1, 0), 0), ((0, 1), 0)]) is None
        half = math.sqrt(0.5)
        assert _fan_polygon([((0, -1), 0), ((1, 0), -1), ((-half, half), 0)]) is None

    def test_matches_clip_oracle(self):
        # shifted edge planes of random polygons, past the inradius too, and
        # the planes of their form bodies
        for poly in random_polygons(60, seed=8):
            r = inradius(poly)[0]
            cases = [[(n, c - frac * r) for n, c in zip(poly.edge_normals, poly.edge_offsets)]
                     for frac in (0.0, 0.3, 0.9, 1.1)]
            for planes in cases + [[(n, 1.0) for n in poly.edge_normals]]:
                got = _fan_polygon(planes)
                want = _clip_oracle(planes)
                assert (got is None) == (want is None)
                if want is not None:
                    k = int(np.argmin(np.hypot(*(got.vertices - want.vertices[0]).T)))
                    assert np.allclose(np.roll(got.vertices, -k, axis=0), want.vertices,
                                       rtol=0.0, atol=1e-12)


class TestInnerParallel:
    def test_square_quarter(self, unit_square):
        p = inner_parallel(unit_square, 0.25)
        assert area(p) == pytest.approx(0.25, abs=1e-12)
        assert perimeter(p) == pytest.approx(2.0, abs=1e-12)

    def test_square_at_inradius_empty(self, unit_square):
        assert inner_parallel(unit_square, 0.5) is None

    def test_zero_identity(self, unit_square):
        p = inner_parallel(unit_square, 0.0)
        assert np.allclose(p.vertices, unit_square.vertices, atol=1e-12)

    def test_one_machine_per_polygon(self, monkeypatch):
        built = []
        init = OffsetMachine.__init__

        def counted(self, polys):
            built.append(polys)
            init(self, polys)
        monkeypatch.setattr(OffsetMachine, "__init__", counted)
        poly = valtr(12, 3)
        measure(poly)
        assert len(built) == 1 and built[0] == [poly]
        other = regular_ngon(9)
        assert inner_parallel(other, 0.1) is not None
        assert inner_parallel(other, 0.3) is not None
        assert len(built) == 2 and built[1] == [other]
        # a block-walked polygon's core is placed by its own origin, area
        # and perimeter: reading it builds no machine
        block = [seeded_polygon(3, i, 3, 30)[2] for i in range(10)]
        walk_block(block)
        assert len(built) == 3
        for poly in block:
            assert len(cheeger_constant(poly).inner_core) >= 3
        assert len(built) == 3
        # the area and perimeter a machine's column holds at t = 0 are the
        # polygon's own, for each polygon alone and in a mixed block
        census = [seeded_polygon(1, i, 3, 30)[2] for i in range(20)]
        bodies = [build(spec, 8192) for _, spec, _, _ in verify._sharpness_bodies()]
        for polys in [[p] for p in census + bodies] + [census[:10] + bodies + census[10:]]:
            m = OffsetMachine(polys).area_at(0.0)
            assert np.array_equal(m.area, [p.area for p in polys])
            assert np.array_equal(m.perimeter, [p.perimeter for p in polys])

    def test_one_walk_per_polygon(self, monkeypatch):
        # one walk, its offsets increasing, gives r and t*; the core is built
        # only when read, and later reads evaluate no chain
        offsets, built = [], []
        area_at, placed = OffsetMachine.area_at, ConvexPolygon.placed

        def counted_area(self, t, *args):
            offsets.append(t)
            return area_at(self, t, *args)

        def counted_polygon(self, local):
            built.append(local)
            return placed(self, local)
        monkeypatch.setattr(OffsetMachine, "area_at", counted_area)
        monkeypatch.setattr(ConvexPolygon, "placed", counted_polygon)
        poly = valtr(12, 3)
        f = measure(poly)
        assert len(offsets) >= 1 and built == []
        assert offsets[-1] == pytest.approx(f.inradius, rel=1e-12)
        assert all(b > a for a, b in zip(offsets, offsets[1:]))
        walked = len(offsets)
        assert cheeger_constant(poly).h == f.cheeger
        assert inradius(poly)[0] == f.inradius
        assert len(offsets) == walked and built == []

    def test_near_parallel_edges_merged(self):
        # a midpoint vertex pushed out by 1e-12 creates two half-planes with
        # almost identical normals; the offset machinery merges them
        poly = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0.5, 1 + 1e-12], [0, 1]])
        p = inner_parallel(poly, 0.25)
        assert area(p) == pytest.approx(0.25, abs=1e-9)

    def test_lemma_inner_set_functionals(self):
        # r(O_{-t}) = r - t exactly; d, w, R, P shrink at least linearly
        for poly in random_polygons(60, seed=5):
            r, _ = inradius(poly)
            f0 = (diameter(poly)[0], min_width(poly)[0], circumradius(poly)[0], perimeter(poly))
            for frac in (0.2, 0.5, 0.8):
                t = frac * r
                p = inner_parallel(poly, t)
                assert p is not None
                rt, _ = inradius(p)
                assert rt == pytest.approx(r - t, abs=1e-9)
                assert diameter(p)[0] <= f0[0] - 2 * t + 1e-9
                assert min_width(p)[0] <= f0[1] - 2 * t + 1e-9
                assert circumradius(p)[0] <= f0[2] - t + 1e-9
                assert perimeter(p) <= f0[3] - 2 * math.pi * t + 1e-9


def _merge_parallel_loop(normals, offsets):
    """Reference loop: anchor-based grouping in angle order, tighter plane kept."""
    angles = np.arctan2(normals[:, 1], normals[:, 0])
    order = np.argsort(angles, kind="stable")
    ns, cs, angs = normals[order], offsets[order], angles[order]
    out_n, out_c = [ns[0]], [cs[0]]
    last_ang = angs[0]
    for i in range(1, len(ns)):
        if angs[i] - last_ang < PARALLEL_EPS:
            if cs[i] < out_c[-1]:
                out_c[-1] = cs[i]
                out_n[-1] = ns[i]
        else:
            out_n.append(ns[i])
            out_c.append(cs[i])
            last_ang = angs[i]
    if len(out_n) > 1 and (angs[0] + 2 * np.pi) - last_ang < PARALLEL_EPS:
        if out_c[0] > out_c[-1]:
            out_n[0], out_c[0] = out_n[-1], out_c[-1]
        out_n.pop()
        out_c.pop()
    return np.array(out_n), np.array(out_c)


def _sharpness_bodies(res):
    specs = [Stadium(1.0, g) for g in STADIUM_GAPS]
    specs += [TwoCup(1.0, k) for k in TWOCUP_TIPS]
    specs += [Slice(1.0, d) for d in SLICE_DIAMETERS]
    specs += [solve_param(("w", 1.0), ("d", d)) for d in SUBEQ_DIAMETERS]
    specs.append(SubequilateralTriangle(1.0, math.sqrt(3) / 2))
    return [build(spec, Resolution(res)) for spec in specs]


class TestMergeParallel:
    def _check(self, normals, offsets):
        kept = _merge_parallel(normals, offsets, np.array([0, len(offsets)]))
        got_n, got_c = normals[kept], offsets[kept]
        want_n, want_c = _merge_parallel_loop(normals, offsets)
        assert np.array_equal(got_n, want_n)
        assert np.array_equal(got_c, want_c)

    def test_matches_loop_on_random_polygons(self):
        for poly in random_polygons(200, seed=11, n_max=30):
            self._check(poly.edge_normals, poly.edge_offsets)

    def test_matches_loop_on_sharpness_bodies(self):
        for poly in _sharpness_bodies(8192):
            self._check(poly.edge_normals, poly.edge_offsets)

    def test_near_parallel_groups(self):
        # pairs closer than PARALLEL_EPS, one of them across the +-pi seam
        ang = np.array([0.0, 0.3 * PARALLEL_EPS, 2.0, np.pi, -np.pi + 0.2 * PARALLEL_EPS, -2.0])
        normals = np.column_stack((np.cos(ang), np.sin(ang)))
        offsets = np.array([1.0, 0.5, 1.0, 2.0, 3.0, 1.0])
        self._check(normals, offsets)
        cs = offsets[_merge_parallel(normals, offsets, np.array([0, len(offsets)]))]
        assert len(cs) == 4
        assert sorted(cs.tolist()) == [0.5, 1.0, 1.0, 2.0]


class TestOffsetOracle:
    """Offset chain against the Sutherland-Hodgman clip of the shifted edge planes."""

    @staticmethod
    def _clip(poly, t):
        return _clip_oracle([(n, c - t) for n, c in zip(poly.edge_normals, poly.edge_offsets)])

    @staticmethod
    def _exact_area(poly, t):
        """Area of the intersection of the shifted float planes, in exact
        arithmetic.  Each vertex is the meeting point of two of the original
        lines, so the denominators stay small; a plane is peeled off while
        its edge between the neighbouring vertices is not positive, which
        makes it redundant."""
        planes = [(Fraction(nx), Fraction(ny), Fraction(c) - Fraction(t)) for (nx, ny), c in
                  zip(poly.edge_normals.tolist(), poly.edge_offsets.tolist())]

        def meet(a, b):
            (ax, ay, ac), (bx, by, bc) = a, b
            det = ax * by - ay * bx
            return (ac * by - bc * ay) / det, (ax * bc - bx * ac) / det

        while len(planes) >= 3:
            k = len(planes)
            if any(a[0] * b[1] - a[1] * b[0] <= 0 for a, b in zip(planes, planes[1:] + planes[:1])):
                break  # a gap in the normal fan: the planes hold no region
            verts = [meet(planes[i], planes[(i + 1) % k]) for i in range(k)]
            for i, (nx, ny, _) in enumerate(planes):
                (px, py), (qx, qy) = verts[i - 1], verts[i]
                if (qy - py) * nx - (qx - px) * ny <= 0:
                    del planes[i]
                    break
            else:
                return float(sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(verts[-1:] + verts[:-1], verts)) / 2)
        return 0.0

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30),
           frac=st.sampled_from([0.1, 0.35, 0.6, 0.85, 0.99, 1.2]))
    # a turn of 9.0e-8 rad between two edges: line intersections there lost
    # 6.7e-11 of the area, and a floating clip of the same planes 5.9e-12
    @example(seed=5217, n=21, frac=0.1)
    def test_area_matches_clip(self, seed, n, frac):
        poly = valtr(n, seed)
        t = frac * inradius(poly)[0]
        assert inner_parallel_area(poly, t) == pytest.approx(self._exact_area(poly, t), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30),
           frac=st.sampled_from([0.1, 0.4, 0.7]))
    def test_measure_matches_clip(self, seed, n, frac):
        poly = valtr(n, seed)
        t = frac * inradius(poly)[0]
        m = OffsetMachine([poly]).area_at(t)
        clipped = self._clip(poly, t)
        assert m.perimeter == pytest.approx(perimeter(clipped), abs=1e-12)
        # exterior angles from the original planes the clip keeps: normals
        # recomputed from short clipped edges are too coarse at a needle tip
        ns = poly.edge_normals[np.argmax(clipped.edge_normals @ poly.edge_normals.T, axis=1)]
        nn = np.roll(ns, -1, axis=0)
        turn = np.arctan2(ns[:, 0] * nn[:, 1] - ns[:, 1] * nn[:, 0],
                          np.einsum("ij,ij->i", ns, nn))
        assert m.tan_sum == pytest.approx(float(np.sum(np.tan(turn / 2))), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30),
           frac=st.sampled_from([0.0, 0.2, 0.5]), share=st.sampled_from([0.3, 1.0]))
    def test_quadratic_within_reach(self, seed, n, frac, share):
        poly = valtr(n, seed)
        machine = OffsetMachine([poly])
        t = frac * inradius(poly)[0]
        m = machine.area_at(t)
        s = share * m.reach
        predicted = m.area - m.perimeter * s + m.tan_sum * s * s
        assert machine.area_at(t + s).area == pytest.approx(predicted, abs=1e-12)

    def test_one_offset_path(self, monkeypatch):
        # the vectorised chain meets no gap in the normal fan below the
        # inradius, agrees with the clip there, and is empty from r on
        fan_det = geom._fan_det

        def no_gap(ns, n2):
            det = fan_det(ns, n2)
            assert float(np.min(det)) > geom.FAN_GAP_DET, "gap in the normal fan"
            return det

        bodies = [seeded_polygon(5, i, 3, 30)[2] for i in range(2000)]
        for poly in bodies + _sharpness_bodies(8192) + _sharpness_bodies(128):
            r = inradius(poly)[0]
            machine = OffsetMachine([poly])
            with monkeypatch.context() as m:
                m.setattr(geom, "_fan_det", no_gap)
                for frac in (0.5, 0.99, 1.0 - 1e-12):
                    machine._chain(frac * r)
            if len(poly) <= 300:  # the clip is quadratic in the vertex count
                clipped = self._clip(poly, 0.99 * r)
                want = 0.0 if clipped is None else area(clipped)
                assert machine.area_at(0.99 * r).area == pytest.approx(want, abs=1e-12)
            for frac in (1.0, 1.0 + 1e-12, 1.2):
                assert machine.area_at(frac * r) == (0.0, 0.0, 0.0, 0.0)

    def test_translation_keeps_area(self):
        # the chain runs centred, so only the rounding of the shifted input
        # (1.2e-10 at 1e6) is left
        for poly in random_polygons(30, seed=4):
            t = 0.5 * inradius(poly)[0]
            a = inner_parallel_area(poly, t)
            for v in ((1e6, -3e5), (-2e5, 9e5)):
                assert inner_parallel_area(poly.translate(v), t) == pytest.approx(a, rel=1e-7)


def _deque_oracle(ns, cs):
    """Surviving plane positions of a cyclically sorted half-plane fan, or
    None when fewer than 3 survive.

    Classic deque sweep, one plane at a time: a plane pops once the vertex
    of its two neighbours already violates the incoming plane.  An oracle
    that shares no code with the offset chain's vectorised passes."""
    nx, ny, cl = ns[:, 0].tolist(), ns[:, 1].tolist(), cs.tolist()

    def violates(w, i, j):
        det = nx[i] * ny[j] - ny[i] * nx[j]
        if det <= 0.0:
            return False
        x = (cl[i] * ny[j] - cl[j] * ny[i]) / det
        y = (nx[i] * cl[j] - nx[j] * cl[i]) / det
        return nx[w] * x + ny[w] * y > cl[w]

    dq = deque()
    for i in range(len(cl)):
        while len(dq) >= 2 and violates(i, dq[-2], dq[-1]):
            dq.pop()
        while len(dq) >= 2 and violates(i, dq[0], dq[1]):
            dq.popleft()
        dq.append(i)
    while True:
        changed = False
        if len(dq) >= 3 and violates(dq[0], dq[-2], dq[-1]):
            dq.pop()
            changed = True
        if len(dq) >= 3 and violates(dq[-1], dq[0], dq[1]):
            dq.popleft()
            changed = True
        if not changed:
            break
    return list(dq) if len(dq) >= 3 else None


CASCADE_SPECS = {
    "stadium": Stadium(1.0, 1.0),
    "two_cup": TwoCup(1.0, 1.2),
    "slice": Slice(1.0, 2.5),
    "smoothed_nonagon": SmoothedNonagon(1.0, 2.2),
}


@lru_cache(maxsize=None)
def _cascade_body(family, res):
    poly = build(CASCADE_SPECS[family], res)
    return poly, OffsetMachine([poly]), inradius(poly)[0]


class TestCascade:
    """Arcs eaten by long edges leave the offset chain a pass at a time until
    pass CASCADE_PASS, then all at once (``geom._eaten``)."""

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(sorted(CASCADE_SPECS)), res=st.sampled_from([1024, 2048, 4096]),
           frac=st.sampled_from([0.3, 0.6, 0.9, 0.99, 0.999, 1.0 - 1e-9, 1.0 + 1e-9, 1.001, 1.05]))
    def test_fans_match_deque(self, family, res, frac):
        # the extremal bodies' planes, moved in across many skeleton events,
        # to just short of r and just past it
        poly, machine, r = _cascade_body(family, res)
        ns, cs, fan = machine.ns, machine.cs - frac * r, np.arange(len(machine.cs))
        got = geom._offset_chain(ns, cs, fan, machine.start, machine.eps)
        # the deque's survivors, with edges not longer than eps peeled off
        # by plain passes (no cascade)
        kept = _deque_oracle(ns, cs)
        want = None if kept is None else geom._peel(ns[kept], cs[kept], fan[kept],
                                                    np.array([0, len(kept)]), machine.eps, len(cs))[0]
        assert got.alive[0] == (want is not None and want.alive[0])
        if got.alive[0]:
            assert np.array_equal(got.fan, want.fan)
        if len(poly) <= 800:  # the clip is quadratic in the plane count
            t = frac * r
            planes = [(n, c - t) for n, c in zip(poly.edge_normals, poly.edge_offsets)]
            mine = _fan_polygon(planes)
            clipped = _clip_oracle(planes)
            assert (mine is None) == (clipped is None)
            if clipped is not None:
                k = int(np.argmin(np.hypot(*(mine.vertices - clipped.vertices[0]).T)))
                assert np.allclose(np.roll(mine.vertices, -k, axis=0), clipped.vertices,
                                   rtol=0.0, atol=1e-12)

    def test_empty_region_recovered(self, monkeypatch):
        # past r of valtr(100, 1708) the eaten planes leave a region the
        # certificate rejects; taken at face value it moved the bisected r
        # from 0.4680 to 0.4731
        peels = []
        peel = geom._peel

        def spied(ns, cs, fan, start, eps, cascade):
            out = peel(ns, cs, fan, start, eps, cascade)
            peels.append((cascade, not out[0].alive[0]))
            return out
        monkeypatch.setattr(geom, "_peel", spied)
        poly = valtr(100, 1708)
        r = inradius(poly)[0]
        for t in r * (1.0 + 0.01 * 2.0 ** -np.arange(45)):  # in (r, 1.01 r]
            assert inner_parallel_area(poly, t) == 0.0
            assert inner_parallel(poly, t) is None
        # a cascade that found a region, recomputed as empty by plain passes
        assert (geom.CASCADE_PASS, False) in peels
        assert any(cascade > geom.CASCADE_PASS and empty for cascade, empty in peels)

    def test_walk_reaches_cascade(self, monkeypatch):
        # the d0 nonagons eat their arcs a few hundred planes at a time
        eaten = []
        rule = geom._eaten

        def spied(*args):
            out = rule(*args)
            eaten.append(int(out.sum()))
            return out
        monkeypatch.setattr(geom, "_eaten", spied)
        walk = build(SmoothedNonagon(1.0, 2.2), 4096).walk
        assert max(eaten, default=0) > 100
        assert 0.0 < walk.t_star < walk.r


def _walk_alone(poly):
    """The polygon's walk in a machine of its own."""
    return OffsetMachine([ConvexPolygon(poly.vertices)]).walks[0]


def _same(a, b):
    """Two walks (or the errors they ran into) agree bit for bit."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _census_chunk(chunk_seed):
    # the ten polygons of ``verify.census(10, chunk_seed)``
    return [seeded_polygon(chunk_seed, i, 3, 30)[2] for i in range(10)]


def _turned(vertices, degrees):
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return ConvexPolygon(np.asarray(vertices, dtype=float) @ np.array([[c, s], [-s, c]]))


class TestColumnWalk:
    """A block of polygons walks its skeletons as one column
    (``OffsetMachine.walks``); each polygon's walk is the one it takes alone."""

    # the chunk seeds of the census benchmark at its seed 1 (perfbench/worker.py)
    CHUNK_SEEDS = [random.Random(1).getrandbits(63) for _ in range(30)]

    def test_census_chunks(self):
        for chunk_seed in self.CHUNK_SEEDS:
            polys = _census_chunk(chunk_seed)
            alone = [_walk_alone(p) for p in polys]
            assert all(_same(a, b) for a, b in zip(OffsetMachine(polys).walks, alone))
            order = np.random.default_rng(chunk_seed).permutation(len(polys))
            shuffled = OffsetMachine([polys[i] for i in order]).walks
            assert all(_same(shuffled[j], alone[i]) for j, i in enumerate(order))
            assert all(w.steps_after >= 1 and w.cascade_passes == 0 == w.recomputes for w in alone)

    def test_mixed_block(self):
        # a needle, the chamfered strip whose skeleton ends in a segment, a
        # body far from the origin, a 1,024-gon whose walk runs cascade
        # passes, and a stadium whose arcs vanish together, in one column
        polys = _mixed_bodies()
        strip = polys[1]
        walks = OffsetMachine(polys).walks
        assert all(_same(w, _walk_alone(p)) for w, p in zip(walks, polys))
        walk_block(polys)
        assert all(_same(p.walk, w) for p, w in zip(polys, walks))
        assert inradius(strip)[0] == pytest.approx(0.005, rel=1e-12)

    def test_flat_polygon_fails_alone(self):
        # a triangle 1e-16 high: its own chain is empty (the normals at its
        # tip are antiparallel up to rounding), so its walk raises on read
        flat = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]])
        polys = _census_chunk(self.CHUNK_SEEDS[1])[:3] + [flat]
        alone = [_walk_alone(p) for p in polys[:3]]
        walk_block(polys)
        with pytest.raises(NoConvergence):
            inradius(flat)
        assert all(_same(p.walk, w) for p, w in zip(polys, alone))

    def test_walk_failures_stay_per_polygon(self, monkeypatch):
        polys = _census_chunk(self.CHUNK_SEEDS[0]) + [build(Stadium(1.0, 2.0), 1024)]
        alone = [_walk_alone(p) for p in polys]
        monkeypatch.setattr(geom, "MAX_WALK_STEPS", 3)
        walk_block(polys)
        long = [w.evaluations + w.steps_after > 3 for w in alone]
        assert any(long) and not all(long)
        for poly, walk, fails in zip(polys, alone, long):
            if fails:
                with pytest.raises(NoConvergence):
                    poly.walk
            else:
                assert _same(poly.walk, walk)


def _mixed_bodies():
    """The bodies of ``TestColumnWalk.test_mixed_block``."""
    needle = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-4]])
    strip = _turned([[0, 0], [1, 0], [1, .006], [0.996, .01], [0, .01]], 120)
    far = valtr(17, 5).translate([1e6, 1e6])
    return [needle, strip, far, valtr(1024, 11), build(Stadium(1.0, 2.0), 1024)]


def _edge_results(polys):
    """Everything a block's edge column gives each polygon: its attributes,
    antipodes, caliper record, diameter with witnesses, width with normal
    and merged planes."""
    fresh = [ConvexPolygon(p.vertices) for p in polys]
    start = np.concatenate(([0], np.cumsum([len(p) for p in fresh])))
    normals = np.concatenate([p.edge_normals for p in fresh])
    offsets = np.concatenate([p.edge_offsets for p in fresh])
    merged = _merge_parallel(normals, offsets, start)
    owner = np.searchsorted(start, merged, "right") - 1
    far = geom._antipodes(normals, start)
    return [(p.vertices, p.origin, p.area, p.perimeter, p.edge_normals, p.edge_offsets,
             far[start[j]:start[j + 1]], record, d, w, merged[owner == j] - start[j])
            for j, (p, record, d, w) in enumerate(zip(fresh, functionals._calipers(fresh),
                                                      diameter(fresh), min_width(fresh)))]


def _same_results(a, b):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same_results(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


class TestEdgeColumn:
    """A block's edge data, antipodes, caliper records, diameters, widths
    and merged planes are one column (``polygon_block``, ``_antipodes``,
    ``functionals._calipers``, ``diameter`` and ``min_width`` of a block,
    ``_merge_parallel``); each polygon's have the bits of its block of one."""

    CHUNK_SEEDS = TestColumnWalk.CHUNK_SEEDS + [random.Random(90210).getrandbits(63) for _ in range(30)]

    def _check(self, polys):
        alone = [_edge_results([p])[0] for p in polys]
        assert all(_same_results(a, b) for a, b in zip(_edge_results(polys), alone))
        order = np.random.default_rng(len(polys)).permutation(len(polys))
        shuffled = _edge_results([polys[i] for i in order])
        assert all(_same_results(shuffled[j], alone[i]) for j, i in enumerate(order))
        start = np.concatenate(([0], np.cumsum([len(p) for p in polys])))
        built = polygon_block(np.concatenate([p.vertices for p in polys]), start)
        assert all(_same_results(_edge_results([q])[0], a) for q, a in zip(built, alone))

    def test_census_chunks(self):
        for chunk_seed in self.CHUNK_SEEDS:
            self._check(_census_chunk(chunk_seed))

    def test_mixed_block(self):
        self._check(_mixed_bodies())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failures_stay_per_chain(self):
        # a collinear chain, a pentagram and chains that overflow among
        # polygons, one of them clockwise after the dart's NaN area
        polys = _mixed_bodies()[:2]
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        chains = [np.array(OVERFLOW_DART), polys[0].vertices, line, np.array(PENTAGRAM),
                  polys[1].vertices[::-1], np.array(OVERFLOW_SQUARE)]
        start = np.concatenate(([0], np.cumsum([len(c) for c in chains])))
        built = polygon_block(np.concatenate(chains), start)
        for chain, got in zip(chains, built):
            try:
                want = ConvexPolygon(chain)
            except DegenerateInput as exc:
                assert isinstance(got, DegenerateInput) and str(got) == str(exc)
            else:
                assert _same_results(_edge_results([got])[0], _edge_results([want])[0])


def _minkowski_loop(p, q):
    """The vertices of ``minkowski_sum``, the two edge fans merged one edge
    at a time, edges within 1e-12 rad of each other added."""
    def keyed(poly):
        start = int(np.lexsort((poly.vertices[:, 0], poly.vertices[:, 1]))[0])
        v = np.roll(poly.vertices, -start, axis=0)
        edges = np.roll(v, -1, axis=0) - v
        return v[0], list(zip(np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * np.pi), edges))

    (p0, ep), (q0, eq) = keyed(p), keyed(q)
    merged, i, j = [], 0, 0
    while i < len(ep) or j < len(eq):
        if j < len(eq) and i < len(ep) and abs(ep[i][0] - eq[j][0]) < 1e-12:
            merged.append(ep[i][1] + eq[j][1])
            i, j = i + 1, j + 1
        elif j >= len(eq) or (i < len(ep) and ep[i][0] < eq[j][0]):
            merged.append(ep[i][1])
            i += 1
        else:
            merged.append(eq[j][1])
            j += 1
    verts = (p0 + q0) + np.concatenate(([np.zeros(2)], np.cumsum(merged[:-1], axis=0)))
    return geom._strictify(verts, float(np.max(np.abs(verts))) or 1.0)


class TestMinkowski:
    def test_matches_loop(self, unit_square, right_triangle):
        polys = [unit_square, right_triangle, regular_ngon(6), build(Stadium(1.0, 1.0), 256),
                 build(Slice(1.0, 2.5), 256)] + list(random_polygons(40, seed=12))
        for p, q in zip(polys, polys[1:] + polys[:1]):
            for a, b in ((p, q), (p, p), (p, q.scale(0.5))):
                assert np.array_equal(minkowski_sum(a, b).vertices, _minkowski_loop(a, b))

    def test_square_doubling(self, unit_square):
        s = minkowski_sum(unit_square, unit_square)
        assert area(s) == pytest.approx(4.0, abs=1e-12)
        assert perimeter(s) == pytest.approx(8.0, abs=1e-12)

    def test_hexagon_pair_gives_12gon(self):
        hexa = regular_ngon(6)
        ang = 2 * np.pi * np.arange(6) / 6 + np.pi / 6
        hexb = ConvexPolygon(np.column_stack((np.cos(ang), np.sin(ang))))
        s = minkowski_sum(hexa, hexb)
        # oracle: brute-force hull of all pairwise vertex sums
        sums = (hexa.vertices[:, None, :] + hexb.vertices[None, :, :]).reshape(-1, 2)
        oracle = monotone_hull(sums)
        assert len(s) == 12
        assert perimeter(s) == pytest.approx(perimeter(oracle), rel=1e-12)
        assert perimeter(s) == pytest.approx(12.0, rel=1e-12)
        assert perimeter(s) == pytest.approx(perimeter(hexa) + perimeter(hexb), rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(sa=st.integers(0, 2**31), sb=st.integers(0, 2**31))
    def test_matches_bruteforce_hull(self, sa, sb):
        from cheeger_atlas.sampler import seeded_polygon, valtr
        p, q = valtr(3 + sa % 9, sa), valtr(3 + sb % 9, sb)
        s = minkowski_sum(p, q)
        sums = (p.vertices[:, None, :] + q.vertices[None, :, :]).reshape(-1, 2)
        oracle = monotone_hull(sums)
        assert area(s) == pytest.approx(area(oracle), rel=1e-10)
        assert perimeter(s) == pytest.approx(perimeter(p) + perimeter(q), rel=1e-9)


class TestInterpolate:
    def test_endpoints(self, unit_square, right_triangle):
        assert interpolate(unit_square, right_triangle, 1.0) is unit_square
        assert interpolate(unit_square, right_triangle, 0.0) is right_triangle

    def test_self_interpolation(self, unit_square):
        for t in (0.25, 0.5, 0.75):
            s = interpolate(unit_square, unit_square, t)
            assert area(s) == pytest.approx(1.0, abs=1e-12)

    def test_perimeter_linear(self, unit_square, right_triangle):
        s = interpolate(unit_square, right_triangle, 0.3)
        expect = 0.3 * perimeter(unit_square) + 0.7 * perimeter(right_triangle)
        assert perimeter(s) == pytest.approx(expect, rel=1e-12)


def _dilate_loop(poly, t, arc_segments):
    """The vertices of ``dilate``, one vertex arc at a time."""
    step = 2.0 * np.pi / arc_segments
    angles = np.arctan2(poly.edge_normals[:, 1], poly.edge_normals[:, 0])
    pieces = []
    for i, v in enumerate(poly.vertices):
        turn = np.mod(angles[i] - angles[i - 1], 2.0 * np.pi)
        k = max(1, int(np.ceil(turn / step)))
        phis = angles[i - 1] + turn * np.arange(k + 1) / k
        pieces.append(v + t * np.column_stack((np.cos(phis), np.sin(phis))))
    return geom._strictify(np.concatenate(pieces), t)


class TestDilate:
    def test_matches_loop(self, unit_square, right_triangle):
        core = cheeger_constant(build(Stadium(1.0, 1.0), 4096)).inner_core
        for poly in (unit_square, right_triangle, core):
            for t, m in ((1.0, 4096), (0.3, 512), (1e-7, 8)):
                assert np.array_equal(dilate(poly, t, m).vertices, _dilate_loop(poly, t, m))

    def test_steiner_area_square(self, unit_square):
        # inscribed chords under-cover by at most (pi t^2/6)(2 pi/m)^2
        for m in (512, 4096):
            d = dilate(unit_square, 1.0, m)
            exact = 1.0 + 4.0 + math.pi
            eps = (math.pi / 6.0) * (2 * math.pi / m) ** 2
            assert exact - eps - 1e-12 <= area(d) <= exact + 1e-12

    def test_steiner_perimeter_triangle(self, right_triangle):
        d = dilate(right_triangle, 1.0, 4096)
        expect = perimeter(right_triangle) + 2 * math.pi
        assert perimeter(d) == pytest.approx(expect, abs=1e-6)

    def test_small_t_area_continuity(self, right_triangle):
        d = dilate(right_triangle, 1e-7, 1024)
        assert area(d) == pytest.approx(area(right_triangle), abs=1e-6)

    def test_offset_dilate_contained(self):
        for poly in random_polygons(20, seed=3):
            r, _ = inradius(poly)
            t = 0.4 * r
            core = inner_parallel(poly, t)
            back = dilate(core, t, 512)
            assert np.all(poly.edge_offsets - back.vertices @ poly.edge_normals.T >= -1e-9)


class TestFormBody:
    def test_square(self, unit_square):
        fb = form_body(unit_square)
        assert sorted(map(tuple, fb.vertices.tolist())) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_rectangle_same_normals(self):
        rect = ConvexPolygon([[0, 0], [2, 0], [2, 1], [0, 1]])
        fb = form_body(rect)
        assert area(fb) == pytest.approx(4.0, abs=1e-12)

    def test_equilateral_inradius_one(self, equilateral):
        # oracle: the clip of the planes at offset 1
        fb = form_body(equilateral)
        oracle = _clip_oracle([(n, 1.0) for n in equilateral.edge_normals])
        assert area(fb) == pytest.approx(area(oracle), rel=1e-12)
        r, _ = inradius(fb)
        assert r == pytest.approx(1.0, abs=1e-9)
        assert len(fb) == 3

    def test_matches_clip_oracle(self):
        # random polygons, the extremal bodies and their form bodies
        polys = list(random_polygons(40, seed=14)) + [build(Stadium(1.0, 1.0), 256),
                                                     build(Slice(1.0, 2.5), 256)]
        for poly in polys + [form_body(p) for p in polys]:
            fb = form_body(poly)
            want = _clip_oracle([(n, 1.0) for n in poly.edge_normals])
            k = int(np.argmin(np.hypot(*(fb.vertices - want.vertices[0]).T)))
            assert np.allclose(np.roll(fb.vertices, -k, axis=0), want.vertices, rtol=0.0, atol=1e-12)

    def test_involution_same_normals(self):
        for poly in random_polygons(10, seed=9):
            fb = form_body(poly)
            fb2 = form_body(fb)
            a1 = np.sort(np.arctan2(fb.edge_normals[:, 1], fb.edge_normals[:, 0]))
            a2 = np.sort(np.arctan2(fb2.edge_normals[:, 1], fb2.edge_normals[:, 0]))
            assert len(a1) == len(a2)
            assert np.allclose(a1, a2, atol=1e-9)


class TestPolygonJson:
    def test_round_trip(self, unit_square):
        text = polygon_to_json(unit_square)
        back = polygon_from_json(text)
        assert np.array_equal(back.vertices, unit_square.vertices)

    @pytest.mark.parametrize("doc,code", [
        ("{", "bad-json"),
        ("{}", "missing-vertices"),
        ('{"vertices": [[0,0],[1,0]]}', "bad-vertex-list"),
        ('{"vertices": [[0,0],[1,0],[2,0]]}', "not-convex"),
        (json.dumps({"vertices": PENTAGRAM}), "not-convex"),
        # coordinates must be finite JSON numbers, and not booleans
        ('{"vertices": [[0,0],[true,0],[0,true]]}', "bad-vertex-list"),
        ('{"vertices": [[0,0],["1",0],[0,1]]}', "bad-vertex-list"),
        ('{"vertices": [[0,0],[null,0],[0,1]]}', "bad-vertex-list"),
        ('{"vertices": [[0,0],[NaN,0],[0,1]]}', "bad-vertex-list"),
        ('{"vertices": [[0,0],[Infinity,0],[0,1]]}', "bad-vertex-list"),
        ('{"vertices": [[0,0],[1e400,0],[0,1]]}', "bad-vertex-list"),
        pytest.param('{"vertices": [[0,0],[1%s,0],[0,1]]}' % ("0" * 400), "bad-vertex-list",
                     id="integer-beyond-float-range"),
    ])
    def test_structured_rejection(self, doc, code):
        with pytest.raises(PolygonJsonError) as err:
            polygon_from_json(doc)
        assert err.value.code == code
