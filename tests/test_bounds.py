import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheeger_atlas import bounds, cheeger, shapes, verify
from cheeger_atlas.bounds import BOUND_IDS, arcsinc, bound_value, d0, dstar, evaluate_all, psi, registry_csv
from cheeger_atlas.cheeger import ImplicitRootProblem, cheeger_constant, smallest_crossing
from cheeger_atlas.diagrams import DIAGRAM_IDS, DiagramSpec, boundary, curve
from cheeger_atlas.errors import InvalidParam, Unreachable
from cheeger_atlas.functionals import Functionals, measure
from cheeger_atlas.geom import walk_block
from cheeger_atlas.sampler import seeded_polygon, valtr
from cheeger_atlas.shapes import (Resolution, Slice, Stadium, TwoCup, build, closed_form,
                                  slice_area, solve_param, triangle_functionals,
                                  triangle_values, two_cup_area)
from conftest import area_normalized

PI = math.pi
SQRT3 = math.sqrt(3.0)


def ball_functionals():
    return closed_form(Stadium(1.0, 0.0))  # the unit ball as a degenerate stadium


class TestPsi:
    def test_ball_case(self):
        assert psi(2.0, 1.0) == pytest.approx(PI, abs=1e-12)

    def test_scale_covariance(self):
        for r in (0.5, 3.0):
            assert psi(2 * r, r) == pytest.approx(PI * r * r, rel=1e-12)
        assert psi(6.0, 2.0) == pytest.approx(4 * psi(3.0, 1.0), rel=1e-12)

    def test_slice_branch_value(self):
        # hand evaluation of the slice branch at d=3, r=1 (3 > dstar)
        assert psi(3.0, 1.0) == pytest.approx(math.sqrt(5) + 4.5 * math.asin(2 / 3), abs=1e-13)

    def test_branch_continuity(self):
        ds = dstar()
        gap = psi(ds * (1 - 1e-12), 1.0) - psi(ds * (1 + 1e-12), 1.0)
        assert abs(gap) < 1e-9

    def test_monotone_in_diameter(self):
        for r in (0.5, 1.0, 2.0):
            d = np.linspace(2 * r, 6 * r, 400)
            vals = psi(d, np.full_like(d, r))
            assert np.all(np.diff(vals) >= -1e-12)

    def test_domain(self):
        assert np.isnan(psi(1.0, 1.0))


class TestChiPhi:
    # the largest areas chi(omega, R) = slice_area(2R, omega) and
    # phi(R, r) = slice_area(2R, 2r), which g4 and g2 read at t = 0
    def test_chi_full_ball(self):
        for R in (0.5, 1.0, 2.0):
            assert slice_area(2 * R, 2 * R) == pytest.approx(PI * R * R, rel=1e-12)

    def test_chi_hand_value(self):
        assert slice_area(2.0, 1.0) == pytest.approx(SQRT3 / 2 + PI / 3, abs=1e-14)

    def test_chi_equals_slice_area(self):
        for r, d in [(0.5, 1.6), (1.0, 2.4), (1.0, 3.5), (2.0, 5.0), (0.3, 0.61)]:
            f = closed_form(Slice(r, d))
            assert slice_area(d, 2 * r) == pytest.approx(f.area, abs=1e-12)

    def test_phi_ball(self):
        assert slice_area(2.0, 2.0) == pytest.approx(PI, abs=1e-13)

    def test_phi_hand_value(self):
        assert slice_area(4.0, 2.0) == pytest.approx(2 * SQRT3 + 4 * PI / 3, abs=1e-13)

    def test_phi_homogeneous(self):
        for t in (0.5, 2.5):
            assert slice_area(4 * t, 2 * t) == pytest.approx(t * t * slice_area(4.0, 2.0), rel=1e-12)

    def test_domains(self):
        # outside chi's domain omega <= 2R and phi's r <= R, the crossings
        # of g4 and g2 that read them have no value
        assert np.isnan(bound_value("HRW_LO_IMPLICIT", w=3.0, R=1.0))
        assert np.isnan(bound_value("HRR_LO_IMPLICIT", R=1.0, r=2.0))


# Oracles: the formulas that chi, phi, psi, g1-g4 and the two-cup bounds
# typed out before they read the closed forms in ``shapes``; chi and phi are
# NaN outside their domains.
def _oracle_slice_area(d, w):
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_d = np.where(d <= 0.0, 1.0, d)
        val = (w / 2) * np.sqrt(np.maximum(d * d - w * w, 0.0)) \
            + (d * d / 2) * np.arcsin(np.clip(w / safe_d, -1.0, 1.0))
    return np.where(d <= 0.0, 0.0, val)


def _oracle_chi(w, R):
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_R = np.where(R <= 0.0, 1.0, R)
        val = (w / 2) * np.sqrt(np.maximum(4 * R * R - w * w, 0.0)) \
            + 2 * R * R * np.arcsin(np.clip(w / (2 * safe_R), -1.0, 1.0))
    bad = (w < -0.0) | (w > 2 * R * (1 + 1e-9) + 1e-9)
    return np.where(bad, np.nan, np.where(R <= 0.0, 0.0, val))


def _oracle_phi(R, r):
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_R = np.where(R <= 0.0, 1.0, R)
        val = 2 * (r * np.sqrt(np.maximum(R * R - r * r, 0.0))
                   + R * R * np.arcsin(np.clip(r / safe_R, -1.0, 1.0)))
    bad = (r < -0.0) | (r > R * (1 + 1e-9) + 1e-9)
    return np.where(bad, np.nan, np.where(R <= 0.0, 0.0, val))


def _oracle_psi(d, r):
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_d = np.where(d <= 0.0, 1.0, d)
        f_branch = (3 * SQRT3 * r / 2) * (np.sqrt(np.maximum(d * d - 3 * r * r, 0.0)) - r) \
            + (3 * d * d / 2) * (PI / 3 - np.arccos(np.clip(SQRT3 * r / safe_d, -1.0, 1.0)))
        g_branch = r * np.sqrt(np.maximum(d * d - 4 * r * r, 0.0)) \
            + (d * d / 2) * np.arcsin(np.clip(2 * r / safe_d, -1.0, 1.0))
    out = np.where(d <= 0.0, 0.0, np.where(d <= r * dstar(), f_branch, g_branch))
    bad = (r < -0.0) | (d + 1e-9 * np.maximum(1.0, d) < 2 * r)
    return np.where(bad, np.nan, out)


# family -> (parameter names, outside-domain test, domain end, g(t) of the
# parameters, the registry's lower bound that solves the family's crossing)
_ORACLE_G = {
    "g1": (("d", "r"), lambda d, r: d < 2 * r - 1e-9, lambda d, r: r,
           lambda d, r, t: _oracle_psi(d - 2 * t, np.maximum(r - t, 0.0)), "HDR_LO_IMPLICIT"),
    "g2": (("R", "r"), lambda R, r: R < r - 1e-9, lambda R, r: r,
           lambda R, r, t: _oracle_phi(np.maximum(R - t, 0.0), np.maximum(r - t, 0.0)), "HRR_LO_IMPLICIT"),
    "g3": (("d", "w"), lambda d, w: d < w - 1e-9, lambda d, w: w / 2,
           lambda d, w, t: _oracle_slice_area(d - 2 * t, np.maximum(w - 2 * t, 0.0)), "HDW_LO_IMPLICIT"),
    "g4": (("w", "R"), lambda w, R: 2 * R < w - 1e-9, lambda w, R: w / 2,
           lambda w, R, t: _oracle_chi(np.maximum(w - 2 * t, 0.0), np.maximum(R - t, 0.0)),
           "HRW_LO_IMPLICIT"),
}


def _oracle_problem(family, **params):
    """The crossing problem of ``family`` at its parameters by name (floats,
    or columns broadcast together) from the oracle, with a NaN domain end
    outside the family's domain."""
    names, outside, end, oracle, _ = _ORACLE_G[family]
    p, q = (np.asarray(params[k], dtype=float) for k in names)
    return ImplicitRootProblem(lambda t: oracle(p, q, t), np.where(outside(p, q), np.nan, end(p, q)))


def _edge_grid(ratios):
    """(big, small) columns, small = big * ratio for each ratio and each
    scale of big, the zero scale included."""
    big, ratio = np.meshgrid([0.0, 0.3, 1.0, 2.7, 7.1], ratios)
    return big.ravel(), (big * ratio).ravel()


# ratios of a functional to its upper limit (r / R, w / d, w / 2R), at and
# just past the edges of the domain: zero, a negative zero, 1e-6 below zero,
# the limit, 5e-10 past it (tolerated on the smaller scales) and 1e-6 past it
_EDGE = [-1e-6, -0.0, 0.0, 0.25, 0.5, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 5e-10, 1.0 + 1e-6, 1.2]
# the same for r / d, through both branches of psi
_EDGE_RD = [-1e-6, 0.0, 0.1, 1 / 3, 1 / (dstar() * (1 + 1e-9)), 1 / (dstar() * (1 - 1e-9)),
            0.42, 0.43, 0.45, 1 / 2.1, 0.48, 0.49, 0.5 - 1e-12, 0.5, 0.5 + 2e-10, 0.5 + 1e-6]


def _same(got, want):
    return np.array_equal(np.asarray(got), np.asarray(want), equal_nan=True)


class TestClosedFormOracles:
    def test_chi_phi_psi_bit_for_bit(self):
        R, w = _edge_grid([2 * x for x in _EDGE])
        inside = ~np.isnan(_oracle_chi(w, R))
        assert _same(slice_area(2 * R[inside], w[inside]), _oracle_chi(w, R)[inside])
        R, r = _edge_grid(_EDGE)
        inside = ~np.isnan(_oracle_phi(R, r))
        assert _same(slice_area(2 * R[inside], 2 * r[inside]), _oracle_phi(R, r)[inside])
        d, r = _edge_grid(_EDGE_RD)
        assert _same(psi(d, r), _oracle_psi(d, r))

    def test_float_calls_match_columns(self):
        # a float call is a column of one, 0-d, with NaN outside the domain
        d, r = _edge_grid(_EDGE_RD)
        want = psi(d, r)
        assert np.isnan(want).any() and not np.isnan(want).all()
        for x, y, w in zip(d.tolist(), r.tolist(), want):
            got = psi(x, y)
            assert np.shape(got) == () and _same(got, w)
            assert _same(got, psi(np.array([x]), np.array([y]))[0])
        xs = [-0.5, -0.0, 0.0, 1e-300, 1e-3, 1 / 6, 0.2, 2 / PI, 0.5, 1 - 1e-5, 1 - 1e-12, 1.0,
              1 + 1e-15, 1.1, math.inf, math.nan]
        want = arcsinc(np.array(xs))
        assert _same(np.isnan(want), [not 0.0 < x <= 1.0 for x in xs])
        for x, w in zip(xs, want):
            got = arcsinc(x)
            assert np.shape(got) == () and _same(got, w)
            assert _same(got, arcsinc(np.array([x]))[0])

    @pytest.mark.parametrize("family", ["g1", "g2", "g3", "g4"])
    def test_crossings_bit_for_bit(self, family):
        # the registry's crossings are the oracle problems' crossings, and
        # have no value outside the family's domain
        names, outside, end, oracle, bid = _ORACLE_G[family]
        if family == "g1":
            p, q = _edge_grid(_EDGE_RD)
        elif family == "g4":
            q, p = _edge_grid([2 * x for x in _EDGE])
        else:
            p, q = _edge_grid(_EDGE)
        bad = outside(p, q)
        assert bad.any() and not bad.all()
        params = {names[0]: p, names[1]: q}
        got = bound_value(bid, **params)
        want = 1.0 / smallest_crossing(_oracle_problem(family, **params))[0]
        assert _same(got, want)
        assert np.isnan(got[bad]).all() and np.isfinite(got).any()

    def test_two_cup_bounds(self):
        r, big = _edge_grid([1.0, 1.0 + 1e-12, 1.01, 1.5, 3.0, 40.0])
        r, big = r[r > 0], big[r > 0]
        d = 2 * big
        den = r * np.sqrt(np.maximum(d * d - 4 * r * r, 0.0)) \
            + r * r * (PI - 2 * np.arccos(np.minimum(1.0, 2 * r / d)))
        assert _same(two_cup_area(r, d / 2), den)
        assert _same(bound_value("HDR_UP", r=r, d=d), 1 / r + np.sqrt(PI / den))
        R = big
        den = 2 * r * (np.sqrt(np.maximum(R * R - r * r, 0.0)) + r * np.arcsin(np.minimum(1.0, r / R)))
        assert np.allclose(two_cup_area(r, R), den, rtol=1e-15, atol=0.0)
        got = bound_value("HRR_UP", r=r, R=R)
        assert np.allclose(got, 1 / r + np.sqrt(PI / den), rtol=1e-15, atol=0.0)

    def test_closed_forms_of_slice_and_two_cup(self):
        for r, k in [(1.0, 1.0), (1.0, 1.0 + 1e-12), (0.5, 0.7), (2.0, 9.0), (1.0, 1e6)]:
            f = closed_form(TwoCup(r, k))
            A = r * math.sqrt(max(0.0, 4 * k * k - 4 * r * r)) \
                + r * r * (math.pi - 2 * math.acos(min(1.0, r / k)))
            assert f.area == pytest.approx(A, rel=1e-15, abs=0.0)
            assert f.cheeger == pytest.approx(1 / r + math.sqrt(math.pi / A), rel=1e-15, abs=0.0)
            d = 2 * k
            root = math.sqrt(max(0.0, d * d - 4 * r * r))
            asr = math.asin(min(1.0, 2 * r / d))
            f = closed_form(Slice(r, d))
            assert f.area == pytest.approx(r * root + (d * d / 2) * asr, rel=1e-15, abs=0.0)
            assert f.perimeter == 2 * root + 2 * d * asr


class TestArcsinc:
    def test_endpoint(self):
        assert arcsinc(1.0) == 0.0

    def test_half_pi(self):
        assert arcsinc(2 / PI) == pytest.approx(PI / 2, abs=1e-12)

    def test_bisection_root(self):
        y = arcsinc(0.5)
        assert math.sin(y) == pytest.approx(0.5 * y, abs=1e-13)

    def test_domain(self):
        for bad in (0.0, -0.5, 1.1):
            assert np.isnan(arcsinc(bad))


class TestDstar:
    def test_paper_value(self):
        assert dstar() == pytest.approx(2.3888, abs=5e-4)

    def test_in_open_interval(self):
        assert 2.0 < dstar() < 2 * SQRT3


class TestD0:
    def test_bracketing_and_convergence(self):
        v1, v2 = d0(1024), d0(2048)
        assert 2.0 < v1 < dstar()
        assert abs(v1 - v2) < 1e-4

    def test_few_cheeger_solves(self, monkeypatch):
        solves = []

        def counted(*args, **kwargs):
            solves.append(1)
            return cheeger_constant(*args, **kwargs)
        monkeypatch.setattr(bounds, "_D0_CACHE", {})
        monkeypatch.setattr(bounds, "cheeger_constant", counted)
        d0(1024)
        assert 3 <= len(solves) <= 10


def test_constants_bit_for_bit():
    # the root loop's 0-d columns keep the bits of the constants
    assert type(dstar()) is float and dstar() == 2.3887340726434454
    assert type(d0(4096)) is float and d0(4096) == 2.1810365083234022


def _crossing_columns(count=100, seed=1):
    """(family, parameter columns) of g1..g4 at the functionals of seeded
    unit-area census polygons and on the implicit lower curves' diagram grids."""
    fs = [measure(area_normalized(seeded_polygon(seed, i, 3, 30)[2])) for i in range(count)]
    d, r, R, w = (np.array([getattr(f, k) for f in fs])
                  for k in ("diameter", "inradius", "circumradius", "min_width"))
    return [("g1", dict(d=d, r=r)), ("g2", dict(R=R, r=r)), ("g3", dict(d=d, w=w)),
            ("g4", dict(w=w, R=R)),
            ("g2", dict(R=DiagramSpec("D2_RHR").xs(), r=1.0)),
            ("g1", dict(d=DiagramSpec("D3_DHR").xs(), r=1.0)),
            ("g3", dict(d=1.0, w=DiagramSpec("HWD").xs())),
            ("g4", dict(w=DiagramSpec("HWR_CIRC").xs(), R=1.0))]


def _elements(params):
    """The float parameters of each element of a parameter column."""
    n = max(np.size(v) for v in params.values())
    cols = {k: np.broadcast_to(v, (n,)) for k, v in params.items()}
    return [{k: float(v[i]) for k, v in cols.items()} for i in range(n)]


@pytest.fixture(scope="module")
def crossing_columns():
    return _crossing_columns()


@pytest.fixture(scope="module")
def crossing_problems(crossing_columns):
    return [_oracle_problem(fam, **kw) for fam, params in crossing_columns for kw in _elements(params)]


def _scan_crossing(problem, points=1025):
    """Oracle: the first sign change of g - pi t^2 on a grid, regridded to 1e-13 of the domain."""
    lo, hi = 0.0, problem.upper
    while hi - lo > 1e-13 * problem.upper:
        ts = np.linspace(lo, hi, points)
        k = int(np.argmax(problem.g(ts) - PI * ts * ts <= 0.0))
        assert k > 0
        lo, hi = float(ts[k - 1]), float(ts[k])
    return 0.5 * (lo + hi)


class TestCrossingContract:
    def test_difference_is_non_increasing(self, crossing_problems):
        # the premise of smallest_crossing: F = g - pi t^2 never rises
        for problem in crossing_problems:
            ts = np.linspace(0.0, problem.upper, 4097)
            F = problem.g(ts) - PI * ts * ts
            assert F[0] > 0.0 >= F[-1]
            assert np.all(np.diff(F) <= 0.0)

    def test_matches_scan_oracle(self, crossing_problems):
        for problem in crossing_problems:
            got = smallest_crossing(problem)[0]
            assert abs(got - _scan_crossing(problem)) <= 1e-12 * problem.upper

    def test_column_matches_elementwise(self, crossing_columns):
        # each element of a column takes exactly the steps it takes alone
        for fam, params in crossing_columns:
            got = smallest_crossing(_oracle_problem(fam, **params))[0]
            want = [smallest_crossing(_oracle_problem(fam, **kw))[0] for kw in _elements(params)]
            assert np.array_equal(got, want), fam

    def test_column_reports_missing_crossings_as_nan(self):
        # an element outside g1's domain, and one whose F never turns
        # nonpositive, come back NaN without disturbing their neighbours
        d, r = np.array([3.0, 1.0, 4.0]), np.array([1.0, 1.0, 1.0])
        got = smallest_crossing(_oracle_problem("g1", d=d, r=r))[0]
        assert np.isnan(got[1])
        assert got[0] == smallest_crossing(_oracle_problem("g1", d=3.0, r=1.0))[0]
        assert got[2] == smallest_crossing(_oracle_problem("g1", d=4.0, r=1.0))[0]
        flat = ImplicitRootProblem(lambda t: np.where(np.arange(2) == 0, PI * (1 - t) ** 2, 10.0),
                                   np.array([1.0, 1.0]))
        got = smallest_crossing(flat)[0]
        assert got[0] == pytest.approx(0.5, abs=1e-13) and np.isnan(got[1])

    def test_column_empty_domain_is_nan(self):
        # r = 0 (g1) and w = 0 (g3) leave the domain [0, 0]: the float
        # problem and the element of a column both come back NaN
        for family, params in (("g1", {"d": [3.0, 2.0], "r": [1.0, 0.0]}),
                               ("g3", {"d": [1.0, 1.0], "w": [0.5, 0.0]})):
            inside, empty = ({k: v[i] for k, v in params.items()} for i in (0, 1))
            got = smallest_crossing(_oracle_problem(family, **params))[0]
            assert np.isnan(got[1])
            assert got[0] == smallest_crossing(_oracle_problem(family, **inside))[0]
            assert np.isnan(smallest_crossing(_oracle_problem(family, **empty))[0])


def _g_points(family, **kw):
    """(g points, crossing) of one float crossing problem; the two ends are two points."""
    problem = _oracle_problem(family, **kw)
    seen = []

    def g(t):
        seen.append(np.size(t))
        return problem.g(t)
    t = smallest_crossing(dataclasses.replace(problem, g=g))[0]
    return sum(seen), t


class TestRootSteps:
    def test_secant_rounding_onto_an_end(self):
        # the fifth step is within 2.6e-14 of the domain; the next secant
        # rounds onto that end (37 g points when it bisected from there)
        points, t = _g_points("g3", d=1.387081534670557, w=1.0312794713830942)
        assert points <= 8
        assert t == pytest.approx(_scan_crossing(_oracle_problem("g3", d=1.387081534670557,
                                                                 w=1.0312794713830942)), abs=1e-13)

    def test_one_ulp_apart_takes_the_same_steps(self):
        # R values 7e-16 apart took 9 and 15 g points while a secant on an end bisected
        counts = [_g_points("g4", w=1.0377798615857556, R=R)[0]
                  for R in (0.6434986189970329, 0.6434986189970322)]
        assert counts[0] == counts[1] <= 8

    def test_census_column_steps(self, monkeypatch):
        # 30 census records as one column: one root loop for the g1..g4
        # crossings and the arcsinc of PHR_LO and PHD_LO, each of its elements
        # done in at most 7 steps, and one slice_area call per g evaluation
        records = [measure(area_normalized(seeded_polygon(1, i, 3, 30)[2]))
                   for i in range(30)]
        dstar()  # cached before the count, so that only the column runs a root loop
        crossing_calls, loops, slices = [], [], []

        def counted_crossing(problem, *brackets):
            calls = []

            def g(t):
                calls.append(np.shape(t))
                n = len(slices)
                values = problem.g(t)
                calls[-1] += (len(slices) - n,)
                return values
            t = smallest_crossing(dataclasses.replace(problem, g=g), *brackets)
            crossing_calls.append(calls)
            return t

        root_loop = cheeger._bracketed_root

        def counted_root(f, *args):
            steps = []
            root = root_loop(lambda y: steps.append(1) or f(y), *args)
            loops.append(len(steps))
            return root

        def counted_slices(*args):
            slices.append(1)
            return slice_area(*args)
        monkeypatch.setattr(bounds, "smallest_crossing", counted_crossing)
        monkeypatch.setattr(bounds, "_bracketed_root", counted_root)
        monkeypatch.setattr(cheeger, "_bracketed_root", counted_root)
        monkeypatch.setattr(bounds, "slice_area", counted_slices)
        table = evaluate_all(*records)
        assert len(crossing_calls) == 1 and len(loops) == 1
        calls = crossing_calls[0]
        assert calls[0] == (2, 4 * len(records), 1)
        assert calls[1:] == [(4 * len(records), 1)] * loops[0] and 1 <= loops[0] <= 7
        # the arcsinc rides in the loop bit for bit: PHR_LO and PHD_LO as
        # bound_value solves them, in an arcsinc loop of their own
        column = {k: np.array([getattr(f, name) for f in records])
                  for k, name in (("P", "perimeter"), ("R", "circumradius"), ("d", "diameter"))}
        monkeypatch.undo()
        for bid in ("PHR_LO", "PHD_LO"):
            ok = table.status[BOUND_IDS.index(bid)] == bounds.OK
            want = bound_value(bid, **column)[ok]
            assert ok.any() and table.value[BOUND_IDS.index(bid)][ok].tolist() == want.tolist(), bid
        # the stacked loop gives each family's crossings bit for bit
        for fam, bid, kw in (("g1", "HDR_LO_IMPLICIT", ("d", "diameter", "r", "inradius")),
                             ("g2", "HRR_LO_IMPLICIT", ("R", "circumradius", "r", "inradius")),
                             ("g3", "HDW_LO_IMPLICIT", ("d", "diameter", "w", "min_width")),
                             ("g4", "HRW_LO_IMPLICIT", ("w", "min_width", "R", "circumradius"))):
            column = {kw[0]: np.array([getattr(f, kw[1]) for f in records]),
                      kw[2]: np.array([getattr(f, kw[3]) for f in records])}
            want = 1.0 / smallest_crossing(_oracle_problem(fam, **column))[0]
            assert table.value[BOUND_IDS.index(bid)].tolist() == list(want), fam


class TestImplicitG:
    # the registry's implicit lower bounds: h = 1/t at the crossings of g1..g4
    def test_g2_ball_reduction(self):
        ts = np.linspace(0, 1, 7)
        assert np.allclose(slice_area(2.0 - 2 * ts, 2.0 - 2 * ts), PI * (1 - ts) ** 2, atol=1e-12)
        assert bound_value("HRR_LO_IMPLICIT", R=1.0, r=1.0) == pytest.approx(2.0, abs=1e-10)

    def test_g1_ball_reduction(self):
        ts = np.linspace(0, 1, 7)
        assert np.allclose(psi(2.0 - 2 * ts, 1.0 - ts), PI * (1 - ts) ** 2, atol=1e-12)
        assert bound_value("HDR_LO_IMPLICIT", d=2.0, r=1.0) == pytest.approx(2.0, abs=1e-10)

    def test_g3_ball_reduction(self):
        assert bound_value("HDW_LO_IMPLICIT", d=2.0, w=2.0) == pytest.approx(2.0, abs=1e-10)

    def test_g4_ball_reduction(self):
        assert bound_value("HRW_LO_IMPLICIT", w=2.0, R=1.0) == pytest.approx(2.0, abs=1e-10)

    def test_domain_checks(self):
        assert np.isnan(bound_value("HDR_LO_IMPLICIT", d=1.0, r=1.0))
        assert np.isnan(bound_value("HRW_LO_IMPLICIT", w=3.0, R=1.0))

    @pytest.mark.parametrize("d", [2.3, 3.0, 5.0])
    def test_g1_exact_on_slices(self, d):
        # |S_{-t}| = psi(d - 2t, r - t) for slices in the slice regime
        lo = bound_value("HDR_LO_IMPLICIT", d=d, r=1.0)
        poly = build(Slice(1.0, d), Resolution(4096))
        h = cheeger_constant(poly).h
        if d >= dstar():
            assert lo == pytest.approx(h, rel=1e-6)
        else:
            assert lo <= h * (1 + 1e-6)

    def test_direction_never_exceeds_extremal_h(self):
        # Lemma-style check: each lower bound stays below the h of the shape
        # that saturates it
        for d in (2.5, 4.0):
            poly = build(Slice(1.0, d), Resolution(4096))
            h = cheeger_constant(poly).h
            f = measure(poly)
            for bid, kw in [("HRR_LO_IMPLICIT", dict(R=f.circumradius, r=f.inradius)),
                            ("HDW_LO_IMPLICIT", dict(d=f.diameter, w=f.min_width)),
                            ("HRW_LO_IMPLICIT", dict(w=f.min_width, R=f.circumradius))]:
                assert bound_value(bid, **kw) <= h * (1 + 1e-6)


def _subeq_inradius(key, w, value):
    """Inradius of the subequilateral triangle of width w and functional ``key``."""
    spec = solve_param((key, value), ("w", w))
    return triangle_functionals(spec.base, spec.height).inradius


def _float_matches(target_id, tval, fixed_id, fval):
    """(base, height) rows of float calls, element by element; NaN where
    one raises."""
    rows = []
    for t, f in zip(tval, fval):
        try:
            spec = solve_param((target_id, float(t)), (fixed_id, float(f)))
            rows.append((spec.base, spec.height))
        except (InvalidParam, Unreachable):
            rows.append((math.nan, math.nan))
    return np.array(rows)


class TestSubeqInverse:
    def test_equilateral_endpoints(self):
        w = 1.3
        assert _subeq_inradius("A", w, w * w / SQRT3) == pytest.approx(w / 3, abs=1e-10)
        assert _subeq_inradius("P", w, 2 * SQRT3 * w) == pytest.approx(w / 3, abs=1e-10)

    def test_below_range(self):
        with pytest.raises(Unreachable):
            _subeq_inradius("A", 1.0, 0.5 / SQRT3)

    @pytest.mark.parametrize("target,fixed", [("w", "R"), ("A", "w"), ("P", "w")])
    def test_column_matches_elementwise(self, target, fixed):
        # the matches of HRW_UP_TRI, HAW_UP_TRI and HWP_UP_TRI on census
        # records, with three widths far toward the thin end; the last
        # element lies beyond the equilateral end
        fs = [measure(area_normalized(seeded_polygon(3, i, 3, 30)[2])) for i in range(60)]
        tval = np.array([f.value(target) for f in fs] + [2.0 if target == "w" else 0.1])
        fval = np.array([f.value(fixed) for f in fs] + [1.0])
        if target == "w":
            tval[:3] = fval[:3] * np.array([1e-3, 1e-5, 1e-7])
        base, height = solve_param((target, tval), (fixed, fval))
        np.testing.assert_array_equal(np.column_stack((base, height)),
                                      _float_matches(target, tval, fixed, fval))
        assert np.isnan(base[-1]) and np.isnan(base).sum() < len(base) // 2

    def test_column_reaches_the_far_end(self):
        # areas at unit width of triangles with height / base up to 1e9 are
        # matched in one column, element by element as a float call matches
        # them: the closed form has no far end
        sigma = np.array([3.0, 1e4, 1e7, 1e8, 2e8, 1e9])
        f = triangle_values(1.0, sigma)
        area = f["A"] / f["w"] ** 2
        base, height = solve_param(("A", area), ("w", 1.0))
        np.testing.assert_array_equal(np.column_stack((base, height)),
                                      _float_matches("A", area, "w", np.ones_like(area)))
        assert height / base == pytest.approx(sigma, rel=1e-12)

    # h of the triangle each bound matches, from a 60-digit evaluation: the
    # ratio of the inputs, u = sin(theta/2) from it (by 250 bisection steps
    # on the cubic for R and P), the leg from w, then 1/r + sqrt(pi/A).  Per
    # bound: the equilateral end, the middle of the range, and a thin body
    # (w/d = 1e-9 and w^2/(2A) = 1e-9 are height/base of about 1e9)
    @pytest.mark.parametrize("bid, key, w, x, h", [
        ("HDW_UP_TRI", "d", SQRT3 / 2, 1.0, 6.1576489893149514866727113819649022),
        ("HDW_UP_TRI", "d", 0.5, 1.0, 8.5801838822211151039919303171784837),
        ("HDW_UP_TRI", "d", 1e-9, 1.0, 2000079267.5459519956546155618249677),
        ("HAW_UP_TRI", "A", 1.0, 1 / SQRT3, 5.3326804523343208828681358136371000),
        ("HAW_UP_TRI", "A", 1.0, 1.0, 4.2900919411105575519959651585892418),
        ("HAW_UP_TRI", "A", 1.0, 5e8, 2.0000792675459521202202669007003024),
        ("HRW_UP_TRI", "R", 1.5, 1.0, 3.5551203015562141607427311237893744),
        ("HRW_UP_TRI", "R", 1.0, 1.0, 4.3453964736981340900969107430557031),
        ("HRW_UP_TRI", "R", 1e-7, 1.0, 20005605.491216398834739985360141578),
        ("HWP_UP_TRI", "P", 1.0, 2 * SQRT3, 5.3326804523343212411140966856840615),
        ("HWP_UP_TRI", "P", 1.0, 5.0, 4.3031960637695427204145481071992213),
        ("HWP_UP_TRI", "P", 1.0, 1e7, 2.0011211982993495021105855869399738),
    ])
    def test_high_precision_oracle(self, bid, key, w, x, h):
        assert bound_value(bid, w=w, **{key: x}) == pytest.approx(h, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(aspect=st.floats(math.log10(SQRT3 / 2), 9.0), base=st.floats(1e-3, 1e3),
           key=st.sampled_from("dARP"), by_width=st.booleans())
    def test_round_trip(self, aspect, base, key, by_width):
        # 20,000 random such round trips kept base and height within 1.1e-15
        height = base * 10.0 ** aspect
        v = triangle_values(base, height)
        w, x = ("w", float(v["w"])), (key, float(v[key]))
        spec = solve_param(*((x, w) if by_width else (w, x)))
        assert spec.base == pytest.approx(base, rel=1e-12)
        assert spec.height == pytest.approx(height, rel=1e-12)

    def test_column_marks_invalid_values(self):
        # a value that is not positive raises for a float call and leaves
        # only its own element unsolved in a column
        tval, fval = np.array([0.5, 0.0, 0.5]), np.array([1.0, 1.0, -1.0])
        base, height = solve_param(("w", tval), ("R", fval))
        np.testing.assert_array_equal(np.column_stack((base, height)),
                                      _float_matches("w", tval, "R", fval))
        assert np.isfinite(base[0]) and np.isnan(base[1:]).all()
        for t, f in zip(tval[1:], fval[1:]):
            with pytest.raises(InvalidParam):
                solve_param(("w", float(t)), ("R", float(f)))

    @pytest.mark.parametrize("kind,key", [("area_from", "A"), ("perim_from", "P")])
    def test_round_trip_on_triangles(self, kind, key):
        for height in (1.0, 2.0, 5.0):
            f = triangle_functionals(1.0, height)
            r = _subeq_inradius(key, f.min_width, f.value(key))
            assert r == pytest.approx(f.inradius, rel=1e-10)


@pytest.fixture(scope="module")
def column_records():
    fs = [measure(area_normalized(seeded_polygon(7, i, 3, 30)[2])) for i in range(200)]
    return fs + [measure(build(spec, 8192)) for _, spec, _, _ in verify._sharpness_bodies()]


class TestEvaluateAll:
    def test_ball_equalities(self):
        f = ball_functionals()
        results = {r.id: r for r in evaluate_all(f)}
        assert set(results) == set(BOUND_IDS)
        equal_ids = ["ONEQ_A", "ONEQ_P", "ONEQ_D", "ONEQ_R_LO", "ONEQ_R_UP2",
                     "HRA_LO", "HRA_UP", "HPA_LO", "HPA_UP", "HRP_LO", "HRP_UP",
                     "HDR_UP", "HRR_UP", "HDR_LO_IMPLICIT", "HRR_LO_IMPLICIT",
                     "HDW_LO_IMPLICIT", "HRW_LO_IMPLICIT"]
        for bid in equal_ids:
            assert results[bid].status == "ok"
            assert abs(results[bid].slack) < 1e-6, bid
        for r in results.values():
            if r.status == "ok":
                assert r.slack >= -1e-7, r.id

    def test_stadium_sharp(self):
        f = closed_form(Stadium(1.0, 2.0))
        results = {r.id: r for r in evaluate_all(f)}
        for bid in ("HRA_LO", "HPA_UP", "HRP_LO", "HAW_LO", "HWP_LO"):
            assert abs(results[bid].slack) < 1e-6 * f.cheeger, bid

    def test_two_cup_sharp(self):
        f = closed_form(TwoCup(1.0, 2.0))
        results = {r.id: r for r in evaluate_all(f)}
        for bid in ("HDR_UP", "HRR_UP"):
            assert abs(results[bid].slack) < 1e-6 * f.cheeger, bid

    def test_explicit_implied_by_implicit(self):
        # the g1 crossing dominates its explicit relaxation
        rng = np.random.default_rng(4)
        for _ in range(40):
            r = rng.uniform(0.2, 2.0)
            d = r * rng.uniform(2.0, 6.0)
            lo_impl = bound_value("HDR_LO_IMPLICIT", d=d, r=r)
            s = d + 2 * r - math.sqrt((d + 2 * r) ** 2 - 2 * (4 - PI) * d * r)
            lo_expl = (4 - PI) / s
            assert lo_impl >= lo_expl - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30))
    def test_soundness_random(self, seed, n):
        poly = area_normalized(valtr(n, seed))
        f = measure(poly)
        for r in evaluate_all(f):
            if r.status == "ok":
                assert r.slack >= -1e-7, (r.id, seed, n)

    def test_soundness_far_from_the_origin(self):
        # the area of a polygon shifted this far was once a shoelace of the
        # caller's coordinates, up to 6.3e-3 off: nine of these records then
        # failed HRA_UP or HPA_LO, by up to 7.3e-4 h
        polys = [seeded_polygon(1, i, 3, 30)[2].translate((1e6, -7e5)) for i in range(300)]
        walk_block(polys)
        fs = [measure(poly) for poly in polys]
        k = len(BOUND_IDS)
        for i, r in enumerate(evaluate_all(*fs)):
            if r.status == "ok":
                assert r.slack >= -1e-8 * fs[i // k].cheeger, (r.id, i // k)

    def test_column_matches_records(self, column_records):
        # 200 census polygons and the 13 sharpness bodies as one column
        got = evaluate_all(*column_records).results()
        want = [r for f in column_records for r in evaluate_all(f).results()]
        assert [(r.id, r.status) for r in got] == [(r.id, r.status) for r in want]
        assert [r.id for r in got[:len(BOUND_IDS)]] == list(BOUND_IDS)
        for a, b in zip(got, want):
            if a.status == "ok":
                assert a.value == pytest.approx(b.value, rel=1e-12), a.id

    def test_failing_record_leaves_others_alone(self, column_records):
        # width 1e-320 at circumradius 1 matches a triangle whose h
        # overflows, so its HRW_UP_TRI result (and most others) is no-root
        thin = Functionals(area=1e-320, perimeter=4.0, inradius=4e-321, circumradius=1.0,
                           diameter=2.0, min_width=1e-320)
        a, b = column_records[:2]
        k = len(BOUND_IDS)
        got = evaluate_all(a, thin, b).results()
        assert {r.id: r.status for r in got[k:2 * k]}["HRW_UP_TRI"] == "no-root"
        assert got[:k] + got[2 * k:] == evaluate_all(a, b).results()

    @pytest.mark.parametrize("scale", [1e-100, 1e-120, 1e120])
    def test_tiny_and_huge_records_find_their_roots(self, scale):
        # each record is evaluated at a perimeter in [0.5, 1): scaled by
        # 1e-100, HRD_UP's d**3 products underflowed to no-root, and at
        # 1e-120 four implicit crossings did too
        def statuses(poly):
            return collections.Counter(r.status for r in evaluate_all(measure(poly)).results())
        witness = valtr(12, 3)
        assert statuses(witness) == {"ok": 40, "not-applicable": 4}
        assert statuses(witness.scale(scale)) == statuses(witness)

    def test_no_root_loop_over_shapes(self, column_records):
        # the triangle matches are closed forms: shapes takes nothing from
        # cheeger, the root finder's module, so a census column never runs
        # a root loop over a family's shape parameter
        assert "cheeger_atlas.cheeger" not in {getattr(v, "__module__", None) for v in vars(shapes).values()}
        assert evaluate_all(*column_records[:10]).status.shape == (len(BOUND_IDS), 10)

    def test_arrays_and_their_view(self, column_records):
        # the arrays are ids by records; the view reads them record by record,
        # and a record without h has NaN slacks in the arrays and None in the view
        fs = column_records[:20] + [dataclasses.replace(column_records[20], cheeger=None)]
        table = evaluate_all(*fs)
        assert table.value.shape == table.slack.shape == table.status.shape == (len(BOUND_IDS), len(fs))
        ok = table.status == bounds.OK
        assert np.isnan(table.value[~ok]).all() and np.isfinite(table.value[ok]).all()
        assert np.isnan(table.slack[:, -1]).all() and np.isfinite(table.slack[:, :-1][ok[:, :-1]]).all()
        k = len(BOUND_IDS)
        for i, r in enumerate(table.results()):
            j, rec = i % k, i // k
            assert (r.id, r.direction) == (BOUND_IDS[j], bounds._DEFS[j].direction)
            assert r.status == bounds.STATUSES[table.status[j, rec]]
            assert r.value == (table.value[j, rec] if ok[j, rec] else None)
            h = fs[rec].cheeger
            want = None if h is None or r.value is None else (h - r.value if r.direction == "lower"
                                                               else r.value - h)
            assert r.slack == want
        assert list(table) == table.results()
        assert {"not-applicable", "ok"} <= {r.status for r in table}

    def test_csv_export(self):
        f = ball_functionals()
        text = registry_csv(f)
        lines = text.splitlines()
        assert lines[0] == "id,direction,condition,formula-id,value,slack"
        assert len(lines) == 1 + len(BOUND_IDS)
        assert text.endswith("\n") and "\r" not in text


def test_curve_residual_is_scale_free():
    # two-cups with k = 2r trace the upper curve of (P, h, r) at any r
    got = [verify._curve_residual(measure(build(TwoCup(r, 2 * r), 2048)), "D1_PHR", "upper")
           for r in (1.0, 2.0)]
    assert got[1] == pytest.approx(got[0], rel=1e-12)


class TestBoundaryColumns:
    # the default grids, and the width diagrams on grids that start at
    # x = 0, where no curve has a value
    @pytest.mark.parametrize("spec", [DiagramSpec(did, grid=64) for did in DIAGRAM_IDS]
                             + [DiagramSpec(did, (0.0, DIAGRAM_IDS[did][3][1]), grid=64)
                                for did in ("HWD", "HWR_CIRC", "HWP", "HWA")],
                             ids=lambda spec: f"{spec.id}{'' if spec.x_range is None else '-from-0'}")
    def test_grid_matches_pointwise(self, spec):
        did = spec.id
        for got, side in zip(boundary(spec), ("lower", "upper")):
            want = [(x, y) for x in spec.xs() if math.isfinite(y := curve(did, side, float(x)))]
            assert got.shape == (len(want), 2)
            if want:
                assert np.array_equal(got[:, 0], [x for x, _ in want])
                assert np.allclose(got[:, 1], [y for _, y in want], rtol=1e-12, atol=0.0)


class TestCensusBlocks:
    def test_grouping_does_not_matter(self):
        # one block of 40 records against two blocks of 20 in a pool
        assert verify.census(40, 31, workers=1) == verify.census(40, 31, workers=2)

    def test_no_records(self):
        # zero blocks fold into zero counts and no slack
        empty = {bid: {"min_slack": None, "argmin_seed": None, "evaluated": 0, "not_applicable": 0,
                       "no_root": 0} for bid in BOUND_IDS}
        assert verify._fold([]) == empty and verify.census(0, 1) == empty

    def test_fold_by_hand(self):
        # four records; id 0 ties at -1.0 (the first of them wins), id 1 is
        # never applicable, id 2 evaluates one record, the rest none
        ok, na, nr = bounds.OK, bounds.NOT_APPLICABLE, bounds.NO_ROOT
        seeds = [11, 22, 33, 44]
        status = np.full((len(BOUND_IDS), 4), nr, dtype=np.int8)
        slack = np.full(status.shape, np.nan)
        status[0], slack[0] = ok, [0.5, -1.0, 2.0, -1.0]
        status[1] = na
        status[2] = [na, nr, ok, na]
        slack[2, 2] = 0.0
        agg = verify._fold([(seeds, status, slack)])
        assert list(agg) == list(BOUND_IDS)
        first, never, one = (agg[BOUND_IDS[j]] for j in range(3))
        assert first == {"min_slack": -1.0, "argmin_seed": 22, "evaluated": 4,
                         "not_applicable": 0, "no_root": 0}
        assert never == {"min_slack": None, "argmin_seed": None, "evaluated": 0,
                         "not_applicable": 4, "no_root": 0}
        assert one == {"min_slack": 0.0, "argmin_seed": 33, "evaluated": 1,
                       "not_applicable": 2, "no_root": 1}
        assert all(a["min_slack"] is None for a in list(agg.values())[3:])
        for a in agg.values():
            assert a["evaluated"] + a["not_applicable"] + a["no_root"] == len(seeds)

    def test_fold_matches_the_results(self):
        # the fold of a block's arrays against the fold of its result view,
        # one result at a time
        block = verify._census_block((0, 60, 5, 3, 30))
        record = verify.measured_block((0, 60, 5, 3, 30), "A")[2]
        want = {bid: {"min_slack": None, "argmin_seed": None, "evaluated": 0,
                      "not_applicable": 0, "no_root": 0} for bid in BOUND_IDS}
        for i, r in enumerate(evaluate_all(record)):
            a = want[r.id]
            a[{"ok": "evaluated", "not-applicable": "not_applicable", "no-root": "no_root"}[r.status]] += 1
            if r.status == "ok" and (a["min_slack"] is None or r.slack < a["min_slack"]):
                a["min_slack"], a["argmin_seed"] = r.slack, block[0][i // len(BOUND_IDS)]
        assert verify._fold([block]) == want
        # the same records in three blocks
        assert verify._fold([verify._census_block((lo, hi, 5, 3, 30))
                             for lo, hi in ((0, 17), (17, 18), (18, 60))]) == want
