import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheeger_atlas import bounds, cheeger, verify
from cheeger_atlas.bounds import (BOUND_IDS, arcsinc, chi, d0, dstar, evaluate_all,
                                  implicit_g, phi, psi, registry_csv)
from cheeger_atlas.cheeger import ImplicitRootProblem, cheeger_constant, smallest_crossing
from cheeger_atlas.diagrams import DIAGRAM_IDS, DiagramSpec, _lower_y, _upper_y, boundary
from cheeger_atlas.errors import DomainError, InvalidParam, Unreachable
from cheeger_atlas.functionals import Functionals, measure, measure_with_cheeger
from cheeger_atlas.sampler import seeded_polygon, valtr
from cheeger_atlas.shapes import (Resolution, Slice, Stadium, TwoCup, build, closed_form,
                                  solve_param, triangle_functionals, triangle_values,
                                  two_cup_area)
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
        with pytest.raises(DomainError):
            psi(1.0, 1.0)


class TestChiPhi:
    def test_chi_full_ball(self):
        for R in (0.5, 1.0, 2.0):
            assert chi(2 * R, R) == pytest.approx(PI * R * R, rel=1e-12)

    def test_chi_hand_value(self):
        assert chi(1.0, 1.0) == pytest.approx(SQRT3 / 2 + PI / 3, abs=1e-14)

    def test_chi_equals_slice_area(self):
        for r, d in [(0.5, 1.6), (1.0, 2.4), (1.0, 3.5), (2.0, 5.0), (0.3, 0.61)]:
            f = closed_form(Slice(r, d))
            assert chi(2 * r, d / 2) == pytest.approx(f.area, abs=1e-12)

    def test_phi_ball(self):
        assert phi(1.0, 1.0) == pytest.approx(PI, abs=1e-13)

    def test_phi_hand_value(self):
        assert phi(2.0, 1.0) == pytest.approx(2 * SQRT3 + 4 * PI / 3, abs=1e-13)

    def test_phi_homogeneous(self):
        for t in (0.5, 2.5):
            assert phi(2 * t, t) == pytest.approx(t * t * phi(2.0, 1.0), rel=1e-12)

    def test_domains(self):
        with pytest.raises(DomainError):
            chi(3.0, 1.0)
        with pytest.raises(DomainError):
            phi(1.0, 2.0)


# Oracles: the formulas that chi, phi, psi, g1-g4 and the two-cup bounds
# typed out before they read the closed forms in ``shapes``.
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


# family -> (parameter names, outside-domain test, domain end, g(t) of the parameters)
_ORACLE_G = {
    "g1": (("d", "r"), lambda d, r: d < 2 * r - 1e-9, lambda d, r: r,
           lambda d, r, t: _oracle_psi(d - 2 * t, np.maximum(r - t, 0.0))),
    "g2": (("R", "r"), lambda R, r: R < r - 1e-9, lambda R, r: r,
           lambda R, r, t: _oracle_phi(np.maximum(R - t, 0.0), np.maximum(r - t, 0.0))),
    "g3": (("d", "w"), lambda d, w: d < w - 1e-9, lambda d, w: w / 2,
           lambda d, w, t: _oracle_slice_area(d - 2 * t, np.maximum(w - 2 * t, 0.0))),
    "g4": (("w", "R"), lambda w, R: 2 * R < w - 1e-9, lambda w, R: w / 2,
           lambda w, R, t: _oracle_chi(np.maximum(w - 2 * t, 0.0), np.maximum(R - t, 0.0))),
}


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


def _scalar_matches(fn, args, want):
    """A float call raises DomainError where the oracle column is NaN, and
    gives the oracle's value bit for bit elsewhere."""
    for *xs, w in zip(*args, want):
        if math.isnan(w):
            with pytest.raises(DomainError):
                fn(*map(float, xs))
        else:
            assert fn(*map(float, xs)) == w


class TestClosedFormOracles:
    def test_chi_phi_psi_bit_for_bit(self):
        R, w = _edge_grid([2 * x for x in _EDGE])
        assert _same(chi(w, R), _oracle_chi(w, R))
        _scalar_matches(chi, (w, R), _oracle_chi(w, R))
        R, r = _edge_grid(_EDGE)
        assert _same(phi(R, r), _oracle_phi(R, r))
        _scalar_matches(phi, (R, r), _oracle_phi(R, r))
        d, r = _edge_grid(_EDGE_RD)
        assert _same(psi(d, r), _oracle_psi(d, r))
        _scalar_matches(psi, (d, r), _oracle_psi(d, r))

    @pytest.mark.parametrize("family", ["g1", "g2", "g3", "g4"])
    def test_implicit_g_bit_for_bit(self, family):
        names, outside, end, oracle = _ORACLE_G[family]
        if family == "g1":
            p, q = _edge_grid(_EDGE_RD)
        elif family == "g4":
            q, p = _edge_grid([2 * x for x in _EDGE])
        else:
            p, q = _edge_grid(_EDGE)
        bad = outside(p, q)
        assert bad.any() and not bad.all()
        problem = implicit_g(family, **{names[0]: p, names[1]: q})
        assert _same(np.isnan(problem.upper), bad)
        assert _same(problem.upper[~bad], end(p, q)[~bad])
        for s in (0.0, 0.3, 0.5, 0.9, 1.0):
            t = s * end(p, q)
            assert _same(problem.g(t)[~bad], oracle(p, q, t)[~bad]), s
        for x, y, out in zip(p, q, bad):
            kw = {names[0]: float(x), names[1]: float(y)}
            if out:
                with pytest.raises(DomainError):
                    implicit_g(family, **kw)
            elif end(x, y) > 0:
                t = 0.3 * float(end(x, y))
                assert implicit_g(family, **kw).g(t) == float(oracle(x, y, t))

    def test_two_cup_bounds(self):
        r, big = _edge_grid([1.0, 1.0 + 1e-12, 1.01, 1.5, 3.0, 40.0])
        r, big = r[r > 0], big[r > 0]
        d = 2 * big
        den = r * np.sqrt(np.maximum(d * d - 4 * r * r, 0.0)) \
            + r * r * (PI - 2 * np.arccos(np.minimum(1.0, 2 * r / d)))
        assert _same(two_cup_area(r, d / 2), den)
        assert _same(bounds.bound_value("HDR_UP", r=r, d=d), 1 / r + np.sqrt(PI / den))
        R = big
        den = 2 * r * (np.sqrt(np.maximum(R * R - r * r, 0.0)) + r * np.arcsin(np.minimum(1.0, r / R)))
        assert np.allclose(two_cup_area(r, R), den, rtol=1e-15, atol=0.0)
        got = bounds.bound_value("HRR_UP", r=r, R=R)
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
            with pytest.raises(DomainError):
                arcsinc(bad)


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
    return [implicit_g(fam, **kw) for fam, params in crossing_columns for kw in _elements(params)]


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
            got = smallest_crossing(problem)
            assert abs(got - _scan_crossing(problem)) <= 1e-12 * problem.upper

    def test_column_matches_elementwise(self, crossing_columns):
        # each element of a column takes exactly the steps it takes alone
        for fam, params in crossing_columns:
            got = smallest_crossing(implicit_g(fam, **params))
            want = [smallest_crossing(implicit_g(fam, **kw)) for kw in _elements(params)]
            assert np.array_equal(got, want), fam

    def test_column_reports_missing_crossings_as_nan(self):
        # an element outside g1's domain, and one whose F never turns
        # nonpositive, come back NaN without disturbing their neighbours
        d, r = np.array([3.0, 1.0, 4.0]), np.array([1.0, 1.0, 1.0])
        got = smallest_crossing(implicit_g("g1", d=d, r=r))
        assert np.isnan(got[1])
        assert got[0] == smallest_crossing(implicit_g("g1", d=3.0, r=1.0))
        assert got[2] == smallest_crossing(implicit_g("g1", d=4.0, r=1.0))
        flat = ImplicitRootProblem(lambda t: np.where(np.arange(2) == 0, PI * (1 - t) ** 2, 10.0),
                                   np.array([1.0, 1.0]))
        got = smallest_crossing(flat)
        assert got[0] == pytest.approx(0.5, abs=1e-13) and np.isnan(got[1])

    def test_column_empty_domain_is_nan(self):
        # r = 0 (g1) and w = 0 (g3) leave the domain [0, 0]: a float problem
        # raises, the element of a column comes back NaN
        for family, params in (("g1", {"d": [3.0, 2.0], "r": [1.0, 0.0]}),
                               ("g3", {"d": [1.0, 1.0], "w": [0.5, 0.0]})):
            got = smallest_crossing(implicit_g(family, **{k: np.array(v) for k, v in params.items()}))
            assert np.isnan(got[1])
            assert got[0] == smallest_crossing(implicit_g(family, **{k: v[0] for k, v in params.items()}))
            with pytest.raises(ValueError):
                implicit_g(family, **{k: v[1] for k, v in params.items()})


def _g_points(family, **kw):
    """(g points, crossing) of one float crossing problem; the two ends are two points."""
    problem = implicit_g(family, **kw)
    seen = []

    def g(t):
        seen.append(np.size(t))
        return problem.g(t)
    t = smallest_crossing(dataclasses.replace(problem, g=g))
    return sum(seen), t


class TestRootSteps:
    def test_secant_rounding_onto_an_end(self):
        # the fifth step is within 2.6e-14 of the domain; the next secant
        # rounds onto that end (37 g points when it bisected from there)
        points, t = _g_points("g3", d=1.387081534670557, w=1.0312794713830942)
        assert points <= 8
        assert t == pytest.approx(_scan_crossing(implicit_g("g3", d=1.387081534670557,
                                                            w=1.0312794713830942)), abs=1e-13)

    def test_one_ulp_apart_takes_the_same_steps(self):
        # R values 7e-16 apart took 9 and 15 g points while a secant on an end bisected
        counts = [_g_points("g4", w=1.0377798615857556, R=R)[0]
                  for R in (0.6434986189970329, 0.6434986189970322)]
        assert counts[0] == counts[1] <= 8

    def test_census_column_steps(self, monkeypatch):
        # 30 census records as one column: one crossing loop for g1..g4, each
        # of its elements done in 7 steps, and arcsinc elements in 6
        records = [measure_with_cheeger(area_normalized(seeded_polygon(1, i, 3, 30)[2]))
                   for i in range(30)]
        dstar()  # cached before the count, so that only arcsinc runs bounds' root loop
        crossing_calls, arcsinc_steps = [], []

        def counted_crossing(problem):
            calls = []

            def g(t):
                calls.append(np.shape(t))
                return problem.g(t)
            t = smallest_crossing(dataclasses.replace(problem, g=g))
            crossing_calls.append(calls)
            return t

        def counted_root(f, *args):
            steps = []
            root = cheeger._bracketed_root(lambda y: steps.append(1) or f(y), *args)
            arcsinc_steps.append(len(steps))
            return root
        monkeypatch.setattr(bounds, "smallest_crossing", counted_crossing)
        monkeypatch.setattr(bounds, "_bracketed_root", counted_root)
        results = evaluate_all(*records)
        assert len(crossing_calls) == 1
        calls = crossing_calls[0]
        assert calls[0] == (2, 4 * len(records)) and 1 <= len(calls) - 1 <= 7
        assert len(arcsinc_steps) == 2 and max(arcsinc_steps) <= 6
        # the stacked loop gives each family's crossings bit for bit
        k = len(BOUND_IDS)
        for fam, bid, kw in (("g1", "HDR_LO_IMPLICIT", ("d", "diameter", "r", "inradius")),
                             ("g2", "HRR_LO_IMPLICIT", ("R", "circumradius", "r", "inradius")),
                             ("g3", "HDW_LO_IMPLICIT", ("d", "diameter", "w", "min_width")),
                             ("g4", "HRW_LO_IMPLICIT", ("w", "min_width", "R", "circumradius"))):
            column = {kw[0]: np.array([getattr(f, kw[1]) for f in records]),
                      kw[2]: np.array([getattr(f, kw[3]) for f in records])}
            want = 1.0 / smallest_crossing(implicit_g(fam, **column))
            j = BOUND_IDS.index(bid)
            assert [results[i * k + j].value for i in range(len(records))] == list(want), fam


class TestImplicitG:
    def test_g2_ball_reduction(self):
        problem = implicit_g("g2", R=1.0, r=1.0)
        ts = np.linspace(0, 1, 7)
        assert np.allclose(problem.g(ts), PI * (1 - ts) ** 2, atol=1e-12)
        assert 1 / smallest_crossing(problem) == pytest.approx(2.0, abs=1e-10)

    def test_g1_ball_reduction(self):
        problem = implicit_g("g1", d=2.0, r=1.0)
        ts = np.linspace(0, 1, 7)
        assert np.allclose(problem.g(ts), PI * (1 - ts) ** 2, atol=1e-12)
        assert 1 / smallest_crossing(problem) == pytest.approx(2.0, abs=1e-10)

    def test_g3_ball_reduction(self):
        problem = implicit_g("g3", d=2.0, w=2.0)
        assert 1 / smallest_crossing(problem) == pytest.approx(2.0, abs=1e-10)

    def test_g4_ball_reduction(self):
        problem = implicit_g("g4", w=2.0, R=1.0)
        assert 1 / smallest_crossing(problem) == pytest.approx(2.0, abs=1e-10)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            implicit_g("g1", d=1.0, r=1.0)
        with pytest.raises(DomainError):
            implicit_g("g4", w=3.0, R=1.0)

    @pytest.mark.parametrize("d", [2.3, 3.0, 5.0])
    def test_g1_exact_on_slices(self, d):
        # |S_{-t}| = psi(d - 2t, r - t) for slices in the slice regime
        problem = implicit_g("g1", d=d, r=1.0)
        t = smallest_crossing(problem)
        poly = build(Slice(1.0, d), Resolution(4096))
        h = cheeger_constant(poly).h
        if d >= dstar():
            assert 1 / t == pytest.approx(h, rel=1e-6)
        else:
            assert 1 / t <= h * (1 + 1e-6)

    def test_direction_never_exceeds_extremal_h(self):
        # Lemma-style check: each lower bound stays below the h of the shape
        # that saturates it
        for d in (2.5, 4.0):
            poly = build(Slice(1.0, d), Resolution(4096))
            h = cheeger_constant(poly).h
            f = measure(poly)
            for fam, kw in [("g2", dict(R=f.circumradius, r=f.inradius)),
                            ("g3", dict(d=f.diameter, w=f.min_width)),
                            ("g4", dict(w=f.min_width, R=f.circumradius))]:
                val = 1 / smallest_crossing(implicit_g(fam, **kw))
                assert val <= h * (1 + 1e-6)


def _subeq_inradius(key, w, value):
    """Inradius of the subequilateral triangle of width w and functional ``key``."""
    spec = solve_param("subequilateral_triangle", (key, value), ("w", w))
    return triangle_functionals(spec.base, spec.height).inradius


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
        # records, with targets far along the scan of the shape parameter;
        # the last element lies beyond the equilateral end
        fs = [measure(area_normalized(seeded_polygon(3, i, 3, 30)[2])) for i in range(60)]
        tval = np.array([f.value(target) for f in fs] + [2.0 if target == "w" else 0.1])
        fval = np.array([f.value(fixed) for f in fs] + [1.0])
        if target == "w":
            tval[:3] = fval[:3] * np.array([1e-3, 1e-5, 1e-7])
        got = solve_param("subequilateral_triangle", (target, tval), (fixed, fval))
        for spec, t, f in zip(got, tval, fval):
            try:
                want = solve_param("subequilateral_triangle", (target, float(t)), (fixed, float(f)))
            except Unreachable:
                want = None
            assert spec == want
        assert got[-1] is None and sum(s is None for s in got) < len(got) // 2

    def test_column_reaches_the_far_end(self):
        # areas at unit width of triangles with height / base up to 2e8 are
        # matched in one column; the last one, past the scan's far end
        # sigma = 64 * 4**11, is unreachable
        sigma = np.array([3.0, 1e4, 1e7, 1e8, 2e8, 1e9])
        f = triangle_values(1.0, sigma)
        area = f["A"] / f["w"] ** 2
        got = solve_param("subequilateral_triangle", ("A", area), ("w", 1.0))
        for spec, a in zip(got[:-1], area[:-1]):
            assert spec == solve_param("subequilateral_triangle", ("A", float(a)), ("w", 1.0))
        assert [s.height / s.base for s in got[:-1]] == pytest.approx(sigma[:-1], rel=1e-12)
        assert got[-1] is None
        with pytest.raises(Unreachable):
            solve_param("subequilateral_triangle", ("A", float(area[-1])), ("w", 1.0))

    def test_column_marks_invalid_values(self):
        # a value that is not positive raises for a float call and leaves
        # only its own element unsolved in a column
        tval, fval = np.array([0.5, 0.0, 0.5]), np.array([1.0, 1.0, -1.0])
        got = solve_param("subequilateral_triangle", ("w", tval), ("R", fval))
        assert got[1] is None and got[2] is None
        assert got[0] == solve_param("subequilateral_triangle", ("w", 0.5), ("R", 1.0))
        for t, f in zip(tval[1:], fval[1:]):
            with pytest.raises(InvalidParam):
                solve_param("subequilateral_triangle", ("w", float(t)), ("R", float(f)))

    @pytest.mark.parametrize("kind,key", [("area_from", "A"), ("perim_from", "P")])
    def test_round_trip_on_triangles(self, kind, key):
        for height in (1.0, 2.0, 5.0):
            f = triangle_functionals(1.0, height)
            r = _subeq_inradius(key, f.min_width, f.value(key))
            assert r == pytest.approx(f.inradius, rel=1e-10)


@pytest.fixture(scope="module")
def column_records():
    fs = [measure_with_cheeger(area_normalized(seeded_polygon(7, i, 3, 30)[2])) for i in range(200)]
    return fs + [measure_with_cheeger(build(spec, 8192)) for _, spec, _, _ in verify._sharpness_bodies()]


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
            lo_impl = 1 / smallest_crossing(implicit_g("g1", d=d, r=r))
            s = d + 2 * r - math.sqrt((d + 2 * r) ** 2 - 2 * (4 - PI) * d * r)
            lo_expl = (4 - PI) / s
            assert lo_impl >= lo_expl - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(3, 30))
    def test_soundness_random(self, seed, n):
        poly = area_normalized(valtr(n, seed))
        f = measure(poly)
        res = cheeger_constant(poly)
        f = f.with_cheeger(res.h, res.t_star)
        for r in evaluate_all(f):
            if r.status == "ok":
                assert r.slack >= -1e-7, (r.id, seed, n)

    def test_column_matches_records(self, column_records):
        # 200 census polygons and the 13 sharpness bodies as one column
        got = evaluate_all(*column_records)
        want = [r for f in column_records for r in evaluate_all(f)]
        assert [(r.id, r.status) for r in got] == [(r.id, r.status) for r in want]
        assert [r.id for r in got[:len(BOUND_IDS)]] == list(BOUND_IDS)
        for a, b in zip(got, want):
            if a.status == "ok":
                assert a.value == pytest.approx(b.value, rel=1e-12), a.id

    def test_failing_record_leaves_others_alone(self, column_records):
        # width 1e-9 at circumradius 1 needs a triangle taller than the
        # scan ever reaches, so its HRW_UP_TRI match is unreachable
        thin = Functionals(area=1e-9, perimeter=4.0, inradius=4e-10, circumradius=1.0,
                           diameter=2.0, min_width=1e-9)
        a, b = column_records[:2]
        k = len(BOUND_IDS)
        got = evaluate_all(a, thin, b)
        assert {r.id: r.status for r in got[k:2 * k]}["HRW_UP_TRI"] == "no-root"
        assert got[:k] + got[2 * k:] == evaluate_all(a, b)

    def test_csv_export(self):
        f = ball_functionals()
        text = registry_csv(f)
        lines = text.splitlines()
        assert lines[0] == "id,direction,condition,formula-id,value,slack"
        assert len(lines) == 1 + len(BOUND_IDS)
        assert text.endswith("\n") and "\r" not in text


class TestBoundaryColumns:
    # the default grids, and the width diagrams on grids that start at
    # x = 0, where no curve has a value
    @pytest.mark.parametrize("spec", [DiagramSpec(did, grid=64) for did in DIAGRAM_IDS]
                             + [DiagramSpec(did, (0.0, DIAGRAM_IDS[did][3][1]), grid=64)
                                for did in ("HWD", "HWR_CIRC", "HWP", "HWA")],
                             ids=lambda spec: f"{spec.id}{'' if spec.x_range is None else '-from-0'}")
    def test_grid_matches_pointwise(self, spec):
        did = spec.id
        for got, curve_y in zip(boundary(spec), (_lower_y, _upper_y)):
            want = [(x, y) for x in spec.xs() if (y := curve_y(did, float(x))) is not None]
            assert got.shape == (len(want), 2)
            if want:
                assert np.array_equal(got[:, 0], [x for x, _ in want])
                assert np.allclose(got[:, 1], [y for _, y in want], rtol=1e-12, atol=0.0)


class TestCensusBlocks:
    def test_grouping_does_not_matter(self):
        # one block of 40 records against two blocks of 20 in a pool
        assert verify.census(40, 31, workers=1) == verify.census(40, 31, workers=2)
