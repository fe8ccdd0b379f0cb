import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheeger_atlas import bounds
from cheeger_atlas.bounds import (BOUND_IDS, arcsinc, chi, d0, dstar, evaluate_all,
                                  implicit_g, phi, psi, registry_csv)
from cheeger_atlas.cheeger import cheeger_constant, smallest_crossing
from cheeger_atlas.diagrams import DiagramSpec
from cheeger_atlas.errors import DomainError, Unreachable
from cheeger_atlas.functionals import measure
from cheeger_atlas.sampler import seeded_polygon, valtr
from cheeger_atlas.shapes import (Resolution, Slice, Stadium, TwoCup, build, closed_form,
                                  solve_param, triangle_functionals)

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


def _census_problems(count=100, seed=1):
    """g1..g4 at the functionals of seeded unit-area census polygons."""
    problems = []
    for i in range(count):
        f = measure(seeded_polygon(seed, i, 3, 30, "area")[2])
        problems += [implicit_g("g1", d=f.diameter, r=f.inradius),
                     implicit_g("g2", R=f.circumradius, r=f.inradius),
                     implicit_g("g3", d=f.diameter, w=f.min_width),
                     implicit_g("g4", w=f.min_width, R=f.circumradius)]
    return problems


def _diagram_problems():
    """The implicit lower curves of the diagrams, one problem per grid abscissa."""
    families = {"D2_RHR": lambda x: implicit_g("g2", R=x, r=1.0),
                "D3_DHR": lambda x: implicit_g("g1", d=x, r=1.0),
                "HWD": lambda x: implicit_g("g3", d=1.0, w=x),
                "HWR_CIRC": lambda x: implicit_g("g4", w=x, R=1.0)}
    return [make(float(x)) for did, make in families.items() for x in DiagramSpec(did).xs()]


@pytest.fixture(scope="module")
def crossing_problems():
    return _census_problems() + _diagram_problems()


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
        h = cheeger_constant(poly, with_set=False).h
        if d >= dstar():
            assert 1 / t == pytest.approx(h, rel=1e-6)
        else:
            assert 1 / t <= h * (1 + 1e-6)

    def test_direction_never_exceeds_extremal_h(self):
        # Lemma-style check: each lower bound stays below the h of the shape
        # that saturates it
        for d in (2.5, 4.0):
            poly = build(Slice(1.0, d), Resolution(4096))
            h = cheeger_constant(poly, with_set=False).h
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

    @pytest.mark.parametrize("kind,key", [("area_from", "A"), ("perim_from", "P")])
    def test_round_trip_on_triangles(self, kind, key):
        for height in (1.0, 2.0, 5.0):
            f = triangle_functionals(1.0, height)
            r = _subeq_inradius(key, f.min_width, f.value(key))
            assert r == pytest.approx(f.inradius, rel=1e-10)


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
        from cheeger_atlas.sampler import normalize
        poly = normalize(valtr(n, seed), "area")
        f = measure(poly)
        res = cheeger_constant(poly, with_set=False)
        f = f.with_cheeger(res.h, res.t_star)
        for r in evaluate_all(f):
            if r.status == "ok":
                assert r.slack >= -1e-7, (r.id, seed, n)

    def test_csv_export(self):
        f = ball_functionals()
        text = registry_csv(f)
        lines = text.splitlines()
        assert lines[0] == "id,direction,condition,formula-id,value,slack"
        assert len(lines) == 1 + len(BOUND_IDS)
        assert text.endswith("\n") and "\r" not in text
