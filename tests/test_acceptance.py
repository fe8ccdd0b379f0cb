"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The census and sharpness blocks are the slow parts; the
census forks one process per usable core, which CHEEGER_ATLAS_THREADS can
lower.
"""

import math
import time

import numpy as np

from cheeger_atlas import verify as verify_mod
from cheeger_atlas.bounds import d0, dstar
from cheeger_atlas.cheeger import cheeger_constant
from cheeger_atlas.cli import run
from cheeger_atlas.diagrams import membership
from cheeger_atlas.functionals import (area, circumradius, diameter, inradius, measure,
                                       min_width, perimeter)
from cheeger_atlas.geom import inner_parallel, interpolate
from cheeger_atlas.sampler import mix, valtr
from cheeger_atlas.shapes import (ConstantWidthNonagon, Resolution, SmoothedNonagon,
                                  Stadium, build)
from conftest import regular_ngon, two_cup_of_perimeter

PI = math.pi
CENSUS_SEED = 20260810


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_ball_identities():
    t0 = time.perf_counter()
    h256 = cheeger_constant(regular_ngon(256)).h
    h8192 = cheeger_constant(regular_ngon(8192)).h
    dt = time.perf_counter() - t0
    ok = abs(h256 - 2.0) < 2e-3 and abs(h8192 - 2.0) < 5e-4 and dt < 1.0
    _report(1, "h(ball) = 2 at res 256 (2e-3) and 8192 (5e-4), < 1 s", ok,
            f"errors {h256 - 2:.2e} / {h8192 - 2:.2e}, {dt:.2f}s")


def test_criterion_02_square_closed_form(unit_square):
    t0 = time.perf_counter()
    res = cheeger_constant(unit_square)
    dt = time.perf_counter() - t0
    expect = 2.0 + math.sqrt(PI)  # analytic: (1 - 2t)^2 = pi t^2
    ok = abs(res.h - expect) < 1e-9 and dt < 0.1
    _report(2, "h(unit square) = 2 + sqrt(pi) within 1e-9, < 0.1 s", ok,
            f"error {res.h - expect:.2e}, {dt * 1000:.0f}ms")


def test_criterion_03_dstar():
    dstar.cache_clear()
    t0 = time.perf_counter()
    value = dstar()
    dt = time.perf_counter() - t0
    ok = abs(value - 2.3888) < 5e-4 and dt < 0.1
    _report(3, "dstar = 2.3888 within 5e-4, < 0.1 s", ok,
            f"value {value:.6f}, {dt * 1000:.1f}ms")


def test_criterion_04_soundness_census():
    t0 = time.perf_counter()
    agg = verify_mod.census(10_000, CENSUS_SEED)
    dt = time.perf_counter() - t0
    worst = min(a["min_slack"] for a in agg.values() if a["min_slack"] is not None)
    worst_id = min((a["min_slack"], bid) for bid, a in agg.items()
                   if a["min_slack"] is not None)[1]
    no_roots = sum(a["no_root"] for a in agg.values())
    ok = worst >= -1e-7 and no_roots == 0 and dt < 120.0
    _report(4, "10,000-polygon census: every applicable slack >= -1e-7, < 120 s", ok,
            f"worst {worst:.3e} ({worst_id}), {dt:.0f}s")


def test_criterion_05_sharpness():
    t0 = time.perf_counter()
    rows = verify_mod.sharpness(res=8192)
    dt = time.perf_counter() - t0
    worst = max(rows, key=lambda r: r["residual"])
    covered = {r["bound"] for r in rows}
    need = {"HRA_LO", "HPA_UP", "HRP_LO", "HAW_LO", "HWP_LO", "HDR_UP", "HRR_UP",
            "D1_PHR:upper", "D2_RHR:upper", "D3_DHR:upper", "HRR_LO_IMPLICIT",
            "HDW_LO_IMPLICIT", "HRW_LO_IMPLICIT", "D2_RHR:lower", "HWR_LO", "HRD_UP",
            "HDW_UP_TRI", "HRW_UP_TRI", "HAW_UP_TRI", "HWP_UP_TRI",
            "HRW_UP_EXPLICIT", "HDW_UP_YAM"}
    ok = need <= covered and worst["residual"] < 1e-4 and dt < 60.0
    _report(5, "extremal sharpness residuals < 1e-4 at res 8192, < 60 s", ok,
            f"worst {worst['residual']:.2e} ({worst['shape']}/{worst['bound']}), {dt:.0f}s")


def test_criterion_06_inner_parallel_lemma():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(3, 31))
        poly = valtr(n, mix(99, i))
        r, _ = inradius(poly)
        d0_, w0, R0, P0 = diameter(poly)[0], min_width(poly)[0], circumradius(poly)[0], perimeter(poly)
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = frac * r
            p = inner_parallel(poly, t)
            rt, _ = inradius(p)
            worst = max(worst, abs(rt - (r - t)))
            assert diameter(p)[0] <= d0_ - 2 * t + 1e-9
            assert min_width(p)[0] <= w0 - 2 * t + 1e-9
            assert circumradius(p)[0] <= R0 - t + 1e-9
            assert perimeter(p) <= P0 - 2 * PI * t + 1e-9
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 30.0
    _report(6, "1000x5 inner-parallel identities (r exact, d/w/R/P shrink), < 30 s", ok,
            f"worst |r(O_-t) - (r - t)| = {worst:.2e}, {dt:.0f}s")


def test_criterion_07_cheeger_set_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_area, worst_ratio, worst_r = 0.0, 0.0, 0.0
    for i in range(200):
        n = int(rng.integers(3, 31))
        poly = valtr(n, mix(77, i))
        res = cheeger_constant(poly, arc_segments=4096)
        core_rel = abs(area(res.inner_core) - PI * res.t_star ** 2) / (PI * res.t_star ** 2)
        ratio = perimeter(res.cheeger_set) / area(res.cheeger_set)
        ratio_rel = abs(ratio - res.h) / res.h
        r_poly, _ = inradius(poly)
        r_set, _ = inradius(res.cheeger_set)
        r_rel = abs(r_set - r_poly) / r_poly
        worst_area = max(worst_area, core_rel)
        worst_ratio = max(worst_ratio, ratio_rel)
        worst_r = max(worst_r, r_rel)
        assert diameter(res.cheeger_set)[0] <= diameter(poly)[0] + 1e-9
    dt = time.perf_counter() - t0
    ok = worst_area < 1e-9 and worst_ratio < 1e-5 and worst_r < 1e-5
    _report(7, "200-polygon Cheeger-set structure at res 4096", ok,
            f"core {worst_area:.1e}, P/A {worst_ratio:.1e}, r {worst_r:.1e}, {dt:.0f}s")


def test_criterion_08_d1_vertical_paths():
    t0 = time.perf_counter()
    worst_p, worst_r = 0.0, 0.0
    for x0 in (2.2 * PI, 3 * PI, 5 * PI):
        stad = build(Stadium(1.0, (x0 - 2 * PI) / 2), Resolution(4096))
        cup = build(two_cup_of_perimeter(x0), Resolution(4096))
        for t in np.linspace(0.0, 1.0, 11):
            k = interpolate(stad, cup, float(t))
            f = measure(k)
            h = cheeger_constant(k).h
            worst_p = max(worst_p, abs(f.perimeter - x0))
            worst_r = max(worst_r, abs(f.inradius - 1.0))
            assert membership("D1_PHR", f.perimeter / f.inradius, h * f.inradius) == "inside"
    dt = time.perf_counter() - t0
    ok = worst_p < 1e-6 and worst_r < 1e-6
    _report(8, "D1 vertical paths: P, r held to 1e-6, all points inside", ok,
            f"|dP| {worst_p:.1e}, |dr| {worst_r:.1e}, {dt:.0f}s")


def test_criterion_09_smoothed_nonagon_round_trip():
    worst = 0.0
    for d in np.linspace(2.05, 2 * math.sqrt(3) - 0.05, 5):
        m = measure(build(SmoothedNonagon(1.0, float(d)), Resolution(8192)))
        worst = max(worst, abs(m.inradius - 1.0), abs(m.diameter - d) / d)
    ok = worst < 5e-4
    _report(9, "smoothed-nonagon (r, d) round trip within 5e-4 at res 8192", ok,
            f"worst {worst:.2e}")


def test_criterion_10_constant_width_nonagon():
    worst_w, worst_sum = 0.0, 0.0
    for r in (0.43, 0.47):
        poly = build(ConstantWidthNonagon(1.0, r), Resolution(8192))
        from cheeger_atlas.geom import support
        dirs = np.linspace(0, PI, 360, endpoint=False)
        widths = np.array([support(poly, (math.cos(a), math.sin(a)))
                           + support(poly, (-math.cos(a), -math.sin(a))) for a in dirs])
        worst_w = max(worst_w, float(widths.max() - widths.min()))
        m = measure(poly)
        worst_sum = max(worst_sum, abs(m.min_width - (m.circumradius + m.inradius)))
    ok = worst_w < 1e-3 and worst_sum < 1e-3
    _report(10, "constant-width nonagon: width constant and w = R + r within 1e-3", ok,
            f"width spread {worst_w:.1e}, |w-(R+r)| {worst_sum:.1e}")


def test_criterion_11_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sample", "--samples", "1000", "--seed", "7", "--out", str(a)]) == 0
    assert run(["sample", "--samples", "1000", "--seed", "7", "--out", str(b)]) == 0
    csv_same = a.read_bytes() == b.read_bytes()
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    run(["verify", "--samples", "25", "--seed", "11", "--sharpness-res", "1024",
         "--out", str(ra)])
    run(["verify", "--samples", "25", "--seed", "11", "--sharpness-res", "1024",
         "--out", str(rb)])
    report_same = ra.read_bytes() == rb.read_bytes()
    ok = csv_same and report_same
    _report(11, "sample CSV and verify report byte-identical across runs", ok,
            f"csv={csv_same} report={report_same}")


def test_criterion_12_d0_convergence():
    t0 = time.perf_counter()
    v4, v8 = d0(4096), d0(8192)
    dt = time.perf_counter() - t0
    ok = abs(v4 - v8) < 1e-4 and 2.0 < v4 < dstar()
    _report(12, "d0 stable between res 4096/8192 and inside (2, dstar)", ok,
            f"d0 = {v4:.7f}, |diff| = {abs(v4 - v8):.2e}, {dt:.0f}s")
