"""Soundness census and sharpness residuals, as a machine-readable report.

The census draws unit-area random polygons, evaluates the full bound
registry against each, and aggregates the minimum slack per bound id (a
negative slack beyond tolerance is a violation).  The sharpness block
rebuilds each extremal family at high resolution and reports how far its
inequality is from equality.  The report never stops early: violations are
content, not exceptions.
"""

from __future__ import annotations

import json
import math

from . import bounds as bounds_mod
from . import diagrams
from .bounds import evaluate_all
from .functionals import measure_with_cheeger
from .sampler import parallel_map, seeded_polygon
from .shapes import Slice, Stadium, SubequilateralTriangle, TwoCup, build, solve_param

SCHEMA = "cheeger-atlas-verify/1"
CENSUS_SLACK_FLOOR = -1e-7
SHARPNESS_CEIL = 1e-4

# extremal families exercised by the sharpness suite, with the bounds each
# family saturates and the diagram curves it traces
STADIUM_GAPS = (0.1, 1.0, 10.0)
STADIUM_BOUNDS = ("HRA_LO", "HPA_UP", "HRP_LO", "HAW_LO", "HWP_LO")
TWOCUP_TIPS = (1.2, 2.0, 5.0)
TWOCUP_BOUNDS = ("HDR_UP", "HRR_UP")
SLICE_DIAMETERS = (2.2, 3.0, 6.0)
SLICE_BOUNDS = ("HRR_LO_IMPLICIT", "HDW_LO_IMPLICIT", "HRW_LO_IMPLICIT")
SUBEQ_DIAMETERS = (2.5, 3.0, 5.0)  # at width 1
SUBEQ_BOUNDS = ("HWR_LO", "HRD_UP", "HDW_UP_TRI", "HRW_UP_TRI", "HAW_UP_TRI", "HWP_UP_TRI")
EQUILATERAL_BOUNDS = ("HRW_UP_EXPLICIT", "HDW_UP_YAM")


def _census_record(args) -> tuple[int, int, list[tuple[str, str, float | None]]]:
    index, master_seed, n_min, n_max = args
    rec_seed, _, poly = seeded_polygon(master_seed, index, n_min, n_max, "area")
    f = measure_with_cheeger(poly)
    return index, rec_seed, [(r.id, r.status, r.slack) for r in evaluate_all(f)]


def census(samples: int, seed: int, n_min: int = 3, n_max: int = 30,
           workers: int | None = None) -> dict:
    """Min slack per bound id over ``samples`` unit-area random polygons."""
    rows = parallel_map(_census_record, [(i, seed, n_min, n_max) for i in range(samples)],
                        workers=workers)
    agg: dict[str, dict] = {
        bid: {"min_slack": None, "argmin_seed": None, "evaluated": 0,
              "not_applicable": 0, "no_root": 0}
        for bid in bounds_mod.BOUND_IDS
    }
    for _, rec_seed, results in rows:
        for bid, status, slack in results:
            a = agg[bid]
            if status == "not-applicable":
                a["not_applicable"] += 1
            elif status == "no-root":
                a["no_root"] += 1
            else:
                a["evaluated"] += 1
                if a["min_slack"] is None or slack < a["min_slack"]:
                    a["min_slack"] = slack
                    a["argmin_seed"] = rec_seed
    return agg


def _bound_residuals(f, ids) -> dict[str, float]:
    by_id = {r.id: r for r in evaluate_all(f)}
    out = {}
    for bid in ids:
        r = by_id[bid]
        out[bid] = math.inf if r.slack is None else abs(r.slack) / f.cheeger
    return out


def sharpness(res: int = 8192) -> list[dict]:
    """Relative equality residuals of every extremal family at resolution res."""
    rows = []

    def push(shape_name, bid, residual):
        rows.append({"shape": shape_name, "bound": bid, "residual": residual})

    for gap in STADIUM_GAPS:
        f = measure_with_cheeger(build(Stadium(1.0, gap), res))
        for bid, resid in _bound_residuals(f, STADIUM_BOUNDS).items():
            push(f"stadium(r=1,l={gap:g})", bid, resid)
    for tip in TWOCUP_TIPS:
        f = measure_with_cheeger(build(TwoCup(1.0, tip), res))
        for bid, resid in _bound_residuals(f, TWOCUP_BOUNDS).items():
            push(f"two_cup(r=1,k={tip:g})", bid, resid)
        h = f.cheeger
        for did, x in (("D1_PHR", f.perimeter), ("D2_RHR", f.circumradius), ("D3_DHR", f.diameter)):
            y = diagrams._upper_y(did, x / f.inradius)
            push(f"two_cup(r=1,k={tip:g})", f"{did}:upper", abs(h * f.inradius - y) / h)
    for dia in SLICE_DIAMETERS:
        f = measure_with_cheeger(build(Slice(1.0, dia), res))
        for bid, resid in _bound_residuals(f, SLICE_BOUNDS).items():
            push(f"slice(r=1,d={dia:g})", bid, resid)
        y = diagrams._lower_y("D2_RHR", f.circumradius / f.inradius)
        push(f"slice(r=1,d={dia:g})", "D2_RHR:lower", abs(f.cheeger * f.inradius - y) / f.cheeger)
    for dia in SUBEQ_DIAMETERS:
        spec = solve_param("subequilateral_triangle", ("w", 1.0), ("d", dia))
        f = measure_with_cheeger(build(spec, res))
        for bid, resid in _bound_residuals(f, SUBEQ_BOUNDS).items():
            push(f"subeq_triangle(w=1,d={dia:g})", bid, resid)
    f = measure_with_cheeger(build(SubequilateralTriangle(1.0, math.sqrt(3) / 2), res))
    for bid, resid in _bound_residuals(f, EQUILATERAL_BOUNDS).items():
        push("equilateral_triangle(side=1)", bid, resid)
    return rows


def verify_suite(samples: int, seed: int, n_min: int = 3, n_max: int = 30,
                 sharpness_res: int = 8192, workers: int | None = None) -> dict:
    """Full verification report: census + sharpness + pass verdict."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    cen = census(samples, seed, n_min=n_min, n_max=n_max, workers=workers)
    sharp = sharpness(res=sharpness_res)
    worst_slack = min((a["min_slack"] for a in cen.values() if a["min_slack"] is not None),
                      default=0.0)
    worst_resid = max((row["residual"] for row in sharp), default=0.0)
    ok = worst_slack >= CENSUS_SLACK_FLOOR and worst_resid < SHARPNESS_CEIL
    return {
        "schema": SCHEMA,
        "samples": samples,
        "seed": seed,
        "n_range": [n_min, n_max],
        "thresholds": {"census_slack_floor": CENSUS_SLACK_FLOOR,
                       "sharpness_residual_ceil": SHARPNESS_CEIL},
        "census": cen,
        "sharpness": sharp,
        "worst_census_slack": worst_slack,
        "worst_sharpness_residual": worst_resid,
        "pass": ok,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
