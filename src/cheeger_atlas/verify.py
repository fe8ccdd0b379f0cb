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
from .sampler import blocks, measured_block, parallel_map
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
TWOCUP_CURVES = (("D1_PHR", "upper"), ("D2_RHR", "upper"), ("D3_DHR", "upper"))
SLICE_DIAMETERS = (2.2, 3.0, 6.0)
SLICE_BOUNDS = ("HRR_LO_IMPLICIT", "HDW_LO_IMPLICIT", "HRW_LO_IMPLICIT")
SLICE_CURVES = (("D2_RHR", "lower"),)
SUBEQ_DIAMETERS = (2.5, 3.0, 5.0)  # at width 1
SUBEQ_BOUNDS = ("HWR_LO", "HRD_UP", "HDW_UP_TRI", "HRW_UP_TRI", "HAW_UP_TRI", "HWP_UP_TRI")
EQUILATERAL_BOUNDS = ("HRW_UP_EXPLICIT", "HDW_UP_YAM")


def _census_block(args) -> list[tuple[int, list[tuple[str, str, float | None]]]]:
    """Records start..stop-1 of a census: drawn and measured, their
    polygons walking their straight skeletons as one column
    (``sampler.measured_block``), then the registry in one column; (record
    seed, [(id, status, slack)]) each.  A polygon whose walk fails raises
    when its record is measured, as it would alone."""
    start, stop, master_seed, n_min, n_max = args
    records = measured_block(master_seed, start, stop, n_min, n_max, "A")
    results = [(r.id, r.status, r.slack) for r in evaluate_all(*(f for _, _, f in records))]
    k = len(bounds_mod.BOUND_IDS)
    return [(rec_seed, results[i * k:(i + 1) * k]) for i, (rec_seed, _, _) in enumerate(records)]


def census(samples: int, seed: int, n_min: int = 3, n_max: int = 30,
           workers: int | None = None) -> dict:
    """Min slack per bound id over ``samples`` unit-area random polygons.

    The records are split into contiguous blocks (``sampler.blocks``: one
    per worker, but at most one per MIN_BLOCK records); each block walks
    its polygons' skeletons as one column and evaluates the registry as
    one column.  A record's results do not depend on the block it lands in.
    """
    args = [(lo, hi, seed, n_min, n_max) for lo, hi in blocks(samples, workers)]
    rows = [row for block in parallel_map(_census_block, args) for row in block]
    agg: dict[str, dict] = {
        bid: {"min_slack": None, "argmin_seed": None, "evaluated": 0,
              "not_applicable": 0, "no_root": 0}
        for bid in bounds_mod.BOUND_IDS
    }
    for rec_seed, results in rows:
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


_CURVE_Y = {"lower": diagrams._lower_y, "upper": diagrams._upper_y}


def _curve_residual(f, did: str, side: str) -> float:
    """How far the body's h at the unit of diagram ``did`` is from the
    diagram's ``side`` curve at the body's x, relative to the body's own h."""
    x_key, _, unit, _ = diagrams.DIAGRAM_IDS[did]
    g = f.normalized(unit)
    return abs(g.cheeger - _CURVE_Y[side](did, g.value(x_key))) / f.cheeger


def _sharpness_bodies() -> list[tuple[str, object, tuple[str, ...], tuple]]:
    """The extremal bodies of the sharpness suite: (label, shape spec,
    saturated bound ids, traced diagram curves as (diagram id, side))."""
    specs = [(f"stadium(r=1,l={gap:g})", Stadium(1.0, gap), STADIUM_BOUNDS, ())
             for gap in STADIUM_GAPS]
    specs += [(f"two_cup(r=1,k={tip:g})", TwoCup(1.0, tip), TWOCUP_BOUNDS, TWOCUP_CURVES)
              for tip in TWOCUP_TIPS]
    specs += [(f"slice(r=1,d={dia:g})", Slice(1.0, dia), SLICE_BOUNDS, SLICE_CURVES)
              for dia in SLICE_DIAMETERS]
    specs += [(f"subeq_triangle(w=1,d={dia:g})",
               solve_param("subequilateral_triangle", ("w", 1.0), ("d", dia)), SUBEQ_BOUNDS, ())
              for dia in SUBEQ_DIAMETERS]
    specs.append(("equilateral_triangle(side=1)", SubequilateralTriangle(1.0, math.sqrt(3) / 2),
                  EQUILATERAL_BOUNDS, ()))
    return specs


def sharpness(res: int = 8192) -> list[dict]:
    """Relative equality residuals of every extremal family at resolution res.

    The bodies are measured first, one at a time: each walks its straight
    skeleton as a column of one, since at thousands of planes a walk's
    numpy calls are not short, and a column of all of them would hold
    every body's planes at once.  Then the registry runs once, on all of
    them.
    """
    bodies = [(label, measure_with_cheeger(build(spec, res)), ids, curves)
              for label, spec, ids, curves in _sharpness_bodies()]
    results = evaluate_all(*(f for _, f, _, _ in bodies))
    k = len(bounds_mod.BOUND_IDS)
    rows = []
    for i, (label, f, ids, curves) in enumerate(bodies):
        by_id = {r.id: r for r in results[i * k:(i + 1) * k]}
        for bid in ids:
            slack = by_id[bid].slack
            rows.append({"shape": label, "bound": bid,
                         "residual": math.inf if slack is None else abs(slack) / f.cheeger})
        for did, side in curves:
            rows.append({"shape": label, "bound": f"{did}:{side}",
                         "residual": _curve_residual(f, did, side)})
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
