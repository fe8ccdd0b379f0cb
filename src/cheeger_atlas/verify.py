"""Soundness census and sharpness residuals, as a machine-readable report.

The census draws unit-area random polygons, evaluates the full bound
registry against each block of them as one column, and folds its arrays
into the count of each status and the minimum slack per bound id (a
negative slack beyond tolerance is a violation).  The sharpness block
rebuilds each extremal family at high resolution and reports how far its
inequality is from equality.  The report never stops early: violations are
content, not exceptions.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import diagrams
from .bounds import BOUND_IDS, NO_ROOT, NOT_APPLICABLE, OK, evaluate_all
from .functionals import measure
from .sampler import blocks, measured_block, parallel_map
from .shapes import Resolution, Slice, Stadium, SubequilateralTriangle, TwoCup, build, solve_param

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


def _census_block(block) -> tuple[list[int], np.ndarray, np.ndarray]:
    """A census block of ``sampler.blocks``, drawn and measured as one column
    (``sampler.measured_block``), then the registry on that record:
    (record seeds, status codes, slacks), the arrays ids by records.  A
    polygon whose walk fails raises when its record is measured, as alone."""
    seeds, _, record = measured_block(block, "A")
    table = evaluate_all(record)
    return seeds, table.status, table.slack


def _fold(parts) -> dict:
    """Per bound id over census blocks ``(seeds, status, slack)``, whose
    arrays are ids by records: how many records are evaluated, not
    applicable and without a root, and the least slack of an evaluated
    record with its seed (the first such record on a tie; None for none)."""
    seeds = [s for part, _, _ in parts for s in part]
    status, slack = (np.concatenate([np.empty((len(BOUND_IDS), 0)), *(part[k] for part in parts)], axis=1)
                     for k in (1, 2))
    counts = [(status == code).sum(axis=1).tolist() for code in (OK, NOT_APPLICABLE, NO_ROOT)]
    # a last column of inf: the argmin of an id that no record evaluates
    ranked = np.full((len(BOUND_IDS), len(seeds) + 1), np.inf)
    np.copyto(ranked[:, :-1], slack, where=(status == OK) & ~np.isnan(slack))
    return {bid: {"min_slack": least if least < math.inf else None,
                  "argmin_seed": seeds[i] if least < math.inf else None,
                  "evaluated": ok, "not_applicable": na, "no_root": nr}
            for bid, least, i, ok, na, nr in zip(BOUND_IDS, ranked.min(axis=1).tolist(),
                                                  ranked.argmin(axis=1).tolist(), *counts)}


def census(samples: int, seed: int, n_min: int = 3, n_max: int = 30,
           workers: int | None = None) -> dict:
    """Min slack per bound id over ``samples`` unit-area random polygons.

    The records are split into contiguous blocks (``sampler.blocks``: one
    per worker, but at most one per MIN_BLOCK records, and only for
    3 <= n_min <= n_max); each block's polygons are measured as one column,
    their skeletons walked together, and the registry evaluated on that
    column.  A record's results do not depend on the block it lands in.
    """
    return _fold(parallel_map(_census_block, blocks(samples, seed, n_min, n_max, workers)))


def _curve_residual(f, did: str, side: str) -> float:
    """How far the body's h at the unit of diagram ``did`` is from the
    diagram's ``side`` curve at the body's x, relative to that h: like the
    curve, it does not depend on the body's scale."""
    row = diagrams.DIAGRAM_IDS[did]
    g = f.normalized(row.unit)
    return abs(g.cheeger - diagrams.curve(did, side, g.value(row.x))) / g.cheeger


def _sharpness_bodies() -> list[tuple[str, object, tuple[str, ...], tuple]]:
    """The extremal bodies of the sharpness suite: (label, shape spec,
    saturated bound ids, traced diagram curves as (diagram id, side))."""
    specs = [(f"stadium(r=1,l={gap:g})", Stadium(1.0, gap), STADIUM_BOUNDS, ())
             for gap in STADIUM_GAPS]
    specs += [(f"two_cup(r=1,k={tip:g})", TwoCup(1.0, tip), TWOCUP_BOUNDS, TWOCUP_CURVES)
              for tip in TWOCUP_TIPS]
    specs += [(f"slice(r=1,d={dia:g})", Slice(1.0, dia), SLICE_BOUNDS, SLICE_CURVES)
              for dia in SLICE_DIAMETERS]
    specs += [(f"subeq_triangle(w=1,d={dia:g})", solve_param(("w", 1.0), ("d", dia)), SUBEQ_BOUNDS, ())
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
    bodies = [(label, measure(build(spec, res)), ids, curves)
              for label, spec, ids, curves in _sharpness_bodies()]
    slack = evaluate_all(*(f for _, f, _, _ in bodies)).slack
    rows = []
    for i, (label, f, ids, curves) in enumerate(bodies):
        for bid in ids:
            s = slack[BOUND_IDS.index(bid), i]
            rows.append({"shape": label, "bound": bid,
                         "residual": math.inf if math.isnan(s) else float(abs(s) / f.cheeger)})
        for did, side in curves:
            rows.append({"shape": label, "bound": f"{did}:{side}",
                         "residual": _curve_residual(f, did, side)})
    return rows


def verify_suite(samples: int, seed: int, n_min: int = 3, n_max: int = 30, sharpness_res: int = 8192) -> dict:
    """Full verification report: census + sharpness + pass verdict."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    Resolution(sharpness_res)  # checked before the census runs, as sharpness checks it
    cen = census(samples, seed, n_min=n_min, n_max=n_max)
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
