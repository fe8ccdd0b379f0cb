"""Command line surface: cheeger-atlas <subcommand> [--flags].

Subcommands: shape, measure, cheeger, bounds, sample, diagram, verify.
``bounds`` evaluates the whole registry at the polygon's functionals and
Cheeger constant; its implicit bounds are crossings of g(t) = pi t^2,
solved to 1e-13 of their domain.  A ``--triplet`` names a diagram, whose
axes and unit come from ``diagrams.DIAGRAM_IDS``.  ``diagram`` draws its
cloud at that unit, and ``sample`` writes the same x, y unless
``--normalize`` names another unit (``none`` writes the raw records).
Numeric output is printed with 17 significant digits; runs with a fixed
seed are byte-reproducible.  Exit codes: 0 success, 2 validation error,
3 numeric failure or a block's process that died.  ``sample``, ``diagram``
and ``verify`` draw their records in blocks, one forked process each, on
at most the usable cores; CHEEGER_ATLAS_THREADS, a positive integer, can
only lower that count.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from . import diagrams as diagrams_mod
from . import shapes as shapes_mod
from . import verify as verify_mod
from .cheeger import cheeger_constant
from .errors import CheegerAtlasError, DegenerateInput, DomainError, InvalidParam, PolygonJsonError
from .functionals import EXPONENT, measure
from .geom import polygon_from_json, polygon_to_json
from .sampler import cloud_csv, sample_cloud

G17 = lambda v: format(v, ".17g")

# triplet alias -> diagram id
TRIPLETS = {
    "phr": "D1_PHR",
    "rhr": "D2_RHR",
    "dhr": "D3_DHR",
    "hwd": "HWD",
    "hwr-circ": "HWR_CIRC",
    "hwp": "HWP",
    "hwa": "HWA",
    "hrd": "HRD",
    "hwr-in": "HWR_IN",
}
# --normalize spelling -> unit functional (None: raw records)
NORMALIZE = {"area": "A", "inradius": "r", "diameter": "d", "none": None}

# family alias -> (class, [(flag, param name)])
FAMILIES = {
    "ball": (shapes_mod.Ball, [("r", "radius")]),
    "stadium": (shapes_mod.Stadium, [("r", "radius"), ("l", "center_gap")]),
    "two-cup": (shapes_mod.TwoCup, [("r", "radius"), ("k", "tip_dist")]),
    "slice": (shapes_mod.Slice, [("r", "inradius"), ("d", "diameter")]),
    "subeq-triangle": (shapes_mod.SubequilateralTriangle, [("b", "base"), ("height", "height")]),
    "yamanouti": (shapes_mod.Yamanouti, [("s", "side"), ("rho", "arc_radius")]),
    "smoothed-nonagon": (shapes_mod.SmoothedNonagon, [("r", "inradius"), ("d", "diameter")]),
    "cw-nonagon": (shapes_mod.ConstantWidthNonagon, [("w", "width"), ("r", "inner_radius")]),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cheeger-atlas",
                                description="Cheeger constants and sharp bounds for planar convex bodies")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("shape", help="build a shape and write its polygon JSON")
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
    for flag in ("r", "l", "k", "d", "b", "height", "s", "rho", "w"):
        sp.add_argument(f"--{flag}", type=float)
    sp.add_argument("--res", type=int, default=4096)
    sp.add_argument("--out", required=True)

    mp = sub.add_parser("measure", help="print the six functionals of a polygon")
    mp.add_argument("--in", dest="input", required=True)

    cp = sub.add_parser("cheeger", help="Cheeger constant and set of a polygon")
    cp.add_argument("--in", dest="input", required=True)
    cp.add_argument("--res", type=int, default=4096)
    cp.add_argument("--out", help="write the Cheeger set polygon JSON here")

    bp = sub.add_parser("bounds", help="evaluate the full bound registry")
    bp.add_argument("--in", dest="input", required=True)
    bp.add_argument("--format", choices=("csv", "json"), default="csv")
    bp.add_argument("--out", help="write the table here instead of stdout")

    ap = sub.add_parser("sample", help="random polygon cloud as CSV")
    ap.add_argument("--samples", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--n-min", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=30)
    ap.add_argument("--triplet", choices=sorted(TRIPLETS), default="phr")
    ap.add_argument("--normalize", choices=NORMALIZE,
                    help="scale each record to this unit instead of the diagram's")
    ap.add_argument("--out", required=True)

    dp = sub.add_parser("diagram", help="diagram boundary curves (and optional cloud)")
    dp.add_argument("--triplet", choices=sorted(TRIPLETS), required=True)
    dp.add_argument("--grid", type=int, default=512)
    dp.add_argument("--x-min", type=float)
    dp.add_argument("--x-max", type=float)
    dp.add_argument("--samples", type=int, default=0, help="overlay a sampled cloud")
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument("--format", choices=("csv", "svg"), default="svg")
    dp.add_argument("--out", required=True)

    vp = sub.add_parser("verify", help="soundness census + sharpness report")
    vp.add_argument("--samples", type=int, required=True)
    vp.add_argument("--seed", type=int, required=True)
    vp.add_argument("--n-min", type=int, default=3)
    vp.add_argument("--n-max", type=int, default=30)
    vp.add_argument("--sharpness-res", type=int, default=8192)
    vp.add_argument("--out", help="write the JSON report here (also printed)")
    return p


def _cmd_shape(args) -> int:
    cls, flags = FAMILIES[args.family]
    kwargs = {}
    for flag, param in flags:
        val = getattr(args, flag)
        if val is None:
            raise InvalidParam(f"--family {args.family} requires --{flag}")
        kwargs[param] = val
    try:
        poly = shapes_mod.build(cls(**kwargs), shapes_mod.Resolution(args.res))
    except DegenerateInput as exc:  # the parameters give no polygon in double precision
        given = " ".join(f"--{flag} {getattr(args, flag)!r}" for flag, _ in flags)
        raise InvalidParam(f"--family {args.family} {given} gives no polygon: {exc}") from exc
    with open(args.out, "w", newline="") as fh:
        fh.write(polygon_to_json(poly) + "\n")
    return 0


def _read_polygon(path: str):
    with open(path) as fh:
        return polygon_from_json(fh.read())


def _print_json(doc: dict) -> None:
    print(json.dumps({k: (G17(v) if isinstance(v, float) else v) for k, v in doc.items()},
                     indent=2))


def _cmd_measure(args) -> int:
    f = measure(_read_polygon(args.input))
    _print_json({key: f.value(key) for key in EXPONENT})
    return 0


def _cmd_cheeger(args) -> int:
    poly = _read_polygon(args.input)
    res = cheeger_constant(poly, arc_segments=args.res)
    _print_json({"h": res.h, "t_star": res.t_star})
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(polygon_to_json(res.cheeger_set) + "\n")
    return 0


def _cmd_bounds(args) -> int:
    f = measure(_read_polygon(args.input))
    if args.format == "csv":
        text = bounds_mod.registry_csv(f)
    else:
        rows = [{"id": b.id, "direction": b.direction, "status": b.status,
                 "value": None if b.value is None else G17(b.value),
                 "slack": None if b.slack is None else G17(b.slack)}
                for b in bounds_mod.evaluate_all(f).results()]
        text = json.dumps(rows, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sample(args) -> int:
    if args.samples < 1:
        raise InvalidParam("--samples must be at least 1")
    x_key, y_key, unit, _ = diagrams_mod.DIAGRAM_IDS[TRIPLETS[args.triplet]]
    if args.normalize is not None:
        unit = NORMALIZE[args.normalize]
    cloud = sample_cloud(args.samples, args.n_min, args.n_max, unit, args.seed)
    with open(args.out, "w", newline="") as fh:
        fh.write(cloud_csv(cloud, x_key, y_key))
    return 0


def _cmd_diagram(args) -> int:
    did = TRIPLETS[args.triplet]
    x_range = None
    if args.x_min is not None or args.x_max is not None:
        if args.x_min is None or args.x_max is None:
            raise InvalidParam("--x-min and --x-max go together")
        x_range = (args.x_min, args.x_max)
    if args.samples < 0:
        raise InvalidParam("--samples must be nonnegative")
    spec = diagrams_mod.DiagramSpec(did, x_range=x_range, grid=args.grid)
    lower, upper = diagrams_mod.boundary(spec)
    cloud = []
    if args.samples:
        x_key, y_key, unit, _ = diagrams_mod.DIAGRAM_IDS[did]
        seeds, _, record = sample_cloud(args.samples, 3, 30, unit, args.seed)
        cloud = [diagrams_mod.DiagramPoint(x, y, f"seed:{rec_seed}") for x, y, rec_seed
                 in zip(record.value(x_key).tolist(), record.value(y_key).tolist(), seeds)]
    diagrams_mod.render(cloud, [lower, upper], args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = verify_mod.verify_suite(args.samples, args.seed, n_min=args.n_min,
                                     n_max=args.n_max, sharpness_res=args.sharpness_res)
    text = verify_mod.report_json(report)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report["pass"] else 1


_DISPATCH = {
    "shape": _cmd_shape,
    "measure": _cmd_measure,
    "cheeger": _cmd_cheeger,
    "bounds": _cmd_bounds,
    "sample": _cmd_sample,
    "diagram": _cmd_diagram,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except ChildProcessError as exc:  # a forked block died: an OSError, but not the caller's
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidParam, DomainError, PolygonJsonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except CheegerAtlasError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
