"""One iteration of a benchmark workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py census --out FILE --samples N --chunks C --seed S [--trace]
    python3 perfbench/worker.py extremal --out FILE [--trace]
    python3 perfbench/worker.py cli --out FILE --trace -- diagram ...

Each call writes one JSON object to FILE: the time of each chunk (one
``verify.census`` call of N polygons; ``sharpness`` and ``d0``) and of the
host-speed reference run after it (``hostspeed.py``), its peak RSS, a
digest of the output, the output checks that failed and, with ``--trace``,
the per-layer metrics.  The ``cli`` mode runs the command line in-process
under the tracer; the untraced CLI is started directly by ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time

D0_REFERENCE = 2.1810369
D0_TOLERANCE = 1e-4
# an extremal iteration has only two chunks, so the reference runs several
# times after each to give the run enough reference timings
EXTREMAL_REF_RUNS = 5


def chunk_seeds(seed: int, chunks: int) -> list[int]:
    """The census seed of each chunk, drawn from the run seed."""
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(chunks)]


def _census(args) -> dict:
    from cheeger_atlas import verify
    from hostspeed import reference_s

    times, refs, texts, problems = [], [], [], []
    for seed in chunk_seeds(args.seed, args.chunks):
        t0 = time.perf_counter()
        agg = verify.census(args.samples, seed, n_min=3, n_max=30, workers=1)
        texts.append(verify.report_json(agg))
        times.append(time.perf_counter() - t0)
        refs.append(reference_s())
        worst = min(a["min_slack"] for a in agg.values() if a["min_slack"] is not None)
        if not worst >= verify.CENSUS_SLACK_FLOOR:
            problems.append(f"seed {seed}: worst census slack {worst!r} below "
                            f"{verify.CENSUS_SLACK_FLOOR}")
        no_root = sum(a["no_root"] for a in agg.values())
        if no_root:
            problems.append(f"seed {seed}: {no_root} bound evaluations found no root")
        for bid, a in agg.items():
            if a["evaluated"] + a["not_applicable"] + a["no_root"] != args.samples:
                problems.append(f"seed {seed}: {bid} accounts for the wrong number of polygons")
    return {"chunks": times, "refs": refs, "polygons": args.samples * args.chunks,
            "text": "".join(texts), "problems": problems}


def _extremal(args) -> dict:
    from cheeger_atlas import bounds, verify
    from hostspeed import reference_s

    t0 = time.perf_counter()
    rows = verify.sharpness(res=8192)
    t1 = time.perf_counter()
    refs = [reference_s(EXTREMAL_REF_RUNS)]
    t2 = time.perf_counter()
    d0 = bounds.d0(res=4096)
    t3 = time.perf_counter()
    refs.append(reference_s(EXTREMAL_REF_RUNS))
    problems = [f"{r['shape']} {r['bound']}: residual {r['residual']!r}" for r in rows
                if not r["residual"] < verify.SHARPNESS_CEIL]
    if not 2.0 < d0 < bounds.dstar():
        problems.append(f"d0 = {d0!r} outside (2, dstar)")
    if not abs(d0 - D0_REFERENCE) <= D0_TOLERANCE:
        problems.append(f"d0 = {d0!r} not within {D0_TOLERANCE} of {D0_REFERENCE}")
    text = json.dumps({"sharpness": rows, "d0": d0}, sort_keys=True)
    return {"chunks": [t1 - t0, t3 - t2], "refs": refs,
            "polygons": len({r["shape"] for r in rows}), "text": text, "problems": problems}


def _cli(args) -> dict:
    from cheeger_atlas import cli

    return {"exit_code": cli.run(args.cli_args), "problems": []}


MODES = {"census": (_census, "census"), "extremal": (_extremal, "extremal"),
         "cli": (_cli, "cli_diagram")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--chunks", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    args.cli_args = argv[cut + 1:]
    fn, workload = MODES[args.mode]

    tracer = None
    if args.trace:
        import cheeger_atlas.cli  # noqa: F401  (every module loaded before wrapping)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = fn(args)
    text = result.pop("text", None)
    if text is not None:
        result["digest"] = hashlib.sha256(text.encode()).hexdigest()
    if tracer is not None:
        missing = tracer.missing(workload)
        result["problems"] += [f"span {name} recorded no calls" for name in missing]
        result["calls"] = tracer.calls()
        result["layers"] = tracer.layer_metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    sys.exit(result.get("exit_code", 0))


if __name__ == "__main__":
    main()
