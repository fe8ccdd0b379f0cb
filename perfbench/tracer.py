"""Span tracer for the benchmark's traced runs.

``install`` wraps the public functions of each layer at every binding where
a caller looks the name up: the defining module attribute, every
``from ... import`` copy in another ``cheeger_atlas`` module, and class
attributes for methods.  Spans (name, start, end, parent) are kept in memory
and reduced by ``Tracer.layer_metrics`` when the iteration ends.  Untraced
runs never import this module, so they carry no wrappers.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

# span name -> "module:attribute" of the function it wraps
SPANS = {
    "sampler.valtr": "cheeger_atlas.sampler:valtr",
    "sampler.sample_cloud": "cheeger_atlas.sampler:sample_cloud",
    "functionals.diameter": "cheeger_atlas.functionals:diameter",
    "functionals.min_width": "cheeger_atlas.functionals:min_width",
    "functionals.inradius": "cheeger_atlas.functionals:inradius",
    "functionals.circumradius": "cheeger_atlas.functionals:circumradius",
    "cheeger.cheeger_constant": "cheeger_atlas.cheeger:cheeger_constant",
    "cheeger.smallest_crossing": "cheeger_atlas.cheeger:smallest_crossing",
    "geom.offset_setup": "cheeger_atlas.geom:OffsetMachine.__init__",
    "geom.offset_eval": "cheeger_atlas.geom:OffsetMachine.area_at",
    "bounds.evaluate_all": "cheeger_atlas.bounds:evaluate_all",
    "bounds.d0": "cheeger_atlas.bounds:d0",
    "shapes.build": "cheeger_atlas.shapes:build",
    "shapes.solve_param": "cheeger_atlas.shapes:solve_param",
    "diagrams.boundary": "cheeger_atlas.diagrams:boundary",
    "diagrams.render": "cheeger_atlas.diagrams:render",
    "verify.census": "cheeger_atlas.verify:census",
    "verify.report_json": "cheeger_atlas.verify:report_json",
    "verify.sharpness": "cheeger_atlas.verify:sharpness",
}

_FUNCTIONALS = ("functionals.diameter", "functionals.min_width",
                "functionals.inradius", "functionals.circumradius")

# spans each workload must record at least once; in cli_diagram the pooled
# records run in forked workers, whose spans the parent never sees
EXPECTED = {
    "census": ("sampler.valtr", *_FUNCTIONALS, "cheeger.cheeger_constant",
               "cheeger.smallest_crossing", "geom.offset_setup", "geom.offset_eval",
               "bounds.evaluate_all", "shapes.solve_param", "verify.census",
               "verify.report_json"),
    "extremal": (*_FUNCTIONALS, "cheeger.cheeger_constant", "cheeger.smallest_crossing",
                 "geom.offset_setup", "geom.offset_eval", "bounds.evaluate_all",
                 "bounds.d0", "shapes.build", "shapes.solve_param", "verify.sharpness"),
    "cli_diagram": ("sampler.sample_cloud", "diagrams.boundary", "diagrams.render"),
}

# layer metrics that are exact counts: they must repeat between runs on one seed
COUNTERS = ("cheeger.offset_evals_per_solve", "bounds.crossings_per_polygon",
            "bounds.g_points_per_crossing", "bounds.triangle_matches_per_polygon",
            "bounds.d0.cheeger_solves", "bounds.ok_ratio")


class Tracer:
    """In-memory span recorder; one instance per traced iteration."""

    def __init__(self):
        # [name, start, end, parent index, payload]
        self.spans: list[list] = []
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, None])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if name == "bounds.evaluate_all":
                    self.spans[idx][4] = (sum(r.status == "ok" for r in result),
                                          sum(r.applicable for r in result))
                return result
            finally:
                self._exit(idx)

        if name != "cheeger.smallest_crossing":
            return traced

        @functools.wraps(fn)
        def counting(problem, *args, **kwargs):
            # count the t-points at which the crossing evaluates g; ``idx``
            # is the span that traced() opens next
            idx = len(self.spans)
            g = problem.g

            def g_counted(ts):
                self.spans[idx][4] = (self.spans[idx][4] or 0) + getattr(ts, "size", 1)
                return g(ts)
            return traced(dataclasses.replace(problem, g=g_counted), *args, **kwargs)
        return counting

    def install(self) -> None:
        """Wrap every binding of every function in SPANS."""
        for name, target in SPANS.items():
            modname, attr = target.split(":")
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("cheeger_atlas"):
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapped)

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(SPANS, 0)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def missing(self, workload: str) -> list[str]:
        """Expected spans of ``workload`` that recorded no call."""
        calls = self.calls()
        return [name for name in EXPECTED[workload] if calls[name] == 0]

    def layer_metrics(self) -> dict[str, float]:
        """Reduce the recorded spans to the per-layer metrics (0 where a layer did not run)."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def inside(i, ancestor):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == ancestor:
                    return True
                p = spans[p][3]
            return False

        def pick(name, ancestor=None):
            return [i for i, s in enumerate(spans)
                    if s[0] == name and (ancestor is None or inside(i, ancestor))]

        def total(idx):
            return sum((dur[i] for i in idx), 0.0)

        def pct(idx, q, unit):
            return _percentile(sorted(dur[i] for i in idx), q) * unit

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        valtr = pick("sampler.valtr")
        m["sampler.valtr.ms_p50"] = pct(valtr, 50, 1e3)
        m["sampler.valtr.ms_p99"] = pct(valtr, 99, 1e3)
        m["sampler.sample_cloud.s"] = total(pick("sampler.sample_cloud"))
        busy = 0.0
        for name in _FUNCTIONALS:
            idx = pick(name)
            m[f"{name}.ms_p50"] = pct(idx, 50, 1e3)
            m[f"{name}.ms_p99"] = pct(idx, 99, 1e3)
            busy += total(idx)
        m["functionals.busy_s"] = busy
        solves = pick("cheeger.cheeger_constant")
        m["cheeger.cheeger_constant.ms_p50"] = pct(solves, 50, 1e3)
        m["cheeger.cheeger_constant.ms_p99"] = pct(solves, 99, 1e3)
        m["cheeger.busy_s"] = total(solves)
        m["cheeger.offset_evals_per_solve"] = ratio(
            len(pick("geom.offset_eval", "cheeger.cheeger_constant")), len(solves))
        m["geom.offset_setup.ms_p50"] = pct(pick("geom.offset_setup"), 50, 1e3)
        evals = pick("geom.offset_eval")
        m["geom.offset_eval.us_p50"] = pct(evals, 50, 1e6)
        m["geom.offset_eval.us_p99"] = pct(evals, 99, 1e6)
        records = pick("bounds.evaluate_all")
        m["bounds.evaluate_all.ms_p50"] = pct(records, 50, 1e3)
        m["bounds.evaluate_all.ms_p99"] = pct(records, 99, 1e3)
        m["bounds.busy_s"] = total(records)
        crossings = pick("cheeger.smallest_crossing", "bounds.evaluate_all")
        m["bounds.crossings_per_polygon"] = ratio(len(crossings), len(records))
        m["bounds.g_points_per_crossing"] = ratio(
            sum(spans[i][4] or 0 for i in crossings), len(crossings))
        m["bounds.crossing.ms_p50"] = pct(crossings, 50, 1e3)
        matches = pick("shapes.solve_param", "bounds.evaluate_all")
        m["bounds.triangle_matches_per_polygon"] = ratio(len(matches), len(records))
        m["bounds.triangle_match.ms_p50"] = pct(matches, 50, 1e3)
        tallies = [spans[i][4] or (0, 0) for i in records]
        m["bounds.ok_ratio"] = ratio(sum(t[0] for t in tallies), sum(t[1] for t in tallies))
        m["bounds.d0.s"] = total(pick("bounds.d0"))
        m["bounds.d0.cheeger_solves"] = float(len(pick("cheeger.cheeger_constant", "bounds.d0")))
        m["shapes.build.ms_p50"] = pct(pick("shapes.build"), 50, 1e3)
        m["shapes.solve_param.ms_p50"] = pct(pick("shapes.solve_param"), 50, 1e3)
        m["diagrams.boundary.s"] = total(pick("diagrams.boundary"))
        m["diagrams.render.s"] = total(pick("diagrams.render"))
        m["verify.census.self_s"] = sum(dur[i] - child[i] for i in pick("verify.census"))
        m["verify.report_json.s"] = total(pick("verify.report_json"))
        m["verify.sharpness.self_s"] = sum(dur[i] - child[i] for i in pick("verify.sharpness"))
        return m


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default); 0 for no samples."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)
