"""Guards on the package source itself."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cheeger_atlas"
PERFBENCH = ROOT / "perfbench"


def test_every_loop_has_a_bound():
    # a for loop runs over a range or a sequence; a while loop ends only by
    # an argument, so the package has none
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.While)]
    assert not found, f"while loops at {found}"


def test_no_unused_private_names():
    # a module-level _name (function, class or assignment) that no name,
    # attribute or import anywhere in the package refers to is dead code;
    # a docstring that mentions it is no use
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert not unused, f"unused private names: {unused}"


def test_benchmark_spans_resolve():
    # the benchmark's tracer wraps the package's functions by name, so a
    # rename that misses one breaks only the traced run; read it unchanged
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, target in tracer.SPANS.items():
        module, attr = target.split(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"span {name}: {target} does not resolve"
            obj = getattr(obj, part)
    for workload, names in tracer.EXPECTED.items():
        assert set(names) <= set(tracer.SPANS), workload


@pytest.mark.parametrize("argv", [["census", "--samples", "10", "--chunks", "1", "--seed", "1"],
                                  ["extremal"]], ids=["census", "extremal"])
def test_traced_benchmark_runs_clean(tmp_path, argv):
    # a traced worker run records every span its workload expects and
    # passes its output checks
    out = tmp_path / "out.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), *argv, "--out", str(out),
                           "--trace"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["problems"] == []


# calls (Python-level and C-level) of each stage of one census column: seed 1,
# records 1000-1009, counted by sys.setprofile; a change that lowers a count
# lowers its ceiling here
CALL_CEILINGS = {"draw": 459, "walk": 1548, "measure": 628, "registry": 1141}


def _census_stage_calls() -> dict:
    from cheeger_atlas.bounds import evaluate_all
    from cheeger_atlas.functionals import measure
    from cheeger_atlas.geom import walk_block
    from cheeger_atlas.sampler import seeded_polygons

    counts = dict.fromkeys(CALL_CEILINGS, 0)

    def counted(stage, fn, *args):
        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                counts[stage] += 1
        sys.setprofile(profile)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)
    polys = counted("draw", seeded_polygons, 1, 1000, 1010, 3, 30)[2]
    counted("walk", walk_block, polys)
    record = counted("measure", lambda: measure(polys).normalized("A"))
    counted("registry", evaluate_all, record)
    return counts


def test_census_column_call_budget():
    # the census stages as verify.census runs them on a column of 10
    # records: draw, walk, measure with normalize, registry
    _census_stage_calls()  # a first run fills the caches (dstar, the unit triangles)
    counts = _census_stage_calls()
    assert all(counts[k] <= CALL_CEILINGS[k] for k in counts), counts
