import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cheeger_atlas import verify
from cheeger_atlas.cli import TRIPLETS, run
from cheeger_atlas.errors import PolygonJsonError
from cheeger_atlas.functionals import measure
from cheeger_atlas.geom import ConvexPolygon, polygon_from_json, polygon_to_json
from cheeger_atlas.sampler import seeded_polygon, valtr


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _thin_body(i: int) -> ConvexPolygon:
    """Body i of a recipe of thin bodies: a Valtr polygon squeezed by a in y,
    turned by theta, scaled and shifted, all drawn from one generator."""
    rng = np.random.default_rng(2026)
    for _ in range(i + 1):
        n, seed, a = rng.integers(3, 40), rng.integers(1 << 62), 10 ** rng.uniform(-7, 0)
        theta, scale = rng.uniform(0, 2 * math.pi), 10 ** rng.uniform(-3, 3)
        shift = rng.normal(size=2) * 10 ** rng.uniform(-3, 4)
    turn = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return ConvexPolygon((valtr(int(n), int(seed)).vertices * [1, a]) @ turn.T * scale + shift)


class TestShapeAndCheeger:
    def test_stadium_pipeline(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run(["shape", "--family", "stadium", "--r", "1", "--l", "2",
                    "--res", "4096", "--out", str(out)]) == 0
        poly = polygon_from_json(out.read_text())
        assert len(poly) > 1000
        assert run(["cheeger", "--in", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"h", "t_star"}  # solve diagnostics stay out
        h = float(doc["h"])
        assert h == pytest.approx((2 * math.pi + 4) / (math.pi + 4), abs=1e-5)
        assert h == pytest.approx(1.439900, abs=5e-6)

    def test_measure(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        run(["shape", "--family", "ball", "--r", "2", "--res", "512", "--out", str(out)])
        assert run(["measure", "--in", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert float(doc["A"]) == pytest.approx(4 * math.pi, rel=1e-4)
        assert float(doc["d"]) == pytest.approx(4.0, rel=1e-6)

    def test_missing_param_exit2(self, tmp_path):
        assert run(["shape", "--family", "stadium", "--r", "1",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_nonagon_family(self, tmp_path, capsys):
        out = tmp_path / "n.json"
        assert run(["shape", "--family", "smoothed-nonagon", "--r", "1", "--d", "2.5",
                    "--res", "1024", "--out", str(out)]) == 0
        assert run(["measure", "--in", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert float(doc["r"]) == pytest.approx(1.0, abs=1e-3)
        assert float(doc["d"]) == pytest.approx(2.5, abs=1e-3)

    def test_bad_family_param_exit2(self, tmp_path):
        assert run(["shape", "--family", "smoothed-nonagon", "--r", "1", "--d", "5",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_bad_polygon_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [[0,0],[1,0],[2,0]]}')
        assert run(["cheeger", "--in", str(bad)]) == 2

    def test_pentagram_exit2(self, tmp_path, capsys):
        # a left turn at every vertex, but the star crosses itself: it was
        # once measured (A 1.469, h 4.698)
        star = tmp_path / "star.json"
        star.write_text(json.dumps({"vertices": [[math.cos(4 * math.pi * k / 5),
                                                  math.sin(4 * math.pi * k / 5)] for k in range(5)]}))
        with pytest.raises(PolygonJsonError) as err:
            polygon_from_json(star.read_text())
        assert err.value.code == "not-convex"
        assert run(["measure", "--in", str(star)]) == 2
        assert "turns 2 times round" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_dart_exit2(self, tmp_path, capsys):
        # a non-convex dart whose turn cross products overflow to NaN: it
        # was once accepted, and measure, cheeger and bounds exited 3
        dart = tmp_path / "dart.json"
        dart.write_text(json.dumps({"vertices": [[0, 0], [2e160, 0], [0.5e160, 0.5e160],
                                                 [0, 2e160]]}))
        with pytest.raises(PolygonJsonError) as err:
            polygon_from_json(dart.read_text())
        assert err.value.code == "not-convex"
        assert run(["measure", "--in", str(dart)]) == 2
        assert "vertex chain overflows" in capsys.readouterr().err
        # and the command's stderr holds its own error, no numpy warning
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        done = subprocess.run([sys.executable, "-m", "cheeger_atlas.cli", "measure", "--in", str(dart)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and done.stderr.startswith("error: vertex chain overflows")
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_shape_exit2(self, tmp_path, capsys):
        # a ball whose coordinates overflow when squared is a bad parameter:
        # it once exited 3, a numeric failure
        assert run(["shape", "--family", "ball", "--r", "1e160", "--out", str(tmp_path / "b.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --family ball --r 1e+160 gives no polygon: vertex chain overflows")

    @pytest.mark.parametrize("res, out", [("4", True), ("-5", False)])
    def test_bad_res_exit2(self, tmp_path, capsys, res, out):
        # a resolution below 8 chords is a bad parameter, with or without a
        # Cheeger set to write: it once exited 3 with --out and 0 without
        square = tmp_path / "sq.json"
        square.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]]}')
        argv = ["cheeger", "--in", str(square), "--res", res]
        if out:
            argv += ["--out", str(tmp_path / "o.json")]
        assert run(argv) == 2
        assert "arc_segments must be at least 8" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("i, message", [(19, "functional chain violated: "),
                                            (198, "cheeger constant h=")])
    def test_failing_record_exit3(self, tmp_path, capsys, i, message):
        # a valid thin polygon far from the origin, d/w up to 3e5, whose
        # measured record fails its own checks: a numeric failure, where it
        # once exited 2 with the usage line, as a bad argument does
        path = tmp_path / "thin.json"
        path.write_text(polygon_to_json(_thin_body(i)))
        assert run(["measure", "--in", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: {message}") and "usage:" not in err


class TestBoundsCommand:
    def test_huge_polygon(self, tmp_path, capsys):
        # at 1e120 the three-point circle's products overflowed: measure
        # printed R = inf, and bounds reported rows without a root
        poly = tmp_path / "big.json"
        poly.write_text(polygon_to_json(valtr(12, 3).scale(1e120)))
        assert run(["measure", "--in", str(poly)]) == 0
        assert math.isfinite(float(json.loads(capsys.readouterr().out)["R"]))
        assert run(["bounds", "--in", str(poly), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 44 and not [r["id"] for r in rows if r["status"] == "no-root"]

    def test_csv_shape(self, tmp_path, capsys):
        poly = tmp_path / "sq.json"
        poly.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]]}')
        assert run(["bounds", "--in", str(poly)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,direction,condition,formula-id,value,slack"
        assert len(lines) > 40
        # every evaluated slack is sound for the square
        for line in lines[1:]:
            parts = line.split(",")
            if parts[5]:
                assert float(parts[5]) >= -1e-7

    def test_json_format(self, tmp_path, capsys):
        poly = tmp_path / "sq.json"
        poly.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]]}')
        assert run(["bounds", "--in", str(poly), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["id"] for r in rows} >= {"HRA_LO", "HDR_UP", "PHD_LO"}


class TestSampleDeterminism:
    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sample", "--samples", "40", "--seed", "7", "--out", str(a)]) == 0
        assert run(["sample", "--samples", "40", "--seed", "7", "--out", str(b)]) == 0
        assert _read(a) == _read(b)

    def test_zero_samples_exit2(self, tmp_path):
        assert run(["sample", "--samples", "0", "--seed", "1",
                    "--out", str(tmp_path / "x.csv")]) == 2


def _sample_rows(tmp_path, *args):
    out = tmp_path / "cloud.csv"
    assert run(["sample", "--samples", "6", "--seed", "3", *args, "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


class TestSampleUnits:
    @pytest.mark.parametrize("triplet", sorted(TRIPLETS))
    def test_sample_is_the_diagram_cloud(self, tmp_path, triplet):
        # sample writes the x, y that diagram plots: the record at the diagram's unit
        rows = _sample_rows(tmp_path, "--triplet", triplet)
        out = tmp_path / "d.csv"
        assert run(["diagram", "--triplet", triplet, "--grid", "2", "--samples", "6",
                    "--seed", "3", "--format", "csv", "--out", str(out)]) == 0
        cloud = [ln for ln in out.read_text().splitlines() if ",seed:" in ln]
        assert cloud == [f"{r['x']},{r['y']},seed:{r['seed']}" for r in rows]

    def test_normalize_none_is_raw(self, tmp_path):
        rows = _sample_rows(tmp_path, "--triplet", "hwa", "--normalize", "none")
        g = lambda v: format(v, ".17g")
        for i, row in enumerate(rows):
            f = measure(seeded_polygon(3, i, 3, 30)[2])
            assert [row[k] for k in ("A", "P", "r", "R", "d", "w", "h", "x", "y")] == [
                g(v) for v in (f.area, f.perimeter, f.inradius, f.circumradius, f.diameter,
                               f.min_width, f.cheeger, f.min_width, f.cheeger)]

    def test_named_unit_overrides_the_diagram(self, tmp_path):
        rows = _sample_rows(tmp_path, "--triplet", "phr", "--normalize", "area")
        assert len(rows) == 6
        for row in rows:
            assert float(row["A"]) == pytest.approx(1.0, rel=1e-14)
            assert (row["x"], row["y"]) == (row["P"], row["h"])


class TestDiagramCommand:
    def test_svg_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["diagram", "--triplet", "phr", "--grid", "48", "--samples", "10",
                "--seed", "3", "--format", "svg"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert _read(a) == _read(b)

    def test_csv_curves(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["diagram", "--triplet", "rhr", "--grid", "16", "--format", "csv",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,provenance"
        assert sum(1 for ln in lines if ln.endswith("curve:lower")) == 16
        assert sum(1 for ln in lines if ln.endswith("curve:upper")) == 16

    @pytest.mark.parametrize("flags", [["--grid", "1"], ["--x-min", "1", "--x-max", "2"]])
    def test_bad_grid_or_range_exit2(self, tmp_path, capsys, flags):
        assert run(["diagram", "--triplet", "phr", *flags, "--out", str(tmp_path / "d.svg")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    @pytest.mark.parametrize("triplet, x_min, x_max, fault", [
        ("rhr", "1", "inf", "is not finite"), ("dhr", "nan", "3", "is not finite"),
        ("phr", "7", "7", "is empty or reversed"), ("phr", "9", "7", "is empty or reversed")])
    def test_range_fault_named(self, tmp_path, capsys, fmt, triplet, x_min, x_max, fault):
        # x-max = inf once passed on the unbounded diagrams and wrote inf rows
        # (csv) or failed in the tick labels (svg); (7, 7) was called outside
        # [2 pi, oo), which holds 7
        out = tmp_path / f"d.{fmt}"
        assert run(["diagram", "--triplet", triplet, "--x-min", x_min, "--x-max", x_max,
                    "--format", fmt, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: x-range (") and fault in err.splitlines()[0]
        assert not out.exists()

    @pytest.mark.parametrize("triplet, did", [("rhr", "D2_RHR"), ("dhr", "D3_DHR")])
    def test_solved_curve_gap_exit2(self, tmp_path, capsys, triplet, did):
        # past x ~ 1e154 the lower curve has no value: the csv once held 8
        # upper rows and 1 lower row, and the command exited 0
        out = tmp_path / "d.csv"
        assert run(["diagram", "--triplet", triplet, "--x-min", "2", "--x-max", "1e300", "--grid", "8",
                    "--format", "csv", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the lower curve of {did} has no value at x = 1.4285714285714286e+299\n")
        assert not out.exists()

    def test_negative_samples_exit2(self, tmp_path, capsys):
        # the flag is named, before either curve is computed
        assert run(["diagram", "--triplet", "phr", "--samples", "-3",
                    "--out", str(tmp_path / "d.svg")]) == 2
        assert "--samples must be nonnegative" in capsys.readouterr().err

    def test_p_normalized_overlay(self, tmp_path):
        out = tmp_path / "hwp.svg"
        assert run(["diagram", "--triplet", "hwp", "--grid", "24", "--samples", "8",
                    "--seed", "4", "--format", "svg", "--out", str(out)]) == 0
        assert out.read_text().count("<circle") == 8


class TestVerifyCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--samples", "30", "--seed", "7",
                    "--sharpness-res", "2048", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["schema"].startswith("cheeger-atlas-verify/")
        assert report["worst_census_slack"] >= -1e-7
        assert report["worst_sharpness_residual"] < 1e-4

    def test_report_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--samples", "12", "--seed", "5", "--sharpness-res", "1024",
             "--out", str(a)])
        run(["verify", "--samples", "12", "--seed", "5", "--sharpness-res", "1024",
             "--out", str(b)])
        capsys.readouterr()
        assert _read(a) == _read(b)

    @pytest.mark.parametrize("command", ["verify", "sample"])
    @pytest.mark.parametrize("n_min, n_max", [(2, 2), (5, 3)])
    def test_vertex_range_exit2(self, tmp_path, capsys, command, n_min, n_max):
        # the census checks the range before it draws a block, as sample does
        assert run([command, "--samples", "20", "--seed", "1", "--n-min", str(n_min),
                    "--n-max", str(n_max), "--out", str(tmp_path / "out")]) == 2
        assert "need 3 <= n_min <= n_max" in capsys.readouterr().err

    def test_bad_sharpness_res_exit2_before_the_census(self, tmp_path, capsys, monkeypatch):
        def no_census(*args, **kwargs):
            raise AssertionError("the census ran")
        monkeypatch.setattr(verify, "census", no_census)
        assert run(["verify", "--samples", "3000", "--seed", "1", "--sharpness-res", "8",
                    "--out", str(tmp_path / "out")]) == 2
        assert "arc_segments must be at least 16" in capsys.readouterr().err


_DEAD_BLOCK = """
import os, sys
from cheeger_atlas import cli, sampler, verify

measured = sampler.measured_block
sampler.worker_count = lambda jobs: 2
sampler.measured_block = verify.measured_block = (
    lambda block, unit: os._exit(3) if block[0] > 0 else measured(block, unit))
code = cli.run(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
print("exit", code)
"""


class TestThreads:
    def test_bad_value_exit2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHEEGER_ATLAS_THREADS", "abc")
        assert run(["sample", "--samples", "40", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2
        assert "error: CHEEGER_ATLAS_THREADS must be a positive integer, not 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sample", "--samples", "48", "--seed", "5", "--triplet", "dhr"],
        ["diagram", "--samples", "48", "--seed", "5", "--triplet", "rhr", "--grid", "16", "--format", "svg"],
        ["verify", "--samples", "48", "--seed", "5", "--sharpness-res", "1024"]])
    def test_one_or_two_threads_write_the_same_bytes(self, tmp_path, command):
        # with 2 threads the 48 records are drawn in two forked blocks; each
        # file and the printed output are as with one, printed once
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            done = subprocess.run([sys.executable, "-m", "cheeger_atlas.cli", *command, "--out", str(out)],
                                  env={**os.environ, "PYTHONPATH": src, "CHEEGER_ATLAS_THREADS": threads},
                                  capture_output=True, timeout=120)
            assert done.returncode == 0 and done.stderr == b""
            outs.append((out.read_bytes(), done.stdout))
        assert outs[0] == outs[1]
        assert outs[0][1] == (outs[0][0] if command[0] == "verify" else b"")

    @pytest.mark.parametrize("command", [
        ["sample", "--samples", "48", "--seed", "5"],
        ["diagram", "--samples", "48", "--seed", "5", "--triplet", "rhr", "--grid", "16"],
        ["verify", "--samples", "48", "--seed", "5", "--sharpness-res", "1024"]])
    def test_dead_block_is_not_a_usage_error(self, tmp_path, command):
        # the second of two forked blocks dies: exit 3, with no usage line;
        # run apart with a timeout, as the block's process exits
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", _DEAD_BLOCK, *command, "--out", str(tmp_path / "out")],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["no child left", "exit 3"]
        assert done.stderr == "error: block 1 of 2 ended without a result: its process died\n"
