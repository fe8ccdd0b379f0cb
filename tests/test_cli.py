import json
import math

import pytest

from cheeger_atlas.cli import TRIPLETS, run
from cheeger_atlas.functionals import measure_with_cheeger
from cheeger_atlas.geom import polygon_from_json
from cheeger_atlas.sampler import seeded_polygon


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


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


class TestBoundsCommand:
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
            f = measure_with_cheeger(seeded_polygon(3, i, 3, 30)[2])
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
