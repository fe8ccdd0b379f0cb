"""Byte identity of the deterministic outputs.

Each pin is the sha256 of an output as computed before the census block
was drawn and measured as one column, with numpy 2.4.6: the soundness
census report at the benchmark's two census seeds, and the sample CSV of
every diagram triplet.  The ``bounds`` command's CSV and JSON for one fixed
polygon are pinned as computed before the registry answered in arrays, and
its ``measure`` and ``cheeger`` JSON as computed before ``measure`` returned
h.  The nine diagrams' boundary curves (each curve evaluated at its own
unit, the implicit ones one family at a time) and the sharpness rows at
resolution 8192 (the registry on the 13 extremal bodies as one column) are
pinned as computed before the registry's root solves took columns only.
A change that moves a bit of these outputs updates the pin and says why.
"""

import hashlib
import json

import pytest

from cheeger_atlas import diagrams, verify
from cheeger_atlas.cli import TRIPLETS, run
from cheeger_atlas.diagrams import DIAGRAM_IDS, DiagramSpec, boundary, render_csv
from cheeger_atlas.geom import polygon_to_json
from cheeger_atlas.sampler import cloud_csv, sample_cloud, valtr


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (1, "ae16071a3ff718a238a04c67ba45355ae0edbe138e0e9fe2364b2446b0d0cc5a"),
    (90210, "9d52ed5f95d9f0e9e9361e8e3d16f3a4c1642c3de15cde009344c2da9fd81a7b"),
])
def test_census_report(seed, digest):
    assert _sha256(verify.report_json(verify.census(2000, seed, workers=1))) == digest


@pytest.mark.parametrize("triplet, digest", [
    ("dhr", "d67d01b49cee66d3cda0c6babe2a25927ad99397c0998f57669c79847eaf80b8"),
    ("hrd", "5eefd53e964380d52c040d9abc58f7cf89892c9e469932312984bf45eb73b284"),
    ("hwa", "021ee678bf3a06240f994ef5210629734a91d159b015497a32dd589454775079"),
    ("hwd", "d2fd80f2e3231de2c318c8b734bfe6c3d2a8421b537441d091bf3000c659c979"),
    ("hwp", "f615f7a45b3d1dc20e3bc63a5dbe00716716ff41babaf1afd91c1b13224a67d3"),
    ("hwr-circ", "b92fe69d472dc71eaeb8db60c30a525fe7472f192b138fa4367755fea736eae7"),
    ("hwr-in", "51a62a3118dcd6ada488942160a598e5ab479a98becb7304e2525143c5b2c6b0"),
    ("phr", "d89da50e9c43ae197dea6a79a080913c98d14c438f48862a2788c0fcae550e4c"),
    ("rhr", "ce33e34c5b2d8596de25acdbd5f9108d3401267b9b5e221855e2cf0f4147aed6"),
])
def test_sample_csv(triplet, digest):
    # 200 records at seed 1, n in 3..30 (the command line's defaults)
    x_key, y_key, unit, _ = diagrams.DIAGRAM_IDS[TRIPLETS[triplet]]
    records = sample_cloud(200, 3, 30, unit, 1, workers=1)
    assert _sha256(cloud_csv(records, x_key, y_key)) == digest


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "de895bb6d305ae7c4221e77585494cc7151fe829a2236c4102e1e8400d30b7ba"),
    ("json", "867b651c6ab9dd60d778fd7ca2664c77f4ea37772b369813d47c12dba59e0a12"),
])
def test_bounds_command(fmt, digest, tmp_path, capsys):
    # valtr(12, 3): 40 bounds evaluated, four not applicable (HDW_UP_YAM,
    # HRW_UP_TRI, HWP_UP_TRI and PHD_UP2)
    poly = tmp_path / "p.json"
    poly.write_text(polygon_to_json(valtr(12, 3)) + "\n")
    assert run(["bounds", "--in", str(poly), "--format", fmt]) == 0
    assert _sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("command, digest", [
    ("measure", "81bbb4a65e0b5504fa7ccbe5ae6d879a303893a180d1e9545370375a88adf7d7"),
    ("cheeger", "885a5b95bdba1227519e634903e46601b236ae175e394d2f50c3d23e57af0579"),
])
def test_measure_and_cheeger_commands(command, digest, tmp_path, capsys):
    # valtr(12, 3): the six functionals, and h with t*
    poly = tmp_path / "p.json"
    poly.write_text(polygon_to_json(valtr(12, 3)) + "\n")
    assert run([command, "--in", str(poly)]) == 0
    assert _sha256(capsys.readouterr().out) == digest


def test_boundary_curves():
    text = "".join(render_csv([], boundary(DiagramSpec(did))) for did in DIAGRAM_IDS)
    assert _sha256(text) == "a0ccff63f2f87bd09a8906655070da3c5836cd5a48e3811cd5adfe04eda79045"


def test_sharpness_rows():
    text = json.dumps(verify.sharpness(8192), sort_keys=True)
    assert _sha256(text) == "f10ebd1059d613f56f4f5fadded41f51753ccaef1afa87f8666919e788ae265c"
