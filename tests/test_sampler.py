import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheeger_atlas import functionals, sampler, verify
from cheeger_atlas.errors import CheegerAtlasError, PolygonJsonError
from cheeger_atlas.functionals import FIELDS, Functionals, measure
from cheeger_atlas.geom import OffsetMachine, walk_block
from cheeger_atlas.sampler import (blocks, cloud_csv, measured_block, mix, parallel_map, sample_cloud,
                                   seeded_polygon, seeded_polygons, splitmix64, valtr)


class TestValtr:
    def test_triangle_contract(self):
        p = valtr(3, 99)
        assert len(p) == 3
        assert p.vertices.min() >= 0.0 and p.vertices.max() <= 1.0

    def test_determinism(self):
        a = valtr(30, 7)
        b = valtr(30, 7)
        assert np.array_equal(a.vertices, b.vertices)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(valtr(12, 1).vertices, valtr(12, 2).vertices)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(3, 30))
    def test_always_strictly_convex_in_square(self, seed, n):
        p = valtr(n, seed)  # the constructor enforces strict convexity
        assert len(p) == n
        assert p.vertices.min() >= -1e-12
        assert p.vertices.max() <= 1.0 + 1e-12

    def test_seed_mixing_spread(self):
        seeds = {mix(7, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert splitmix64(0) != splitmix64(1)


# the chunk seeds of the census benchmark at its seed 1 and at its held-out seed
CHUNK_SEEDS = [random.Random(s).getrandbits(63) for s in (1, 90210) for _ in range(30)]


class _Diagonal:
    """A stream whose Valtr draw has equal x and y increments, in the same
    order: every increment lies on the diagonal, so the chain is collinear."""

    def random(self, size):
        return np.tile(np.linspace(0.1, 0.9, size // 2), 2)

    def integers(self, low, high, size):
        return np.tile(np.arange(size // 2) % 2, 2)

    def permutation(self, n):
        return np.arange(n)


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(p.vertices, q.vertices) for p, q in zip(a, b))


class TestBlockDraw:
    """A block is drawn as one column; each record has the bits it draws alone."""

    def test_census_chunks(self):
        for chunk_seed in CHUNK_SEEDS:
            seeds, ns, polys = seeded_polygons(chunk_seed, 0, 10, 3, 30)
            alone = [seeded_polygon(chunk_seed, i, 3, 30) for i in range(10)]
            assert [(s, n) for s, n, _ in alone] == list(zip(seeds, ns))
            assert _same(polys, [p for _, _, p in alone])
            assert _same(polys, [valtr(n, s) for n, s in zip(ns, seeds)])

    def test_shuffled_block(self):
        seeds, ns, polys = seeded_polygons(CHUNK_SEEDS[0], 0, 40, 3, 30)
        order = np.random.default_rng(0).permutation(40)
        shuffled = valtr([ns[i] for i in order], [seeds[i] for i in order])
        assert _same(shuffled, [polys[i] for i in order])

    def test_retry_path(self, monkeypatch):
        # record 3's first stream draws a collinear chain: it alone retries,
        # on its first derived stream, in a block as alone
        seeds, ns, polys = seeded_polygons(CHUNK_SEEDS[1], 0, 10, 3, 30)
        streams = sampler._streams

        def patched(keys):
            for key, gen in zip(keys, streams(keys)):
                yield _Diagonal() if key == seeds[3] else gen
        monkeypatch.setattr(sampler, "_streams", patched)
        block = valtr(ns, seeds)
        retried = valtr(ns[3], mix(seeds[3], (1 << 40) + 1))
        assert not np.array_equal(retried.vertices, polys[3].vertices)
        assert _same(block, polys[:3] + [retried] + polys[4:])
        assert _same([valtr(ns[3], seeds[3])], [retried])


class TestSampleCloud:
    def test_single_record_triplet(self):
        cloud = seeds, ns, rec = sample_cloud(1, 5, 5, "r", seed=3, workers=1)
        assert (seeds, ns) == ([mix(3, 0)], [5])
        assert rec.inradius == pytest.approx([1.0], abs=1e-12)
        row = cloud_csv(cloud, "P", "h").splitlines()[1].split(",")
        assert row[-2:] == [format(rec.perimeter[0], ".17g"), format(rec.cheeger[0], ".17g")]

    def test_byte_identical_replay(self):
        a = cloud_csv(sample_cloud(20, 3, 12, "A", seed=11, workers=1), "P", "h")
        b = cloud_csv(sample_cloud(20, 3, 12, "A", seed=11, workers=2), "P", "h")
        assert a == b
        assert a.splitlines()[0] == "index,seed,n,A,P,r,R,d,w,h,x,y"
        assert "\r" not in a

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_cloud(0, 3, 30, "A", seed=1)
        with pytest.raises(ValueError):
            sample_cloud(1, 2, 30, "A", seed=1)
        with pytest.raises(ValueError):
            sample_cloud(1, 3, 30, "area", seed=1)

    def test_one_machine_per_block(self, monkeypatch):
        # the records of a block are measured once and scaled, so scaling to
        # r walks the skeletons no more often than scaling to A
        built = []
        init = OffsetMachine.__init__

        def counted(self, polys):
            built.append(len(polys))
            init(self, polys)
        monkeypatch.setattr(OffsetMachine, "__init__", counted)
        sample_cloud(40, 3, 30, "r", seed=1, workers=1)
        assert built == [40]
        sample_cloud(40, 3, 30, "A", seed=1, workers=1)
        assert built == [40, 40]
        polys = [valtr(n, n) for n in range(3, 9)]
        walk_block(polys)
        assert built == [40, 40, 6]
        for poly in polys:
            measure(poly)
        assert built == [40, 40, 6]

    def test_d1_membership(self):
        from cheeger_atlas.diagrams import membership
        _, _, rec = sample_cloud(60, 3, 30, "r", seed=42, workers=2)
        for x, y in zip(rec.perimeter.tolist(), rec.cheeger.tolist()):
            assert membership("D1_PHR", x, y) == "inside"

    @pytest.mark.parametrize("unit", ["A", "r", None])
    def test_cloud_is_its_blocks_joined(self, unit):
        # the same record for 1, 2 and 3 workers, and the blocks' records
        # of measured_block joined in block order
        clouds = [sample_cloud(48, 3, 30, unit, 9, workers=k) for k in (1, 2, 3)]
        assert clouds[0] == clouds[1] == clouds[2]
        _no_child_left()
        parts = [measured_block(block, unit) for block in blocks(48, 9, 3, 30, workers=3)]
        joined = Functionals(*(np.concatenate([getattr(part[2], name) for part in parts])
                               for name in FIELDS.values()))
        assert clouds[2] == ([s for part in parts for s in part[0]], [n for part in parts for n in part[1]],
                             joined)
        assert clouds[2][2] != parts[0][2]


class TestRecordEquality:
    def test_columns_compare_field_by_field(self):
        seeds, _, column = sample_cloud(20, 3, 30, "A", 4, workers=1)
        again = sample_cloud(20, 3, 30, "A", 4, workers=1)[2]
        assert column is not again and column == again and not column != again
        other = sample_cloud(20, 3, 30, "A", 5, workers=1)[2]
        assert column != other
        assert column != sample_cloud(19, 3, 30, "A", 4, workers=1)[2]  # a shorter column
        assert column != column.normalized("r")

    def test_records_of_floats_compare_as_before(self):
        f = measure(valtr(7, 3))
        fields = [getattr(f, name) for name in FIELDS.values()]
        assert f == Functionals(*fields)
        assert f != Functionals(*fields[:6])  # no Cheeger constant
        assert f != f.normalized("d")
        assert (f == "a record") is False


def _post_inits(monkeypatch) -> list:
    """Count the checks ``Functionals`` runs from here on: one entry per
    ``__post_init__``, its record's length (0 for a record of floats)."""
    calls = []
    check = Functionals.__post_init__

    def counted(self):
        calls.append(np.size(self.area) if np.ndim(self.area) else 0)
        check(self)
    monkeypatch.setattr(Functionals, "__post_init__", counted)
    return calls


class TestBlockRows:
    def test_only_columns_are_checked(self, monkeypatch):
        # a block's column is checked, and scaled to A and checked again; a
        # cloud of one block checks the joined column once more, and no
        # record of one row is ever built
        calls = _post_inits(monkeypatch)
        measured_block((0, 60, 1, 3, 30), "A")
        assert calls == [60, 60]
        seeds, ns, column = sample_cloud(60, 3, 30, "A", 1, workers=1)
        assert calls == [60, 60, 60, 60, 60]
        assert len(seeds) == len(ns) == len(column.area) == 60

    def test_failing_column_raises_once(self, monkeypatch):
        # records 3 and 5 get an h outside [1/r, 2/r]: the block raises
        # what record 3 raises alone, from the one check of its column
        solve = functionals.cheeger_constant
        solved = []

        def bad(poly):
            res = solve(poly)
            solved.append(res)
            k = len(solved) - 1
            return SimpleNamespace(h=res.h * (3.0 if k == 3 else -1.0 if k == 5 else 1.0))
        monkeypatch.setattr(functionals, "cheeger_constant", bad)
        calls = _post_inits(monkeypatch)
        with pytest.raises(CheegerAtlasError) as err:
            measured_block((0, 8, 1, 3, 30), "A")
        assert calls == [8]
        assert str(err.value).startswith("cheeger constant h=") and str(err.value).count("h=") == 1
        column = measure(seeded_polygons(1, 0, 8, 3, 30)[2])
        row = [getattr(column, name)[3].item() for name in FIELDS.values()]
        row[-1] *= 3.0
        with pytest.raises(ValueError) as alone:
            Functionals(*row)
        assert str(err.value) == str(alone.value)


class TestWorkerCount:
    @pytest.fixture
    def cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.delenv("CHEEGER_ATLAS_THREADS", raising=False)

    def test_usable_cores(self, cores):
        assert len(blocks(2000, 1, 3, 30)) == 4
        assert len(blocks(40, 1, 3, 30)) == 2  # at most one block per MIN_BLOCK records

    @pytest.mark.parametrize("value, count", [("1", 1), ("3", 3), ("4", 4), ("64", 4)])
    def test_variable_only_lowers_the_count(self, cores, monkeypatch, value, count):
        monkeypatch.setenv("CHEEGER_ATLAS_THREADS", value)
        assert len(blocks(2000, 1, 3, 30)) == count

    def test_explicit_workers_keep_their_meaning(self, cores, monkeypatch):
        monkeypatch.setenv("CHEEGER_ATLAS_THREADS", "1")
        assert len(blocks(2000, 1, 3, 30, workers=6)) == 6
        assert len(blocks(2000, 1, 3, 30, workers=1)) == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", " 2"])
    def test_bad_value_names_the_variable(self, cores, monkeypatch, value):
        monkeypatch.setenv("CHEEGER_ATLAS_THREADS", value)
        with pytest.raises(ValueError, match="CHEEGER_ATLAS_THREADS must be a positive integer"):
            blocks(2000, 1, 3, 30)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_from(first):
    """A block function that returns its item below ``first`` and raises from it:
    item ``first`` a KeyError after a pause, later items at once a ValueError."""
    def fn(item):
        if item == first:
            time.sleep(0.2)
            raise KeyError(f"block {item}")
        if item > first:
            raise ValueError(f"block {item}")
        return item
    return fn


_DYING_CHILD = """
import os, sys
from cheeger_atlas.sampler import parallel_map

def fn(item):
    if item == 1:
        os._exit(3)
    return item

try:
    parallel_map(fn, [0, 1, 2])
except ChildProcessError as exc:
    print("raised:", exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


class TestForkMap:
    def test_order_with_three_children(self):
        seed = 23
        assert len(blocks(48, seed, 3, 30, workers=3)) == 3
        assert verify.census(48, seed, workers=3) == verify.census(48, seed, workers=1)
        _no_child_left()
        assert sample_cloud(48, 3, 30, "r", seed, workers=3) == sample_cloud(48, 3, 30, "r", seed, workers=1)
        _no_child_left()

    def test_each_item_runs_in_its_own_child(self):
        out = parallel_map(lambda k: (k, os.getpid()), list(range(5)))
        assert [k for k, _ in out] == list(range(5))
        pids = {pid for _, pid in out}
        assert len(pids) == 5 and os.getpid() not in pids
        _no_child_left()

    def test_first_failing_block_raises_its_exception(self):
        # the second of three blocks raises a KeyError after a pause and the
        # third a ValueError at once: the second's is read first
        with pytest.raises(KeyError, match="block 1") as err:
            parallel_map(_fail_from(1), [0, 1, 2])
        assert err.type is KeyError
        _no_child_left()

    def test_polygon_json_error_crosses_the_pipe(self):
        # the exception a block raises is pickled back to this process
        exc = pickle.loads(pickle.dumps(PolygonJsonError("bad-vertex", "vertex 2 is not finite")))
        assert type(exc) is PolygonJsonError and (exc.code, exc.message) == ("bad-vertex", "vertex 2 is not finite")
        assert str(exc) == "vertex 2 is not finite"

        def fn(item):
            if item == 1:
                raise PolygonJsonError("bad-vertex", f"block {item}")
            return item
        with pytest.raises(PolygonJsonError, match="block 1") as err:
            parallel_map(fn, [0, 1])
        assert err.value.code == "bad-vertex"
        _no_child_left()

    def test_dead_child_raises(self):
        # run apart with a timeout, so a map that waits forever fails here
        env = {**os.environ, "PYTHONPATH": str(Path(sampler.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", _DYING_CHILD], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "raised: block 1 of 3 ended without a result: its process died", "no child left"]

    def test_no_item_or_one_runs_here(self):
        assert parallel_map(lambda k: os.getpid(), []) == []
        assert parallel_map(lambda k: os.getpid(), [0]) == [os.getpid()]
