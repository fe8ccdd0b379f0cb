import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheeger_atlas.functionals import measure_with_cheeger
from cheeger_atlas.geom import OffsetMachine, walk_block
from cheeger_atlas.sampler import cloud_csv, mix, sample_cloud, splitmix64, valtr


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


class TestSampleCloud:
    def test_single_record_triplet(self):
        rec, = sample_cloud(1, 5, 5, ("P", "h", "r"), seed=3, workers=1)
        assert rec.functionals.inradius == pytest.approx(1.0, abs=1e-12)
        assert rec.x == rec.functionals.perimeter
        assert rec.y == rec.functionals.cheeger

    def test_byte_identical_replay(self):
        a = cloud_csv(sample_cloud(20, 3, 12, ("P", "h", "A"), seed=11, workers=1))
        b = cloud_csv(sample_cloud(20, 3, 12, ("P", "h", "A"), seed=11, workers=2))
        assert a == b
        assert a.splitlines()[0] == "index,seed,n,A,P,r,R,d,w,h,x,y"
        assert "\r" not in a

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_cloud(0, 3, 30, ("P", "h", "A"), seed=1)
        with pytest.raises(ValueError):
            sample_cloud(1, 2, 30, ("P", "h", "A"), seed=1)
        with pytest.raises(ValueError):
            sample_cloud(1, 3, 30, ("P", "h", "area"), seed=1)

    def test_one_machine_per_block(self, monkeypatch):
        # the records of a block are measured once and scaled, so scaling to
        # r walks the skeletons no more often than scaling to A
        built = []
        init = OffsetMachine.__init__

        def counted(self, polys):
            built.append(len(polys))
            init(self, polys)
        monkeypatch.setattr(OffsetMachine, "__init__", counted)
        sample_cloud(40, 3, 30, ("R", "h", "r"), seed=1, workers=1)
        assert built == [40]
        sample_cloud(40, 3, 30, ("w", "h", "A"), seed=1, workers=1)
        assert built == [40, 40]
        polys = [valtr(n, n) for n in range(3, 9)]
        walk_block(polys)
        assert built == [40, 40, 6]
        for poly in polys:
            measure_with_cheeger(poly)
        assert built == [40, 40, 6]

    def test_d1_membership(self):
        from cheeger_atlas.diagrams import membership
        recs = sample_cloud(60, 3, 30, ("P", "h", "r"), seed=42, workers=2)
        for rec in recs:
            assert membership("D1_PHR", rec.x, rec.y) == "inside"
