"""Random convex polygon generation and the batch cloud pipeline.

Polygons come from Valtr's construction: two sorted coordinate multisets are
split into increasing/decreasing chains, differenced into signed increments,
paired at random, sorted by angle and chained.  Every output is strictly
convex, lies in the unit square, and is a deterministic function of
(n, seed).  Per-record streams are derived from a master seed with a
SplitMix64-style mix, so batch runs parallelize with order-independent
output.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .errors import DegenerateInput
from .functionals import Functionals, measure_with_cheeger
from .geom import ConvexPolygon, shifted, walk_block

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

NORMALIZE_TAGS = ("area", "inradius", "diameter", "none")
# fewest records in a block of a batch: for shorter blocks, starting a worker
# pool and the registry's higher cost per record on a short column outweigh
# what a second worker saves (measured on a 2-core VM)
MIN_BLOCK = 16


def splitmix64(z: int) -> int:
    """One SplitMix64 output step (the documented seed-mixing primitive)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix(seed: int, index: int) -> int:
    """Record seed i of a master seed: splitmix64(seed + (i+1)*golden)."""
    return splitmix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def valtr(n: int, seed: int) -> ConvexPolygon:
    """Random polygon with exactly n vertices in convex position in [0,1]^2.

    Deterministic for fixed (n, seed).  The rare numerically degenerate draw
    (collinear chain from coinciding angles) retries on a derived stream, so
    the result is still a pure function of the arguments.
    """
    if n < 3:
        raise DegenerateInput("need at least 3 vertices")
    for attempt in range(16):
        rng = _rng(seed if attempt == 0 else mix(seed, (1 << 40) + attempt))
        try:
            return _valtr_draw(n, rng)
        except DegenerateInput:
            continue
    raise DegenerateInput(f"could not draw a strictly convex {n}-gon for seed {seed}")


def _increments(sorted_vals: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    lo, hi = sorted_vals[0], sorted_vals[-1]
    interior = sorted_vals[1:-1]
    side = rng.integers(0, 2, size=len(interior)).astype(bool)
    chain_a = np.concatenate(([lo], interior[side], [hi]))
    chain_b = np.concatenate(([lo], interior[~side], [hi]))
    return np.concatenate((np.diff(chain_a), -np.diff(chain_b)))


def _valtr_draw(n: int, rng: np.random.Generator) -> ConvexPolygon:
    xs = np.sort(rng.random(n))
    ys = np.sort(rng.random(n))
    dx = _increments(xs, rng)
    dy = rng.permutation(_increments(ys, rng))
    vecs = np.column_stack((dx, dy))
    angles = np.arctan2(vecs[:, 1], vecs[:, 0])
    lengths = np.hypot(vecs[:, 0], vecs[:, 1])
    order = np.lexsort((lengths, angles))
    chain = np.cumsum(vecs[order], axis=0)
    verts = np.vstack((np.zeros(2), chain[:-1]))
    verts[:, 0] += xs[0] - verts[:, 0].min()
    verts[:, 1] += ys[0] - verts[:, 1].min()
    start = int(np.lexsort((verts[:, 0], verts[:, 1]))[0])
    verts = shifted(verts, start)
    return ConvexPolygon(verts)


# the functional that each normalization tag but "none" scales to 1
_FUNCTIONAL_OF_TAG = {"area": "A", "inradius": "r", "diameter": "d"}
_TAG_OF_FUNCTIONAL = {key: tag for tag, key in _FUNCTIONAL_OF_TAG.items()}


@dataclass(frozen=True)
class SampleRecord:
    """One measured random polygon inside a batch run."""

    index: int
    seed: int
    vertex_count: int
    functionals: Functionals
    tag: str
    x: float
    y: float


def seeded_polygon(master_seed: int, index: int, n_min: int,
                   n_max: int) -> tuple[int, int, ConvexPolygon]:
    """Record ``index`` of a batch: (record seed, vertex count, drawn polygon).

    The record seed is mix(master_seed, index); it draws the vertex count
    uniformly from [n_min, n_max] and then seeds the Valtr polygon.
    """
    rec_seed = mix(master_seed, index)
    n = int(_rng(rec_seed).integers(n_min, n_max + 1))
    return rec_seed, n, valtr(n, rec_seed)


def measured_block(master_seed: int, start: int, stop: int, n_min: int, n_max: int,
                   tag: str) -> list[tuple[int, int, Functionals]]:
    """Records start..stop-1 of a batch: (record seed, vertex count, functionals
    with the Cheeger constant) each.

    The block's drawn polygons walk their straight skeletons as one column
    (``geom.walk_block``) and are measured once; a record is then scaled
    so that the tag's functional is 1 (``Functionals.normalized``).
    A record's numbers do not depend on the block it lands in.
    """
    drawn = [seeded_polygon(master_seed, index, n_min, n_max) for index in range(start, stop)]
    walk_block([poly for _, _, poly in drawn])
    key = _FUNCTIONAL_OF_TAG.get(tag)
    records = [(rec_seed, n, measure_with_cheeger(poly)) for rec_seed, n, poly in drawn]
    return records if key is None else [(rec_seed, n, f.normalized(key)) for rec_seed, n, f in records]


def _sample_block(args) -> list[SampleRecord]:
    start, stop, master_seed, n_min, n_max, tag, x_key, y_key = args
    records = measured_block(master_seed, start, stop, n_min, n_max, tag)
    return [SampleRecord(index, rec_seed, n, f, tag, f.value(x_key), f.value(y_key))
            for index, (rec_seed, n, f) in enumerate(records, start)]


def blocks(count: int, workers: int | None = None) -> list[tuple[int, int]]:
    """Contiguous [start, stop) blocks of ``count`` records: one per worker,
    but at most one per MIN_BLOCK records."""
    pool = max(1, min(workers or worker_count(count), count // MIN_BLOCK))
    edges = [count * k // pool for k in range(pool + 1)]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def worker_count(jobs: int) -> int:
    """Pool size for ``jobs`` items: CHEEGER_ATLAS_THREADS, else the core count."""
    cap = os.environ.get("CHEEGER_ATLAS_THREADS")
    workers = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(workers, jobs))


def parallel_map(fn, items: list) -> list:
    """Order-preserving map over a process pool of one worker per item (the
    blocks of ``blocks``); one item runs in this process."""
    if len(items) <= 1:
        return [fn(it) for it in items]
    with get_context("fork").Pool(len(items)) as pool:
        return pool.map(fn, items)


def sample_cloud(count: int, n_min: int, n_max: int, tag: str,
                 triplet: tuple[str, str, str], seed: int,
                 workers: int | None = None) -> list[SampleRecord]:
    """Measured records for ``count`` random polygons.

    ``triplet`` = (x functional, y functional, normalizing functional); the
    normalizing functional must agree with ``tag`` when both are given.
    Vertex counts are uniform on [n_min, n_max]; record i uses the derived
    seed mix(seed, i), so output is order-independent and replayable.  The
    records are split into contiguous blocks as the census splits them
    (``blocks``), and each block's polygons walk their skeletons as one
    column (``measured_block``).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 3 <= n_min <= n_max:
        raise ValueError("need 3 <= n_min <= n_max")
    if tag not in NORMALIZE_TAGS:
        raise ValueError(f"unknown tag {tag!r}")
    x_key, y_key, norm_key = triplet
    expect = _TAG_OF_FUNCTIONAL.get(norm_key)
    if expect is not None and tag not in (expect, "none"):
        raise ValueError(f"tag {tag!r} conflicts with triplet normalizer {norm_key!r}")
    args = [(lo, hi, seed, n_min, n_max, tag, x_key, y_key) for lo, hi in blocks(count, workers)]
    return [rec for block in parallel_map(_sample_block, args) for rec in block]


def cloud_csv(records: list[SampleRecord]) -> str:
    """Deterministic CSV: index, seed, n, A, P, r, R, d, w, h, x, y."""
    buf = io.StringIO()
    buf.write("index,seed,n,A,P,r,R,d,w,h,x,y\n")
    g = lambda v: format(v, ".17g")
    for r in records:
        f = r.functionals
        buf.write(",".join([
            str(r.index), str(r.seed), str(r.vertex_count),
            g(f.area), g(f.perimeter), g(f.inradius), g(f.circumradius),
            g(f.diameter), g(f.min_width), g(f.cheeger), g(r.x), g(r.y),
        ]) + "\n")
    return buf.getvalue()
