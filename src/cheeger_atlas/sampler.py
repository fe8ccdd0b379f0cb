"""Random convex polygon generation and the batch cloud pipeline.

Polygons come from Valtr's construction: two sorted coordinate multisets are
split into increasing/decreasing chains, differenced into signed increments,
paired at random, sorted by angle and chained.  Every output is strictly
convex, lies in the unit square, and is a deterministic function of
(n, seed).  Per-record streams are derived from a master seed with a
SplitMix64-style mix, so batch runs parallelize with order-independent
output: a batch's contiguous blocks (``blocks``) run in one forked child
each, which sends its result back pickled through a pipe
(``parallel_map``).  A block of records is drawn as one column: each
record makes its own random calls on its own Philox stream, and the
sorting, differencing, chaining and placement run once for the block
(``valtr`` of sequences); one polygon is the block of one.  A batch block is measured once, as one
record of columns (``functionals.measure`` of a list), then scaled so that
each row's unit functional is 1 (``Functionals.normalized``); a unit of
None keeps the raw record, and a cloud joins its blocks' records into one.
A record's numbers do not depend on its block.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np

from .errors import DegenerateInput
from .functionals import EXPONENT, FIELDS, Functionals, measure
from .geom import ConvexPolygon, polygon_block

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# fewest records in a block of a batch: each block is a forked child, whose
# fork, pipe and reaping cost about 1 ms (a few census records), and the
# registry costs more per record on a short column, so shorter blocks lose
# what a second core saves (measured on a 2-core VM)
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


def _streams(keys):
    """For each key in turn, one generator set to the initial state of
    np.random.Philox(key=key), without building a bit generator per key."""
    gen = np.random.Generator(np.random.Philox(0))
    key = np.zeros(2, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k in keys:
        key[0] = k & _MASK64
        gen.bit_generator.state = state
        yield gen


def valtr(n, seed):
    """Random polygon with exactly n vertices in convex position in [0,1]^2.

    Deterministic for fixed (n, seed).  ``n`` and ``seed`` may also be
    sequences, one entry per record of a block: the block is drawn as one
    column (``_draw``) and the list of its polygons returned, each with the
    bits it has drawn alone.  The rare numerically degenerate draw
    (collinear chain from coinciding angles) retries on a derived stream, so
    the result is still a pure function of the arguments.
    """
    block = not isinstance(n, (int, np.integer))
    ns, seeds = (list(n), list(seed)) if block else ([n], [seed])
    if min(ns) < 3:
        raise DegenerateInput("need at least 3 vertices")
    polys: list = [None] * len(ns)
    todo = list(range(len(ns)))
    for attempt in range(16):
        keys = [seeds[i] if attempt == 0 else mix(seeds[i], (1 << 40) + attempt) for i in todo]
        drawn = _draw([ns[i] for i in todo], keys)
        for i, poly in zip(todo, drawn):
            polys[i] = poly
        todo = [i for i, poly in zip(todo, drawn) if not isinstance(poly, ConvexPolygon)]
        if not todo:
            return polys if block else polys[0]
    raise DegenerateInput(f"could not draw a strictly convex {ns[todo[0]]}-gon for seed {seeds[todo[0]]}")


def _increments(s: np.ndarray, side: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Valtr's increments of each group of a column of sorted values, group j
    holding start[j] to start[j + 1] - 1: the chain of the group's lowest
    value, its interior values where ``side`` (one flag per interior value)
    and its highest, differenced, then the chain of the rest, differenced
    and negated.  A group's increments take its own places in the column."""
    first, ends = np.zeros(len(s), dtype=bool), np.zeros(len(s), dtype=bool)
    first[start[:-1]] = ends[start[:-1]] = ends[start[1:] - 1] = True
    flag = np.zeros(len(s), dtype=bool)
    flag[~ends] = side
    chains = (np.flatnonzero(ends | flag), np.flatnonzero(ends | ~flag))
    member = np.concatenate(chains)
    # by group, each group's first chain before its second, each in order
    key = 2 * np.searchsorted(start, member, "right") - 2
    key[len(chains[0]):] += 1
    order = np.argsort(key, kind="stable")
    member, second = member[order], key[order] & 1
    step = s[member[1:]] - s[member[:-1]]
    # each chain of a group starts at its first value, where no step ends
    return np.where(second[1:] == 1, -step, step)[~first[member[1:]]]


def _draw(ns: list[int], keys: list[int]) -> list:
    """Valtr draws of a block, record i with ns[i] vertices from key keys[i]:
    a ``ConvexPolygon`` each, or the DegenerateInput its chain fails with.

    Each record makes its own random calls on its own stream: 2n uniforms
    (the x then the y values), 2(n - 2) side bits (x then y) and a
    permutation of the y increments.  The rest runs once for the block, on
    one column cut into a segment per record: the sorts are ``lexsort`` by
    (segment, key), the chaining a sequential ``cumsum`` along the rows of
    a zero-padded array, the placement a ``reduceat`` minimum; so each
    record's vertices have the bits it draws alone.
    """
    vals, bits, perms = [], [], []
    for n, gen in zip(ns, _streams(keys)):
        vals.append(gen.random(2 * n))
        bits.append(gen.integers(0, 2, size=2 * (n - 2)))
        perms.append(gen.permutation(n))
    count = np.array(ns)
    start = np.concatenate(([0], np.cumsum(count)))
    seg = np.arange(len(ns)).repeat(count)
    base, size = start[:-1][seg], count[seg]
    within = np.arange(len(seg)) - base
    # record j's x values, then its y values, from 2 start[j]: groups 2j and 2j + 1
    raw = np.concatenate(vals)
    s = raw[np.lexsort((raw, np.arange(2 * len(ns)).repeat(count.repeat(2))))]
    inc = _increments(s, np.concatenate(bits).astype(bool), np.concatenate(([0], np.cumsum(count.repeat(2)))))
    dx = inc[2 * base + within]
    dy = inc[2 * base + size + np.concatenate(perms)]
    order = np.lexsort((np.hypot(dx, dy), np.arctan2(dy, dx), seg))
    # vertex i of a record sums its first i increments in that order: a
    # cumsum along each row of a zero-padded array, as the record's own
    width = int(count.max())
    rows = np.zeros((len(ns), width, 2))
    summed = within < size - 1
    rows.reshape(-1, 2)[(seg * width + within + 1)[summed]] = np.column_stack((dx, dy))[order[summed]]
    verts = np.cumsum(rows, axis=1).reshape(-1, 2).take(seg * width + within, axis=0)
    low = np.column_stack((s[2 * start[:-1]], s[2 * start[:-1] + count]))
    verts += (low - np.minimum.reduceat(verts, start[:-1], axis=0))[seg]
    # each record starts at its lowest (then leftmost) vertex
    lowest = np.lexsort((verts[:, 0], verts[:, 1], seg))[start[:-1]] - start[:-1]
    return polygon_block(verts.take(base + (within + lowest[seg]) % size, axis=0), start)


def seeded_polygons(master_seed: int, start: int, stop: int, n_min: int,
                    n_max: int) -> tuple[list[int], list[int], list[ConvexPolygon]]:
    """Records start..stop-1 of a batch: (record seeds, vertex counts, drawn
    polygons).

    Record i's seed is mix(master_seed, i); its stream draws the vertex
    count uniformly from [n_min, n_max], then restarts to draw the Valtr
    polygon, and the block's polygons are drawn as one column.
    """
    seeds = [mix(master_seed, index) for index in range(start, stop)]
    ns = [int(gen.integers(n_min, n_max + 1)) for gen in _streams(seeds)]
    return seeds, ns, valtr(ns, seeds)


def seeded_polygon(master_seed: int, index: int, n_min: int,
                   n_max: int) -> tuple[int, int, ConvexPolygon]:
    """Record ``index`` of a batch, the block of one of ``seeded_polygons``:
    (record seed, vertex count, drawn polygon)."""
    (rec_seed,), (n,), (poly,) = seeded_polygons(master_seed, index, index + 1, n_min, n_max)
    return rec_seed, n, poly


def measured_block(block: tuple[int, int, int, int, int],
                   unit: str | None) -> tuple[list[int], list[int], Functionals]:
    """The records of a ``block`` (start, stop, seed, n_min, n_max) of
    ``blocks``: (record seeds, vertex counts, the block's record of columns
    with the Cheeger constant).

    The block is drawn and measured once, each as one column
    (``seeded_polygons``, then ``functionals.measure`` of the block); its
    record is then scaled so that the functional ``unit`` is 1
    (``Functionals.normalized``), or kept raw when ``unit`` is None.  A
    record's numbers do not depend on the block it lands in.
    """
    start, stop, master_seed, n_min, n_max = block
    seeds, ns, polys = seeded_polygons(master_seed, start, stop, n_min, n_max)
    record = measure(polys)
    return seeds, ns, record if unit is None else record.normalized(unit)


def blocks(count: int, seed: int, n_min: int, n_max: int,
           workers: int | None = None) -> list[tuple[int, int, int, int, int]]:
    """Contiguous [start, stop) blocks of a batch of ``count`` records, as
    (start, stop, seed, n_min, n_max): one per worker, but at most one per
    MIN_BLOCK records.  Raises ValueError unless 3 <= n_min <= n_max."""
    if not 3 <= n_min <= n_max:
        raise ValueError("need 3 <= n_min <= n_max")
    pool = max(1, min(workers or worker_count(count), count // MIN_BLOCK))
    edges = [count * k // pool for k in range(pool + 1)]
    return [(lo, hi, seed, n_min, n_max) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def worker_count(jobs: int) -> int:
    """Processes to run ``jobs`` items in: the usable cores, capped by
    CHEEGER_ATLAS_THREADS when it is set (it can only lower the count).
    Raises ValueError naming the variable unless it is a positive integer."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cap = os.environ.get("CHEEGER_ATLAS_THREADS")
    if cap:
        if not (cap.isdecimal() and int(cap) > 0):
            raise ValueError(f"CHEEGER_ATLAS_THREADS must be a positive integer, not {cap!r}")
        cores = min(cores, int(cap))
    return max(1, min(cores, jobs))


def parallel_map(fn, items: list) -> list:
    """Order-preserving map of ``fn`` over ``items`` (the blocks of
    ``blocks``) in one forked child per item; no item, or one, runs in this
    process.  Each child sends ``(ok, result or exception)`` pickled through
    its own pipe, and this process only reads the pipes, in item order: the
    first failing item's exception is raised as it is, and a pipe that ends
    without a result (its child died) raises ChildProcessError naming the
    block.  Every child is reaped before this returns or raises, and those
    not yet read are killed first."""
    if len(items) <= 1:
        return [fn(it) for it in items]
    pids, pipes = [], []
    try:
        for item in items:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, item, w)
                pids.append(pid)
            finally:
                os.close(w)
        results = []
        for k, pipe in enumerate(pipes):
            with pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"block {k} of {len(items)} ended without a result: its process died")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in zip(pids, pipes):
            if not pipe.closed:
                os.kill(pid, signal.SIGKILL)
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _child(fn, item, fd: int) -> None:
    """A forked child of ``parallel_map``: write ``(ok, fn(item) or its
    exception)`` pickled to ``fd`` and leave without returning to the
    caller's frames, so nothing of the parent runs or is flushed twice."""
    try:
        try:
            data = pickle.dumps((True, fn(item)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb", closefd=False) as out:
            out.write(data)
    finally:
        os._exit(0)


def sample_cloud(count: int, n_min: int, n_max: int, unit: str | None, seed: int,
                 workers: int | None = None) -> tuple[list[int], list[int], Functionals]:
    """``count`` random polygons measured as ``measured_block`` measures one
    block: (record seeds, vertex counts, one record of columns, scaled so
    that the functional ``unit`` is 1, or raw when ``unit`` is None).

    Vertex counts are uniform on [n_min, n_max]; record i uses the derived
    seed mix(seed, i), so output is order-independent and replayable.  The
    records are split into contiguous blocks as the census splits them
    (``blocks``), and the blocks' records are joined in block order.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    parts = blocks(count, seed, n_min, n_max, workers)
    if unit is not None and unit not in EXPONENT:
        raise ValueError(f"unknown unit {unit!r}")
    seeds, ns, records = zip(*parallel_map(lambda block: measured_block(block, unit), parts))
    return ([s for part in seeds for s in part], [n for part in ns for n in part],
            Functionals(*(np.concatenate([getattr(r, name) for r in records]) for name in FIELDS.values())))


def cloud_csv(cloud: tuple[list[int], list[int], Functionals], x_key: str, y_key: str) -> str:
    """Deterministic CSV of a ``sample_cloud``: index, seed, n, A, P, r, R,
    d, w, h, x, y, with x and y its functionals ``x_key`` and ``y_key``."""
    seeds, ns, record = cloud
    cols = [[format(v, ".17g") for v in record.value(k).tolist()] for k in (*FIELDS, x_key, y_key)]
    rows = [("index", "seed", "n", *FIELDS, "x", "y"), *zip(range(len(seeds)), seeds, ns, *cols)]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)
