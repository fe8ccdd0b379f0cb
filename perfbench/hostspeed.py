"""A fixed reference computation that measures how fast the shared host runs.

The benchmark's times swing by up to 1.5x over spells of tens of seconds to
minutes while other tenants load the host, and a best-of-N inside one run
cannot remove a spell that lasts the whole run.  The reference is timed next
to every measured chunk, under the same conditions; the ratio of its best
time in a run to ``CALM_S`` is how much the host slowed the run down, and
the benchmark divides its times by that ratio.

The reference uses only Python, NumPy and SciPy, never ``cheeger_atlas``, so
a change to the package cannot move it.  Its mix follows the census
profile: an interpreted loop, small-array NumPy calls and a small linear
programme (the inradius LP is a fifth of a census record).  On a 2-core Xeon
VM, over 200 s of back-to-back census passes, the best-of-4 census time per
15 s window varied with a coefficient of variation of 0.138, and its ratio
to the reference's best-of-4 timed alongside by 0.032.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import linprog

# best time of one reference_s() on a calm 2-core Xeon VM; a unit, not a target
CALM_S = 0.012

_A = np.random.default_rng(0).normal(size=(30, 3))
_B = np.ones(30)
_X = np.linspace(0.0, 1.0, 64)


def reference_s(runs: int = 1) -> float:
    """Best seconds of ``runs`` back-to-back runs of the fixed reference computation."""
    return min(_once() for _ in range(runs))


def _once() -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(40000):
        s += math.sqrt(i) * (i % 7)
    for i in range(600):
        s += float(np.sum(np.cumsum(_X * i)))
    for _ in range(4):
        linprog([0.0, 0.0, -1.0], A_ub=_A, b_ub=_B, bounds=[(None, None)] * 3)
    return time.perf_counter() - t0
