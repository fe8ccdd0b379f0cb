"""Blaschke-Santalo diagrams: boundary curves, clouds, SVG output.

Emits the three solved diagrams (P,h,r), (R,h,r), (d,h,r) with sampled
clouds squeezed between their boundary curves, plus one partially solved
width diagram where the region between the proven pieces is genuinely
unknown.  Outputs land in demos/out/.
"""

import os

from cheeger_atlas.diagrams import DIAGRAM_IDS, boundary, membership, render
from cheeger_atlas.sampler import sample_cloud

OUT = os.path.join(os.path.dirname(__file__), "out")


def _cloud(did, count, seed):
    """A sampled cloud as the diagram's columns: one record, scaled to the
    diagram's unit, read at its x and y functionals, and each point's seed."""
    row = DIAGRAM_IDS[did]
    seeds, _, record = sample_cloud(count, 3, 30, row.unit, seed=seed)
    return record.value(row.x), record.value(row.y), [f"seed:{s}" for s in seeds]


def _verdicts(did, x, y):
    """How many points of the columns x, y membership puts in each class."""
    verdicts = {v: 0 for v in ("inside", "outside", "unknown")}
    for px, py in zip(x.tolist(), y.tolist()):
        verdicts[membership(did, px, py)] += 1
    return verdicts


def main():
    os.makedirs(OUT, exist_ok=True)
    for did, row in DIAGRAM_IDS.items():
        if not row.solved:
            continue
        lower, upper = boundary(did, grid=256)
        # (x, y, unit) of the diagram: each record is scaled to the unit
        x, y, labels = _cloud(did, 400, seed=17)
        path = os.path.join(OUT, f"{did.lower()}.svg")
        render(x, y, labels, [lower, upper], "svg", path)
        print(f"{did}: {_verdicts(did, x, y)['inside']}/{len(x)} sampled points inside -> {path}")

    # a partially solved diagram: proven pieces only
    lower, upper = boundary("HWD", grid=256)
    x, y, labels = _cloud("HWD", 300, seed=23)
    path = os.path.join(OUT, "hwd.svg")
    render(x, y, labels, [lower, upper], "svg", path)
    print(f"HWD (partial): verdicts {_verdicts('HWD', x, y)} -> {path}")
    print("(between the proven pieces the answer is 'unknown' by design)")


if __name__ == "__main__":
    main()
