"""Blaschke-Santalo diagrams: boundary curves, clouds, SVG output.

Emits the three solved diagrams (P,h,r), (R,h,r), (d,h,r) with sampled
clouds squeezed between their boundary curves, plus one partially solved
width diagram where the region between the proven pieces is genuinely
unknown.  Outputs land in demos/out/.
"""

import os

from cheeger_atlas.diagrams import (DIAGRAM_IDS, SOLVED, DiagramPoint, DiagramSpec, boundary,
                                    membership, render)
from cheeger_atlas.sampler import sample_cloud

OUT = os.path.join(os.path.dirname(__file__), "out")


def _points(did, count, seed):
    """A sampled cloud as the diagram's points: one record of columns,
    scaled to the diagram's unit, read at its x and y functionals."""
    x_key, y_key, unit, _ = DIAGRAM_IDS[did]
    seeds, _, record = sample_cloud(count, 3, 30, unit, seed=seed)
    return [DiagramPoint(x, y, f"seed:{s}")
            for x, y, s in zip(record.value(x_key).tolist(), record.value(y_key).tolist(), seeds)]


def main():
    os.makedirs(OUT, exist_ok=True)
    for did in SOLVED:
        spec = DiagramSpec(did, grid=256)
        lower, upper = boundary(spec)
        # (x, y, unit) of the diagram: each record is scaled to the unit
        cloud = _points(did, 400, seed=17)
        inside = sum(membership(did, p.x, p.y) == "inside" for p in cloud)
        path = os.path.join(OUT, f"{did.lower()}.svg")
        render(cloud, [lower, upper], "svg", path)
        print(f"{did}: {inside}/{len(cloud)} sampled points inside -> {path}")

    # a partially solved diagram: proven pieces only
    spec = DiagramSpec("HWD", grid=256)
    lower, upper = boundary(spec)
    cloud = _points("HWD", 300, seed=23)
    verdicts = {v: 0 for v in ("inside", "outside", "unknown")}
    for p in cloud:
        verdicts[membership("HWD", p.x, p.y)] += 1
    path = os.path.join(OUT, "hwd.svg")
    render(cloud, [lower, upper], "svg", path)
    print(f"HWD (partial): verdicts {verdicts} -> {path}")
    print("(between the proven pieces the answer is 'unknown' by design)")


if __name__ == "__main__":
    main()
