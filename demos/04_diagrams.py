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


def main():
    os.makedirs(OUT, exist_ok=True)
    for did in SOLVED:
        spec = DiagramSpec(did, grid=256)
        lower, upper = boundary(spec)
        # (x, y, unit) of the diagram: each record is scaled to the unit
        records = sample_cloud(400, 3, 30, DIAGRAM_IDS[did][:3], seed=17)
        cloud = [DiagramPoint(r.x, r.y, f"seed:{r.seed}") for r in records]
        inside = sum(membership(did, p.x, p.y) == "inside" for p in cloud)
        path = os.path.join(OUT, f"{did.lower()}.svg")
        render(cloud, [lower, upper], "svg", path)
        print(f"{did}: {inside}/{len(cloud)} sampled points inside -> {path}")

    # a partially solved diagram: proven pieces only
    spec = DiagramSpec("HWD", grid=256)
    lower, upper = boundary(spec)
    records = sample_cloud(300, 3, 30, DIAGRAM_IDS["HWD"][:3], seed=23)
    cloud = [DiagramPoint(r.x, r.y, f"seed:{r.seed}") for r in records]
    verdicts = {v: 0 for v in ("inside", "outside", "unknown")}
    for p in cloud:
        verdicts[membership("HWD", p.x, p.y)] += 1
    path = os.path.join(OUT, "hwd.svg")
    render(cloud, [lower, upper], "svg", path)
    print(f"HWD (partial): verdicts {verdicts} -> {path}")
    print("(between the proven pieces the answer is 'unknown' by design)")


if __name__ == "__main__":
    main()
