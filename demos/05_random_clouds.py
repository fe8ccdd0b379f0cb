"""Unbiased random convex polygons and reproducible batch clouds.

Valtr's construction draws polygons with exactly n vertices in convex
position inside the unit square, with no rejection loop.  Each batch
record derives its own seed from the master seed, so runs replay
byte-for-byte and parallelize order-independently.
"""

import os
import time

import numpy as np

from cheeger_atlas.functionals import measure
from cheeger_atlas.sampler import cloud_csv, mix, sample_cloud, valtr

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    os.makedirs(OUT, exist_ok=True)

    print("-- one polygon, fully determined by (n, seed) --")
    poly = valtr(8, 42)
    print(np.array_str(poly.vertices, precision=5))
    f = measure(poly)
    print(f"A={f.area:.5f} P={f.perimeter:.5f} d={f.diameter:.5f} (inside [0,1]^2)")

    print("\n-- per-record seed derivation --")
    for i in range(4):
        print(f"  record {i}: seed = mix(7, {i}) = {mix(7, i)}")

    print("\n-- a reproducible cloud --")
    t0 = time.time()
    # (record seeds, vertex counts, one record of columns), each record at area 1
    cloud = sample_cloud(300, 3, 30, "A", seed=7)
    text = cloud_csv(cloud, "P", "h")
    path = os.path.join(OUT, "cloud_pha.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    again = cloud_csv(sample_cloud(300, 3, 30, "A", seed=7), "P", "h")
    print(f"300 records in {time.time() - t0:.1f}s -> {path}")
    print(f"byte-identical on replay: {text == again}")
    print("first rows:")
    for line in text.splitlines()[:3]:
        print(" ", line[:100])


if __name__ == "__main__":
    main()
