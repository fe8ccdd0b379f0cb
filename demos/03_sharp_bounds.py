"""Every sharp bound at once: the registry, its equality cases, and the
two computed constants dstar and d0.

The registry maps records of (A, P, r, R, d, w, h) to every known lower
and upper bound on h, with per-bound applicability conditions, as arrays
of bound ids by records (value, slack and a status code); ``results()``
reads them one bound and record at a time.  A negative slack would be a
counterexample to a theorem; extremal shapes drive their inequality's
slack to zero.
"""

from cheeger_atlas.bounds import d0, dstar, evaluate_all, registry_csv
from cheeger_atlas.functionals import measure
from cheeger_atlas.sampler import valtr
from cheeger_atlas.shapes import Stadium, TwoCup, closed_form


def print_registry(f, label):
    print(f"\n-- {label} (h = {f.cheeger:.9f}) --")
    print(f"{'bound':18s} {'dir':5s} {'value':>14s} {'slack':>12s}")
    for r in evaluate_all(f).results():  # a column of one record
        if r.status != "ok":
            print(f"{r.id:18s} {r.direction:5s} {r.status:>14s}")
        else:
            print(f"{r.id:18s} {r.direction:5s} {r.value:14.8f} {r.slack:12.2e}")


def main():
    print(f"dstar (nonagon/slice switch of the area bound) = {dstar():.7f}")
    print(f"d0 (nonagon/slice switch of the (d,h,r) minimizer) = {d0(1024):.7f}")

    # a random polygon: every bound holds with positive slack
    print_registry(measure(valtr(12, 2024)).normalized("A"), "random unit-area 12-gon")

    # a stadium: the stadium-extremal bounds are tight
    print_registry(closed_form(Stadium(1.0, 2.0)), "stadium r=1 gap=2 (exact)")

    # a two-cup: tight on the d/r and R/r upper bounds
    print_registry(closed_form(TwoCup(1.0, 2.0)), "two-cup r=1 k=2 (exact)")

    # CSV export of the same table
    text = registry_csv(closed_form(Stadium(1.0, 2.0)))
    print("\nCSV head:")
    for line in text.splitlines()[:5]:
        print(" ", line)


if __name__ == "__main__":
    main()
