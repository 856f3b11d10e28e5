#!/usr/bin/env python3
"""Counting point-line incidences exactly, three ways.

Builds a few instances over small prime fields, counts incidences with the
naive and hash-join engines, and compares the exact counts against the
standard comparator bounds.
"""

from incidencelab import (
    count_incidences,
    full_plane,
    random_instance,
    reference_bound,
    richness_histograms,
    within_combinatorial_bound,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Full affine planes")
for p in (3, 5, 7, 11):
    inst = full_plane(p)
    count = count_incidences(inst)
    print(f"p={p:3d}: m={inst.m:4d} points, n={inst.n:4d} lines, "
          f"I={count:6d}  (= p^2 (p+1) = {p * p * (p + 1)})")

show("Engine agreement on a random instance")
inst = random_instance(101, 400, 350, seed=7)
for engine in ("naive", "hash_join", "auto"):
    print(f"{engine:>9}: {count_incidences(inst, engine)}")

show("Richness of the full plane over F_5")
hist = richness_histograms(full_plane(5))
print("lines through each point:", sorted(set(hist.per_point.tolist())))
print("points on each line:     ", sorted(set(hist.per_line.tolist())))
print("total incidences:        ", hist.total)

show("Comparator bounds for the random instance")
count = count_incidences(inst)
for which in ("table1", "combinatorial", "vinh"):
    label, value = reference_bound(inst.m, inst.n, inst.p, which)
    print(f"{which:>13}: {value:12.1f}   [{label}]")
print(f"exact count {count} within the unconditional bound:",
      within_combinatorial_bound(count, inst.m, inst.n))
