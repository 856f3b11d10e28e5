#!/usr/bin/env python3
"""Squared distances, isotropic directions, bisectors, and determined lines.

Over F_p the squared Euclidean distance can vanish between distinct points
when -1 is a square; the isotropic lines collect exactly those pairs.  The
determined-lines report partitions pair-spanned lines into dyadic richness
classes and checks the exact pair-accounting identity.

The reports take a point set as point keys x*p + y with its modulus p, and
report points and lines as keys: divmod(key, p) gives a point back and
AffineLine.from_key a line.
"""

from incidencelab import (
    AffineLine,
    bisector_instance,
    determined_lines,
    distance_sets,
    isosceles_triples,
    isotropic_lines,
    minus_one_is_square,
)

for p in (5, 7, 13):
    iso = isotropic_lines(1 * p + 1, p)  # through the point (1, 1)
    tag = "two isotropic lines" if iso else "no isotropic lines"
    print(f"p = {p:2d}: -1 square? {minus_one_is_square(p)!s:5} -> {tag}"
          + (f": {AffineLine.from_key(iso[0], p)}, {AffineLine.from_key(iso[1], p)}" if iso else ""))

print()
p = 13
pts = [x * p + (x * x + 1) % p for x in range(6)]
rep = distance_sets(pts, p)
print(f"six points on a parabola over F_{p}:")
print("  distance set:", rep.distance_values.tolist())
print("  best pin:", divmod(rep.pin, p), "with", rep.max_pinned, "pinned distances")
print("  degenerate (all-zero):", rep.degenerate)
print("  isosceles triples:", isosceles_triples(pts, p))

print()
print("bisector family seen from the first point:")
for key in bisector_instance(pts, pts[0], p).tolist():
    print("  ", AffineLine.from_key(key, p))

print()
grid = [x * 7 + y for x in range(3) for y in range(3)]
beck = determined_lines(grid, 7)
print("3 x 3 grid over F_7 determines", beck.line_count, "lines")
print("dyadic classes:", {f"[2^{j}, 2^{j + 1})": size for j, size in beck.class_sizes.items()})
print("pair accounting:", beck.pair_total, "=", beck.expected_pairs, "= C(9, 2)")

print()
collinear = [k * 11 + 3 * k % 11 for k in range(8)]
beck = determined_lines(collinear, 11)
print(f"8 collinear points determine {beck.keys.size} line, {AffineLine.from_key(int(beck.keys[0]), 11)};",
      "class", beck.class_sizes)
