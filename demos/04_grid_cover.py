#!/usr/bin/env python3
"""Covering a point set with two-pencil grids.

The covering loop splits points by richness, repeatedly extracts a grid
covered by two small pencils, normalizes each grid into a Cartesian product
by a projective map, and emits a certificate that the verifier re-checks
from the instance alone.  Corrupting the certificate is detected.

The certificate records points as keys x*p + y and lines as
AffineLine.key(); the demo decodes them with divmod.
"""

import dataclasses
from fractions import Fraction

from incidencelab import (
    Instance,
    count_incidences,
    full_plane,
    grid_cover,
    line_through,
    normalize_grid,
    richness_partition,
    verify_certificate,
)

inst = full_plane(5)
p = inst.p
c1, c2, stop = Fraction(1, 2), Fraction(2), Fraction(1, 4)

part = richness_partition(inst, c1, c2)
print(f"full plane over F_5: mean richness K = {part.mean_richness}")
print(f"low/high/regular points: {len(part.low)}/{len(part.high)}/{len(part.regular)}")

cert = grid_cover(inst, c1, c2, stop)
print()
print(f"cover ran {len(cert.steps)} step(s); leftover {len(cert.leftover)} points")
for i, step in enumerate(cert.steps):
    g = step.grid
    print(f"  step {i}: apexes {divmod(g.apex1, p)}, {divmod(g.apex2, p)}; grid size {len(g.points)}; "
          f"pencils {len(g.pencil1)} x {len(g.pencil2)} lines")
    print(f"          preconditions: {dict(step.preconditions)}")
print("leftover column:", [divmod(key, p) for key in cert.leftover])

report = verify_certificate(inst, cert)
print("certificate verifies:", report.passed)

print()
grid = cert.steps[0].grid
norm = normalize_grid(grid, inst)
print(f"normalized grid sits inside a {len(norm.xs)} x {len(norm.ys)} Cartesian product")
apex_line = line_through(grid.apex1, grid.apex2, p)
before = Instance(inst.modulus, point_keys=grid.points, line_keys=inst.line_keys[inst.line_keys != apex_line])
print("incidences before/after the projective map:",
      count_incidences(before), "/", count_incidences(norm.image))

print()
print("tampering with the certificate:")
doubled = dataclasses.replace(cert, steps=(cert.steps[0], cert.steps[0]))
bad = verify_certificate(inst, doubled)
print("  duplicated grid ->", ", ".join(sorted(bad.codes())))
