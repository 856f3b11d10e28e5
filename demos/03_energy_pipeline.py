#!/usr/bin/env python3
"""From line energy to point-plane incidences.

The energy of a scalar set A against a line family L counts six-tuples
(x, s, t, x', s', t') with xs + t = x's' + t'.  The same quantity is the
number of incidences between |A| n points and |A| n planes in three-space,
and it controls I(A x B, L) through the Cauchy-Schwarz inequality.

The line family is an Instance built from line keys (y = s x + t has the
key s*p + t) with no points; the energy functions read its lines and its
prime.
"""

from incidencelab import (
    Instance,
    count_point_plane,
    cs_bridge_check,
    energy_reduction,
    line_energy,
    make_modulus,
    max_collinear_3d,
)

p = 5
A = [0, 1]
lines = Instance(make_modulus(p), point_keys=(), line_keys=[0 * p + 0, 1 * p + 0])

print(f"A = {A}, lines y=0 and y=x over F_{p}")
e = line_energy(A, lines)
print("energy:", e.value)
print("value multiplicities:", dict(sorted(e.table.items())))

red = energy_reduction(A, lines)
print()
print(f"reduction: {red.r} points and {red.s} planes in F_{p}^3")
print("point-plane incidences:", count_point_plane(red), "(equals the energy)")
print("max collinear points:", max_collinear_3d(red.points, p))

print()
print("Cauchy-Schwarz bridge with B = {0, 1}:")
bridge = cs_bridge_check(A, [0, 1], lines)
print(f"  I(A x B, L) = {bridge.incidences}")
print(f"  I^2 = {bridge.incidences**2} <= |B| * E = {bridge.bound}: {bridge.holds}")

print()
print("a bigger random example:")
import random

rng = random.Random(11)
p = 101
A = sorted(rng.sample(range(p), 6))
lines = Instance(make_modulus(p), point_keys=(),
                 line_keys=[rng.randrange(p) * p + rng.randrange(p) for _ in range(25)])
e = line_energy(A, lines)
red = energy_reduction(A, lines)
print(f"  |A| = {len(A)}, n = {lines.n}, energy = {e.value}")
print(f"  point-plane count = {count_point_plane(red)} (must match)")
bridge = cs_bridge_check(A, sorted(rng.sample(range(p), 9)), lines)
print(f"  bridge: I = {bridge.incidences}, I^2 <= |B| E: {bridge.holds}")
