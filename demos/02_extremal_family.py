#!/usr/bin/env python3
"""The tight grid-and-lines family.

The construction places 2a^2c points on a narrow grid and ac^2 lines so
that every line carries exactly a points.  Its incidence count a^2 c^2
meets the Cartesian-product upper bound a^(3/4) b^(1/2) n^(3/4) up to the
constant 2^(-1/2), which the exact counts reproduce to machine precision.
"""

from incidencelab import check_hypotheses, count_incidences, elekes_construction, richness_histograms

p = 1009
print(f"family over F_{p}:")
print(f"{'a':>3} {'c':>3} {'m':>6} {'n':>5} {'I':>7} {'I = a^2c^2':>11} {'tightness':>10}")
for a in (2, 3, 5, 8):
    for c in (1, 2, 4):
        inst = elekes_construction(a, c, p)
        count = count_incidences(inst)
        ratio = count / (a**0.75 * (2 * a * c) ** 0.5 * (a * c * c) ** 0.75)
        print(f"{a:>3} {c:>3} {inst.m:>6} {inst.n:>5} {count:>7} "
              f"{str(count == a * a * c * c):>11} {ratio:>10.7f}")

print()
print("2^(-1/2) =", 2**-0.5)

print()
print("every line carries exactly a points (a=4, c=3):")
hist = richness_histograms(elekes_construction(4, 3, p))
print("distinct line richness values:", sorted(set(hist.per_line.tolist())))

print()
print("hypothesis check for the Cartesian-product bound (a=2, c=2, p=31):")
report = check_hypotheses("1.3", a=2, b=8, n=8, p=31)
for cond in report.conditions:
    print(f"  {cond.name:<18} lhs={cond.lhs:<12.6g} rhs={cond.rhs:<12.6g} {'ok' if cond.passed else 'FAIL'}")
print("  overall:", "pass" if report.passed else "fail")
