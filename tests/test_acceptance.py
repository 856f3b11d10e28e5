"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import dataclasses
import math
import time
from fractions import Fraction
from itertools import combinations

from conftest import distance, keyed, line_to_infinity, random_instances, vertical_free
from incidencelab.bounds import check_hypotheses, within_combinatorial_bound
from incidencelab.constructions import (
    SeededStream,
    elekes_construction,
    full_plane,
    random_instance,
)
from incidencelab.cover import CoverStep, grid_cover, verify_certificate
from incidencelab.distances import determined_lines, distance_sets, isosceles_triples
from incidencelab.energy import arithmetic_image, count_point_plane, cs_bridge_check, energy_reduction, line_energy
from incidencelab.field import is_prime, make_modulus
from incidencelab.harness import SweepConfig, fit_exponent, run_sweep
from incidencelab.incidence import count_incidences, kernel_backend
from incidencelab.plane import (
    AffineLine,
    AffinePoint,
    Instance,
    ProjMap,
    apply_map,
    dualize,
    incident,
    line_through,
)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] acceptance {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_acceptance_1_engine_equivalence():
    start = time.perf_counter()
    instances = random_instances(110, seed=1001)
    mismatches = 0
    for inst in instances:
        if count_incidences(inst, "naive") != count_incidences(inst, "hash_join"):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(1, "naive and hash_join agree on 110 seeded random instances",
            mismatches == 0 and elapsed < 10.0,
            f"mismatches={mismatches}, {elapsed:.2f}s < 10s")


def test_acceptance_2_elekes_tightness():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for a in range(2, 9):
        for c in range(1, 5):
            inst = elekes_construction(a, c, 1009)
            count = count_incidences(inst)
            ok &= count == a * a * c * c
            ratio = count / (a**0.75 * (2 * a * c) ** 0.5 * (a * c * c) ** 0.75)
            worst = max(worst, abs(ratio - 2**-0.5))
    elapsed = time.perf_counter() - start
    _report(2, "grid family counts are exactly a^2 c^2 with tightness ratio 2^(-1/2)",
            ok and worst <= 1e-9 and elapsed < 1.0,
            f"max ratio error {worst:.2e}, {elapsed:.2f}s < 1s")


def test_acceptance_3_full_plane_law_and_flagging():
    start = time.perf_counter()
    law_ok = all(count_incidences(full_plane(p)) == p * p * (p + 1) for p in (3, 5, 7, 11, 13))
    flag_ok = True
    for p in (5, 7, 11, 13):
        report = check_hypotheses("1.2", m=p * p, n=p * p + p, p=p)
        char_cond = next(c for c in report.conditions if c.name == "m^(-2) n^13 << p^15")
        flag_ok &= not char_cond.passed
    elapsed = time.perf_counter() - start
    _report(3, "full-plane law p^2(p+1) and characteristic-condition flagging",
            law_ok and flag_ok and elapsed < 5.0, f"{elapsed:.2f}s < 5s")


def _brute_energy(A, duals, p):
    items = [(x, s, t) for x in A for s, t in duals]
    return sum(
        1 for (x, s, t) in items for (x2, s2, t2) in items
        if (x * s + t) % p == (x2 * s2 + t2) % p
    )


def test_acceptance_4_energy_pipeline():
    start = time.perf_counter()
    stream = SeededStream(4004)
    ok = True
    runs = 0
    while runs < 50:
        p = (5, 7, 11, 13, 17, 101)[stream.below(6)]
        a = 1 + stream.below(8)
        n = 1 + stream.below(max(1, 200 // a))
        if a * n > 200:
            continue
        A = sorted({stream.below(p) for _ in range(a)})
        lines = {AffineLine(stream.below(p), stream.below(p), p) for _ in range(n)}
        duals = sorted({(l.slope, l.intercept) for l in lines})
        family = keyed(make_modulus(p), lines=lines)
        e = line_energy(A, family)
        ok &= e.value == _brute_energy(A, duals, p)
        ok &= e.value == count_point_plane(energy_reduction(A, family))
        B = sorted({stream.below(p) for _ in range(1 + stream.below(8))})
        bridge = cs_bridge_check(A, B, family)
        ok &= bridge.holds and bridge.incidences**2 <= len(B) * e.value
        runs += 1
    elapsed = time.perf_counter() - start
    _report(4, "energy equals sextuple count equals point-plane count; bridge holds",
            ok and elapsed < 30.0, f"{runs} runs, {elapsed:.2f}s < 30s")


def test_acceptance_5_cover_certification():
    start = time.perf_counter()
    inst = full_plane(5)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    grid = cert.steps[0].grid
    shape_ok = (
        (grid.apex1, grid.apex2) == (0, 1)  # the keys of (0, 0) and (0, 1)
        and len(grid.points) == 20
        and len(cert.leftover) == 5
        and verify_certificate(inst, cert).passed
    )
    # corruption 1: duplicated grid -> overlap detected
    doubled = dataclasses.replace(cert, steps=(cert.steps[0], cert.steps[0]))
    overlap_found = "grids-overlap" in verify_certificate(inst, doubled).codes()
    # corruption 2: a grid point on the apex line -> contact detected
    bad_point = 3  # the key of (0, 3)
    bad_grid = dataclasses.replace(grid, points=grid.points + (bad_point,))
    step = cert.steps[0]
    bad_cert = dataclasses.replace(
        cert,
        steps=(CoverStep(bad_grid, step.input_size, step.preconditions, step.size_bound),),
        leftover=tuple(q for q in cert.leftover if q != bad_point),
    )
    contact_found = "apex-line-contact" in verify_certificate(inst, bad_cert).codes()
    elapsed = time.perf_counter() - start
    _report(5, "cover certificate on the full plane over F_5 with both corruptions detected",
            shape_ok and overlap_found and contact_found and elapsed < 1.0,
            f"{elapsed:.2f}s < 1s")


def _random_invertible(p, stream):
    while True:
        rows = tuple(tuple(stream.below(p) for _ in range(3)) for _ in range(3))
        try:
            return ProjMap(rows, p)
        except ValueError:
            continue


def test_acceptance_6_projective_invariance_and_duality():
    stream = SeededStream(6006)
    ok = True
    for inst in random_instances(55, seed=6006, max_m=80, max_n=80):
        inst = vertical_free(inst)
        # projective invariance on the elements that stay affine
        M = _random_invertible(inst.p, stream)
        bad_line = line_to_infinity(M)  # None for an affine map
        restricted = keyed(
            inst.modulus,
            [q for q in inst.points if bad_line is None or not incident(q, bad_line)],
            [l for l in inst.lines if l != bad_line],
        )
        mapped = apply_map(M, restricted)
        ok &= count_incidences(mapped) == count_incidences(restricted)
        # duality preserves counts and is an involution
        dual = dualize(inst)
        ok &= count_incidences(dual) == count_incidences(inst)
        ok &= dualize(dual) == inst
    _report(6, "counts invariant under 55 random projective maps and duality; dual is involutive", ok)


def _brute_distance_sets(pts):
    pinned = {q: {distance(q, r) for r in pts} for q in pts}
    return set().union(*pinned.values()), pinned


def _brute_isosceles(pts):
    return sum(
        1 for q in pts for r in pts for s in pts
        if r != s and distance(q, r) == distance(q, s) != 0
    )


def _brute_determined(pts):
    lines = {}
    for q, r in combinations(pts, 2):
        line = line_through(q, r)
        lines[line] = sum(1 for t in pts if incident(t, line))
    return lines


def test_acceptance_7_application_oracles():
    start = time.perf_counter()
    stream = SeededStream(7007)
    ok = True
    # arithmetic images against independent enumeration
    for _ in range(30):
        p = (7, 11, 13, 101)[stream.below(4)]
        A = sorted({stream.below(p) for _ in range(1 + stream.below(8))})
        B = sorted({stream.below(p) for _ in range(1 + stream.below(8))})
        C = sorted({stream.below(p) for _ in range(1 + stream.below(8))})
        ok &= arithmetic_image("A+A", p, A=A) == {(u + v) % p for u in A for v in A}
        ok &= arithmetic_image("A*A", p, A=A) == {u * v % p for u in A for v in A}
        ok &= arithmetic_image("A*(A+1)", p, A=A) == {u * (v + 1) % p for u in A for v in A}
        ok &= arithmetic_image("A+B*C", p, A=A, B=B, C=C) == {(u + v * w) % p for u in A for v in B for w in C}
        ok &= arithmetic_image("A*(B+C)", p, A=A, B=B, C=C) == {u * (v + w) % p for u in A for v in B for w in C}
        ok &= arithmetic_image("x^2+xy", p, A=A, B=B) == {(u * u + u * v) % p for u in A for v in B}
    # geometry reports against brute force on point sets with m <= 40
    for _ in range(30):
        p = (7, 11, 13)[stream.below(3)]
        pts = sorted({AffinePoint(stream.below(p), stream.below(p), p)
                      for _ in range(2 + stream.below(39))})[:40]
        keys = [q.x * p + q.y for q in pts]
        rep = distance_sets(keys, p)
        full, pinned = _brute_distance_sets(pts)
        best = max(len(v) for v in pinned.values())
        pin = next(q for q in pts if len(pinned[q]) == best)
        ok &= rep.distance_values.tolist() == sorted(full)
        ok &= (rep.pin, rep.max_pinned) == (pin.x * p + pin.y, best)
        ok &= isosceles_triples(keys, p) == _brute_isosceles(pts)
        if len(pts) >= 2:
            beck = determined_lines(keys, p)
            oracle = _brute_determined(pts)
            ok &= beck.keys.tolist() == sorted(line.key() for line in oracle)
            ok &= beck.pair_total == len(pts) * (len(pts) - 1) // 2
            ok &= sum(k * (k - 1) // 2 for k in oracle.values()) == beck.pair_total
    grid = [x * 7 + y for x in range(3) for y in range(3)]
    beck = determined_lines(grid, 7)
    ok &= beck.keys.size == 20 and beck.pair_total == beck.expected_pairs == 36
    elapsed = time.perf_counter() - start
    _report(7, "application reports match exhaustive small-instance oracles",
            ok and elapsed < 60.0, f"{elapsed:.2f}s < 60s")


def test_acceptance_8_ratio_reporting_sanity():
    start = time.perf_counter()
    config = SweepConfig.from_dict({
        "seed": 8008,
        "families": [
            {"family": "random", "p": [65521, 65537, 65539],
             "sizes": [64, 128, 256, 512, 1024, 2048, 4096]},
        ],
    })
    records = run_sweep(config)
    ok = len(records) == 21
    for rec in records:
        ok &= rec.get("error") is None
        ratio = rec["I"] / rec["m"] ** (22 / 15)
        ok &= math.isfinite(ratio) and math.isfinite(rec["ratio_main"])
        ok &= within_combinatorial_bound(rec["I"], rec["m"], rec["n"])
    fit_records = run_sweep(SweepConfig.from_dict({
        "families": [{"family": "full_plane", "p": [29, 31, 37, 41, 43]}],
    }))
    fit = fit_exponent(fit_records, "m", "I")
    ok &= 1.48 <= fit.slope <= 1.52
    elapsed = time.perf_counter() - start
    _report(8, "sweep ratios finite and within the unconditional bound; slope 1.5 +/- 0.02",
            ok and elapsed < 120.0, f"slope {fit.slope:.4f}, {elapsed:.1f}s < 120s")


def test_acceptance_9_performance_floor():
    p = 1048573  # prime adjacent to 2^20
    assert is_prime(p)
    build_start = time.perf_counter()
    inst = random_instance(p, 100_000, 100_000, seed=20240809)
    build = time.perf_counter() - build_start
    start = time.perf_counter()
    count, stats = count_incidences(inst, "hash_join", stats=True)
    elapsed = time.perf_counter() - start
    # spot check: the two engines agree on a 1000 x 1000 restriction
    sub = Instance(inst.modulus, point_keys=inst.point_keys[:1000], line_keys=inst.line_keys[:1000])
    sub_naive = count_incidences(sub, "naive")
    sub_hash = count_incidences(sub, "hash_join")
    backend, reason = kernel_backend()
    if reason:
        backend += f" ({reason})"
    probes = " ".join(f"{path}={n}" for path, n in stats.probes.items() if n)
    phases = " ".join(f"{phase} {t:.3f}s" for phase, t in stats.seconds.items())
    _report(9, "hash_join counts m = n = 10^5 over p ~ 2^20 within 5 s",
            elapsed <= 5.0 and sub_naive == sub_hash,
            f"count={count}, {elapsed:.2f}s, build {build:.2f}s, "
            f"subsample naive={sub_naive} hash={sub_hash}, backend {backend}, "
            f"{stats.side} side, probes {probes}, {phases}")
