import tracemalloc
from collections import Counter
from itertools import combinations
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import distance, each_backend, incident, join_points, pinned_sets, residues
from incidencelab import distances, plane
from incidencelab import incidence as inc
from incidencelab.constructions import SeededStream
from incidencelab.distances import (
    bisector_instance,
    determined_lines,
    distance_sets,
    isosceles_triples,
    isotropic_lines,
)
from incidencelab.errors import (
    CompositeModulusError,
    EmptyInputError,
    InvalidParameterError,
    ModulusMismatchError,
    TooFewPointsError,
)
from incidencelab.field import inv_mod, make_modulus, minus_one_is_square, sqrt_mod
from incidencelab.plane import AffineLine, AffinePoint, Instance, line_keys, pair_blocks


def P(coords, p):
    return [AffinePoint(x, y, p) for x, y in coords]


def keys(pts):
    """The point keys x*p + y of the points, the form the reports take."""
    return [q.x * q.p + q.y for q in pts]


def K(coords, p):
    return keys(P(coords, p))


def test_distance_examples():
    assert distance(AffinePoint(0, 0, 5), AffinePoint(1, 2, 5)) == 0
    assert distance(AffinePoint(0, 0, 7), AffinePoint(1, 0, 7)) == 1
    with pytest.raises(ModulusMismatchError):
        distance(AffinePoint(0, 0, 5), AffinePoint(0, 0, 7))


def test_distance_symmetry_random():
    stream = SeededStream(606)
    for _ in range(100):
        p = (5, 7, 13)[stream.below(3)]
        q = AffinePoint(stream.below(p), stream.below(p), p)
        r = AffinePoint(stream.below(p), stream.below(p), p)
        assert distance(q, r) == distance(r, q)


def test_distance_sets_examples():
    rep = distance_sets(K([(0, 0), (1, 0), (0, 1)], 7), 7)
    assert rep.distance_values.tolist() == [0, 1, 2]
    line = K([(0, 0), (1, 0), (3, 0)], 7)
    rep = distance_sets(line, 7)
    # each pinned set has three distances, {0, 1, 2} at the origin
    assert pinned_sets(line, 7) == {0: [0, 1, 2], 7: [0, 1, 4], 21: [0, 2, 4]}
    assert rep.max_pinned == 3
    # the pin is a point key, as a Python int
    assert type(rep.pin) is int and rep.pin == 0
    # a subset of one isotropic line is degenerate: all distances vanish
    iso = K([(0, 0), (1, 2), (2, 4)], 5)  # on y = 2x with 2^2 = -1 mod 5
    rep = distance_sets(iso, 5)
    assert rep.distance_values.tolist() == [0]
    assert rep.degenerate


def test_distance_sets_translation_invariance():
    stream = SeededStream(8080)
    for _ in range(20):
        p = (7, 11, 13)[stream.below(3)]
        pts = [AffinePoint(stream.below(p), stream.below(p), p) for _ in range(6)]
        dx, dy = stream.below(p), stream.below(p)
        moved = [AffinePoint(q.x + dx, q.y + dy, p) for q in pts]
        a, b = distance_sets(keys(pts), p), distance_sets(keys(moved), p)
        assert a.distance_values.tolist() == b.distance_values.tolist()
        assert (a.max_pinned, a.isosceles_triples) == (b.max_pinned, b.isosceles_triples)


def test_distance_zero_iff_equal_when_minus_one_nonresidue():
    p = 7
    assert not minus_one_is_square(p)
    pts = [AffinePoint(x, y, p) for x in range(p) for y in range(p)]
    for q in pts[:7]:
        for r in pts:
            assert (distance(q, r) == 0) == (q == r)


def test_isotropic_pairs_have_zero_distance():
    p = 13
    pair = isotropic_lines(1 * p + 1, p)  # through (1, 1)
    assert pair == (AffineLine(5, 9, p).key(), AffineLine(8, 6, p).key())
    for line in (AffineLine.from_key(key, p) for key in pair):
        on_line = [AffinePoint(x, (line.slope * x + line.intercept) % p, p) for x in range(p)]
        for q, r in combinations(on_line, 2):
            assert distance(q, r) == 0


def test_isotropic_lines_examples():
    assert isotropic_lines(0, 5) == (AffineLine(2, 0, 5).key(), AffineLine(3, 0, 5).key())
    assert isotropic_lines(0, 7) is None


def test_bisector_examples():
    pts = K([(0, 0), (2, 0), (1, 1)], 7)
    lines = bisector_instance(pts, pts[0], 7)
    assert lines.tolist() == [AffineLine(6, 1, 7).key(), AffineLine(None, 1, 7).key()]
    # isotropic partner contributes nothing
    pts5 = K([(0, 0), (1, 2)], 5)
    assert bisector_instance(pts5, pts5[0], 5).size == 0


POINT_SET_CALLS = {
    "distance_sets": distance_sets,
    "isosceles_triples": isosceles_triples,
    "determined_lines": determined_lines,
    "bisector_instance": lambda pts, p: bisector_instance(pts, 0, p),
}


@pytest.mark.parametrize("call", POINT_SET_CALLS.values(), ids=POINT_SET_CALLS.keys())
def test_point_set_reports_reject_mixed_and_composite_moduli(call):
    # keys carry no modulus: the key 27 of (3, 6) over F_7 lies outside the
    # point keys [0, 25) of F_5, and so does a negative key
    with pytest.raises(InvalidParameterError):
        call(K([(0, 0), (1, 2)], 5) + K([(3, 6)], 7), 5)
    with pytest.raises(InvalidParameterError):
        call([0, 7, -1], 5)
    with pytest.raises(CompositeModulusError):
        call(K([(0, 0), (1, 2), (2, 5)], 9), 9)


def test_point_set_reports_on_no_points():
    with pytest.raises(EmptyInputError):
        distance_sets([], 7)
    with pytest.raises(TooFewPointsError):
        determined_lines([], 7)
    assert isosceles_triples([], 7) == 0
    assert bisector_instance([], 0, 7).size == 0


def test_bisector_points_are_equidistant():
    # every point on a bisector line is genuinely equidistant from the pair
    stream = SeededStream(444)
    for _ in range(50):
        p = (7, 11, 13)[stream.below(3)]
        r = AffinePoint(stream.below(p), stream.below(p), p)
        s = AffinePoint(stream.below(p), stream.below(p), p)
        if s == r or distance(r, s) == 0:
            continue
        lines = bisector_instance(keys([r, s]), r.x * p + r.y, p)
        assert len(lines) == 1
        line = AffineLine.from_key(int(lines[0]), p)
        for x in range(p):
            if line.slope is None:
                q = AffinePoint(line.intercept, x, p)
            else:
                q = AffinePoint(x, (line.slope * x + line.intercept) % p, p)
            assert distance(q, r) == distance(q, s)


def test_bisector_distinct_s_give_distinct_lines():
    stream = SeededStream(321)
    for _ in range(50):
        p = (7, 11, 13, 17)[stream.below(4)]
        pts = {AffinePoint(stream.below(p), stream.below(p), p) for _ in range(8)}
        pts = sorted(pts)
        r = pts[0]
        eligible = [s for s in pts if s != r and distance(r, s) != 0]
        lines = bisector_instance(keys(pts), r.x * p + r.y, p)
        if p % 4 == 3:
            # no isotropic directions: the line map is injective
            assert len(lines) == len(eligible)
        else:
            assert len(lines) <= len(eligible)


def brute_isosceles(pts):
    return sum(
        1
        for q in pts for r in pts for s in pts
        if r != s and distance(q, r) == distance(q, s) != 0
    )


def test_isosceles_examples():
    pts = P([(0, 0), (2, 0), (1, 1)], 7)
    assert brute_isosceles(pts) == 2
    assert isosceles_triples(keys(pts), 7) == 2
    collinear = P([(0, 0), (1, 0), (2, 0)], 7)
    assert brute_isosceles(collinear) == 2
    assert isosceles_triples(keys(collinear), 7) == 2
    assert isosceles_triples(K([(3, 3)], 7), 7) == 0


def test_isosceles_matches_bruteforce():
    stream = SeededStream(123)
    for _ in range(30):
        p = (5, 7, 11, 13)[stream.below(4)]
        pts = sorted({AffinePoint(stream.below(p), stream.below(p), p)
                      for _ in range(2 + stream.below(10))})
        point_keys = keys(pts)
        assert isosceles_triples(point_keys, p) == distance_sets(point_keys, p).isosceles_triples == brute_isosceles(pts)


def brute_determined(pts):
    """Oracle: all pair-spanned lines, with exact per-line point counts."""
    lines = {}
    for q, r in combinations(pts, 2):
        line = join_points(q, r)
        lines[line] = sum(1 for t in pts if incident(t, line))
    return lines


def test_determined_lines_examples():
    rep = determined_lines(K([(0, 0), (1, 1), (2, 2)], 7), 7)
    assert rep.keys.tolist() == [AffineLine(1, 0, 7).key()]
    assert rep.class_sizes == {1: 1}
    assert determined_lines(K([(0, 0), (1, 0), (0, 1)], 7), 7).keys.size == 3
    grid = P([(x, y) for x in range(3) for y in range(3)], 7)
    rep = determined_lines(keys(grid), 7)
    oracle = brute_determined(grid)
    assert rep.keys.size == len(oracle) == 20
    assert sorted(v for v in oracle.values()) == [2] * 12 + [3] * 8
    with pytest.raises(TooFewPointsError):
        determined_lines(K([(0, 0)], 7), 7)


def test_determined_lines_matches_bruteforce():
    stream = SeededStream(999)
    for _ in range(25):
        p = (5, 7, 11, 13)[stream.below(4)]
        pts = sorted({AffinePoint(stream.below(p), stream.below(p), p)
                      for _ in range(2 + stream.below(14))})
        if len(pts) < 2:
            continue
        rep = determined_lines(keys(pts), p)
        oracle = brute_determined(pts)
        lines = [AffineLine.from_key(k, p) for k in rep.keys.tolist()]
        assert set(lines) == set(oracle)
        m = len(pts)
        assert rep.pair_total == rep.expected_pairs == m * (m - 1) // 2
        # richness, and so the dyadic classes, match the oracle's exact counts
        assert rep.richness.tolist() == [oracle[line] for line in lines]
        assert sum(rep.pairs_by_class.values()) == rep.pair_total


def test_pair_accounting_identity():
    stream = SeededStream(31415)
    for _ in range(20):
        p = (7, 11)[stream.below(2)]
        pts = sorted({AffinePoint(stream.below(p), stream.below(p), p)
                      for _ in range(2 + stream.below(20))})
        if len(pts) < 2:
            continue
        oracle = brute_determined(pts)
        total = sum(k * (k - 1) // 2 for k in oracle.values())
        assert total == len(pts) * (len(pts) - 1) // 2


EDGE_PRIMES = (3, 1048573, 2147483629, 2147483647)


def edge_point_sets(p):
    """Point sets that reach every branch of the array passes mod p: a
    planted collinear run, a column (vertical pairs), a ring of points at
    one distance from the origin, coordinates near p (squares near 2^62),
    and, when -1 is a square, a subset of an isotropic line."""
    stream = SeededStream(p)
    rand = P([(stream.below(p), stream.below(p)) for _ in range(10)], p)
    run = P([(t, 5 * t + 2) for t in range(6)], p)
    column = P([(9, 4 * t + 1) for t in range(5)], p)
    a, b = p - 1, p // 2
    ring = P([(0, 0), (a, b), (b, a), (-a, b), (a, -b), (-b, -a), (-a, -b)], p)
    sets = [rand + run + column + ring, run, column, ring]
    if minus_one_is_square(p):
        i = sqrt_mod(p - 1, p)
        iso = P([(t, i * t) for t in (0, 1, 2, p - 1, p // 3)], p)
        sets += [iso, iso + ring]
    return [sorted(set(pts)) for pts in sets]


def brute_distance_sets(pts):
    pinned = {q: frozenset(distance(q, r) for r in pts) for q in pts}
    best = max(len(s) for s in pinned.values())
    pin = next(q for q in pts if len(pinned[q]) == best)
    return frozenset().union(*pinned.values()), pinned, pin


def assert_reports_match_oracles(pts):
    p = pts[0].p
    rep = distance_sets(keys(pts), p)
    full, pinned, pin = brute_distance_sets(pts)
    assert (rep.distance_values.tolist(), rep.pin) == (sorted(full), pin.x * p + pin.y)
    assert rep.max_pinned == len(pinned[pin]) and rep.degenerate == (full == {0})
    assert isosceles_triples(keys(pts), p) == rep.isosceles_triples == brute_isosceles(pts)
    if len(pts) < 2:
        return
    beck = determined_lines(keys(pts), p)
    oracle = brute_determined(pts)
    lines = tuple(sorted(oracle, key=AffineLine.key))
    classes = {}
    pairs_by_class = {}
    for line in lines:
        k = oracle[line]
        j = k.bit_length() - 1
        classes.setdefault(j, []).append(line)
        pairs_by_class[j] = pairs_by_class.get(j, 0) + k * (k - 1) // 2
    assert beck.class_sizes == {j: len(ls) for j, ls in sorted(classes.items())}
    assert beck.pairs_by_class == dict(sorted(pairs_by_class.items()))
    assert beck.richness.tolist() == [oracle[line] for line in lines]
    assert beck.keys.tolist() == [line.key() for line in lines]


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_reports_exact_at_field_edges(p):
    for pts in edge_point_sets(p):
        assert_reports_match_oracles(pts)
    # the sets reach the branches they are meant to
    sets = edge_point_sets(p)
    assert determined_lines(keys(sets[2]), p).keys.tolist() == [AffineLine(None, 9, p).key()]
    assert isosceles_triples(keys(sets[3]), p) > 0
    assert distance_sets(keys(sets[-2]), p).degenerate == minus_one_is_square(p)


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_bisectors_exact_at_field_edges(p):
    half = inv_mod(2, p)
    for pts in edge_point_sets(p):
        r = pts[-1]
        # oracle: the line through the midpoint of r and s, perpendicular to s - r
        want = set()
        for s in pts:
            if distance(r, s) != 0:
                mid = AffinePoint((r.x + s.x) * half, (r.y + s.y) * half, p)
                want.add(join_points(mid, AffinePoint(mid.x + r.y - s.y, mid.y + s.x - r.x, p)))
        assert bisector_instance(keys(pts), r.x * p + r.y, p).tolist() == sorted(line.key() for line in want)


@st.composite
def structured_point_sets(draw):
    """Points over F_p, p = 2^31 - 1: a run on one line, pairs mirrored and
    turned a quarter about a centre (equal distances from it), and points
    anywhere."""
    p = 2**31 - 1
    residue = residues(p)
    cx, cy = draw(residue), draw(residue)
    dx, dy = draw(residue), draw(residue)
    pts = {((cx + k * dx) % p, (cy + k * dy) % p) for k in range(draw(st.integers(0, 6)))}
    for u, v in draw(st.lists(st.tuples(residue, residue), max_size=3)):
        pts |= {((cx + u) % p, (cy + v) % p), ((cx - u) % p, (cy - v) % p), ((cx - v) % p, (cy + u) % p)}
    pts |= set(draw(st.lists(st.tuples(residue, residue), max_size=6)))
    pts.add((cx, cy))
    return sorted(AffinePoint(x, y, p) for x, y in pts)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(structured_point_sets(), st.sampled_from([1, 7, 1 << 15]))
def test_blocked_reports_match_oracles_at_the_largest_prime(pts, block):
    # blocks of one pin row or pair row, of a few, and of the default size:
    # the eager reports on the numpy backend, whose passes read the blocks,
    # and on the C kernels, where only the lazy line keys do
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distances, "_PAIR_BLOCK", block)
        mp.setattr(plane, "_PAIR_BLOCK", block)
        for _ in each_backend():
            assert_reports_match_oracles(pts)


def concat_sort_determined_lines(point_keys, p):
    """Oracle: every pair's line key, concatenated and sorted at once; a
    line with c pairs has k points, where 8c + 1 = (2k - 1)^2."""
    inst = Instance(make_modulus(p), point_keys=point_keys, line_keys=())
    x, y = inst.xy
    keys = np.concatenate([line_keys(x[i], y[i], x[j], y[j], p) for i, j in pair_blocks(inst.m)])
    keys.sort()
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    pairs = np.diff(start, append=keys.size)
    richness = (1 + np.sqrt(8 * pairs + 1).astype(np.int64)) // 2
    line_class = np.frexp(richness)[1] - 1
    js = np.flatnonzero(np.bincount(line_class)).tolist()
    return {
        "keys": keys[start].tolist(),
        "richness": richness.tolist(),
        "class_sizes": {j: int((line_class == j).sum()) for j in js},
        "pairs_by_class": {j: int(pairs[line_class == j].sum()) for j in js},
        "line_count": int(start.size),
    }


def counts_from_lines(keys, richness):
    """The eager counts of a BeckReport, recomputed from its line keys and
    richness."""
    line_class = [k.bit_length() - 1 for k in richness]
    pairs = {}
    for j, k in zip(line_class, richness):
        pairs[j] = pairs.get(j, 0) + k * (k - 1) // 2
    return {
        "class_sizes": {j: line_class.count(j) for j in sorted(set(line_class))},
        "pairs_by_class": dict(sorted(pairs.items())),
        "line_count": len(keys),
    }


@st.composite
def mixed_point_sets(draw):
    """Point keys over F_p for a p from 3 to 2^31 - 1: random points,
    collinear runs, vertical columns and windows of the plane, which are
    the whole plane when p is small."""
    p = draw(st.sampled_from([3, 13, 1009, 2**31 - 1]))
    residue = residues(p)
    pts = set(draw(st.lists(st.tuples(residue, residue), max_size=12)))
    for _ in range(draw(st.integers(0, 2))):
        x, y, dx, dy = (draw(residue) for _ in range(4))
        pts |= {(x + t * dx, y + t * dy) for t in range(draw(st.integers(2, 9)))}
    for _ in range(draw(st.integers(0, 2))):
        x, y = draw(residue), draw(residue)
        pts |= {(x, y + t) for t in range(draw(st.integers(2, 9)))}
    if draw(st.booleans()):
        x, y = draw(residue), draw(residue)
        width, height = (draw(st.integers(1, min(p, 13))) for _ in range(2))
        pts |= {(x + u, y + v) for u in range(width) for v in range(height)}
    keys = sorted({x % p * p + y % p for x, y in pts})
    return p, keys


@settings(max_examples=120, derandomize=True, deadline=None)
@given(mixed_point_sets(), st.sampled_from([1, 7, 1 << 15]))
def test_run_lengths_match_the_concat_sort_oracle(case, block):
    p, point_keys = case
    if len(point_keys) < 2:
        return
    oracle = concat_sort_determined_lines(point_keys, p)
    m = len(point_keys)
    # the run lengths of the C kernel, then those of the numpy blocks
    for _ in each_backend():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(plane, "_PAIR_BLOCK", block)
            rep = determined_lines(point_keys, p)
            eager = {"class_sizes": rep.class_sizes, "pairs_by_class": rep.pairs_by_class,
                     "line_count": rep.line_count}
            lines = {"keys": rep.keys.tolist(), "richness": rep.richness.tolist()}
        assert {**eager, **lines} == oracle
        assert eager == counts_from_lines(lines["keys"], lines["richness"])
        assert rep.pair_total == rep.expected_pairs == m * (m - 1) // 2 == sum(rep.pairs_by_class.values())


def traced_peak(call):
    """The result of call() and the peak of the memory traced during it,
    numpy buffers included, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_point_keys(m, p, seed):
    return plane.distinct(np.random.default_rng(seed).integers(0, p * p, m))


def test_determined_lines_counts_in_bounded_memory():
    # all C(m, 2) pair keys would take 16 MB, and the report's keys as many.
    # tracemalloc sees the numpy blocks, not the C kernel's tables, which
    # test_kernel_reports_bound_resident_memory bounds
    p = 1048573
    point_keys = random_point_keys(2000, p, 22)
    oracle = concat_sort_determined_lines(point_keys, p)
    for _ in each_backend():
        rep, peak = traced_peak(lambda: determined_lines(point_keys, p))
        assert peak < 8 << 20
        assert (rep.line_count, rep.class_sizes, rep.pairs_by_class) == (
            oracle["line_count"], oracle["class_sizes"], oracle["pairs_by_class"])
    assert rep.keys.tolist() == oracle["keys"] and rep.richness.tolist() == oracle["richness"]


def test_beck_pass_keeps_one_block_alive(monkeypatch):
    # two blocks alive at once took about 95 bytes per block pair.  The
    # blocks are the numpy backend's; the C kernel's memory is bounded in
    # test_kernel_reports_bound_resident_memory
    monkeypatch.setattr(inc, "_backend", inc._Backend(None, "forced"))
    monkeypatch.setattr(plane, "_PAIR_BLOCK", 1 << 16)
    p = 1048573
    point_keys = random_point_keys(2000, p, 22)
    rep, peak = traced_peak(lambda: determined_lines(point_keys, p))
    assert peak < 60 << 16
    assert rep.line_count == concat_sort_determined_lines(point_keys, p)["line_count"]


def test_distance_set_is_an_int64_column():
    # a frozenset of Python ints took about 95 MB here
    p = 1048573
    point_keys = random_point_keys(2000, p, 24)
    rep, peak = traced_peak(lambda: distance_sets(point_keys, p))
    assert peak < 60 << 20
    values = rep.distance_values
    assert values.dtype == np.int64 and np.all(values[1:] > values[:-1])
    assert not values.flags.writeable
    x, y = np.divmod(point_keys, p)
    want = np.unique(np.concatenate([((x - qx) ** 2 + (y - qy) ** 2) % p for qx, qy in zip(x, y)]))
    assert np.array_equal(values, want)
    assert type(rep.degenerate) is bool and not rep.degenerate
    assert type(distance_sets(K([(0, 0), (1, 2)], 5), 5).degenerate) is bool


def test_distance_set_fold_takes_each_distance_once_and_sorts_in_place(monkeypatch):
    # the result is 3.8 MB.  Each distance gathered from both of its pins,
    # with the folded set, the blocks since and their sorted concatenation
    # all alive, peaked at 18.9 MB here, and at 11.5 MB with the
    # concatenation sorted in place.  The fold is the numpy backend's
    monkeypatch.setattr(inc, "_backend", inc._Backend(None, "forced"))
    p = 2**31 - 1
    point_keys = random_point_keys(1000, p, 3)
    rep, peak = traced_peak(lambda: distance_sets(point_keys, p))
    assert peak < 10 << 20
    x, y = np.divmod(point_keys, p)
    want = np.unique(np.concatenate([((x - qx) ** 2 + (y - qy) ** 2) % p for qx, qy in zip(x, y)]))
    assert np.array_equal(rep.distance_values, want)


def test_distance_sets_in_bounded_memory():
    # every pinned set kept would take up to 16 MB
    p = 1009
    point_keys = random_point_keys(2000, p, 23)
    pinned = pinned_sets(point_keys, p)
    sizes = {q: len(v) for q, v in pinned.items()}
    for _ in each_backend():
        rep, peak = traced_peak(lambda: distance_sets(point_keys, p))
        assert peak < 8 << 20
        assert rep.max_pinned == max(sizes.values())
        assert rep.pin == min(q for q, size in sizes.items() if size == rep.max_pinned)
        assert rep.distance_values.tolist() == sorted(set().union(*pinned.values()))


# ---------------------------------------------------------------------------
# The C kernels of the reports against the numpy passes and brute force
# ---------------------------------------------------------------------------

def brute_reports(point_keys, p):
    """The eager fields of both reports by Python counters over the pinned
    rows of distances and over the lines of all pairs."""
    point_keys = sorted(set(point_keys))
    pts = [divmod(k, p) for k in point_keys]
    rows = [Counter(((qx - rx) ** 2 + (qy - ry) ** 2) % p for rx, ry in pts) for qx, qy in pts]
    sizes = [len(row) for row in rows]
    values = sorted(set().union(*rows))
    out = {"distance_values": values, "pin": point_keys[sizes.index(max(sizes))], "max_pinned": max(sizes),
           "degenerate": values == [0],
           "isosceles_triples": sum(c * (c - 1) for row in rows for d, c in row.items() if d)}
    if len(pts) < 2:
        return out
    pairs = Counter(join_points(AffinePoint(*q, p), AffinePoint(*r, p)) for q, r in combinations(pts, 2))
    # a line with k points holds k(k - 1)/2 pairs
    richness = {line: (isqrt(8 * c + 1) + 1) // 2 for line, c in pairs.items()}
    classes, pairs_by_class = Counter(), Counter()
    for line, k in richness.items():
        classes[k.bit_length() - 1] += 1
        pairs_by_class[k.bit_length() - 1] += pairs[line]
    return {**out, "line_count": len(pairs), "class_sizes": dict(sorted(classes.items())),
            "pairs_by_class": dict(sorted(pairs_by_class.items())), "pair_total": len(pts) * (len(pts) - 1) // 2}


def observed_reports(point_keys, p):
    """The same fields as :func:`brute_reports`, from the reports."""
    rep = distance_sets(point_keys, p)
    assert isosceles_triples(point_keys, p) == rep.isosceles_triples
    out = {"distance_values": rep.distance_values.tolist(), "pin": rep.pin, "max_pinned": rep.max_pinned,
           "degenerate": rep.degenerate, "isosceles_triples": rep.isosceles_triples}
    if len(point_keys) < 2:
        return out
    beck = determined_lines(point_keys, p)
    assert beck.pair_total == beck.expected_pairs
    return {**out, "line_count": beck.line_count, "class_sizes": beck.class_sizes,
            "pairs_by_class": beck.pairs_by_class, "pair_total": beck.pair_total}


def kernel_cases(p):
    """Point key sets over F_p: one point, two, points on one line, a
    column (every direction vertical), a subset of an isotropic line when -1
    is a square mod p, random points with planted structure, and the whole
    plane when p is small."""
    stream = SeededStream(p % 1009)
    rand = [(stream.below(p), stream.below(p)) for _ in range(25)]
    cases = {
        "one": [(p - 1, p - 1)],
        "two": [(0, p - 1), (p - 1, 0)],
        "line": [(t, (3 * t + p - 1) % p) for t in range(min(p, 12))],
        "column": [(p - 1, 5 * t % p) for t in range(min(p, 12))],
        "mixed": rand + [(t, (2 * t + 7) % p) for t in range(min(p, 9))] + [(4 % p, t) for t in range(min(p, 7))],
    }
    if minus_one_is_square(p):
        i = sqrt_mod(p - 1, p)
        cases["isotropic"] = [(t, i * t % p) for t in (0, 1, 2, p - 1, p // 3)]
    if p < 20:
        cases["plane"] = [(x, y) for x in range(p) for y in range(p)]
    return {name: sorted({x * p + y for x, y in pts}) for name, pts in cases.items()}


@pytest.mark.parametrize("p", [3, 13, 2147483629, 2147483647])
def test_report_kernels_match_brute_force(backend, p):
    cases = kernel_cases(p)
    for name, point_keys in cases.items():
        assert observed_reports(point_keys, p) == brute_reports(point_keys, p), name
    if "isotropic" in cases:
        rep = distance_sets(cases["isotropic"], p)
        assert rep.distance_values.tolist() == [0] and rep.degenerate
    if "plane" in cases:
        beck = determined_lines(cases["plane"], p)
        assert (beck.line_count, beck.class_sizes) == (p * p + p, {p.bit_length() - 1: p * p + p})


def test_report_kernels_allocation_failure_is_a_memory_error(monkeypatch):
    # the kernels return -1 when they cannot allocate their tables
    class Exhausted:
        @staticmethod
        def collinear(*args):
            return -1

        @staticmethod
        def pinned(*args):
            return -1

    point_keys = K([(0, 0), (1, 2), (3, 4)], 7)
    with monkeypatch.context() as mp:
        mp.setattr(inc, "_backend", inc._Backend(Exhausted, ""))
        for call in (determined_lines, lambda keys, p: inc.max_collinear_3d([(0, 0, 0), (1, 2, 3)], p)):
            with pytest.raises(MemoryError, match="direction table"):
                call(point_keys, 7)
        for call in (distance_sets, isosceles_triples):
            with pytest.raises(MemoryError, match="distance tables"):
                call(point_keys, 7)
    # the real kernel fails too when its output array cannot be allocated
    if inc.kernel_backend()[0] == "c":
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(np, "empty", exhausted)
        with pytest.raises(MemoryError, match="distance tables"):
            distances._pinned(np.array(point_keys, dtype=np.int64), 7)


def test_kernel_reports_bound_resident_memory():
    # tracemalloc does not see what the C kernels allocate; a child's VmHWM
    # does.  The distance or direction of every pair at m = 2000 would take
    # 8 MB even as uint32
    import os
    import subprocess
    import sys

    from conftest import package_env
    if inc.kernel_backend()[0] != "c":
        pytest.skip(f"compiled kernel unavailable: {inc.kernel_backend()[1]}")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read VmHWM from")
    script = """
import numpy as np
from incidencelab import incidence, plane
from incidencelab.distances import determined_lines, distance_sets

def status(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith(field))

def growth(call):
    # the peak above the resident memory before the call, or more
    rss = status("VmRSS:")
    result = call()
    return result, status("VmHWM:") - rss

incidence._load_backend()
for p in (1009, 1048573):
    keys = plane.distinct(np.random.default_rng(22).integers(0, p * p, 2000))
    _, beck = growth(lambda: determined_lines(keys, p))
    rep, dist = growth(lambda: distance_sets(keys, p))
    print(p, keys.size, beck, dist, rep.distance_values.nbytes)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=package_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        p, m, beck, dist, result = map(int, line.split())
        assert beck < 1 << 20, (p, beck)
        # the distance set, and its hash table of 4 bytes a slot before it
        assert dist < 2 * result + (1 << 20), (p, dist, result)
    assert proc.stdout.count("\n") == 2
