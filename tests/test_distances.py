from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from incidencelab import distances, plane
from incidencelab.constructions import SeededStream
from incidencelab.distances import (
    bisector_instance,
    determined_lines,
    distance,
    distance_sets,
    isosceles_triples,
    isotropic_lines,
)
from incidencelab.errors import CompositeModulusError, EmptyInputError, ModulusMismatchError, TooFewPointsError
from incidencelab.field import inv_mod, minus_one_is_square, sqrt_mod
from incidencelab.plane import AffineLine, AffinePoint, incident, line_through


def P(coords, p):
    return [AffinePoint(x, y, p) for x, y in coords]


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
    rep = distance_sets(P([(0, 0), (1, 0), (0, 1)], 7))
    assert rep.distances == {0, 1, 2}
    rep = distance_sets(P([(0, 0), (1, 0), (3, 0)], 7))
    assert rep.pinned[AffinePoint(0, 0, 7)] == {0, 1, 2}
    # a subset of one isotropic line is degenerate: all distances vanish
    iso = P([(0, 0), (1, 2), (2, 4)], 5)  # on y = 2x with 2^2 = -1 mod 5
    rep = distance_sets(iso)
    assert rep.distances == {0}
    assert rep.degenerate


def test_distance_sets_translation_invariance():
    stream = SeededStream(8080)
    for _ in range(20):
        p = (7, 11, 13)[stream.below(3)]
        pts = [AffinePoint(stream.below(p), stream.below(p), p) for _ in range(6)]
        dx, dy = stream.below(p), stream.below(p)
        moved = [q.translate(dx, dy) for q in pts]
        a, b = distance_sets(pts), distance_sets(moved)
        assert a.distances == b.distances
        assert sorted(map(sorted, a.pinned.values())) == sorted(map(sorted, b.pinned.values()))


def test_distance_zero_iff_equal_when_minus_one_nonresidue():
    p = 7
    assert not minus_one_is_square(p)
    pts = [AffinePoint(x, y, p) for x in range(p) for y in range(p)]
    for q in pts[:7]:
        for r in pts:
            assert (distance(q, r) == 0) == (q == r)


def test_isotropic_pairs_have_zero_distance():
    p = 13
    pair = isotropic_lines(AffinePoint(1, 1, p))
    assert pair == (AffineLine(5, 9, p), AffineLine(8, 6, p))
    for line in pair:
        on_line = [AffinePoint(x, (line.slope * x + line.intercept) % p, p) for x in range(p)]
        for q, r in combinations(on_line, 2):
            assert distance(q, r) == 0


def test_isotropic_lines_examples():
    assert isotropic_lines(AffinePoint(0, 0, 5)) == (AffineLine(2, 0, 5), AffineLine(3, 0, 5))
    assert isotropic_lines(AffinePoint(0, 0, 7)) is None


def test_bisector_examples():
    pts = P([(0, 0), (2, 0), (1, 1)], 7)
    lines = bisector_instance(pts, pts[0])
    assert lines == {AffineLine(None, 1, 7), AffineLine(6, 1, 7)}
    # isotropic partner contributes nothing
    pts5 = P([(0, 0), (1, 2)], 5)
    assert bisector_instance(pts5, pts5[0]) == frozenset()


POINT_SET_CALLS = {
    "distance_sets": distance_sets,
    "isosceles_triples": isosceles_triples,
    "determined_lines": determined_lines,
    "bisector_instance": lambda pts: bisector_instance(pts, pts[0]),
}


@pytest.mark.parametrize("call", POINT_SET_CALLS.values(), ids=POINT_SET_CALLS.keys())
def test_point_set_reports_reject_mixed_and_composite_moduli(call):
    with pytest.raises(ModulusMismatchError):
        call(P([(0, 0), (1, 2)], 5) + P([(3, 3)], 7))
    with pytest.raises(CompositeModulusError):
        call(P([(0, 0), (1, 2), (2, 5)], 9))


def test_point_set_reports_on_no_points():
    with pytest.raises(EmptyInputError):
        distance_sets([])
    with pytest.raises(TooFewPointsError):
        determined_lines([])
    assert isosceles_triples([]) == 0
    assert bisector_instance([], AffinePoint(0, 0, 7)) == frozenset()


def test_bisector_points_are_equidistant():
    # every point on a bisector line is genuinely equidistant from the pair
    stream = SeededStream(444)
    for _ in range(50):
        p = (7, 11, 13)[stream.below(3)]
        r = AffinePoint(stream.below(p), stream.below(p), p)
        s = AffinePoint(stream.below(p), stream.below(p), p)
        if s == r or distance(r, s) == 0:
            continue
        lines = bisector_instance([r, s], r)
        assert len(lines) == 1
        (line,) = lines
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
        lines = bisector_instance(pts, r)
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
    assert isosceles_triples(pts) == 2
    collinear = P([(0, 0), (1, 0), (2, 0)], 7)
    assert brute_isosceles(collinear) == 2
    assert isosceles_triples(collinear) == 2
    assert isosceles_triples(P([(3, 3)], 7)) == 0


def test_isosceles_matches_bruteforce():
    stream = SeededStream(123)
    for _ in range(30):
        p = (5, 7, 11, 13)[stream.below(4)]
        pts = sorted({AffinePoint(stream.below(p), stream.below(p), p)
                      for _ in range(2 + stream.below(10))})
        assert isosceles_triples(pts) == distance_sets(pts).isosceles_triples == brute_isosceles(pts)


def brute_determined(pts):
    """Oracle: all pair-spanned lines, with exact per-line point counts."""
    lines = {}
    for q, r in combinations(pts, 2):
        line = line_through(q, r)
        lines[line] = sum(1 for t in pts if incident(t, line))
    return lines


def test_determined_lines_examples():
    collinear = P([(0, 0), (1, 1), (2, 2)], 7)
    rep = determined_lines(collinear)
    assert len(rep.lines) == 1
    assert rep.classes == {1: rep.lines}
    triangle = P([(0, 0), (1, 0), (0, 1)], 7)
    assert len(determined_lines(triangle).lines) == 3
    grid = P([(x, y) for x in range(3) for y in range(3)], 7)
    rep = determined_lines(grid)
    oracle = brute_determined(grid)
    assert len(rep.lines) == len(oracle) == 20
    assert sorted(v for v in oracle.values()) == [2] * 12 + [3] * 8
    with pytest.raises(TooFewPointsError):
        determined_lines(P([(0, 0)], 7))


def test_determined_lines_matches_bruteforce():
    stream = SeededStream(999)
    for _ in range(25):
        p = (5, 7, 11, 13)[stream.below(4)]
        pts = sorted({AffinePoint(stream.below(p), stream.below(p), p)
                      for _ in range(2 + stream.below(14))})
        if len(pts) < 2:
            continue
        rep = determined_lines(pts)
        oracle = brute_determined(pts)
        assert set(rep.lines) == set(oracle)
        m = len(pts)
        assert rep.pair_total == rep.expected_pairs == m * (m - 1) // 2
        # dyadic classes match the oracle's exact counts
        for j, lines in rep.classes.items():
            for line in lines:
                assert 2**j <= oracle[line] < 2 ** (j + 1)
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
    rep = distance_sets(pts)
    full, pinned, pin = brute_distance_sets(pts)
    assert (rep.distances, rep.pinned, rep.pin) == (full, pinned, pin)
    assert rep.max_pinned == len(pinned[pin]) and rep.degenerate == (full == {0})
    assert isosceles_triples(pts) == rep.isosceles_triples == brute_isosceles(pts)
    if len(pts) < 2:
        return
    beck = determined_lines(pts)
    oracle = brute_determined(pts)
    lines = tuple(sorted(oracle, key=AffineLine.sort_key))
    classes = {}
    pairs_by_class = {}
    for line in lines:
        k = oracle[line]
        j = k.bit_length() - 1
        classes.setdefault(j, []).append(line)
        pairs_by_class[j] = pairs_by_class.get(j, 0) + k * (k - 1) // 2
    assert beck.lines == lines
    assert beck.classes == {j: tuple(ls) for j, ls in sorted(classes.items())}
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
    assert determined_lines(sets[2]).lines == (AffineLine(None, 9, p),)
    assert isosceles_triples(sets[3]) > 0
    assert distance_sets(sets[-2]).degenerate == minus_one_is_square(p)


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
                want.add(line_through(mid, mid.translate(r.y - s.y, s.x - r.x)))
        assert bisector_instance(pts, r) == want


def residues(p):
    """Residues mod p: hypothesis draws small integers first, so half of
    them are mirrored to just below p, where products come near 2^62."""
    return st.one_of(st.integers(0, p - 1), st.integers(0, p - 1).map(lambda v: p - 1 - v))


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
    # blocks of one pin row or pair row, of a few, and of the default size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distances, "_PAIR_BLOCK", block)
        mp.setattr(plane, "_PAIR_BLOCK", block)
        assert_reports_match_oracles(pts)
