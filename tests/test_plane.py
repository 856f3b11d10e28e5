import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    apply_line,
    apply_point,
    homogeneous_image,
    keyed,
    line_to_infinity,
    random_instances,
    residues,
    vertical_free,
)
from incidencelab.constructions import SeededStream, full_plane
from incidencelab.errors import (
    CoincidentPointsError,
    InvalidParameterError,
    LineSentToInfinityError,
    ModulusMismatchError,
    PointSentToInfinityError,
    VerticalLinePresentError,
)
from incidencelab.field import make_modulus
from incidencelab.incidence import count_incidences
from incidencelab.plane import (
    AffineLine,
    AffinePoint,
    Instance,
    ProjMap,
    apply_map,
    distinct,
    dualize,
    incident,
    line_through,
    pair_blocks,
    projective_map_from_pair,
    vertical_line,
)


def test_incident_examples():
    assert incident(AffinePoint(1, 3, 5), AffineLine(2, 1, 5))
    assert not incident(AffinePoint(0, 0, 7), AffineLine(1, 1, 7))
    assert incident(AffinePoint(2, 5, 7), AffineLine(None, 2, 7))


def test_incident_mixed_moduli():
    with pytest.raises(ModulusMismatchError):
        incident(AffinePoint(0, 0, 5), AffineLine(1, 1, 7))


def test_line_through_examples():
    assert line_through(AffinePoint(0, 0, 5), AffinePoint(1, 2, 5)) == AffineLine(2, 0, 5)
    assert line_through(AffinePoint(3, 1, 7), AffinePoint(3, 4, 7)) == AffineLine(None, 3, 7)
    with pytest.raises(CoincidentPointsError):
        line_through(AffinePoint(1, 1, 7), AffinePoint(1, 1, 7))


def test_line_through_contains_both_endpoints():
    stream = SeededStream(7)
    for _ in range(200):
        p = (5, 7, 11, 13)[stream.below(4)]
        q = AffinePoint(stream.below(p), stream.below(p), p)
        r = AffinePoint(stream.below(p), stream.below(p), p)
        if q == r:
            continue
        line = line_through(q, r)
        assert incident(q, line) and incident(r, line)


def test_dualize_preserves_incidence_structure():
    # a point (a, b) pairs with the line y = a x - b; a line y = c x + d
    # pairs with the point (c, -d); incidences transfer exactly
    mod = make_modulus(7)
    inst = keyed(mod, [AffinePoint(1, 3, 7)], [AffineLine(2, 1, 7)])
    dual = dualize(inst)
    assert dual.points == (AffinePoint(2, -1, 7),)
    assert dual.lines == (AffineLine(1, -3, 7),)
    assert count_incidences(inst) == count_incidences(dual) == 1


def test_dualize_empty():
    mod = make_modulus(7)
    inst = Instance(mod, point_keys=[], line_keys=[])
    assert dualize(inst) == inst


def test_dualize_rejects_vertical():
    mod = make_modulus(7)
    inst = keyed(mod, lines=[AffineLine(None, 2, 7)])
    with pytest.raises(VerticalLinePresentError):
        dualize(inst)


def test_dualize_involution_and_count_50_random():
    for i, inst in enumerate(random_instances(50, seed=101, max_m=60, max_n=60)):
        inst = vertical_free(inst)
        dual = dualize(inst)
        assert dualize(dual) == inst, f"instance {i} not restored by double dual"
        assert count_incidences(dual) == count_incidences(inst)


def sent_to_axis(M, q, axis):
    """Is the homogeneous image of q under M a nonzero multiple of the unit
    vector e_axis: (1, 0, 0) the horizontal point at infinity, (0, 1, 0) the
    vertical one, (0, 0, 1) the origin?"""
    v = homogeneous_image(M, q)
    return v[axis] != 0 and all(c == 0 for i, c in enumerate(v) if i != axis)


def test_projective_map_sends_pair_to_infinity():
    q, r = AffinePoint(0, 0, 5), AffinePoint(1, 0, 5)
    M = projective_map_from_pair(q, r)
    assert sent_to_axis(M, q, 0)
    assert sent_to_axis(M, r, 1)


def lexicographic_third_point(q, r):
    """Oracle: scan the plane in (x, y) order for the first point off qr."""
    qr = line_through(q, r)
    return next(AffinePoint(x, y, q.p) for x in range(q.p) for y in range(q.p)
                if not incident(AffinePoint(x, y, q.p), qr))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_projective_map_third_point_is_lexicographic_scan(p):
    # the map sends exactly its third basis point to [0:0:1]
    points = [AffinePoint(x, y, p) for x in range(p) for y in range(p)]
    for q in points:
        for r in points:
            if q != r:
                M = projective_map_from_pair(q, r)
                assert sent_to_axis(M, lexicographic_third_point(q, r), 2)


def test_projective_map_on_the_column_x0_at_largest_p():
    # the apex line x = 0 holds the whole first column, which a scan of the
    # plane would test point by point
    p = 2**31 - 1
    M = projective_map_from_pair(AffinePoint(0, 0, p), AffinePoint(0, 1, p))
    assert sent_to_axis(M, AffinePoint(1, 0, p), 2)
    assert sent_to_axis(M, AffinePoint(0, 0, p), 0)


def test_projective_map_rejects_coincident():
    with pytest.raises(CoincidentPointsError):
        projective_map_from_pair(AffinePoint(1, 1, 7), AffinePoint(1, 1, 7))


def test_projective_map_infinity_preimage_is_join_50_random():
    stream = SeededStream(17)
    done = 0
    while done < 50:
        p = (5, 7, 11, 13)[stream.below(4)]
        q = AffinePoint(stream.below(p), stream.below(p), p)
        r = AffinePoint(stream.below(p), stream.below(p), p)
        if q == r:
            continue
        M = projective_map_from_pair(q, r)
        qr = line_through(q, r)
        assert line_to_infinity(M) == qr
        with pytest.raises(LineSentToInfinityError) as err:
            apply_map(M, keyed(make_modulus(p), lines=[qr]))
        assert err.value.line == qr
        done += 1


def test_pencils_become_axis_parallel():
    # lines through the first apex map to horizontal lines, lines through
    # the second apex map to vertical lines
    p = 11
    q, r = AffinePoint(2, 3, p), AffinePoint(7, 5, p)
    M = projective_map_from_pair(q, r)
    join = line_through(q, r)

    def pencil(apex):
        # every line through the apex but the joining one, which goes to infinity
        lines = [AffineLine(s, (apex.y - s * apex.x) % p, p) for s in range(p)] + [vertical_line(apex.x, p)]
        return keyed(make_modulus(p), lines=[line for line in lines if line != join])

    horizontal = apply_map(M, pencil(q))
    assert horizontal.n == p and all(line.slope == 0 for line in horizontal.lines), \
        "pencil through apex1 must become horizontal"
    vertical = apply_map(M, pencil(r))
    assert vertical.n == p and all(line.is_vertical for line in vertical.lines), \
        "pencil through apex2 must become vertical"


def _random_invertible(p, stream):
    while True:
        rows = tuple(tuple(stream.below(p) for _ in range(3)) for _ in range(3))
        try:
            return ProjMap(rows, p)
        except ValueError:
            continue


def _restrict_for_map(inst, M):
    """Drop the elements a projective map would send to infinity: the
    points on its infinity preimage and that line; an affine map keeps
    all."""
    bad_line = line_to_infinity(M)
    if bad_line is None:
        return inst
    points = [q for q in inst.points if not incident(q, bad_line)]
    lines = [l for l in inst.lines if l != bad_line]
    return keyed(inst.modulus, points, lines)


def test_apply_map_identity_and_translation():
    inst = full_plane(5)
    ident = ProjMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5)
    assert apply_map(ident, inst) == inst
    moved = apply_map(ProjMap(((1, 0, 2), (0, 1, 3), (0, 0, 1)), 5), inst)
    assert count_incidences(moved) == 150
    assert moved == inst  # translations permute the full plane


def test_apply_map_point_to_infinity_errors():
    # the apex line y = 0 of (0, 0) and (1, 0) goes to infinity, and its points
    p = 7
    mod = make_modulus(p)
    M = projective_map_from_pair(AffinePoint(0, 0, p), AffinePoint(1, 0, p))
    on_it = [AffinePoint(5, 0, p), AffinePoint(3, 0, p)]
    off = [AffinePoint(6, 2, p), AffinePoint(1, 1, p)]
    lines = [AffineLine(2, 1, p), AffineLine(0, 0, p), vertical_line(4, p)]
    with pytest.raises(PointSentToInfinityError) as err:
        apply_map(M, keyed(mod, on_it + off, lines))
    assert err.value.point == AffinePoint(3, 0, p)  # the smaller key; points before lines
    with pytest.raises(LineSentToInfinityError) as err:
        apply_map(M, keyed(mod, off, lines))
    assert err.value.line == AffineLine(0, 0, p)
    # a vertical apex line x = 2
    M = projective_map_from_pair(AffinePoint(2, 1, p), AffinePoint(2, 5, p))
    with pytest.raises(LineSentToInfinityError) as err:
        apply_map(M, keyed(mod, off, [AffineLine(1, 1, p), vertical_line(2, p), vertical_line(3, p)]))
    assert err.value.line == vertical_line(2, p)


def test_apply_map_preserves_counts_50_random():
    stream = SeededStream(23)
    for i, inst in enumerate(random_instances(50, seed=303, max_m=80, max_n=80)):
        M = _random_invertible(inst.p, stream)
        restricted = _restrict_for_map(inst, M)
        mapped = apply_map(M, restricted)
        assert mapped.m == restricted.m and mapped.n == restricted.n, "map must be injective"
        assert count_incidences(mapped) == count_incidences(restricted), f"instance {i}"


@st.composite
def maps_and_instances(draw):
    """An invertible map over F_p, affine (third row (0, 0, c)) about half
    the time, and an instance of points and lines, vertical lines among
    them, for small and for the largest p."""
    p = draw(st.sampled_from([3, 1009, 2**31 - 1]))
    residue = residues(p)
    row = st.tuples(residue, residue, residue)
    third = draw(st.one_of(st.tuples(st.just(0), st.just(0), residue), row))
    try:
        M = ProjMap((draw(row), draw(row), third), p)
    except InvalidParameterError:
        assume(False)
    point = st.builds(AffinePoint, residue, residue, st.just(p))
    line = st.one_of(st.builds(AffineLine, residue, residue, st.just(p)),
                     st.builds(AffineLine, st.none(), residue, st.just(p)))
    return M, keyed(make_modulus(p), draw(st.lists(point, max_size=12)), draw(st.lists(line, max_size=20)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(maps_and_instances())
def test_apply_map_matches_the_object_map(case):
    # on the elements that stay affine apply_map is the per-object map;
    # with any of the others it names the first of them
    M, inst = case
    bad_line = line_to_infinity(M)
    dropped = [q for q in inst.points if homogeneous_image(M, q)[2] == 0]
    kept = keyed(inst.modulus, [q for q in inst.points if q not in dropped],
                 [line for line in inst.lines if line != bad_line])
    want = keyed(inst.modulus, [apply_point(M, q) for q in kept.points], [apply_line(M, line) for line in kept.lines])
    assert apply_map(M, kept) == want
    if dropped:
        with pytest.raises(PointSentToInfinityError) as err:
            apply_map(M, inst)
        assert err.value.point == dropped[0]
    elif kept.n < inst.n:
        with pytest.raises(LineSentToInfinityError) as err:
            apply_map(M, inst)
        assert err.value.line == bad_line


def test_instance_dedup_and_order():
    mod = make_modulus(7)
    pts = [AffinePoint(1, 1, 7), AffinePoint(0, 0, 7), AffinePoint(1, 1, 7)]
    lns = [AffineLine(None, 3, 7), AffineLine(2, 1, 7), AffineLine(2, 1, 7)]
    inst = keyed(mod, pts, lns)
    assert inst.m == 2 and inst.n == 2
    assert inst.points == (AffinePoint(0, 0, 7), AffinePoint(1, 1, 7))
    assert inst.lines[0] == AffineLine(2, 1, 7)  # verticals sort last


def test_distinct_by_count_table_and_by_sort():
    # values in [0, size) are read off a count table, others are sorted
    rng = np.random.default_rng(5)
    for size in (0, 1, 7, 300):
        for low, high in ((0, 1), (0, 5), (0, size + 1), (-3, 4), (0, 2**62)):
            a = rng.integers(low, high, size)
            got = distinct(a)
            assert got.dtype == np.int64 and got.tolist() == sorted(set(a.tolist()))


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_pair_blocks_cover_each_pair_once_in_order(monkeypatch, block):
    import incidencelab.plane as plane
    monkeypatch.setattr(plane, "_PAIR_BLOCK", block)
    for m in range(30):
        pairs = [pair for i, j in pair_blocks(m) for pair in zip(i.tolist(), j.tolist())]
        assert pairs == [(i, j) for i in range(m) for j in range(i + 1, m)]
