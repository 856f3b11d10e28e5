import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    apply_line,
    apply_point,
    homogeneous_image,
    incident,
    join_points,
    keyed,
    line_to_infinity,
    map_from_points,
    random_instances,
    residues,
    vertical_free,
)
from incidencelab.constructions import SeededStream, full_plane
from incidencelab.distances import isotropic_lines
from incidencelab.errors import (
    CoincidentPointsError,
    CompositeModulusError,
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
    _run_starts,
    apply_map,
    distinct,
    dualize,
    line_through,
    pair_blocks,
    projective_map_from_pair,
    run_count,
)


def test_incident_examples():
    assert incident(AffinePoint(1, 3, 5), AffineLine(2, 1, 5))
    assert not incident(AffinePoint(0, 0, 7), AffineLine(1, 1, 7))
    assert incident(AffinePoint(2, 5, 7), AffineLine(None, 2, 7))


def test_incident_mixed_moduli():
    with pytest.raises(ModulusMismatchError):
        incident(AffinePoint(0, 0, 5), AffineLine(1, 1, 7))


def test_line_through_examples():
    # the keys of (0, 0) and (1, 2) over F_5, and of (3, 1) and (3, 4) over F_7
    assert line_through(0, 7, 5) == AffineLine(2, 0, 5).key()
    assert line_through(22, 25, 7) == AffineLine(None, 3, 7).key()
    with pytest.raises(CoincidentPointsError):
        line_through(8, 8, 7)


def test_line_through_contains_both_endpoints():
    stream = SeededStream(7)
    for _ in range(200):
        p = (5, 7, 11, 13)[stream.below(4)]
        q, r = stream.below(p * p), stream.below(p * p)
        if q == r:
            continue
        line = AffineLine.from_key(line_through(q, r, p), p)
        assert incident(AffinePoint(*divmod(q, p), p), line) and incident(AffinePoint(*divmod(r, p), p), line)


def isotropic_oracle(r):
    """The lines through the point object r whose slope s has s^2 = -1,
    by a scan of the slopes, smaller slope first; None when there is none."""
    p = r.p
    if pow(p - 1, (p - 1) // 2, p) != 1:
        return None
    return tuple(AffineLine(s, r.y - s * r.x, p) for s in range(p) if s * s % p == p - 1)


@st.composite
def key_pairs(draw):
    """Two distinct point keys over F_p, p in {3, 5, 13, 1009, 2^31 - 1}."""
    p = draw(st.sampled_from([3, 5, 13, 1009, 2**31 - 1]))
    point = st.tuples(residues(p), residues(p)).map(lambda xy: xy[0] * p + xy[1])
    q = draw(point)
    return q, draw(point.filter(lambda r: r != q)), p


@settings(max_examples=300, derandomize=True, deadline=None)
@given(key_pairs())
def test_key_joins_match_the_object_oracles(case):
    q, r, p = case
    qo, ro = (AffinePoint(*divmod(key, p), p) for key in (q, r))
    assert line_through(q, r, p) == join_points(qo, ro).key()
    assert projective_map_from_pair(q, r, p).rows == map_from_points(qo, ro).rows
    want = isotropic_oracle(qo)
    assert isotropic_lines(q, p) == (want and tuple(line.key() for line in want))


@pytest.mark.parametrize("p", [5, 2**31 - 1])
@pytest.mark.parametrize("q, r, third", [
    ((1, 0), (2, 1), (0, 0)),  # y = x - 1 misses the origin
    ((0, 3), (0, 1), (1, 0)),  # the column x = 0
    ((1, 2), (2, 4), (0, 1)),  # y = 2x, sloped through the origin
])
def test_projective_map_third_point_branches(p, q, r, third):
    M = projective_map_from_pair(q[0] * p + q[1], r[0] * p + r[1], p)
    assert M.rows == map_from_points(AffinePoint(*q, p), AffinePoint(*r, p)).rows
    assert sent_to_axis(M, AffinePoint(*third, p), 2)


@pytest.mark.parametrize("call, error", [
    (lambda: line_through(0, 25, 5), InvalidParameterError),  # key past p^2
    (lambda: line_through(-1, 3, 5), InvalidParameterError),
    (lambda: line_through(0, 1.0, 5), InvalidParameterError),
    (lambda: line_through(0, 1, 9), CompositeModulusError),
    (lambda: line_through(4, 4, 5), CoincidentPointsError),
    (lambda: projective_map_from_pair(0, 25, 5), InvalidParameterError),
    (lambda: projective_map_from_pair(0, 1, 9), CompositeModulusError),
    (lambda: projective_map_from_pair(4, 4, 5), CoincidentPointsError),
    (lambda: isotropic_lines(25, 5), InvalidParameterError),
    (lambda: isotropic_lines(-1, 5), InvalidParameterError),
    (lambda: isotropic_lines(0, 9), CompositeModulusError),
])
def test_key_joins_check_their_arguments(call, error):
    with pytest.raises(error):
        call()


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


def map_of(q, r):
    """projective_map_from_pair of the keys of the point objects q and r."""
    return projective_map_from_pair(q.x * q.p + q.y, r.x * r.p + r.y, q.p)


def test_projective_map_sends_pair_to_infinity():
    q, r = AffinePoint(0, 0, 5), AffinePoint(1, 0, 5)
    M = map_of(q, r)
    assert sent_to_axis(M, q, 0)
    assert sent_to_axis(M, r, 1)


def lexicographic_third_point(q, r):
    """Oracle: scan the plane in (x, y) order for the first point off qr."""
    qr = join_points(q, r)
    return next(AffinePoint(x, y, q.p) for x in range(q.p) for y in range(q.p)
                if not incident(AffinePoint(x, y, q.p), qr))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_projective_map_third_point_is_lexicographic_scan(p):
    # the map sends exactly its third basis point to [0:0:1]
    points = [AffinePoint(x, y, p) for x in range(p) for y in range(p)]
    for q in points:
        for r in points:
            if q != r:
                M = map_of(q, r)
                assert sent_to_axis(M, lexicographic_third_point(q, r), 2)


def test_projective_map_on_the_column_x0_at_largest_p():
    # the apex line x = 0 holds the whole first column, which a scan of the
    # plane would test point by point
    p = 2**31 - 1
    M = projective_map_from_pair(0, 1, p)
    assert sent_to_axis(M, AffinePoint(1, 0, p), 2)
    assert sent_to_axis(M, AffinePoint(0, 0, p), 0)


def test_projective_map_rejects_coincident():
    with pytest.raises(CoincidentPointsError):
        projective_map_from_pair(8, 8, 7)


def test_projective_map_infinity_preimage_is_join_50_random():
    stream = SeededStream(17)
    done = 0
    while done < 50:
        p = (5, 7, 11, 13)[stream.below(4)]
        q = AffinePoint(stream.below(p), stream.below(p), p)
        r = AffinePoint(stream.below(p), stream.below(p), p)
        if q == r:
            continue
        M = map_of(q, r)
        qr = join_points(q, r)
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
    M = map_of(q, r)
    join = join_points(q, r)

    def pencil(apex):
        # every line through the apex but the joining one, which goes to infinity
        lines = [AffineLine(s, (apex.y - s * apex.x) % p, p) for s in range(p)] + [AffineLine(None, apex.x, p)]
        return keyed(make_modulus(p), lines=[line for line in lines if line != join])

    horizontal = apply_map(M, pencil(q))
    assert horizontal.n == p and all(line.slope == 0 for line in horizontal.lines), \
        "pencil through apex1 must become horizontal"
    vertical = apply_map(M, pencil(r))
    assert vertical.n == p and all(line.slope is None for line in vertical.lines), \
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
    M = map_of(AffinePoint(0, 0, p), AffinePoint(1, 0, p))
    on_it = [AffinePoint(5, 0, p), AffinePoint(3, 0, p)]
    off = [AffinePoint(6, 2, p), AffinePoint(1, 1, p)]
    lines = [AffineLine(2, 1, p), AffineLine(0, 0, p), AffineLine(None, 4, p)]
    with pytest.raises(PointSentToInfinityError) as err:
        apply_map(M, keyed(mod, on_it + off, lines))
    assert err.value.point == AffinePoint(3, 0, p)  # the smaller key; points before lines
    with pytest.raises(LineSentToInfinityError) as err:
        apply_map(M, keyed(mod, off, lines))
    assert err.value.line == AffineLine(0, 0, p)
    # a vertical apex line x = 2
    M = map_of(AffinePoint(2, 1, p), AffinePoint(2, 5, p))
    with pytest.raises(LineSentToInfinityError) as err:
        apply_map(M, keyed(mod, off, [AffineLine(1, 1, p), AffineLine(None, 2, p), AffineLine(None, 3, p)]))
    assert err.value.line == AffineLine(None, 2, p)


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
    # values in [0, size) are read off a count table, others are sorted, and
    # strictly ascending ones pass through
    rng = np.random.default_rng(5)
    for size in (0, 1, 7, 300):
        drawn = [rng.integers(low, high, size) for low, high in ((0, 1), (0, 5), (0, size + 1), (-3, 4), (0, 2**62))]
        ascending = np.cumsum(rng.integers(1, 2**40, size)) - 2**39
        for a in drawn + [ascending]:
            before = a.copy()
            got = distinct(a)
            assert got.dtype == np.int64 and got.tolist() == sorted(set(a.tolist()))
            assert np.array_equal(a, before)
        assert distinct(ascending) is ascending


def test_instance_copies_a_callers_ascending_keys():
    # ascending keys skip the sort, but the instance's columns stay its own
    p = 1009
    point_keys, line_keys = np.arange(0, p * p, 7), np.arange(3, p * p + p, 11)
    inst = Instance(make_modulus(p), point_keys=point_keys, line_keys=line_keys)
    for mine, theirs in ((inst.point_keys, point_keys), (inst.line_keys, line_keys)):
        assert np.array_equal(mine, theirs) and not mine.flags.writeable
        assert theirs.flags.writeable and not np.shares_memory(mine, theirs)
    # a strided view of a caller's column as well
    column = np.arange(20)
    inst = Instance(make_modulus(5), point_keys=column[::2], line_keys=column[1::2])
    assert not np.shares_memory(inst.point_keys, column) and not np.shares_memory(inst.line_keys, column)
    assert column.flags.writeable
    column[:] = 0
    assert inst.point_keys.tolist() == list(range(0, 20, 2))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(st.lists(st.integers(-2**62, 2**62), max_size=40),
                 st.lists(st.integers(0, 3), max_size=40),
                 st.tuples(st.integers(0, 2**62), st.integers(0, 40)).map(lambda vn: [vn[0]] * vn[1])))
def test_run_starts_match_the_diff_form(values):
    # the empty, one-element and all-equal arrays included
    a = np.sort(np.array(values, dtype=np.int64))
    got = _run_starts(a)
    assert got.dtype == np.intp
    assert got.tolist() == np.flatnonzero(np.diff(a, prepend=a[:1] - 1)).tolist()
    assert run_count(a) == got.size


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_pair_blocks_cover_each_pair_once_in_order(monkeypatch, block):
    import incidencelab.plane as plane
    monkeypatch.setattr(plane, "_PAIR_BLOCK", block)
    for m in range(30):
        pairs = [pair for i, j in pair_blocks(m) for pair in zip(i.tolist(), j.tolist())]
        assert pairs == [(i, j) for i in range(m) for j in range(i + 1, m)]
