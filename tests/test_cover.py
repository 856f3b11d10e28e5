import dataclasses
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (apply_line, apply_point, each_backend, incident, join_points, map_from_points, random_instances,
                      residues)
from incidencelab.cli import cli
from incidencelab.constructions import elekes_construction, full_plane, random_instance
from incidencelab.cover import (
    CoverStep,
    NormalizedGrid,
    PencilGrid,
    extraction_preconditions,
    grid_cover,
    grid_size_lower_bound,
    normalize_grid,
    richness_partition,
    two_pencil_extract,
    verify_certificate,
)
from incidencelab.distances import determined_lines
from incidencelab.errors import (
    EmptyGridError,
    EmptyInstanceError,
    InvalidParameterError,
    NoIncidencesError,
    PointSentToInfinityError,
)
from incidencelab.field import make_modulus
from incidencelab.files import write_instance
from incidencelab.incidence import RichnessHistogram, count_incidences, incidence_degrees
from incidencelab.plane import (
    AffineLine,
    AffinePoint,
    Instance,
    ProjMap,
    apply_map,
    line_keys,
    line_through,
)


def pkeys(points):
    """The keys x*p + y of point objects, in order."""
    return tuple(q.x * q.p + q.y for q in points)


def lkeys(lines):
    return tuple(line.key() for line in lines)


def point_of(key, p):
    return AffinePoint(*divmod(key, p), p)


def points_of(keys, p):
    return tuple(point_of(key, p) for key in keys)


def lines_of(keys, p):
    return tuple(AffineLine.from_key(key, p) for key in keys)


def apex_line_of(grid, p):
    return join_points(point_of(grid.apex1, p), point_of(grid.apex2, p))


def test_partition_rejects_unordered_factors():
    with pytest.raises(InvalidParameterError) as err:
        richness_partition(full_plane(5), 2, 1)
    assert isinstance(err.value, ValueError)


def test_cover_rejects_nonpositive_c1():
    with pytest.raises(InvalidParameterError):
        grid_cover(full_plane(5), 0, 2, 0)
    with pytest.raises(InvalidParameterError):
        grid_cover(full_plane(5), -1, 2, 1)
    with pytest.raises(InvalidParameterError):
        extraction_preconditions(Fraction(6), 25, 30, Fraction(-1, 2))
    with pytest.raises(InvalidParameterError):
        grid_size_lower_bound(Fraction(6), 25, 30, 0)


def test_partition_full_plane_test_constants():
    part = richness_partition(full_plane(5), Fraction(1, 2), 2)
    assert part.mean_richness == 6
    assert part.low == () and part.high == ()
    assert len(part.regular) == 25


def test_partition_isolated_point_in_low():
    mod = make_modulus(7)
    inst = Instance(mod, point_keys=pkeys([AffinePoint(0, 0, 7), AffinePoint(1, 1, 7)]),
                    line_keys=lkeys([AffineLine(0, 1, 7)]))
    # (1,1) on y=1, (0,0) on nothing; K = 1/2, low threshold 1/4
    part = richness_partition(inst, Fraction(1, 2), 2)
    assert part.low == (0,)  # (0, 0)
    assert part.high == (8,)  # (1, 1): degree 1 >= 2 * 1/2


def test_partition_extreme_thresholds():
    # the production-scale factor pair (2^-11, 2^15) leaves every point of a
    # small regular instance in the middle band
    part = richness_partition(full_plane(5), Fraction(1, 2**11), 2**15)
    assert part.low == () and part.high == ()
    assert len(part.regular) == 25


def reference_partition(inst, low_factor, high_factor):
    """Oracle: each point's degree, from the mask, against the exact
    rational thresholds."""
    degree = dict(zip(inst.points, incidence_degrees(*inst.xy, inst.line_keys, inst.p)[0].tolist()))
    mean = Fraction(sum(degree.values()), inst.m)
    low = tuple(q for q in inst.points if degree[q] <= low_factor * mean)
    high = tuple(q for q in inst.points if q not in low and degree[q] >= high_factor * mean)
    regular = tuple(q for q in inst.points if q not in low and q not in high)
    return low, high, regular


def test_partition_matches_rational_thresholds():
    # factors that put a threshold exactly on a degree, between degrees,
    # below zero and far above n, where integer rounding and clamping matter
    factors = [(Fraction(1, 2), 2), (1, Fraction(3, 2)), (Fraction(-5, 3), Fraction(1, 3)),
               (Fraction(-10**30), Fraction(10**30)), (Fraction(2, 3), Fraction(10**30)),
               (Fraction(-10**30), Fraction(-1, 7)), (0, 1)]
    cases = random_instances(20, 77, max_p_index=6, max_m=40, max_n=40)
    cases += [full_plane(5), elekes_construction(2, 1, 11)]
    for inst in cases:
        for low_factor, high_factor in factors:
            part = richness_partition(inst, low_factor, high_factor)
            want = reference_partition(inst, Fraction(low_factor), Fraction(high_factor))
            assert (part.low, part.high, part.regular) == tuple(map(pkeys, want))


def test_partition_empty_instance():
    mod = make_modulus(7)
    with pytest.raises(EmptyInstanceError):
        richness_partition(Instance(mod, point_keys=[], line_keys=lkeys([AffineLine(1, 1, 7)])), Fraction(1, 2), 2)


def test_two_pencil_full_plane_trace():
    # hand-simulation: every line of the full plane over F_5 carries 5 >= 150/60
    # points, so the first pool is all 30 lines; the first qualifying point in
    # lexicographic order is (0,0); all other 24 points are joined to it; the
    # second pool is again all lines and the second apex is (0,1); the grid is
    # everything off the vertical joining line x = 0
    inst = full_plane(5)
    grid = two_pencil_extract(inst)
    assert points_of((grid.apex1, grid.apex2), 5) == (AffinePoint(0, 0, 5), AffinePoint(0, 1, 5))
    assert len(grid.rich_lines) == 30
    assert len(grid.candidates) == 24
    assert len(grid.rich_lines2) == 30
    assert len(grid.points) == 20
    assert set(points_of(grid.points, 5)) == {q for q in inst.points if q.x != 0}
    assert apex_line_of(grid, 5) == AffineLine(None, 0, 5)


def test_two_pencil_axis_parallel_empty_grid():
    # points {0..7}^2 with the 16 axis-parallel lines: candidates for the
    # second apex are never joined to it by an axis-parallel line
    p = 11
    points = [AffinePoint(x, y, p) for x in range(8) for y in range(8)]
    lines = [AffineLine(0, t, p) for t in range(8)] + [AffineLine(None, x, p) for x in range(8)]
    with pytest.raises(EmptyGridError):
        two_pencil_extract(Instance(make_modulus(p), point_keys=pkeys(points), line_keys=lkeys(lines)))


def test_two_pencil_no_incidences():
    p = 7
    with pytest.raises(NoIncidencesError):
        two_pencil_extract(Instance(make_modulus(p), point_keys=pkeys([AffinePoint(0, 0, p)]),
                                    line_keys=lkeys([AffineLine(1, 1, p)])))


def reference_extract(points, lines):
    """Oracle: the extraction step by step with Python objects, exact
    rationals and one incident() call per (point, line) pair; the objects
    become keys only in the returned grid."""
    pts = tuple(sorted(set(points)))
    lns = tuple(sorted(set(lines), key=AffineLine.key))

    def richness(cands, pool):
        return {line: sum(incident(q, line) for q in cands) for line in pool}

    def degree(q, pool):
        return sum(incident(q, line) for line in pool)

    rich = richness(pts, lns)
    total = sum(rich.values())
    if total == 0:
        raise NoIncidencesError
    pool1 = tuple(line for line in lns if rich[line] >= Fraction(total, 2 * len(lns)))
    thr1 = Fraction(sum(rich[line] for line in pool1), 2 * len(pts))
    apex1 = next(q for q in pts if degree(q, pool1) >= thr1)
    candidates = tuple(q for q in pts if q != apex1 and join_points(apex1, q) in set(lns))
    if not candidates:
        raise EmptyGridError
    rich_q = richness(candidates, lns)
    pool2 = tuple(line for line in lns if rich_q[line] >= Fraction(sum(rich_q.values()), 2 * len(lns)))
    thr2 = Fraction(sum(rich_q[line] for line in pool2), 2 * len(candidates))
    apex2 = next(q for q in candidates if degree(q, pool2) >= thr2)
    apex_line = join_points(apex1, apex2)
    grid = tuple(q for q in candidates
                 if not incident(q, apex_line) and join_points(apex2, q) in set(pool2))
    if not grid:
        raise EmptyGridError
    pencil1 = tuple(sorted({join_points(apex1, g) for g in grid}, key=AffineLine.key))
    pencil2 = tuple(sorted({join_points(apex2, g) for g in grid}, key=AffineLine.key))
    return PencilGrid(*pkeys((apex1, apex2)), pkeys(grid), lkeys(pencil1), lkeys(pencil2), lkeys(pool1),
                      pkeys(candidates), lkeys(pool2), Fraction(total, len(pts)))


def test_two_pencil_matches_reference():
    cases = random_instances(60, 4242, max_p_index=8, max_m=60, max_n=60)
    cases += [full_plane(5), elekes_construction(3, 2, 31), random_instance(1048573, 40, 40, 1)]
    outcomes = set()
    for inst in cases:
        try:
            want = reference_extract(inst.points, inst.lines)
        except (NoIncidencesError, EmptyGridError) as exc:
            with pytest.raises(type(exc)):
                two_pencil_extract(inst)
            outcomes.add(type(exc))
            continue
        assert two_pencil_extract(inst) == want
        outcomes.add(PencilGrid)
    assert outcomes == {PencilGrid, NoIncidencesError, EmptyGridError}


def test_two_pencil_pool_degrees_skip_the_poor_lines():
    # the rich lines of a 5 x 5 grid make up less than half of L, and the
    # origin, first in point order, lies on no rich line but on 36 poor ones:
    # apex1 counts only its pool lines, so it is (1, 1) and not the origin
    p = 101
    grid = [AffinePoint(x, y, p) for x in range(1, 6) for y in range(1, 6)]
    origin = AffinePoint(0, 0, p)
    spanned = determined_lines(pkeys(grid), p)
    rich = [line for line in lines_of(spanned.keys[spanned.richness >= 3].tolist(), p)
            if not incident(origin, line)]
    poor = [line for line in [AffineLine(None, 0, p)] + [AffineLine(s, 0, p) for s in range(p)]
            if not any(incident(q, line) for q in grid)][:36]
    inst = Instance(make_modulus(p), point_keys=pkeys(grid + [origin]), line_keys=lkeys(rich + poor))
    assert 2 * len(rich) < inst.n
    got = two_pencil_extract(inst)
    assert got == reference_extract(inst.points, inst.lines)
    assert got.apex1 == 1 * p + 1 and got.points


def test_two_pencil_structural_contract():
    # on instances regular at their own mean richness: the grid avoids the
    # apex line and both pencils stay within c2 * K
    cases = [full_plane(5), full_plane(7)]
    c2 = Fraction(2)
    for inst in cases:
        p = inst.p
        grid = two_pencil_extract(inst)
        apex1, apex2 = points_of((grid.apex1, grid.apex2), p)
        points = points_of(grid.points, p)
        assert all(not incident(q, apex_line_of(grid, p)) for q in points)
        cap = c2 * grid.mean_richness
        assert len(grid.pencil1) <= cap and len(grid.pencil2) <= cap
        line_set = set(inst.lines)
        for q in points:
            assert join_points(apex1, q) in line_set
            assert join_points(apex2, q) in set(lines_of(grid.rich_lines2, p))
        for pencil, apex in ((grid.pencil1, apex1), (grid.pencil2, apex2)):
            pencil = lines_of(pencil, p)
            for line in pencil:
                assert line in line_set and incident(apex, line)
            for q in points:
                assert any(incident(q, line) for line in pencil)


def test_grid_is_every_candidate_the_apex_filters_keep():
    # the extraction finds the apex line among the joins to apex1; the
    # reference tests each candidate against the apex line's key in the
    # masks of incidence_degrees and joins it to apex2: no eligible
    # candidate may be dropped, and none kept off the filter
    cases = [full_plane(23), elekes_construction(6, 3, 101)]
    cases += [random_instance(p, 300, 300, seed) for p, seed in ((31, 1), (31, 2), (101, 3), (1009, 4))]
    cases += random_instances(20, seed=77, max_m=200, max_n=200)
    grids, dropped = 0, 0
    for inst in cases:
        p = inst.p
        extractions = [step.grid for step in grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4)).steps]
        try:
            extractions.append(two_pencil_extract(inst))
        except (EmptyGridError, NoIncidencesError):
            pass
        for g in extractions:
            cx, cy = np.divmod(np.array(g.candidates, dtype=np.int64), p)
            off = incidence_degrees(cx, cy, np.array([line_through(g.apex1, g.apex2, p)]), p)[0] == 0
            joined = np.isin(line_keys(*divmod(g.apex2, p), cx, cy, p), g.rich_lines2)
            assert g.points == tuple((cx * p + cy)[off & joined].tolist())
            grids += 1
            dropped += int(np.count_nonzero(~off)) - 1  # apex2 itself is on the apex line
    assert grids >= 20 and dropped > 0


def test_grid_size_bound_when_preconditions_hold():
    inst = full_plane(5)
    c1 = Fraction(1, 2)
    grid = two_pencil_extract(inst)
    K = grid.mean_richness
    pre = extraction_preconditions(K, inst.m, inst.n, c1)
    if all(ok for _, ok in pre):
        assert len(grid.points) >= grid_size_lower_bound(K, inst.m, inst.n, c1)


def test_grid_cover_full_plane_certificate():
    inst = full_plane(5)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    assert len(cert.steps) == 1
    grid = cert.steps[0].grid
    assert (grid.apex1, grid.apex2) == (0, 1)  # (0, 0) and (0, 1)
    assert len(grid.points) == 20
    assert cert.leftover == (0, 1, 2, 3, 4)  # the column x = 0
    report = verify_certificate(inst, cert)
    assert report.passed, report.violations


def test_grid_cover_no_incidences_is_empty_process():
    mod = make_modulus(7)
    inst = Instance(mod, point_keys=pkeys([AffinePoint(0, 0, 7)]), line_keys=lkeys([AffineLine(1, 1, 7)]))
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    assert cert.steps == ()
    # the lone point has a dearth of incidences, so the regular set is empty
    assert cert.leftover == ()
    assert verify_certificate(inst, cert).passed


def test_grid_cover_disjoint_union_random():
    for inst in random_instances(15, seed=77, max_m=60, max_n=60):
        cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
        regular = set(cert.partition.regular)
        seen = set()
        for step in cert.steps:
            pts = set(step.grid.points)
            assert pts <= regular
            assert not (pts & seen)
            seen |= pts
        assert seen | set(cert.leftover) == regular
        assert sum(len(s.grid.points) for s in cert.steps) + len(cert.leftover) == len(regular)
        assert verify_certificate(inst, cert).passed


def test_verify_certificate_detects_overlap():
    inst = full_plane(5)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    step = cert.steps[0]
    corrupted = dataclasses.replace(cert, steps=(step, step))
    report = verify_certificate(inst, corrupted)
    assert not report.passed
    assert "grids-overlap" in report.codes()


def test_verify_certificate_detects_apex_line_contact():
    inst = full_plane(5)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    step = cert.steps[0]
    on_apex_line = 3  # (0, 3) lies on x = 0, the apex line
    bad_grid = dataclasses.replace(step.grid, points=step.grid.points + (on_apex_line,))
    bad_step = CoverStep(bad_grid, step.input_size, step.preconditions, step.size_bound)
    corrupted = dataclasses.replace(
        cert, steps=(bad_step,),
        leftover=tuple(q for q in cert.leftover if q != on_apex_line))
    report = verify_certificate(inst, corrupted)
    assert not report.passed
    assert "apex-line-contact" in report.codes()


def test_normalize_grid_full_plane():
    inst = full_plane(5)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    grid = cert.steps[0].grid
    norm = normalize_grid(grid, inst)
    assert len(norm.xs) <= len(grid.pencil2)
    assert len(norm.ys) <= len(grid.pencil1)
    assert set(q.x for q in norm.image.points) <= set(norm.xs)
    assert set(q.y for q in norm.image.points) <= set(norm.ys)


def test_normalize_singleton_grid():
    inst = full_plane(5)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    grid = dataclasses.replace(cert.steps[0].grid, points=cert.steps[0].grid.points[:1])
    norm = normalize_grid(grid, inst)
    assert len(norm.xs) == 1 and len(norm.ys) == 1


def test_normalize_preserves_incidences_random():
    # over random certified grids, I(H, mapped lines) equals the original
    # count against the lines minus the apex line; sparse random instances
    # rarely yield grids, so dense ones are mixed in
    dense = [
        random_instance(p, (p * p * 3) // 4, ((p * p + p) * 3) // 4, seed)
        for seed in range(12) for p in (5, 7, 11, 13)
    ]
    cases = dense + [full_plane(p) for p in (5, 7, 11)] + random_instances(40, seed=909, max_m=70, max_n=70)
    checked = 0
    for inst in cases:
        cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 16))
        for step in cert.steps:
            grid = step.grid
            norm = normalize_grid(grid, inst)
            kept = inst.line_keys[inst.line_keys != apex_line_of(grid, inst.p).key()]
            before = Instance(inst.modulus, point_keys=grid.points, line_keys=kept)
            assert count_incidences(norm.image) == count_incidences(before)
            checked += 1
        if checked >= 50:
            break
    assert checked >= 50


def _full_plane_cover():
    inst = full_plane(5)
    return inst, grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))


def _with_grid(cert, **changes):
    """cert with its one step's grid fields replaced."""
    step = cert.steps[0]
    return dataclasses.replace(cert, steps=(dataclasses.replace(step, grid=dataclasses.replace(step.grid, **changes)),))


def _codes(inst, cert):
    report = verify_certificate(inst, cert)
    assert report.passed == (not report.violations)
    return [v.code for v in report.violations]


def test_verify_certificate_detects_partition_mismatch():
    inst, cert = _full_plane_cover()
    part = cert.partition
    moved = dataclasses.replace(part, low=part.regular[:1], regular=part.regular[1:])
    assert "partition-mismatch" in _codes(inst, dataclasses.replace(cert, partition=moved))
    assert _codes(inst, dataclasses.replace(cert, mean_richness=cert.mean_richness + 1)) == ["partition-mismatch"]
    reordered = dataclasses.replace(part, regular=part.regular[::-1])
    assert _codes(inst, dataclasses.replace(cert, partition=reordered)) == ["partition-mismatch"]


def test_verify_certificate_recheck_catches_a_faulty_richness_histograms(monkeypatch):
    # a fault in richness_histograms shows in the verifier, whose re-check of
    # the partition calls the join itself, on the side the extraction did not
    # probe (the column side on full_plane(5)), not richness_histograms
    import incidencelab.cover as cover
    join = cover.richness_histograms

    def faulty_join(inst):
        hist = join(inst)
        per_point = hist.per_point.copy()
        per_point[:1] = 0
        return RichnessHistogram(per_point, hist.per_line, int(per_point.sum()))

    monkeypatch.setattr(cover, "richness_histograms", faulty_join)
    inst = full_plane(5)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    assert cert.partition.low == (0,)  # the point (0, 0) lost its 6 lines
    assert "partition-mismatch" in _codes(inst, cert)


def test_verify_certificate_catches_a_fault_in_the_degree_join(monkeypatch):
    # a fault inside the join itself, in the degrees that the C kernel or the
    # numpy fallback places on the first item, reaches the extraction's
    # partition but not the verifier's re-check: the fault sits on the item
    # side, and the re-check probes the other side, where the points are the
    # probes (full_plane(5) probes its slope classes, the re-check its columns)
    import ctypes

    import incidencelab.incidence as incidence
    lib, join = incidence._load_backend().lib, incidence._group_degrees

    def faulty_join(*args):
        per_item, per_val = join(*args)
        per_item = per_item.copy()
        per_item[:1] = 0
        return per_item, per_val

    monkeypatch.setattr(incidence, "_group_degrees", faulty_join)
    if lib is not None:
        probe = lib.probe

        def faulty_probe(*args):
            count, per_item = probe(*args), args[6]
            if per_item is not None:
                ctypes.c_int64.from_address(per_item).value = 0
            return count

        monkeypatch.setattr(lib, "probe", faulty_probe)
    inst = full_plane(5)
    for _ in each_backend():
        cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
        assert cert.partition.low == (0,)  # the point (0, 0) kept only its vertical line
        assert "partition-mismatch" in _codes(inst, cert)


@st.composite
def degree_instances(draw):
    """Instances over F_p for a p from 3 to 2^31 - 1: random points, runs
    of points in one column, random lines, vertical lines (perhaps none),
    and lines of a few slopes through drawn points."""
    p = draw(st.sampled_from([3, 13, 1009, 2**31 - 1]))
    residue = residues(p)
    pts = set(draw(st.lists(st.tuples(residue, residue), min_size=1, max_size=20)))
    for _ in range(draw(st.integers(0, 2))):
        x, y = draw(residue), draw(residue)
        pts |= {(x, (y + k) % p) for k in range(draw(st.integers(1, 9)))}
    on = st.lists(st.sampled_from(sorted(pts)), max_size=6)
    lines = {s * p + t for s, t in draw(st.lists(st.tuples(residue, residue), max_size=20))}
    lines |= {p * p + x0 for x0 in draw(st.lists(residue, max_size=4))}
    lines |= {p * p + x for x, _ in draw(on)}
    for s in draw(st.lists(residue, max_size=3)):
        lines |= {s * p + (y - s * x) % p for x, y in draw(on)}
    return Instance(make_modulus(p), point_keys=[x * p + y for x, y in pts], line_keys=sorted(lines))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(degree_instances())
def test_join_degrees_from_either_side_equal_the_masks(inst):
    # the extraction's degrees (the cheaper side of the join) and the
    # re-check's (the other side), on the C kernels and on the numpy fallback
    import incidencelab.incidence as incidence
    want = incidence_degrees(*inst.xy, inst.line_keys, inst.p)
    for _ in each_backend():
        sides = []
        for cheaper in (True, False):
            record = {}
            hist = incidence._join(inst, record, degrees=True, cheaper=cheaper)
            sides.append(record["side"])
            assert hist.per_point.tolist() == want[0].tolist(), record["side"]
            assert hist.per_line.tolist() == want[1].tolist(), record["side"]
            assert hist.total == int(want[0].sum())
        assert sorted(sides) == ["column", "slope"]


def _column_instance():
    """13 lines of 13 slopes against the 13 columns of full_plane(13)."""
    plane = full_plane(13)
    return Instance(plane.modulus, point_keys=plane.point_keys, line_keys=[s * 13 + 2 * s for s in range(13)])


def test_recheck_probes_the_side_the_extraction_did_not(monkeypatch):
    import incidencelab.cover as cover
    join, records = cover._join, []
    monkeypatch.setattr(cover, "_join", lambda inst, record, **kw: join(inst, records.append(record) or record, **kw))
    for inst, extraction, recheck in ((full_plane(13), "slope", "column"), (_column_instance(), "column", "slope")):
        assert count_incidences(inst, stats=True)[1].side == extraction
        cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
        records.clear()
        assert verify_certificate(inst, cert).passed
        assert [record["side"] for record in records] == [recheck]
    # as many slope classes and columns as lines and points, and no lines
    big = 2**31 - 1
    rng = np.random.default_rng(3)
    for inst in (Instance(make_modulus(big), point_keys=rng.integers(0, big * big, 9),
                          line_keys=rng.integers(0, big * big, 9)),
                 Instance(make_modulus(13), point_keys=full_plane(13).point_keys, line_keys=[])):
        assert verify_certificate(inst, grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))).passed


def test_verify_certificate_builds_no_view_of_the_instance():
    # on an instance the cover never read, the verifier, its re-check from
    # either side included, reads the key columns alone on either backend
    for _ in each_backend():
        for inst in (full_plane(13), _column_instance()):
            cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
            fresh = Instance(inst.modulus, point_keys=inst.point_keys, line_keys=inst.line_keys)
            assert verify_certificate(fresh, cert).passed
            assert set(vars(fresh)) == {"modulus", "point_keys", "line_keys"}


def test_verify_certificate_builds_no_mask_of_every_pair(monkeypatch):
    # the masks that remain in the verifier (apex line, pencil apexes, pencil
    # coverage) span a grid or a pencil, never the m*n cells of the instance;
    # at p = 79 both sides of the join cost more than m*n/4 (item, group) pairs
    import incidencelab.cover as cover
    masks, sizes = cover.incidence_degrees, []
    monkeypatch.setattr(cover, "incidence_degrees", lambda px, py, keys, p: (
        sizes.append(px.size * keys.size), masks(px, py, keys, p))[1])
    inst = random_instance(79, 300, 300, 1)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    assert cert.steps and verify_certificate(inst, cert).passed
    assert sizes and max(sizes) < inst.m * inst.n


def test_verify_certificate_detects_grid_outside_regular_set():
    inst, cert = _full_plane_cover()
    part = cert.partition
    q = cert.steps[0].grid.points[0]
    moved = dataclasses.replace(part, high=(q,), regular=tuple(r for r in part.regular if r != q))
    assert _codes(inst, dataclasses.replace(cert, partition=moved)) == [
        "partition-mismatch", "grid-not-regular-subset", "union-identity"]


def test_verify_certificate_detects_oversized_pencil():
    inst, cert = _full_plane_cover()
    grid = cert.steps[0].grid
    # 5 lines through the apex plus 8 that miss it exceed the cap c2 K = 12
    extra = lkeys(line for line in inst.lines if not incident(point_of(grid.apex1, 5), line))[:8]
    report = verify_certificate(inst, _with_grid(cert, pencil1=grid.pencil1 + extra))
    assert [v.code for v in report.violations] == ["pencil-size"] + ["pencil-apex"] * 8
    assert report.violations[0].message == "grid 0 pencil1 has 13 lines, cap 12"



def test_verify_certificate_detects_coincident_apexes():
    # one point as both apexes determines no apex line: the verifier flags
    # it and runs the other checks
    inst, cert = _full_plane_cover()
    grid = cert.steps[0].grid
    assert _codes(inst, _with_grid(cert, apex2=grid.apex1, pencil2=grid.pencil1)) == ["apex-coincident"]
    report = verify_certificate(inst, _with_grid(cert, apex2=grid.apex1))
    assert [(v.code, v.message) for v in report.violations] == [
        ("apex-coincident", "grid 0 has one point as both apexes, so no apex line")] + [
        ("pencil-apex", "grid 0 pencil2 has a line missing its apex")] * 5

def test_verify_certificate_detects_pencil_line_outside_instance():
    p = 7
    inst = random_instance(p, 36, 42, 0)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    assert verify_certificate(inst, cert).passed
    grid = cert.steps[0].grid
    assert grid.apex1 == 0  # (0, 0)
    missing = AffineLine(2, 0, p)  # through the apex, not a line of inst
    assert missing not in set(inst.lines)
    report = verify_certificate(inst, _with_grid(cert, pencil1=grid.pencil1 + (missing.key(),)))
    assert [v.code for v in report.violations] == ["pencil-not-in-lines"]
    assert report.violations[0].message == "grid 0 pencil1 uses a line outside the instance"


def test_verify_certificate_detects_pencil_line_off_apex():
    inst, cert = _full_plane_cover()
    grid = cert.steps[0].grid
    off = AffineLine(1, 3, 5).key()  # y = x + 3 misses apex2 = (0, 1)
    report = verify_certificate(inst, _with_grid(cert, pencil2=(off,) + grid.pencil2))
    assert [(v.code, v.message) for v in report.violations] == [
        ("pencil-apex", "grid 0 pencil2 has a line missing its apex")]


def test_verify_certificate_detects_uncovered_grid_points():
    inst, cert = _full_plane_cover()
    grid = cert.steps[0].grid
    report = verify_certificate(inst, _with_grid(cert, pencil1=grid.pencil1[1:], pencil2=grid.pencil2[:3]))
    # y = 0 carries 4 grid points; y = 3x + 1 and y = 4x + 1 carry 4 each
    assert [(v.code, v.message) for v in report.violations] == [
        ("pencil-coverage", "grid 0 pencil1 misses 4 grid points"),
        ("pencil-coverage", "grid 0 pencil2 misses 8 grid points")]


def test_verify_certificate_detects_grid_below_size_bound():
    inst, cert = _full_plane_cover()
    step = cert.steps[0]
    held = CoverStep(step.grid, step.input_size, (("held", True),), Fraction(41, 2))
    report = verify_certificate(inst, dataclasses.replace(cert, steps=(held,)))
    assert [(v.code, v.message) for v in report.violations] == [
        ("size-lower-bound", "grid 0 has 20 points, below the guaranteed 41/2")]
    # a failed precondition voids the guarantee
    void = CoverStep(step.grid, step.input_size, (("held", True), ("failed", False)), Fraction(41, 2))
    assert verify_certificate(inst, dataclasses.replace(cert, steps=(void,))).passed


def test_verify_certificate_detects_broken_union():
    inst, cert = _full_plane_cover()
    assert _codes(inst, dataclasses.replace(cert, leftover=cert.leftover[1:])) == [
        "union-identity", "union-identity"]
    # a repeated leftover point reassembles the set but miscounts it
    report = verify_certificate(inst, dataclasses.replace(cert, leftover=cert.leftover + cert.leftover[:1]))
    assert [(v.code, v.message) for v in report.violations] == [
        ("union-identity", "grid sizes plus leftover do not account for the regular set")]
    # a grid point also listed as leftover
    q = cert.steps[0].grid.points[0]
    assert _codes(inst, dataclasses.replace(cert, leftover=cert.leftover + (q,))) == [
        "union-identity", "grids-overlap"]


def reference_normalize(grid, inst):
    """Oracle: the normalization one object at a time, through the
    per-object map of conftest; the image becomes keys only in the returned
    Instance."""
    p = inst.p
    tau = map_from_points(point_of(grid.apex1, p), point_of(grid.apex2, p))
    image_points = [apply_point(tau, q) for q in points_of(grid.points, p)]
    image_lines = [apply_line(tau, line) for line in inst.lines if line != apex_line_of(grid, p)]
    return NormalizedGrid(tau, Instance(inst.modulus, point_keys=pkeys(image_points), line_keys=lkeys(image_lines)),
                          tuple(sorted({q.x for q in image_points})), tuple(sorted({q.y for q in image_points})))


def test_normalize_grid_matches_the_object_path_on_covers():
    cases = [full_plane(p) for p in (5, 7, 11)] + [random_instance(7, 36, 42, seed) for seed in range(6)]
    checked = 0
    for inst in cases:
        for step in grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 16)).steps:
            assert normalize_grid(step.grid, inst) == reference_normalize(step.grid, inst)
            checked += 1
    assert checked >= 5


@st.composite
def grids_and_lines(draw):
    """Two apexes, points off their line and an instance of any lines (the
    apex line, and vertical lines, among them) over F_p for small and for
    the largest p."""
    p = draw(st.sampled_from([3, 1009, 2**31 - 1]))
    residue = residues(p)
    point = st.builds(AffinePoint, residue, residue, st.just(p))
    apex1 = draw(point)
    apex2 = draw(point.filter(lambda q: q != apex1))
    apex_line = join_points(apex1, apex2)
    points = draw(st.lists(point.filter(lambda q: not incident(q, apex_line)), min_size=1, max_size=12))
    line = st.one_of(st.builds(AffineLine, residue, residue, st.just(p)),
                     st.builds(AffineLine, st.none(), residue, st.just(p)))
    lines = draw(st.lists(line, max_size=20)) + [apex_line]
    grid = PencilGrid(*pkeys((apex1, apex2)), pkeys(points), (), (), (), (), (), Fraction(0))
    return grid, Instance(make_modulus(p), point_keys=[], line_keys=lkeys(lines))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(grids_and_lines())
def test_normalize_grid_matches_the_object_path(case):
    grid, inst = case
    assert normalize_grid(grid, inst) == reference_normalize(grid, inst)


def test_normalize_grid_rejects_a_point_on_the_apex_line():
    inst, cert = _full_plane_cover()
    grid = cert.steps[0].grid
    with pytest.raises(PointSentToInfinityError) as err:
        normalize_grid(dataclasses.replace(grid, points=grid.points + (3,)), inst)
    assert err.value.point == AffinePoint(0, 3, 5)  # on the apex line x = 0


def count_objects(monkeypatch) -> Counter:
    """A counter of the AffinePoint and AffineLine objects built from now on,
    by class name."""
    built = Counter()
    for cls in (AffinePoint, AffineLine):
        def counted(self, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def test_cover_layer_builds_no_point_or_line_objects(tmp_path, monkeypatch):
    # the records hold keys, and the apexes reach the projective map as
    # keys: normalize_grid, verify_certificate, cover --normalize and
    # extract build no point or line object
    inst = full_plane(7)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    built = count_objects(monkeypatch)
    assert verify_certificate(inst, cert).passed
    assert [normalize_grid(step.grid, inst).image.m for step in cert.steps] == [42]
    assert not built, dict(built)
    for p in (7, 23):
        path = str(tmp_path / f"plane{p}.json")
        write_instance(full_plane(p), path)
        assert cli(["cover", "--normalize", "--input", path, "--output", str(tmp_path / "cover.json")]) == 0
        assert cli(["extract", "--input", path, "--output", str(tmp_path / "extract.json")]) == 0
        assert not built, f"p = {p}: {dict(built)}"


def test_apply_map_builds_no_point_or_line_objects(monkeypatch):
    # the map reads and writes key columns; a translation permutes the plane
    inst = full_plane(23)
    built = count_objects(monkeypatch)
    assert apply_map(ProjMap(((1, 0, 5), (0, 1, 7), (0, 0, 1)), 23), inst) == inst
    assert not built, dict(built)


def test_report_commands_build_no_point_or_line_objects(tmp_path, monkeypatch):
    # beck, distances, energy and an elekes sweep cell with the energy on
    # read key columns from the file to the JSON
    points = tmp_path / "points.json"
    write_instance(random_instance(101, 60, 0, 5), str(points))
    lines = [{"kind": "sl", "s": s, "t": t} for s in range(1, 4) for t in range(1, 13)]
    energy_input = tmp_path / "energy.json"
    energy_input.write_text(json.dumps({"p": 101, "A": [1, 2, 3, 4], "B": [5, 6], "lines": lines}))
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"seed": 1, "families": [{"family": "elekes", "p": [101], "a": [4], "c": [3]}]}))
    built = count_objects(monkeypatch)
    out = str(tmp_path / "out.json")
    for argv in (["beck", "--input", str(points)], ["distances", "--input", str(points)],
                 ["energy", "--input", str(energy_input)], ["sweep", "--config", str(config), "--format", "json"]):
        assert cli(argv + ["--output", out]) == 0
        assert not built, f"{argv[0]} built {dict(built)}"
    assert '"E": ' in open(out).read()  # the sweep cell ran its energy count
