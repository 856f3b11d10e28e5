import dataclasses
from fractions import Fraction

import pytest

from conftest import random_instances
from incidencelab.constructions import full_plane, random_instance
from incidencelab.cover import (
    CoverStep,
    extraction_preconditions,
    grid_cover,
    grid_size_lower_bound,
    normalize_grid,
    richness_partition,
    two_pencil_extract,
    verify_certificate,
)
from incidencelab.errors import EmptyGridError, EmptyInstanceError, NoIncidencesError
from incidencelab.field import make_modulus
from incidencelab.incidence import count_incidences
from incidencelab.plane import AffineLine, AffinePoint, Instance, incident, line_through


def test_partition_full_plane_test_constants():
    part = richness_partition(full_plane(5), Fraction(1, 2), 2)
    assert part.mean_richness == 6
    assert part.low == () and part.high == ()
    assert len(part.regular) == 25


def test_partition_isolated_point_in_low():
    mod = make_modulus(7)
    inst = Instance(mod, [AffinePoint(0, 0, 7), AffinePoint(1, 1, 7)], [AffineLine(0, 1, 7)])
    # (1,1) on y=1, (0,0) on nothing; K = 1/2, low threshold 1/4
    part = richness_partition(inst, Fraction(1, 2), 2)
    assert AffinePoint(0, 0, 7) in part.low
    assert AffinePoint(1, 1, 7) in part.high  # degree 1 >= 2 * 1/2


def test_partition_extreme_thresholds():
    # the production-scale factor pair (2^-11, 2^15) leaves every point of a
    # small regular instance in the middle band
    part = richness_partition(full_plane(5), Fraction(1, 2**11), 2**15)
    assert part.low == () and part.high == ()
    assert len(part.regular) == 25


def test_partition_empty_instance():
    mod = make_modulus(7)
    with pytest.raises(EmptyInstanceError):
        richness_partition(Instance(mod, [], [AffineLine(1, 1, 7)]), Fraction(1, 2), 2)


def test_two_pencil_full_plane_trace():
    # hand-simulation: every line of the full plane over F_5 carries 5 >= 150/60
    # points, so the first pool is all 30 lines; the first qualifying point in
    # lexicographic order is (0,0); all other 24 points are joined to it; the
    # second pool is again all lines and the second apex is (0,1); the grid is
    # everything off the vertical joining line x = 0
    inst = full_plane(5)
    grid = two_pencil_extract(inst.points, inst.lines)
    assert grid.apex1 == AffinePoint(0, 0, 5)
    assert grid.apex2 == AffinePoint(0, 1, 5)
    assert len(grid.rich_lines) == 30
    assert len(grid.candidates) == 24
    assert len(grid.rich_lines2) == 30
    assert len(grid.points) == 20
    assert set(grid.points) == {q for q in inst.points if q.x != 0}
    assert grid.apex_line == AffineLine(None, 0, 5)


def test_two_pencil_axis_parallel_empty_grid():
    # points {0..7}^2 with the 16 axis-parallel lines: candidates for the
    # second apex are never joined to it by an axis-parallel line
    p = 11
    points = [AffinePoint(x, y, p) for x in range(8) for y in range(8)]
    lines = [AffineLine(0, t, p) for t in range(8)] + [AffineLine(None, x, p) for x in range(8)]
    with pytest.raises(EmptyGridError):
        two_pencil_extract(points, lines)


def test_two_pencil_no_incidences():
    p = 7
    with pytest.raises(NoIncidencesError):
        two_pencil_extract([AffinePoint(0, 0, p)], [AffineLine(1, 1, p)])


def test_two_pencil_structural_contract():
    # on instances regular at their own mean richness: the grid avoids the
    # apex line and both pencils stay within c2 * K
    cases = [full_plane(5), full_plane(7)]
    c2 = Fraction(2)
    for inst in cases:
        grid = two_pencil_extract(inst.points, inst.lines)
        assert all(not incident(q, grid.apex_line) for q in grid.points)
        cap = c2 * grid.mean_richness
        assert len(grid.pencil1) <= cap and len(grid.pencil2) <= cap
        line_set = set(inst.lines)
        for q in grid.points:
            assert line_through(grid.apex1, q) in line_set
            assert line_through(grid.apex2, q) in set(grid.rich_lines2)
        for pencil, apex in ((grid.pencil1, grid.apex1), (grid.pencil2, grid.apex2)):
            for line in pencil:
                assert line in line_set and incident(apex, line)
            for q in grid.points:
                assert any(incident(q, line) for line in pencil)


def test_grid_size_bound_when_preconditions_hold():
    inst = full_plane(5)
    c1 = Fraction(1, 2)
    grid = two_pencil_extract(inst.points, inst.lines)
    K = grid.mean_richness
    pre = extraction_preconditions(K, inst.m, inst.n, c1)
    if all(ok for _, ok in pre):
        assert len(grid.points) >= grid_size_lower_bound(K, inst.m, inst.n, c1)


def test_grid_cover_full_plane_certificate():
    inst = full_plane(5)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    assert len(cert.steps) == 1
    grid = cert.steps[0].grid
    assert grid.apex1 == AffinePoint(0, 0, 5)
    assert grid.apex2 == AffinePoint(0, 1, 5)
    assert len(grid.points) == 20
    assert len(cert.leftover) == 5
    assert all(q.x == 0 for q in cert.leftover)
    report = verify_certificate(inst, cert)
    assert report.passed, report.violations


def test_grid_cover_no_incidences_is_empty_process():
    mod = make_modulus(7)
    inst = Instance(mod, [AffinePoint(0, 0, 7)], [AffineLine(1, 1, 7)])
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
    on_apex_line = AffinePoint(0, 3, 5)  # lies on x = 0, the apex line
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
    norm = normalize_grid(grid, inst.lines)
    assert len(norm.xs) <= len(grid.pencil2)
    assert len(norm.ys) <= len(grid.pencil1)
    assert set(q.x for q in norm.points) <= set(norm.xs)
    assert set(q.y for q in norm.points) <= set(norm.ys)


def test_normalize_singleton_grid():
    inst = full_plane(5)
    cert = grid_cover(inst, Fraction(1, 2), 2, Fraction(1, 4))
    grid = dataclasses.replace(cert.steps[0].grid, points=cert.steps[0].grid.points[:1])
    norm = normalize_grid(grid, inst.lines)
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
            norm = normalize_grid(grid, inst.lines)
            kept = [l for l in inst.lines if l != grid.apex_line]
            before = Instance(inst.modulus, grid.points, kept)
            after = Instance(inst.modulus, norm.points, norm.lines)
            assert count_incidences(after) == count_incidences(before)
            checked += 1
        if checked >= 50:
            break
    assert checked >= 50
