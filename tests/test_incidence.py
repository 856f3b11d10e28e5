from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import each_backend, incident, keyed, random_instances, residues
from incidencelab.bounds import check_hypotheses, reference_bound, within_combinatorial_bound
from incidencelab.constructions import SeededStream, elekes_construction, full_plane, random_instance
from incidencelab.energy import PlaneInstance3D, count_point_plane, energy_reduction, line_energy
from incidencelab.errors import CompositeModulusError, InvalidParameterError, OutOfRangeError
from incidencelab.field import inv_mod_array, make_modulus
from incidencelab.incidence import (
    CountStats,
    count_incidences,
    incidence_degrees,
    join_cost,
    kernel_backend,
    max_collinear_3d,
    richness_histograms,
)
from incidencelab.plane import AffineLine, AffinePoint, Instance, pair_blocks

ENGINES = ("naive", "hash_join", "auto")


def brute_count(inst):
    """Definitional oracle: test every (point, line) pair."""
    return sum(1 for q in inst.points for line in inst.lines if incident(q, line))


def key_groups(keys, p):
    """The groups of a key column in the join, the runs of equal key // p:
    their distinct key // p and their sizes."""
    return np.unique(keys // p, return_counts=True)


@pytest.mark.parametrize("engine", ENGINES)
def test_count_examples(engine):
    assert count_incidences(full_plane(3), engine) == 36
    assert count_incidences(elekes_construction(2, 1, 7), engine) == 4
    mod = make_modulus(7)
    inst = keyed(mod, [AffinePoint(0, 0, 7)], [AffineLine(1, 1, 7)])
    assert count_incidences(inst, engine) == 0


def test_engines_agree_with_definitional_oracle():
    for inst in random_instances(30, seed=11, max_m=40, max_n=40):
        expected = brute_count(inst)
        for engine in ENGINES:
            assert count_incidences(inst, engine) == expected


def test_engine_equivalence_random_suite():
    for inst in random_instances(120, seed=5):
        assert count_incidences(inst, "naive") == count_incidences(inst, "hash_join")


def test_auto_runs_the_join_when_every_slope_is_distinct(monkeypatch):
    import incidencelab.incidence as inc
    p = 2147483647
    inst = random_instance(p, 2000, 2000, seed=8)
    assert set(key_groups(inst.line_keys[inst.line_keys < p * p], p)[1].tolist()) == {1}
    calls = []
    join = inc._join
    monkeypatch.setattr(inc, "_join", lambda *args: calls.append(args) or join(*args))
    expected = count_incidences(inst, "hash_join")
    assert len(calls) == 1
    assert count_incidences(inst, "auto") == expected == count_incidences(inst, "naive")
    assert len(calls) == 2


@pytest.mark.parametrize("cells", [1, 7, 1 << 16])
def test_naive_mask_blocks_match_oracle(monkeypatch, cells):
    # masks of one line per block, of a few lines, and of the default size
    import incidencelab.incidence as inc
    monkeypatch.setattr(inc, "_MASK_CELLS", cells)
    mod = make_modulus(7)
    columns = [AffinePoint(x, y, 7) for x in range(3) for y in range(7)]
    vertical_only = keyed(mod, columns, [AffineLine(None, x, 7) for x in (0, 2, 5)])
    assert count_incidences(vertical_only, "naive") == 14
    no_points = keyed(mod, lines=[AffineLine(1, 2, 7), AffineLine(None, 3, 7)])
    assert count_incidences(no_points, "naive") == 0
    for inst in random_instances(20, seed=13, max_m=60, max_n=60):
        assert count_incidences(inst, "naive") == brute_count(inst) == count_incidences(inst, "hash_join")


def test_monotonicity_adding_elements():
    stream = SeededStream(99)
    for inst in random_instances(20, seed=55, max_m=50, max_n=50):
        base = count_incidences(inst)
        p = inst.p
        q = AffinePoint(stream.below(p), stream.below(p), p)
        line = AffineLine(stream.below(p), stream.below(p), p)
        more_points = np.append(inst.point_keys, q.x * p + q.y)
        assert count_incidences(Instance(inst.modulus, point_keys=more_points, line_keys=inst.line_keys)) >= base
        more_lines = np.append(inst.line_keys, line.key())
        assert count_incidences(Instance(inst.modulus, point_keys=inst.point_keys, line_keys=more_lines)) >= base


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_full_plane_law(p):
    assert count_incidences(full_plane(p)) == p * p * (p + 1)


def test_counts_within_combinatorial_bound():
    for inst in random_instances(40, seed=21):
        count = count_incidences(inst)
        assert within_combinatorial_bound(count, inst.m, inst.n)


def test_richness_histograms_full_plane():
    hist = richness_histograms(full_plane(5))
    assert hist.per_point.tolist() == [6] * 25
    assert hist.per_line.tolist() == [5] * 30
    assert hist.total == 150


def test_richness_histograms_elekes():
    inst = elekes_construction(2, 1, 7)
    hist = richness_histograms(inst)
    assert set(hist.per_line.tolist()) == {2}
    assert set(hist.per_point.tolist()) <= {0, 1}
    assert hist.total == 4


def test_richness_histograms_empty_lines():
    mod = make_modulus(7)
    inst = keyed(mod, [AffinePoint(1, 2, 7)])
    hist = richness_histograms(inst)
    assert hist.per_point.tolist() == [0] and hist.per_line.size == 0
    assert hist.total == 0


def test_histogram_consistency_random():
    for inst in random_instances(25, seed=42, max_m=60, max_n=60):
        hist = richness_histograms(inst)
        assert hist.per_point.size == inst.m and hist.per_line.size == inst.n
        assert hist.per_point.sum() == hist.per_line.sum() == hist.total
        assert hist.total == count_incidences(inst)


# ---------------------------------------------------------------------------
# 3D point-plane counting
# ---------------------------------------------------------------------------

def test_count_point_plane_coordinate_plane():
    points = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    inst3 = PlaneInstance3D.build(3, points, [(0, 0, 1, 0)])
    assert count_point_plane(inst3) == 9


def test_count_point_plane_two_points():
    inst3 = PlaneInstance3D.build(5, [(0, 0, 0), (1, 1, 1)], [(0, 0, 1, 0)])
    assert count_point_plane(inst3) == 1


def test_count_point_plane_matches_energy_reduction():
    lines = keyed(make_modulus(5), lines=[AffineLine(0, 0, 5), AffineLine(1, 0, 5)])
    inst3 = energy_reduction([0, 1], lines)
    # oracle: enumerate all point-plane pairs directly
    direct = 0
    for x, y, z in inst3.points:
        for a, b, c, d in inst3.planes:
            if (a * x + b * y + c * z - d) % 5 == 0:
                direct += 1
    assert direct == 10
    assert count_point_plane(inst3) == direct == line_energy([0, 1], lines).value


def test_count_point_plane_shared_normals_random():
    # oracle: the per-plane loop in exact integers; planes share a few
    # normals and half of them pass through a point, up to p = 2^31 - 1
    rng = np.random.default_rng(31)
    for p in (5, 7, 101, 1009, 1048573, 2**31 - 1):
        for _ in range(4):
            points = rng.integers(0, p, size=(int(rng.integers(1, 60)), 3)).tolist()
            normals = [tuple(v) for v in rng.integers(0, p, size=(3, 3)).tolist() if any(v)]
            planes = []
            for a, b, c in normals:
                for x, y, z in points[:10]:
                    planes.append((a, b, c, a * x + b * y + c * z))
                planes += [(a, b, c, d) for d in rng.integers(0, p, size=10).tolist()]
            inst3 = PlaneInstance3D.build(p, points, planes)
            want = sum((a * x + b * y + c * z - d) % p == 0
                       for a, b, c, d in inst3.planes for x, y, z in inst3.points)
            assert count_point_plane(inst3) == want


def brute_max_collinear(points, p):
    """Oracle: check every pair-defined line by membership testing."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return 1
    best = 1
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            base, other = pts[i], pts[j]
            d = tuple((other[k] - base[k]) % p for k in range(3))
            count = 0
            for q in pts:
                # q on the line base + t*d iff (q - base) is parallel to d
                v = tuple((q[k] - base[k]) % p for k in range(3))
                parallel = all(
                    (v[a] * d[b] - v[b] * d[a]) % p == 0
                    for a in range(3) for b in range(a + 1, 3)
                )
                if parallel:
                    count += 1
            best = max(best, count)
    return best


def test_max_collinear_examples():
    assert max_collinear_3d([(0, 0, 0), (1, 1, 1), (2, 2, 2)], 5) == 3
    assert max_collinear_3d([(3, 1, 4)], 7) == 1
    # coordinates are residues: (5, 5, 5) is the origin mod 5
    assert max_collinear_3d([(0, 0, 0), (5, 5, 5), (1, 2, 3)], 5) == 2
    grid = [(x, s, 0) for x in (0, 1) for s in (0, 1)]
    assert brute_max_collinear(grid, 5) == 2
    assert max_collinear_3d(grid, 5) == 2


@pytest.mark.parametrize("p", (3, 1048573, 2147483629, 2147483647))
def test_max_collinear_exact_at_field_edges(p):
    stream = SeededStream(p)
    rand = [(stream.below(p), stream.below(p), stream.below(p)) for _ in range(8)]
    # planted lines with directions of each normal form: (1, v, w) with
    # coordinates near p, (0, 1, w) and (0, 0, 1)
    d = (p - 1, p // 2 + 3, p - 7)
    first = [tuple((5 + t * c) % p for c in d) for t in range(6)]
    second = [(3 % p, t % p, (2 * t + 1) % p) for t in range(5)]
    third = [(p - 2, p - 3, (t * 7) % p) for t in range(4)]
    for pts in (rand + first + second + third, rand + second, third, rand):
        assert max_collinear_3d(pts, p) == brute_max_collinear(pts, p)
    assert max_collinear_3d(first + rand, p) >= min(6, p)


def test_max_collinear_matches_oracle_random():
    stream = SeededStream(400)
    for _ in range(25):
        p = (5, 7, 11)[stream.below(3)]
        pts = {(stream.below(p), stream.below(p), stream.below(p)) for _ in range(stream.below(12) + 2)}
        pts = sorted(pts)
        assert max_collinear_3d(pts, p) == brute_max_collinear(pts, p)


# ---------------------------------------------------------------------------
# Reference bounds
# ---------------------------------------------------------------------------

def test_reference_bound_regimes():
    label, value = reference_bound(100, 5)
    assert label == "n < m^(1/2)" and value == 100.0
    label, value = reference_bound(100, 100)
    assert label == "m^(7/8) < n < m^(8/7)"
    assert value == pytest.approx(100 ** (22 / 15), rel=1e-12)
    label, value = reference_bound(100, 50)
    assert label == "m^(1/2) < n < m^(7/8)" and value == pytest.approx(10 * 50)
    label, value = reference_bound(10, 50)
    assert label == "m^(8/7) < n < m^2" and value == pytest.approx(10 * 50**0.5)
    label, value = reference_bound(3, 500)
    assert label == "m^2 < n" and value == 500.0


def test_reference_bound_vinh_substitution():
    # m = n = q^(3/2) with q = 25 gives mn/q + sqrt(q) sqrt(mn) = 2 q^2
    q = 25
    m = n = 125
    _, value = reference_bound(m, n, q, "vinh")
    assert value == pytest.approx(2 * q * q)


def test_reference_bound_combinatorial_exact_form():
    _, value = reference_bound(16, 9, which="combinatorial")
    assert value == min(4 * 9 + 16, 16 * 3 + 9)


def test_within_combinatorial_bound_boundaries():
    # I = m^(1/2) n + m exactly is allowed, one more is not
    m, n = 16, 9
    bound = 4 * 9 + 16
    assert within_combinatorial_bound(bound, m, n)
    assert not within_combinatorial_bound(bound + 1, m, n)


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------

def test_hypotheses_elekes_example():
    report = check_hypotheses("1.3", a=2, b=8, n=8, p=31)
    assert report.passed
    names = [c.name for c in report.conditions]
    assert names == ["a <= b", "a b^2 <= n^3", "a n << p^2"]


def test_hypotheses_full_plane_exact_failure():
    # the characteristic condition fails for every full plane with p >= 5:
    # n^13 > m^2 p^15 holds with exact integers
    for p in (5, 7, 11, 13):
        m, n = p * p, p * p + p
        assert n**13 > m**2 * p**15  # oracle of the exact comparison
        report = check_hypotheses("1.2", m=m, n=n, p=p)
        assert not report.passed
        by_name = {c.name: c.passed for c in report.conditions}
        assert by_name["m^(-2) n^13 << p^15"] is False
        assert by_name["m^(7/8) < n"] is True
        assert by_name["n < m^(8/7)"] is True


def test_hypotheses_a_greater_than_b_fails():
    report = check_hypotheses("1.3", a=9, b=2, n=10, p=101)
    assert not report.passed
    assert report.conditions[0].name == "a <= b" and not report.conditions[0].passed


def test_hypotheses_theorem_14():
    report = check_hypotheses("1.4", r=10, s=20, p=7)
    by_name = {c.name: c.passed for c in report.conditions}
    assert by_name["r <= s"] is True
    assert by_name["r << p^2"] is True
    report = check_hypotheses("1.4", r=50, s=60, p=7)
    assert not report.passed


def test_ll_constant_changes_verdict():
    # 10 <= c * 9 only for c >= 10/9
    fail = check_hypotheses("1.4", r=10, s=10, p=3)
    assert not fail.passed
    ok = check_hypotheses("1.4", r=10, s=10, p=3, c=Fraction(10, 9))
    assert ok.passed


def test_hash_join_numpy_fallback_agrees(monkeypatch):
    # force the numpy probe path (used when no C compiler works): the count
    # is the sum of the degree join's per-item hits
    import incidencelab.incidence as inc
    monkeypatch.setattr(inc, "_backend", inc._Backend(None, "forced"))
    calls = []
    degrees = inc._group_degrees
    monkeypatch.setattr(inc, "_group_degrees", lambda *args: calls.append(args) or degrees(*args))
    for inst in random_instances(25, seed=66, max_m=80, max_n=80):
        assert count_incidences(inst, "hash_join") == count_incidences(inst, "naive")
    assert len(calls) == 25
    inst = elekes_construction(3, 2, 31)
    assert count_incidences(inst, "hash_join") == 36
    assert inc.kernel_backend() == ("numpy", "forced")
    # stats of the fallback: the 7 slope classes of 7 intercepts are small,
    # so each of the 49 points is probed against each of the 49 lines
    count, stats = count_incidences(full_plane(7), stats=True)
    assert (count, stats.side, stats.backend, stats.backend_reason) == (392, "slope", "numpy", "forced")
    assert stats.cost == {"slope": 49 * 8, "column": 56 * 8}
    assert stats.probes == {"flat": 2401, "bitmap": 0, "binary_search": 0, "mask": 0}
    # plain ints, so that count --stats can print them
    probes = count_incidences(random_instance(1009, 300, 3000, seed=2), stats=True)[1].probes
    assert probes["binary_search"] > 0 and all(type(n) is int for n in probes.values())


def test_int64_kernel_path_for_large_p():
    # p near 2^31: products s*x approach 2^62, far beyond float64's exact range
    p = 2147483629
    inst = random_instance(p, 400, 400, seed=12)
    assert count_incidences(inst, "hash_join") == count_incidences(inst, "naive")


def probe_side_instances(p, seed):
    """Two instances with many incidences: lines in 3 slope classes and
    points on 3 columns, each class or column holding min(32, p) or
    min(33, p) values, so the cost model probes from the slope side in the
    first and from the column side in the second.  With p > 33 the classes of
    32 values go to the flat kernel and those of 33 to the binary search."""
    stream = SeededStream(seed)
    mod = make_modulus(p)
    spread = [AffinePoint(stream.below(p), stream.below(p), p) for _ in range(200)]
    spread += [AffinePoint(0, 0, p), AffinePoint(p - 1, p - 1, p), AffinePoint(0, p - 1, p)]
    lines = [AffineLine(None, stream.below(p), p)]
    for k, size in enumerate((32, 33, 33)):
        s = (p - 1 - k) % p
        # lines through the first points of the spread, topped up at random
        ts = {(q.y - s * q.x) % p for q in spread[:size // 2]}
        while len(ts) < min(size, p):
            ts.add(stream.below(p))
        lines += [AffineLine(s, t, p) for t in ts]
    by_slope = keyed(mod, spread, lines)

    columns = (0, p - 1, stream.below(p))
    points = []
    for x, size in zip(columns, (32, 33, 33)):
        ys = {stream.below(p) for _ in range(size)} | {0, p - 1}
        points += [AffinePoint(x, y, p) for y in sorted(ys)[:min(size, p)]]
    rays = [AffineLine(stream.below(p), stream.below(p), p) for _ in range(min(150, p))]
    # lines through column points, with distinct slopes
    rays += [AffineLine(s, (q.y - s * q.x) % p, p) for s, q in enumerate(points[:p])]
    rays.append(AffineLine(None, columns[1], p))
    by_column = keyed(mod, points, rays)
    return by_slope, by_column


@pytest.mark.parametrize("p", [3, 1048573, 2147483647])
def test_compiled_kernel_matches_naive_on_both_probe_sides(p):
    import incidencelab.incidence as inc
    if inc.kernel_backend()[0] != "c":
        pytest.skip(f"compiled kernel unavailable: {inc.kernel_backend()[1]}")
    for seed in range(4):
        by_slope, by_column = probe_side_instances(p, seed)
        for inst, slope_side in ((by_slope, True), (by_column, False)):
            assert (count_incidences(inst, stats=True)[1].side == "slope") is slope_side
            if p > 33:
                keys = inst.line_keys[inst.line_keys < p * p] if slope_side else inst.point_keys
                assert sorted(set(key_groups(keys, p)[1].tolist())) == [32, 33]
            expected = count_incidences(inst, "naive")
            assert expected > 0
            assert count_incidences(inst, "hash_join") == expected


def test_no_compiler_falls_back_with_reason(monkeypatch):
    import shutil

    import incidencelab.incidence as inc
    instances = [inst for p in (31, 1048573) for inst in probe_side_instances(p, 7)]
    expected = [count_incidences(inst, "naive") for inst in instances]
    monkeypatch.setattr(inc, "_backend", None)
    monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
    assert [count_incidences(inst, "hash_join") for inst in instances] == expected
    assert inc.kernel_backend() == ("numpy", "cc not on PATH")


def test_compile_failures_are_stated(monkeypatch, tmp_path):
    import incidencelab.incidence as inc
    if inc.kernel_backend()[0] != "c":
        pytest.skip(f"compiled kernel unavailable: {inc.kernel_backend()[1]}")
    inst = elekes_construction(3, 2, 31)
    # a cache path below a regular file cannot be created
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(inc, "_backend", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
    assert count_incidences(inst, "hash_join") == 36
    backend, reason = inc.kernel_backend()
    assert backend == "numpy"
    assert reason == f"cache not writable: {tmp_path / 'file' / 'cache' / 'incidencelab'}"
    # an option the compiler rejects
    monkeypatch.setattr(inc, "_backend", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(inc, "_CFLAGS", inc._CFLAGS + ("-fno-such-option",))
    assert count_incidences(inst, "hash_join") == 36
    backend, reason = inc.kernel_backend()
    assert backend == "numpy" and reason.startswith("cc failed: ")
    assert "no-such-option" in reason
    assert not list((tmp_path / "incidencelab").iterdir())


def test_engine_partition_independence():
    # the count is a sum over lines, so any split of the line set adds up
    inst = random_instance(31, 120, 150, 9)
    half1 = Instance(inst.modulus, point_keys=inst.point_keys, line_keys=inst.line_keys[:75])
    half2 = Instance(inst.modulus, point_keys=inst.point_keys, line_keys=inst.line_keys[75:])
    assert count_incidences(half1) + count_incidences(half2) == count_incidences(inst)


# ---------------------------------------------------------------------------
# Kernel paths: flat, bitmap and binary-search probes, and collinearity
# ---------------------------------------------------------------------------

def compiled_kernels():
    import incidencelab.incidence as inc
    if inc.kernel_backend()[0] != "c":
        pytest.skip(f"compiled kernel unavailable: {inc.kernel_backend()[1]}")
    return inc._load_backend().lib


def probe_count(lib, p, items, probes, column):
    """(count, paths) of lib.probe on the sorted key columns items and
    probes.  The degrees that probe places on the items and the probes
    match the masks of every (item, probe) pair and sum to the bare count."""
    paths, placed = np.zeros(3, np.int64), np.zeros(3, np.int64)
    count = lib.probe(items, items.size, probes, probes.size, p, column, None, None, paths)
    per_item, per_probe = np.zeros(items.size, np.int64), np.zeros(probes.size, np.int64)
    assert lib.probe(items, items.size, probes, probes.size, p, column,
                     per_item.ctypes.data, per_probe.ctypes.data, placed) == count
    a, b = np.divmod(items, p)
    g, v = np.divmod(probes, p)
    s = (p - g) % p if column else g
    mask = (b[:, None] - s * a[:, None]) % p == v
    assert np.array_equal(per_item, mask.sum(axis=1)) and np.array_equal(per_probe, mask.sum(axis=0))
    assert per_item.sum() == per_probe.sum() == count and np.array_equal(placed, paths)
    return count, paths.tolist()


@pytest.mark.parametrize("p", [3, 31, 101, 151])
def test_full_plane_probes_match_naive(p):
    compiled_kernels()
    inst = full_plane(p)
    # every slope class holds p intercepts: flat for p <= 32, else bitmap
    assert set(key_groups(inst.line_keys[inst.line_keys < p * p], p)[1].tolist()) == {p}
    assert count_incidences(inst, stats=True)[1].side == "slope"
    assert count_incidences(inst, "hash_join") == count_incidences(inst, "naive") == p * p * (p + 1)


def test_bitmap_threshold_groups_match_naive():
    # p = 4099: classes of 64 intercepts (64*64 < p, binary search) and of
    # 65 (64*65 >= p, bitmap), both above the flat limit of 32
    lib = compiled_kernels()
    p = 4099
    stream = SeededStream(11)
    mod = make_modulus(p)
    points = [AffinePoint(stream.below(p), stream.below(p), p) for _ in range(3000)]
    lines = []
    for s, size in ((5, 64), (p - 1, 65), (0, 65), (17, 64)):
        ts = {(q.y - s * q.x) % p for q in points[:size // 2]}
        while len(ts) < size:
            ts.add(stream.below(p))
        lines += [AffineLine(s, t, p) for t in ts]
    inst = keyed(mod, points, lines)
    slopes, sizes = key_groups(inst.line_keys, p)
    assert sorted(sizes.tolist()) == [64, 64, 65, 65]
    assert (64 * sizes >= p).tolist() == (sizes == 65).tolist()
    expected = count_incidences(inst, "naive")
    assert expected >= 4 * 32
    assert count_incidences(inst, "hash_join") == expected
    for slope, size in zip(slopes.tolist(), sizes.tolist()):
        lines = inst.line_keys[inst.line_keys // p == slope]
        count, paths = probe_count(lib, p, inst.point_keys, lines, False)
        assert paths == ([0, 1, 0] if size == 65 else [0, 0, 1])
        assert count == count_incidences(Instance(mod, point_keys=inst.point_keys, line_keys=lines), "naive")


@pytest.mark.parametrize("column", [False, True])
def test_multi_reduction_exact_at_largest_p(column):
    # p = 2^31 - 1: item keys come within 1 of p^2 and s*a within 2p of p^2;
    # no group reaches the bitmap's 64*size >= p.  Three groups are searched
    # and one, of 5 values, is flat, on the slope and on the column side
    lib = compiled_kernels()
    p = 2**31 - 1
    stream = SeededStream(5)
    a = [p - 1, p - 2, 0, 1, 2] + [stream.below(p) for _ in range(195)]
    b = [p - 1, 0, p - 1, p - 2, 1] + [stream.below(p) for _ in range(195)]
    items = np.unique(np.array(a, dtype=np.int64) * p + np.array(b, dtype=np.int64))
    a, b = (c.tolist() for c in np.divmod(items, p))

    def key(g):  # the group key s of the probes g*p + v
        return (p - g) % p if column else g
    # three searched groups, each the residues of every third item and the
    # 40 largest residues, and one flat group of the 5 smallest
    groups = {g: {(y - key(g) * x) % p for x, y in zip(a[::3], b[::3])} | set(range(p - 40, p))
              for g in (1, p // 2, p - 1)}
    groups[7] = set(range(5))
    probes = np.array(sorted(g * p + v for g, vals in groups.items() for v in vals), dtype=np.int64)
    expected = sum((y - key(g) * x) % p in vals for g, vals in groups.items() for x, y in zip(a, b))
    assert expected >= 3 * 67
    assert probe_count(lib, p, items, probes, column) == (expected, [5, 0, 3])


def test_kernel_source_compiles_without_warnings():
    import shutil
    import subprocess

    import incidencelab.incidence as inc
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("cc not on PATH")
    proc = subprocess.run([cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", inc._SOURCE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_probe_bitmap_allocation_failure_is_a_memory_error(monkeypatch):
    # probe returns -1 when it cannot allocate its bitmap
    import incidencelab.incidence as inc

    class Exhausted:
        @staticmethod
        def probe(*args):
            return -1

    monkeypatch.setattr(inc, "_backend", inc._Backend(Exhausted, ""))
    for join in (count_incidences, richness_histograms):
        with pytest.raises(MemoryError, match="bitmap of the probe kernel"):
            join(full_plane(5))


def test_kernel_exports_are_the_bound_functions():
    # every non-static function of the kernel source has a ctypes binding,
    # so a kernel that no Python code calls cannot stay in the library
    import inspect
    import re

    import incidencelab.incidence as inc
    with open(inc._SOURCE) as fh:
        source = fh.read()
    defined = re.findall(r"^([a-z][^(;=]*?)\b(\w+)\(", source, re.M)
    exported = {name for head, name in defined if not head.startswith("static")}
    bound = set(re.findall(r"lib\.(\w+)\.argtypes", inspect.getsource(inc._load_backend)))
    assert exported == bound == {"probe", "collinear", "pinned"}


@pytest.mark.parametrize("p", [5, 101, 2147483647])
def test_max_collinear_small_and_degenerate_sets(backend, p):
    assert max_collinear_3d([(1, 2, 3)], p) == 1
    assert max_collinear_3d([(1, 2, 3), (4, 0, p - 1)], p) == 2
    # duplicates, also as unreduced coordinates, count once
    assert max_collinear_3d([(1, 2, 3), (1, 2, 3), (1 + p, 2 - p, 3)], p) == 1
    # all points on one line, one per direction normal form
    for d in ((p - 1, 3, p - 2), (0, 1, p - 1), (0, 0, 1)):
        line = [tuple((7 + t * c) % p for c in d) for t in range(min(p, 40))]
        assert max_collinear_3d(line + line[:5], p) == min(p, 40)
    with pytest.raises(InvalidParameterError):
        max_collinear_3d([], p)


def test_max_collinear_backends_match_oracle_random(backend):
    stream = SeededStream(401)
    for _ in range(30):
        p = (3, 5, 7, 11, 13)[stream.below(5)]
        pts = [(stream.below(p), stream.below(p), stream.below(p)) for _ in range(stream.below(40) + 1)]
        assert max_collinear_3d(pts, p) == brute_max_collinear(pts, p)


def max_collinear_numpy(pts, p):
    """Oracle of max_collinear_3d on r >= 1 distinct residue points, as an
    r x 3 array: over blocks of pairs (i, j), i < j, one batched inverse
    scales the directions and a lexsort groups equal (i, key) pairs."""
    best = 1
    for i, j in pair_blocks(len(pts)):
        u, v, w = ((pts[j, c] - pts[i, c]) % p for c in range(3))
        inv = inv_mod_array(np.where(u != 0, u, np.where(v != 0, v, w)), p)
        v, w = v * inv % p, w * inv % p
        key = np.where(u != 0, v * p + w, p * p + np.where(v != 0, w, p))
        order = np.lexsort((key, i))
        i, key = i[order], key[order]
        starts = np.flatnonzero((i[1:] != i[:-1]) | (key[1:] != key[:-1])) + 1
        best = max(best, 1 + int(np.diff(starts, prepend=0, append=i.size).max()))
    return best


def test_max_collinear_c_matches_numpy_fallback(monkeypatch):
    import incidencelab.incidence as inc
    compiled_kernels()

    def histograms(arr, p):
        # the C kernel's runs, then the forced numpy pass's
        c_runs = inc._collinear_runs(arr, p)
        with monkeypatch.context() as mp:
            mp.setattr(inc, "_backend", inc._Backend(None, "forced"))
            numpy_runs = inc._collinear_runs(arr, p)
        assert c_runs.tolist() == numpy_runs.tolist()
        return c_runs

    stream = SeededStream(402)
    for p in (3, 7, 31, 2147483647):
        for size in (1, 2, 3, 50, 400):
            pts = {(stream.below(p), stream.below(min(p, 9)), stream.below(p)) for _ in range(size)}
            arr = np.array(sorted(pts), dtype=np.int64).reshape(-1, 3)
            runs = histograms(arr, p)
            # each pair (i, j), i < j, is one of the c later points of i
            assert np.dot(np.arange(len(arr)), runs) == len(arr) * (len(arr) - 1) // 2
            assert 1 + np.flatnonzero(runs).max(initial=0) == max_collinear_numpy(arr, p)
    # the k of every elekes reduction of the paper sweep
    for a in (2, 3, 4, 5):
        for c in (1, 2, 4):
            red = energy_reduction(list(range(1, a + 1)), elekes_construction(a, c, 101))
            arr = np.array(red.points, dtype=np.int64).reshape(-1, 3)
            runs = histograms(arr, 101)
            assert red.k == 1 + np.flatnonzero(runs).max(initial=0) == max_collinear_numpy(arr, 101)


def test_max_collinear_runs_distances_only_without_the_kernel():
    # the numpy pass lives in distances, which a process on the C kernel
    # never runs: a count or a sweep compiles no more than incidence.py
    import subprocess
    import sys

    from conftest import package_env
    compiled_kernels()
    script = (
        "import sys, types\n"
        "from incidencelab import incidence\n"
        "pts = [(t, 2 * t + 1, 5 * t) for t in range(9)] + [(1, 1, 1), (4, 0, 2), (9, 9, 0)]\n"
        "for backend in (incidence._load_backend(), incidence._Backend(None, 'forced')):\n"
        "    incidence._backend = backend\n"
        "    loaded = type(sys.modules['incidencelab.distances']) is types.ModuleType\n"
        "    print(incidence.max_collinear_3d(pts, 101), loaded,\n"
        "          type(sys.modules['incidencelab.distances']) is types.ModuleType)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(), timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # (k, distances run before the call, distances run after it)
    assert proc.stdout == "9 False False\n9 False True\n"


def brute_collinear_runs(pts, p):
    """Oracle of the kernel's histogram: for each anchor, the later points
    counted per direction, each direction scaled by the inverse of its first
    nonzero coordinate."""
    runs = [0] * len(pts)
    for i, o in enumerate(pts):
        directions = {}
        for q in pts[i + 1:]:
            d = [(a - b) % p for a, b in zip(q, o)]
            scale = pow(next(c for c in d if c), -1, p)
            key = tuple(c * scale % p for c in d)
            directions[key] = directions.get(key, 0) + 1
        for c in directions.values():
            runs[c] += 1
    return runs


@pytest.mark.parametrize("p", [3, 2147483647])
def test_collinear_runs_match_brute_force(backend, p):
    import incidencelab.incidence as inc
    stream = SeededStream(403)
    line = [tuple((5 + t * c) % p for c in (p - 1, 2, 0)) for t in range(min(p, 9))]
    column = [(p - 1, (3 * t) % p, 0) for t in range(min(p, 6))]
    rand = [(stream.below(p), stream.below(p), stream.below(p)) for _ in range(30)]
    plane = [(x, y, 1) for x in range(min(p, 5)) for y in range(min(p, 5))]
    for pts in ([(1, 2, 3)], [(0, 0, 0), (p - 1, p - 1, p - 1)], line, column, rand + line + column, plane):
        arr = np.array(sorted(set(pts)), dtype=np.int64).reshape(-1, 3)
        assert inc._collinear_runs(arr, p).tolist() == brute_collinear_runs([tuple(r) for r in arr.tolist()], p)


def test_max_collinear_checks_the_modulus():
    with pytest.raises(CompositeModulusError):
        max_collinear_3d([(0, 0, 0)], 9)
    with pytest.raises(OutOfRangeError):
        max_collinear_3d([(0, 0, 0)], 2**31 + 11)
    # PlaneInstance3D.build checks p too: past 2^31 the count overflowed
    # int64 (0 incidences for this incident pair), p = 4 raised a bare
    # ValueError and p = 9 was taken
    p = 1099511627791
    with pytest.raises(OutOfRangeError):
        PlaneInstance3D.build(p, [(p - 1, p - 2, 0)], [(p - 3, p - 5, 0, ((p - 3) * (p - 1) + (p - 5) * (p - 2)) % p)])
    for composite in (4, 9):
        with pytest.raises(CompositeModulusError):
            PlaneInstance3D.build(composite, [(0, 0, 0)], [(1, 0, 0, 0)])
    # coordinates are integers: a float, bool or str is refused, not reduced
    # (a plane with d = 0.5 was kept and met no point)
    for bad in ((0.5, 1, 2), (True, 1, 2), (1, "2", 3)):
        with pytest.raises(InvalidParameterError):
            PlaneInstance3D.build(5, [bad], [(1, 0, 0, 0)])
        with pytest.raises(InvalidParameterError):
            PlaneInstance3D.build(5, [(1, 1, 2)], [bad + (0,)])
        with pytest.raises(InvalidParameterError):
            PlaneInstance3D.build(5, [(1, 1, 2)], [(1, 0, 0, next(v for v in bad if type(v) is not int))])
        with pytest.raises(InvalidParameterError):
            max_collinear_3d([(1, 0, 0), bad], 5)
    with pytest.raises(InvalidParameterError):
        max_collinear_3d([(0.5, 0, 0), (1, 0, 0), (2.7, 0, 0)], 5)
    # integer coordinates of any size and numpy integers are reduced mod p
    assert max_collinear_3d([(2**70, 0, 0), (np.int64(1), 0, 0), (3, 0, 0)], 5) == 3
    inst3 = PlaneInstance3D.build(5, [(6, -1, 2**64)], [(np.int64(2), 0, 0, 2**65)])
    assert (inst3.points, inst3.planes, count_point_plane(inst3)) == (((1, 4, 1),), ((1, 0, 0, 1),), 1)


def test_plane_instance_constructor_checks_what_build_checks():
    # the dataclass constructor took anything: at this p the count
    # overflowed int64 and gave 0 for an incident pair
    p = 1099511627791
    point, plane = (p - 1, p - 2, 0), (1, p - 2, 0, (p - 1 + (p - 2) ** 2) % p)
    with pytest.raises(OutOfRangeError):
        PlaneInstance3D(p, (point,), (plane,))
    with pytest.raises(CompositeModulusError):
        PlaneInstance3D(9, ((0, 0, 0),), ((1, 0, 0, 0),))
    for bad in ((5, 0, 0), (0, -1, 0)):
        with pytest.raises(OutOfRangeError):
            PlaneInstance3D(5, (bad,), ((1, 0, 0, 0),))
        with pytest.raises(OutOfRangeError):
            PlaneInstance3D(5, ((0, 0, 0),), (bad + (0,),))
    with pytest.raises(InvalidParameterError):
        PlaneInstance3D(5, ((0.5, 0, 0),), ((1, 0, 0, 0),))
    assert count_point_plane(PlaneInstance3D(5, ((1, 4, 1),), ((1, 0, 0, 1),))) == 1


def test_plane_instance_constructor_keeps_its_instance_canonical():
    # a repeated point and two multiples of one plane counted as r = s = 2
    # and 4 incidences; build gave r = s = 1 and 1 incidence
    inst3 = PlaneInstance3D(5, ((0, 0, 0), (0, 0, 0)), ((1, 0, 0, 0), (2, 0, 0, 0)))
    assert (inst3.r, inst3.s, count_point_plane(inst3)) == (1, 1, 1)
    assert inst3 == PlaneInstance3D.build(5, [(0, 0, 0), (5, 0, 0)], [(1, 0, 0, 0), (2, 0, 0, 0)])
    # the points and the planes are sorted, and each plane scaled once
    inst3 = PlaneInstance3D(5, ((2, 0, 1), (0, 3, 0)), ((0, 2, 4, 1), (3, 0, 0, 3)))
    assert inst3.points == ((0, 3, 0), (2, 0, 1))
    assert inst3.planes == ((0, 1, 2, 3), (1, 0, 0, 1))
    # rows of the wrong width are refused, not read in part
    with pytest.raises(InvalidParameterError):
        PlaneInstance3D(5, ((0, 0, 0),), ((1, 0, 0),))
    with pytest.raises(InvalidParameterError):
        PlaneInstance3D.build(5, [(1, 2)], [(1, 0, 0, 0)])
    with pytest.raises(InvalidParameterError):
        max_collinear_3d([(1, 2)], 5)


JOIN_PRIMES = (3, 1009, 1048573, 2**31 - 1)


@st.composite
def degree_cases(draw, primes=JOIN_PRIMES):
    """Point and line key columns over F_p, p in primes: lines from a few
    slopes (so classes hold several lines) and some vertical lines, points
    put on drawn lines or anywhere, and a subset mask of the lines."""
    p = draw(st.sampled_from(primes))
    residue = residues(p)
    slopes = draw(st.lists(residue, min_size=1, max_size=4))
    lines = draw(st.lists(st.tuples(st.sampled_from(slopes), residue), max_size=30))
    verticals = draw(st.lists(residue, max_size=5))
    keys = sorted({s * p + t for s, t in lines} | {p * p + x for x in verticals})
    points = set(draw(st.lists(st.tuples(residue, residue), max_size=15)))
    for k, x in draw(st.lists(st.tuples(st.integers(0, 10**6), residue), max_size=30)):
        if keys:
            key = keys[k % len(keys)]
            points.add((key - p * p, x) if key >= p * p else (x, (key // p * x + key % p) % p))
    pts = np.array(sorted(points), dtype=np.int64).reshape(-1, 2)
    pool = np.array(draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys))), dtype=bool)
    return p, pts[:, 0], pts[:, 1], np.array(keys, dtype=np.int64), pool


def assert_degrees_match_the_mask(hist, px, py, keys, p):
    per_point, per_line = incidence_degrees(px, py, keys, p)
    assert np.array_equal(hist.per_point, per_point) and np.array_equal(hist.per_line, per_line)
    assert hist.total == per_point.sum()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(degree_cases())
def test_join_degrees_match_the_mask(case):
    # the degrees of the join, richness_histograms of an instance per line
    # subset, against the masks of the oracle on the raw columns, on the C
    # kernels (where they build) and on the numpy fallback
    p, px, py, keys, pool = case
    for _ in each_backend():
        for subset in (keys, keys[pool], keys[:1], keys[:0]):
            hist = richness_histograms(Instance(make_modulus(p), point_keys=px * p + py, line_keys=subset))
            assert_degrees_match_the_mask(hist, px, py, subset, p)


def test_counts_agree_with_the_degree_join():
    # the count on the C kernels and on the numpy fallback, the naive count
    # and the sum of the per-point degrees of the join are one number
    compiled_kernels()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(degree_cases())
    def check(case):
        p, px, py, keys, _ = case
        inst = Instance(make_modulus(p), point_keys=px * p + py, line_keys=keys)
        compiled, fallback = [count_incidences(inst, "hash_join") for _ in each_backend()]
        assert compiled == fallback == count_incidences(inst, "naive") == richness_histograms(inst).total

    check()


def test_numpy_join_keeps_the_contract_of_the_probe_kernel():
    # _group_degrees takes the arguments of the C probe and places the same
    # hits, per item, per probe and in total, on the slope side and on the
    # column side, as the masks do; each group of more than search_cost
    # values is searched, the others flattened
    import incidencelab.incidence as inc
    lib = compiled_kernels()
    paths = set()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(degree_cases(primes=(3, 13, 1009, 2**31 - 1)), st.integers(0, 8))
    def check(case, search_cost):
        p, px, py, keys, _ = case
        points, sloped = px * p + py, keys[keys < p * p]
        per_point, per_line = incidence_degrees(px, py, sloped, p)
        for column in (False, True):
            items, probes = (sloped, points) if column else (points, sloped)
            record = {}
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(inc, "_SEARCH_COST", search_cost)
                mp.setattr(inc, "_PASS_COST", 0)
                per_item, per_probe = inc._group_degrees(items, probes, p, column, record)
            c_item, c_probe = np.zeros(items.size, np.int64), np.zeros(probes.size, np.int64)
            total = lib.probe(items, items.size, probes, probes.size, p, column,
                              c_item.ctypes.data, c_probe.ctypes.data, np.zeros(3, np.int64))
            want_item, want_probe = (per_line, per_point) if column else (per_point, per_line)
            assert per_item.tolist() == c_item.tolist() == want_item.tolist()
            assert per_probe.tolist() == c_probe.tolist() == want_probe.tolist()
            assert per_item.sum() == per_probe.sum() == total
            paths.update(path for path in ("flat", "binary_search") if record[path])

    check()
    assert paths == {"flat", "binary_search"}


@pytest.mark.parametrize("search_cost", [0, 10**9], ids=["searched", "flat"])
def test_join_degrees_probe_paths_and_sides(monkeypatch, search_cost):
    # the numpy join with every group searched, or every group flattened into
    # blocks of one or a few probes, on both probe sides: full planes probe
    # slope classes, few columns against many slopes probe the columns
    import incidencelab.incidence as inc
    monkeypatch.setattr(inc, "_backend", inc._Backend(None, "forced"))
    monkeypatch.setattr(inc, "_SEARCH_COST", search_cost)
    monkeypatch.setattr(inc, "_PASS_COST", 0)
    monkeypatch.setattr(inc, "_MASK_CELLS", 100)
    p = 31
    columns = keyed(make_modulus(p), [AffinePoint(x, y, p) for x in (2, 9) for y in range(p)],
                    [AffineLine(s, (3 * s + 1) % p, p) for s in range(p)] + [AffineLine(None, 9, p)])
    cases = [full_plane(7), columns, elekes_construction(3, 2, 31)] + random_instances(20, seed=31, max_m=80, max_n=80)
    assert {count_incidences(inst, stats=True)[1].side for inst in cases} == {"slope", "column"}
    for inst in cases:
        assert_degrees_match_the_mask(richness_histograms(inst), *inst.xy, inst.line_keys, inst.p)


@pytest.mark.parametrize("search_cost", [4, 10**9], ids=["mixed", "flat"])
def test_join_degrees_blocks_the_items(monkeypatch, search_cost):
    # more items than _MASK_CELLS: every block of flattened probes of the
    # numpy join is one row against a chunk of the items, the last shorter
    import incidencelab.incidence as inc
    monkeypatch.setattr(inc, "_backend", inc._Backend(None, "forced"))
    monkeypatch.setattr(inc, "_MASK_CELLS", 64)
    monkeypatch.setattr(inc, "_SEARCH_COST", search_cost)
    p = 31
    columns = keyed(make_modulus(p), [AffinePoint(x, y, p) for x in (2, 9, 20) for y in range(p)],
                    [AffineLine(s, (3 * s + 1) % p, p) for s in range(p)] + [AffineLine(None, 9, p)])
    cases = [full_plane(11), columns] + random_instances(10, seed=17, max_m=300, max_n=300)
    for inst in cases:
        assert_degrees_match_the_mask(richness_histograms(inst), *inst.xy, inst.line_keys, inst.p)


def test_naive_never_runs_the_join(monkeypatch):
    import incidencelab.incidence as inc

    def fail(*args, **kwargs):
        raise AssertionError("the naive engine ran the join")

    for name in ("richness_histograms", "_load_backend", "_join", "_group_degrees"):
        monkeypatch.setattr(inc, name, fail)
    assert count_incidences(full_plane(5), "naive") == 150
    assert count_incidences(full_plane(5), "naive", stats=True)[0] == 150


@pytest.mark.parametrize("engine", ENGINES)
def test_count_stats(engine):
    # a full plane probes its slope classes; points in two columns against
    # lines of many slopes probe the columns
    p = 31
    columns = keyed(make_modulus(p), [AffinePoint(x, y, p) for x in (2, 9) for y in range(p)],
                    [AffineLine(s, (3 * s + 1) % p, p) for s in range(p)] + [AffineLine(None, 9, p)])
    for inst, side in ((full_plane(7), "slope"), (columns, "column")):
        count, stats = count_incidences(inst, engine, stats=True)
        assert isinstance(stats, CountStats)
        assert count == count_incidences(inst, engine) == brute_count(inst)
        slopes = key_groups(inst.line_keys[inst.line_keys < inst.p ** 2], inst.p)[0].size
        columns = key_groups(inst.point_keys, inst.p)[0].size
        slope_cost, column_cost = inst.m * (slopes + 1), inst.n * (columns + 1)
        assert stats.cost == {"slope": slope_cost, "column": column_cost}
        assert set(stats.seconds) == {"views", "kernel"}
        assert all(t >= 0 for t in stats.seconds.values())
        assert set(stats.probes) == {"flat", "bitmap", "binary_search", "mask"}
        if engine == "naive":
            assert (stats.engine, stats.side, stats.backend) == ("naive", None, "numpy")
            assert stats.probes == {"flat": 0, "bitmap": 0, "binary_search": 0, "mask": inst.m * inst.n}
            continue
        assert (stats.engine, stats.side) == ("hash_join", side)
        assert (stats.backend, stats.backend_reason) == kernel_backend()
        assert stats.probes["mask"] == 0
        items, groups = (inst.m, slopes) if side == "slope" else (inst.n, columns)
        # each item meets each group once, or once per value of a flattened group
        assert items * groups <= sum(stats.probes.values()) <= items * max(inst.m, inst.n)
        assert stats.to_json()["probes"] == stats.probes


def test_count_and_degree_join_build_no_view_of_the_instance():
    # the C kernels and the numpy fallback both read the key columns alone:
    # a count and a degree join from either side leave the instance as built
    import incidencelab.incidence as inc
    p = 31
    points = [AffinePoint(x, y, p) for x in (2, 9) for y in range(p)]
    columns = keyed(make_modulus(p), points, [AffineLine(s, (3 * s + 1) % p, p) for s in range(p)])
    vertical_only = keyed(make_modulus(p), points, [AffineLine(None, x, p) for x in (0, 2, 9)])
    for _ in each_backend():
        for inst, side in ((full_plane(7), "slope"), (columns, "column"), (vertical_only, "column")):
            fresh = Instance(inst.modulus, point_keys=inst.point_keys, line_keys=inst.line_keys)
            count, stats = count_incidences(fresh, stats=True)
            assert stats.side == side
            assert richness_histograms(fresh).total == inc._join(fresh, {}, degrees=True, cheaper=False).total == count
            assert set(vars(fresh)) == {"modulus", "point_keys", "line_keys"}
            assert count == count_incidences(inst, "naive")
        assert count_incidences(vertical_only) == 2 * p


def test_join_cost_reads_the_key_columns():
    # the same (item, group) pairs as the slopes and x-columns of the views,
    # and a naive stats count builds none of the views it does not read
    p = 31
    points = [AffinePoint(x, y, p) for x in (2, 9) for y in range(p)]
    cases = [full_plane(7), random_instance(1009, 300, 200, seed=2),
             keyed(make_modulus(p), points, [AffineLine(s, (3 * s + 1) % p, p) for s in range(p)]),
             keyed(make_modulus(p), points, [AffineLine(None, x, p) for x in (0, 2, 9)]),
             keyed(make_modulus(p), [], [AffineLine(1, 2, p)])]
    for inst in cases:
        s, px = inst.line_columns[0], inst.xy[0]
        want = {"slope": inst.m * (np.unique(s).size + 1), "column": inst.n * (np.unique(px).size + 1)}
        fresh = Instance(inst.modulus, point_keys=inst.point_keys, line_keys=inst.line_keys)
        assert join_cost(fresh) == want and not vars(fresh).keys() - {"modulus", "point_keys", "line_keys"}
    inst = full_plane(7)
    count, stats = count_incidences(inst, "naive", stats=True)
    assert stats.cost == {"slope": 49 * 8, "column": 56 * 8}
    assert "line_columns" not in vars(inst)


def test_count_traces_little_memory_above_the_keys():
    # the count holds no views and no probe split.  tracemalloc sees only
    # numpy's allocations: the probe bitmap, ceil(p/64) words that probe
    # allocates in C only when a group takes the bitmap path, is outside it
    # and is bounded here on its own
    import tracemalloc
    if kernel_backend()[0] != "c":
        pytest.skip("the C kernels are not available")
    for inst in (full_plane(151), random_instance(1048573, 10**4, 10**4, seed=1)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            count_incidences(inst)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        bitmap = 8 * -(-inst.p // 64) if count_incidences(inst, stats=True)[1].probes["bitmap"] else 0
        assert peak + bitmap < 256 * 1024


def test_probe_paths_classify_groups():
    # groups of at most 32 keys are flat, larger ones go to the bitmap when
    # 64*size >= p and to the binary search otherwise; a group's end is
    # scanned up to 32 keys and searched past them
    lib = compiled_kernels()
    p = 4099
    sizes = {0: 33, 5: 1, 6: 32, 7: 65, 8: 2, p - 1: 64, p: 3}
    keys = np.array([g * p + v for g, size in sizes.items() for v in range(p - size, p)], dtype=np.int64)
    items = np.arange(5, p * p, 20011, dtype=np.int64)
    for column in (keys, keys[:-3], keys[33:-3], keys[:0]):
        counts = np.unique(column // p, return_counts=True)[1]
        flat = counts <= 32
        want = [int(counts[flat].sum()), int(np.count_nonzero(64 * counts >= p)),
                int(np.count_nonzero(~flat & (64 * counts < p)))]
        assert probe_count(lib, p, items, column, False)[1] == want
    for side in (False, True):
        count, paths = probe_count(lib, p, items, keys, side)
        assert count > 0 and paths == [38, 1, 2]


def edge_instances(p, size):
    """Instances over p whose keys decode to the residues 0, 1, p - 2 and
    p - 1, with groups of the given size: by slope, lines of slopes 0 and
    p - 1 against points in many columns; by column, points in the columns
    0, 1, p - 2 and p - 1 against lines of many slopes.  Both hold the
    largest sloped key p^2 - 1 and the vertical lines at 0 and p - 1."""
    mod = make_modulus(p)
    edge = (0, 1, p - 2, p - 1)
    values = sorted(set(range(size // 2)) | set(range(p - size + size // 2, p)))
    points = [AffinePoint(x, y, p) for x in edge for y in edge] + [AffinePoint(x, x, p) for x in range(2, 70)]
    lines = [AffineLine(s, t, p) for s in (0, p - 1) for t in values] + [AffineLine(None, x0, p) for x0 in (0, p - 1)]
    by_slope = keyed(mod, points, lines)
    points = [AffinePoint(x, y, p) for x in edge for y in values]
    lines = ([AffineLine(s, t, p) for s in (0, p - 1) for t in (0, p - 1)] + [AffineLine(s, 0, p) for s in range(1, 70)]
             + [AffineLine(None, x0, p) for x0 in (0, p - 1)])
    return by_slope, keyed(mod, points, lines)


@pytest.mark.parametrize("p, size, path", [(2**31 - 1, 2, "flat"), (2**31 - 1, 40, "binary_search"),
                                           (1048573, 16384, "bitmap")])
def test_key_decoding_at_the_edge_of_the_field(p, size, path):
    # a bitmap group needs 64*size >= p, 2^25 keys at p = 2^31 - 1, so the
    # bitmap path decodes the same edge residues at p = 1048573
    if kernel_backend()[0] != "c":
        pytest.skip("the C kernels are not available")
    for inst, side in zip(edge_instances(p, size), ("slope", "column")):
        assert p * p - 1 in inst.line_keys and p * p + p - 1 in inst.line_keys
        count, stats = count_incidences(inst, stats=True)
        assert stats.side == side and stats.probes[path] > 0
        assert sum(stats.probes.values()) == stats.probes[path]
        assert count == count_incidences(inst, "naive") > 0


@pytest.mark.parametrize("p", [7, 31, 37, 151])
def test_full_plane_probes_in_closed_form(p):
    # p^2 points against p slope classes of p intercepts: p^4 flat probes
    # up to the flat limit of 32, p^3 bit tests past it
    if kernel_backend()[0] != "c":
        pytest.skip("the C kernels are not available")
    _, stats = count_incidences(full_plane(p), stats=True)
    path, probes = ("flat", p**4) if p <= 32 else ("bitmap", p**3)
    assert stats.side == "slope"
    assert stats.probes == {"flat": 0, "bitmap": 0, "binary_search": 0, "mask": 0, path: probes}


def test_elekes_probes_its_columns_by_binary_search():
    if kernel_backend()[0] != "c":
        pytest.skip("the C kernels are not available")
    count, stats = count_incidences(elekes_construction(60, 12, 100003), stats=True)
    assert (count, stats.side) == (518400, "column")
    assert stats.cost == {"slope": 1123200, "column": 527040}
    assert stats.probes == {"flat": 0, "bitmap": 0, "binary_search": 518400, "mask": 0}


def test_count_stats_paths_of_the_c_kernels():
    if kernel_backend()[0] != "c":
        pytest.skip("the C kernels are not available")
    # p = 1048573: a 40-line slope class is searched, singletons flattened;
    # p = 37: one line probes the 37-value columns of the full plane in the
    # bitmap (64 * 37 >= 37)
    p = 1048573
    lines = [AffineLine(0, t, p) for t in range(40)] + [AffineLine(s, 0, p) for s in range(1, 40)]
    inst = keyed(make_modulus(p), [AffinePoint(x, x, p) for x in range(50)], lines)
    _, stats = count_incidences(inst, stats=True)
    assert stats.side == "slope"
    assert stats.probes == {"flat": 50 * 39, "bitmap": 0, "binary_search": 50, "mask": 0}
    one_line = Instance(make_modulus(37), point_keys=full_plane(37).point_keys, line_keys=[AffineLine(1, 0, 37).key()])
    count, stats = count_incidences(one_line, stats=True)
    assert count == 37 and stats.side == "column"
    assert stats.probes == {"flat": 0, "bitmap": 37, "binary_search": 0, "mask": 0}
