"""Richness partition, two-pencil grid extraction, the iterative grid cover,
projective normalization of grids, and certificate verification.

All threshold comparisons are carried out with exact rationals; tie-breaking
is lexicographic on (x, y) for points and on (vertical, slope, intercept)
for lines, so every run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EmptyGridError,
    EmptyInstanceError,
    NoIncidencesError,
)
from .incidence import richness_histograms
from .plane import (
    AffineLine,
    AffinePoint,
    Instance,
    ProjMap,
    incident,
    line_through,
    projective_map_from_pair,
)


@dataclass(frozen=True)
class RichnessPartition:
    """Split of the point set by line-degree relative to the mean richness.

    mean_richness is the exact rational I/m.  low holds the points with
    degree <= low_factor * mean_richness, high the points with degree >=
    high_factor * mean_richness, regular the rest.
    """

    mean_richness: Fraction
    low_factor: Fraction
    high_factor: Fraction
    low: tuple[AffinePoint, ...]
    high: tuple[AffinePoint, ...]
    regular: tuple[AffinePoint, ...]


def richness_partition(inst: Instance, low_factor, high_factor) -> RichnessPartition:
    """Partition inst.points by line-degree thresholds around K = I/m."""
    if inst.m == 0:
        raise EmptyInstanceError("cannot partition an instance with no points")
    low_factor = Fraction(low_factor)
    high_factor = Fraction(high_factor)
    if not low_factor < high_factor:
        raise ValueError("need low_factor < high_factor")
    hist = richness_histograms(inst)
    mean = Fraction(hist.total, inst.m)
    t_low = low_factor * mean
    t_high = high_factor * mean
    low, high, regular = [], [], []
    for q in inst.points:
        deg = hist.per_point[q]
        if deg <= t_low:
            low.append(q)
        elif deg >= t_high:
            high.append(q)
        else:
            regular.append(q)
    return RichnessPartition(mean, low_factor, high_factor, tuple(low), tuple(high), tuple(regular))


@dataclass(frozen=True)
class PencilGrid:
    """The output of one two-pencil extraction, with its full trace.

    points is the extracted grid; every grid point lies on a pencil1 line
    through apex1 and on a pencil2 line through apex2, and the grid avoids
    the line joining the apexes.  rich_lines / candidates / rich_lines2 are
    the intermediate stages of the extraction.
    """

    apex1: AffinePoint
    apex2: AffinePoint
    points: tuple[AffinePoint, ...]
    pencil1: tuple[AffineLine, ...]
    pencil2: tuple[AffineLine, ...]
    rich_lines: tuple[AffineLine, ...]
    candidates: tuple[AffinePoint, ...]
    rich_lines2: tuple[AffineLine, ...]
    mean_richness: Fraction

    @property
    def apex_line(self) -> AffineLine:
        return line_through(self.apex1, self.apex2)


def _degrees(points, lines):
    degs = {q: 0 for q in points}
    richness = {}
    for line in lines:
        r = 0
        for q in points:
            if incident(q, line):
                degs[q] += 1
                r += 1
        richness[line] = r
    return degs, richness


def two_pencil_extract(points, lines, mean_richness: Fraction | None = None) -> PencilGrid:
    """Run the two-pencil extraction literally, step by step.

    From the input points P and lines L: keep the lines carrying at least
    I/(2n) points each; pick the first point apex1 meeting at least
    I(P, L1)/(2m) of them; collect the candidates joined to apex1 by a line
    of L; repeat the line-then-point selection against the candidate set to
    obtain apex2; the grid is every candidate off the apex line whose join
    to apex2 lies in the second-stage line pool.

    Raises NoIncidencesError when I(P, L) = 0 and EmptyGridError when the
    construction collapses (a legal outcome when the extraction constants
    have no bite at the given sizes).
    """
    pts = tuple(sorted(set(points)))
    lns = tuple(sorted(set(lines), key=AffineLine.sort_key))
    m, n = len(pts), len(lns)
    if m == 0 or n == 0:
        raise NoIncidencesError("need points and lines")

    degs, richness = _degrees(pts, lns)
    total = sum(richness.values())
    if total == 0:
        raise NoIncidencesError("no incidences between the given points and lines")
    K = Fraction(mean_richness) if mean_richness is not None else Fraction(total, m)

    # stage 1: lines rich in P, then the first sufficiently covered point
    thr1 = Fraction(total, 2 * n)
    pool1 = tuple(line for line in lns if richness[line] >= thr1)
    total1 = sum(richness[line] for line in pool1)
    point_thr1 = Fraction(total1, 2 * m)
    deg_pool1 = {q: sum(1 for line in pool1 if incident(q, line)) for q in pts}
    apex1 = next(q for q in pts if deg_pool1[q] >= point_thr1)

    # candidates: points joined to apex1 by a line of L
    line_set = set(lns)
    candidates = tuple(
        q for q in pts
        if q != apex1 and line_through(apex1, q) in line_set
    )
    if not candidates:
        raise EmptyGridError("no candidate points are joined to the first apex by a line of L")

    # stage 2 over the candidate set, with the full line set
    degs_q, richness_q = _degrees(candidates, lns)
    total_q = sum(richness_q.values())
    thr2 = Fraction(total_q, 2 * n)
    pool2 = tuple(line for line in lns if richness_q[line] >= thr2)
    total2 = sum(richness_q[line] for line in pool2)
    point_thr2 = Fraction(total2, 2 * len(candidates))
    deg_pool2 = {q: sum(1 for line in pool2 if incident(q, line)) for q in candidates}
    apex2 = next(q for q in candidates if deg_pool2[q] >= point_thr2)

    apex_line = line_through(apex1, apex2)
    pool2_set = set(pool2)
    grid = tuple(
        q for q in candidates
        if not incident(q, apex_line) and line_through(apex2, q) in pool2_set
    )
    if not grid:
        raise EmptyGridError("no line of the second pool joins the second apex to a point off the apex line")

    pencil1 = tuple(sorted({line_through(apex1, g) for g in grid}, key=AffineLine.sort_key))
    pencil2 = tuple(sorted({line_through(apex2, g) for g in grid}, key=AffineLine.sort_key))
    return PencilGrid(apex1, apex2, grid, pencil1, pencil2, pool1, candidates, pool2, K)


def extraction_preconditions(K: Fraction, m: int, n: int, c1) -> tuple[tuple[str, bool], ...]:
    """The three size conditions under which the extraction guarantees a
    grid of size at least c1^4 K^4 m / (2^9 n^2)."""
    c1 = Fraction(c1)
    return (
        ("K >= 4n/(c1 m)", K >= Fraction(4 * n) / (c1 * m)),
        ("K >= 8/c1", K >= Fraction(8) / c1),
        ("K^3 >= 2^6 n^2/(c1^3 m)", K**3 >= Fraction(64 * n * n) / (c1**3 * m)),
    )


def grid_size_lower_bound(K: Fraction, m: int, n: int, c1) -> Fraction:
    c1 = Fraction(c1)
    return c1**4 * K**4 * m / (2**9 * n * n)


@dataclass(frozen=True)
class CoverStep:
    """One step of the covering loop: the extracted grid, the size of the
    working set it was extracted from, and the guarantee bookkeeping."""

    grid: PencilGrid
    input_size: int
    preconditions: tuple[tuple[str, bool], ...]
    size_bound: Fraction


@dataclass(frozen=True)
class GridCertificate:
    """The recorded outcome of the covering loop, checkable independently."""

    c1: Fraction
    c2: Fraction
    stop_fraction: Fraction
    mean_richness: Fraction
    partition: RichnessPartition
    steps: tuple[CoverStep, ...]
    leftover: tuple[AffinePoint, ...]

    @property
    def grids(self) -> tuple[PencilGrid, ...]:
        return tuple(step.grid for step in self.steps)


def grid_cover(inst: Instance, c1, c2, stop_fraction) -> GridCertificate:
    """Iteratively extract disjoint two-pencil grids from the regular part
    of the point set until the remainder is at most stop_fraction * m.

    An extraction that collapses (empty grid or no incidences) terminates
    the loop with the remainder recorded as leftover.
    """
    c1 = Fraction(c1)
    c2 = Fraction(c2)
    stop_fraction = Fraction(stop_fraction)
    part = richness_partition(inst, c1, c2)
    K = part.mean_richness
    m = inst.m
    n = inst.n
    working = list(part.regular)
    steps = []
    while len(working) > stop_fraction * m:
        pre = extraction_preconditions(K, len(working), n, c1)
        try:
            grid = two_pencil_extract(working, inst.lines, mean_richness=K)
        except (EmptyGridError, NoIncidencesError):
            break
        steps.append(CoverStep(grid, len(working), pre,
                               grid_size_lower_bound(K, len(working), n, c1)))
        removed = set(grid.points)
        working = [q for q in working if q not in removed]
    return GridCertificate(c1, c2, stop_fraction, K, part, tuple(steps), tuple(working))


@dataclass(frozen=True)
class NormalizedGrid:
    """A grid mapped so its two pencils become horizontal and vertical lines.

    points is contained in the Cartesian product xs x ys; lines are the
    images of the input lines (with the apex line dropped, it meets no grid
    point); incidences between points and lines equal those of the original
    grid with the original lines minus the apex line.
    """

    map: ProjMap
    points: tuple[AffinePoint, ...]
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    lines: tuple[AffineLine, ...]


def normalize_grid(grid: PencilGrid, lines) -> NormalizedGrid:
    """Send the apexes to the two points at infinity and read off the
    Cartesian product containing the image of the grid."""
    tau = projective_map_from_pair(grid.apex1, grid.apex2)
    apex_line = grid.apex_line
    kept = [line for line in lines if line != apex_line]
    image_points = tuple(sorted(tau.apply_point(q) for q in grid.points))
    image_lines = tuple(sorted({tau.apply_line(line) for line in kept}, key=AffineLine.sort_key))
    xs = tuple(sorted({q.x for q in image_points}))
    ys = tuple(sorted({q.y for q in image_points}))
    return NormalizedGrid(tau, image_points, xs, ys, image_lines)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    violations: tuple[Violation, ...]

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


def verify_certificate(inst: Instance, cert: GridCertificate) -> VerificationReport:
    """Re-check every guarantee recorded in a cover certificate.

    Checks: the partition matches a recomputation, the grids are pairwise
    disjoint subsets of the regular set, each grid avoids its apex line and
    is covered by its two pencils, the pencils are within the c2*K size
    bound and consist of instance lines through their apex, the conditional
    size lower bound holds whenever the extraction preconditions held, and
    the pieces reassemble the full point set exactly.
    """
    v: list[Violation] = []

    def flag(code, message):
        v.append(Violation(code, message))

    # partition re-check
    part = richness_partition(inst, cert.c1, cert.c2)
    if part != cert.partition:
        flag("partition-mismatch", "recomputed richness partition differs from the certificate")
    if cert.mean_richness != part.mean_richness:
        flag("partition-mismatch", "certificate mean richness differs from I/m")

    regular = set(cert.partition.regular)
    line_set = inst.line_set
    seen: set[AffinePoint] = set()
    pencil_cap = cert.c2 * cert.mean_richness
    for idx, step in enumerate(cert.steps):
        g = step.grid
        gpts = set(g.points)
        overlap = gpts & seen
        if overlap:
            flag("grids-overlap", f"grid {idx} shares {len(overlap)} points with earlier grids")
        seen |= gpts
        if not gpts <= regular:
            flag("grid-not-regular-subset", f"grid {idx} contains points outside the regular set")
        apex_line = g.apex_line
        touching = [q for q in g.points if incident(q, apex_line)]
        if touching:
            flag("apex-line-contact", f"grid {idx} has {len(touching)} points on the apex line")
        for which, apex, pencil in (("pencil1", g.apex1, g.pencil1), ("pencil2", g.apex2, g.pencil2)):
            if len(pencil) > pencil_cap:
                flag("pencil-size", f"grid {idx} {which} has {len(pencil)} lines, cap {pencil_cap}")
            for line in pencil:
                if line not in line_set:
                    flag("pencil-not-in-lines", f"grid {idx} {which} uses a line outside the instance")
                if not incident(apex, line):
                    flag("pencil-apex", f"grid {idx} {which} has a line missing its apex")
            uncovered = [q for q in g.points if not any(incident(q, line) for line in pencil)]
            if uncovered:
                flag("pencil-coverage", f"grid {idx} {which} misses {len(uncovered)} grid points")
        if all(ok for _, ok in step.preconditions) and len(g.points) < step.size_bound:
            flag("size-lower-bound",
                 f"grid {idx} has {len(g.points)} points, below the guaranteed {step.size_bound}")

    union = seen | set(cert.leftover) | set(cert.partition.low) | set(cert.partition.high)
    if union != inst.point_set:
        flag("union-identity", "grids, leftover and partition do not reassemble the point set")
    if len(seen) + len(cert.leftover) != len(cert.partition.regular):
        flag("union-identity", "grid sizes plus leftover do not account for the regular set")
    overlap_leftover = seen & set(cert.leftover)
    if overlap_leftover:
        flag("grids-overlap", "leftover intersects the extracted grids")
    return VerificationReport(not v, tuple(v))
