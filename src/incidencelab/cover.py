"""Richness partition, two-pencil grid extraction, the iterative grid cover,
projective normalization of grids, and certificate verification.

All threshold comparisons are exact (rationals, or the same inequality
cleared of its denominator or rounded to an integer bound); tie-breaking is
lexicographic on (x, y) for points and on (vertical, slope, intercept) for
lines, so every run is reproducible.

The records hold keys, the format of :class:`plane.Instance`: a point is
x*p + y and a line its :meth:`AffineLine.key`, stored as tuples of Python
ints, which compare and hash as plain values.  No record carries the
modulus: ``normalize_grid(grid, inst)`` and ``verify_certificate(inst,
cert)`` read p and the line keys from the instance.  The extraction and the
cover loop read instances; their degree scans are ``richness_histograms``,
the hash join of the incidence count with each hit placed on its point and
its line, and the joins to the apexes are batched line keys, which also find
the candidates on the apex line.  The certificate verifier checks the keys
with array passes.  Its degrees (the partition re-check) come from the same
join run on the other side of ``join_cost``, with the items and probes
swapped, so it shares with the extraction the join's code
(``_kernels.c::probe``, or ``_group_degrees`` without a C compiler) and the
threshold arithmetic of :func:`_richness_classes`; its incidence tests are
the masks of ``incidence_degrees``.
:func:`normalize_grid` is :func:`plane.projective_map_from_pair` of the
apex keys plus :func:`plane.apply_map` on the grid's point keys and the line
keys other than the apex line, which :func:`plane.line_through` gives from
the apex keys.  No layer of the cover builds a point or line object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    EmptyGridError,
    EmptyInstanceError,
    InvalidParameterError,
    NoIncidencesError,
)
from .incidence import _join, incidence_degrees, richness_histograms
from .plane import (
    Instance,
    ProjMap,
    apply_map,
    distinct,
    line_keys,
    line_through,
    projective_map_from_pair,
)


@dataclass(frozen=True)
class RichnessPartition:
    """Split of the point set by line-degree relative to the mean richness.

    mean_richness is the exact rational I/m.  low holds the keys x*p + y of
    the points with degree <= low_factor * mean_richness, high those with
    degree >= high_factor * mean_richness, regular the rest, each in
    ascending key order.
    """

    mean_richness: Fraction
    low_factor: Fraction
    high_factor: Fraction
    low: tuple[int, ...]
    high: tuple[int, ...]
    regular: tuple[int, ...]


def _richness_classes(inst: Instance, deg: np.ndarray, low_factor, high_factor) -> tuple[Fraction, np.ndarray]:
    """The exact mean richness K = I/m and the class of each point of inst,
    whose line-degrees are deg: 0 low, 1 high, 2 regular."""
    if inst.m == 0:
        raise EmptyInstanceError("cannot partition an instance with no points")
    low_factor = Fraction(low_factor)
    high_factor = Fraction(high_factor)
    if not low_factor < high_factor:
        raise InvalidParameterError(f"need low_factor < high_factor, got {low_factor} and {high_factor}")
    mean = Fraction(int(deg.sum()), inst.m)
    # an integer degree d has d <= t exactly when d <= floor(t), and d >= t
    # exactly when d >= ceil(t); degrees lie in [0, n], so clamping the
    # bounds to [-1, n + 1] keeps every comparison and fits int64
    low = deg <= min(max(math.floor(low_factor * mean), -1), inst.n + 1)
    high = ~low & (deg >= min(max(math.ceil(high_factor * mean), -1), inst.n + 1))
    return mean, np.where(low, 0, np.where(high, 1, 2))


def richness_partition(inst: Instance, low_factor, high_factor) -> RichnessPartition:
    """Partition the point keys of inst by line-degree thresholds around
    K = I/m."""
    mean, classes = _richness_classes(inst, richness_histograms(inst).per_point, low_factor, high_factor)
    return RichnessPartition(mean, Fraction(low_factor), Fraction(high_factor), *(
        tuple(inst.point_keys[classes == c].tolist()) for c in range(3)))


@dataclass(frozen=True)
class PencilGrid:
    """The output of one two-pencil extraction, with its full trace.

    points is the extracted grid; every grid point lies on a pencil1 line
    through apex1 and on a pencil2 line through apex2, and the grid avoids
    the line joining the apexes.  rich_lines / candidates / rich_lines2 are
    the intermediate stages of the extraction.  apex1, apex2, points and
    candidates are point keys x*p + y, the other tuples line keys
    (:meth:`AffineLine.key`); every tuple ascends.
    """

    apex1: int
    apex2: int
    points: tuple[int, ...]
    pencil1: tuple[int, ...]
    pencil2: tuple[int, ...]
    rich_lines: tuple[int, ...]
    candidates: tuple[int, ...]
    rich_lines2: tuple[int, ...]
    mean_richness: Fraction


def _select(inst: Instance) -> tuple[np.ndarray, int, int]:
    """The line-then-point selection over the points Q and lines L of inst:
    the pool of lines carrying at least I/(2n) points of Q, I = I(Q, L),
    and the first point meeting at least I(Q, pool)/(2|Q|) pool lines (one
    always does).  Returns the pool mask, that point's index and I.  Each
    test is cleared of its denominator; no product exceeds 2*|Q|*n, far
    inside int64.
    """
    hist = richness_histograms(inst)
    if hist.total == 0:
        raise NoIncidencesError("no incidences between the given points and lines")
    pool = 2 * inst.n * hist.per_line >= hist.total
    # the pool degrees, from a scan of the pool or of its complement, whichever is smaller
    small = 2 * int(pool.sum()) <= inst.n
    lines = inst.line_keys[pool if small else ~pool]
    deg = richness_histograms(Instance(inst.modulus, point_keys=inst.point_keys, line_keys=lines)).per_point
    deg = deg if small else hist.per_point - deg
    return pool, int(np.argmax(2 * inst.m * deg >= int(hist.per_line[pool].sum()))), hist.total


def two_pencil_extract(inst: Instance, mean_richness: Fraction | None = None) -> PencilGrid:
    """Run the two-pencil extraction on the points P and lines L of inst.

    Keep the lines carrying at least I/(2n) points each; pick the first
    point apex1 meeting at least I(P, L1)/(2m) of them; collect the
    candidates joined to apex1 by a line of L; repeat the line-then-point
    selection against the candidate set to obtain apex2; the grid is every
    candidate off the apex line whose join to apex2 lies in the second-stage
    line pool.  The grid records the keys of the instance; no point or line
    is built as an object.

    Raises NoIncidencesError when I(P, L) = 0 and EmptyGridError when the
    construction collapses (a legal outcome when the extraction constants
    have no bite at the given sizes).
    """
    p, keys, pkeys, (px, py) = inst.p, inst.line_keys, inst.point_keys, inst.xy
    pool1, a1, total = _select(inst)
    K = Fraction(mean_richness) if mean_richness is not None else Fraction(total, inst.m)

    # candidates: points joined to apex1 by a line of L
    others = np.flatnonzero(np.arange(inst.m) != a1)
    joins1 = line_keys(px[a1], py[a1], px[others], py[others], p)
    joined = np.isin(joins1, keys)
    cand, joins1 = others[joined], joins1[joined]
    if cand.size == 0:
        raise EmptyGridError("no candidate points are joined to the first apex by a line of L")
    # each candidate lies on its join to apex1, so I(candidates, L) > 0; cand
    # ascends, so the candidate instance keeps its order
    pool2, a2, _ = _select(Instance(inst.modulus, point_keys=pkeys[cand], line_keys=keys))
    # a candidate lies on the apex line exactly when its join to apex1 is apex2's
    off = cand[joins1 != joins1[a2]]
    a2 = int(cand[a2])

    apex1, apex2 = int(pkeys[a1]), int(pkeys[a2])
    joins2 = line_keys(px[a2], py[a2], px[off], py[off], p)
    grid = off[np.isin(joins2, keys[pool2])]
    if grid.size == 0:
        raise EmptyGridError("no line of the second pool joins the second apex to a point off the apex line")

    def pencil(a):
        return tuple(distinct(line_keys(px[a], py[a], px[grid], py[grid], p)).tolist())

    return PencilGrid(apex1, apex2, tuple(pkeys[grid].tolist()), pencil(a1), pencil(a2),
                      tuple(keys[pool1].tolist()), tuple(pkeys[cand].tolist()),
                      tuple(keys[pool2].tolist()), K)


def _positive_c1(c1) -> Fraction:
    c1 = Fraction(c1)
    if c1 <= 0:
        raise InvalidParameterError(f"need c1 > 0, got {c1}")
    return c1


def extraction_preconditions(K: Fraction, m: int, n: int, c1) -> tuple[tuple[str, bool], ...]:
    """The three size conditions under which the extraction guarantees a
    grid of size at least c1^4 K^4 m / (2^9 n^2)."""
    c1 = _positive_c1(c1)
    return (
        ("K >= 4n/(c1 m)", K >= Fraction(4 * n) / (c1 * m)),
        ("K >= 8/c1", K >= Fraction(8) / c1),
        ("K^3 >= 2^6 n^2/(c1^3 m)", K**3 >= Fraction(64 * n * n) / (c1**3 * m)),
    )


def grid_size_lower_bound(K: Fraction, m: int, n: int, c1) -> Fraction:
    c1 = _positive_c1(c1)
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
    """The recorded outcome of the covering loop, checkable independently:
    leftover holds the keys x*p + y of the regular points no grid took, in
    ascending order."""

    c1: Fraction
    c2: Fraction
    stop_fraction: Fraction
    mean_richness: Fraction
    partition: RichnessPartition
    steps: tuple[CoverStep, ...]
    leftover: tuple[int, ...]

    @property
    def grids(self) -> tuple[PencilGrid, ...]:
        return tuple(step.grid for step in self.steps)


def grid_cover(inst: Instance, c1, c2, stop_fraction) -> GridCertificate:
    """Iteratively extract disjoint two-pencil grids from the regular part
    of the point set until the remainder is at most stop_fraction * m.

    An extraction that collapses (empty grid or no incidences) terminates
    the loop with the remainder recorded as leftover.  A negative
    stop_fraction, which no remainder meets, is refused.
    """
    c1 = _positive_c1(c1)
    c2 = Fraction(c2)
    stop_fraction = Fraction(stop_fraction)
    if stop_fraction < 0:
        raise InvalidParameterError(f"need stop_fraction >= 0, got {stop_fraction}")
    part = richness_partition(inst, c1, c2)
    K = part.mean_richness
    n = inst.n
    working = Instance(inst.modulus, point_keys=part.regular, line_keys=inst.line_keys)
    steps = []
    while working.m > stop_fraction * inst.m:
        pre = extraction_preconditions(K, working.m, n, c1)
        try:
            grid = two_pencil_extract(working, mean_richness=K)
        except (EmptyGridError, NoIncidencesError):
            break
        steps.append(CoverStep(grid, working.m, pre, grid_size_lower_bound(K, working.m, n, c1)))
        taken = np.isin(working.point_keys, grid.points)
        working = Instance(inst.modulus, point_keys=working.point_keys[~taken], line_keys=inst.line_keys)
    return GridCertificate(c1, c2, stop_fraction, K, part, tuple(steps), tuple(working.point_keys.tolist()))


@dataclass(frozen=True)
class NormalizedGrid:
    """A grid mapped so its two pencils become horizontal and vertical lines.

    image is one :class:`plane.Instance`: its points are the images of the
    grid points, contained in the Cartesian product xs x ys, and its lines
    the images of the lines of the instance without the apex line (which
    meets no grid point); the incidences of image equal those of the grid
    with those lines.  xs and ys ascend.
    """

    map: ProjMap
    image: Instance
    xs: tuple[int, ...]
    ys: tuple[int, ...]


def normalize_grid(grid: PencilGrid, inst: Instance) -> NormalizedGrid:
    """Send the apexes to the two points at infinity and read off the
    Cartesian product containing the image of the grid.

    p and the lines come from inst.  The map is
    :func:`projective_map_from_pair` of the apex keys, and :func:`apply_map`
    takes the grid's point keys and the line keys without the apex line
    through it."""
    p = inst.p
    tau = projective_map_from_pair(grid.apex1, grid.apex2, p)
    keys = inst.line_keys[inst.line_keys != line_through(grid.apex1, grid.apex2, p)]
    image = apply_map(tau, Instance(inst.modulus, point_keys=grid.points, line_keys=keys))
    xs = tuple(distinct(image.xy[0]).tolist())
    ys = tuple(distinct(image.xy[1]).tolist())
    return NormalizedGrid(tau, image, xs, ys)


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
    disjoint subsets of the regular set, each grid has two distinct apexes,
    avoids the line through them and is covered by its two pencils, the
    pencils are within the c2*K size bound and consist of instance lines
    through their apex, the conditional size lower bound holds whenever the
    extraction preconditions held, and the pieces reassemble the full point
    set exactly.

    Every check is an array pass over the certificate's keys, with p and
    the lines read from inst.  The point degrees of the partition re-check
    come from the join of ``richness_histograms`` run on the side of
    ``join_cost`` that the extraction did not probe: items and probes swap,
    so the grouping, the choice of path and the placement of hits run over
    the other key column, but the code is shared (``_kernels.c::probe``, or
    ``_group_degrees`` without it).  The incidence tests (apex line, pencil
    apexes, pencil coverage as the |grid| x |pencil| mask) use the blocked
    masks of ``incidence_degrees``, which share no code with the join.
    """
    v: list[Violation] = []

    def flag(code, message):
        v.append(Violation(code, message))

    p, point_keys = inst.p, inst.point_keys
    part = cert.partition
    # partition re-check, on the point degrees of the side of the join that
    # the extraction did not probe
    deg = _join(inst, {}, degrees=True, cheaper=False).per_point
    mean, classes = _richness_classes(inst, deg, cert.c1, cert.c2)
    low, high, regular = (np.array(keys, dtype=np.int64) for keys in (part.low, part.high, part.regular))
    factors = (mean, Fraction(cert.c1), Fraction(cert.c2))
    if ((part.mean_richness, part.low_factor, part.high_factor) != factors
            or not all(np.array_equal(keys, point_keys[classes == c])
                       for c, keys in enumerate((low, high, regular)))):
        flag("partition-mismatch", "recomputed richness partition differs from the certificate")
    if cert.mean_richness != mean:
        flag("partition-mismatch", "certificate mean richness differs from I/m")

    seen = np.empty(0, dtype=np.int64)  # the distinct keys of the grids so far
    pencil_cap = cert.c2 * cert.mean_richness
    for idx, step in enumerate(cert.steps):
        g = step.grid
        gpts = np.array(g.points, dtype=np.int64)
        gset = distinct(gpts)
        overlap = int(np.isin(gset, seen).sum())
        if overlap:
            flag("grids-overlap", f"grid {idx} shares {overlap} points with earlier grids")
        seen = distinct(np.concatenate([seen, gset]))
        if not np.isin(gset, regular).all():
            flag("grid-not-regular-subset", f"grid {idx} contains points outside the regular set")
        gx, gy = np.divmod(gpts, p)
        if g.apex1 == g.apex2:
            flag("apex-coincident", f"grid {idx} has one point as both apexes, so no apex line")
        else:
            apex_line = np.array([line_through(g.apex1, g.apex2, p)])
            touching = int(np.count_nonzero(incidence_degrees(gx, gy, apex_line, p)[0]))
            if touching:
                flag("apex-line-contact", f"grid {idx} has {touching} points on the apex line")
        for which, apex, pencil in (("pencil1", g.apex1, g.pencil1), ("pencil2", g.apex2, g.pencil2)):
            pencil = np.array(pencil, dtype=np.int64)
            if pencil.size > pencil_cap:
                flag("pencil-size", f"grid {idx} {which} has {pencil.size} lines, cap {pencil_cap}")
            outside = ~np.isin(pencil, inst.line_keys)
            off_apex = incidence_degrees(*np.divmod(np.array([apex]), p), pencil, p)[1] == 0
            for j in np.flatnonzero(outside | off_apex).tolist():
                if outside[j]:
                    flag("pencil-not-in-lines", f"grid {idx} {which} uses a line outside the instance")
                if off_apex[j]:
                    flag("pencil-apex", f"grid {idx} {which} has a line missing its apex")
            uncovered = int(np.count_nonzero(incidence_degrees(gx, gy, pencil, p)[0] == 0))
            if uncovered:
                flag("pencil-coverage", f"grid {idx} {which} misses {uncovered} grid points")
        if all(ok for _, ok in step.preconditions) and len(g.points) < step.size_bound:
            flag("size-lower-bound",
                 f"grid {idx} has {len(g.points)} points, below the guaranteed {step.size_bound}")

    leftover = np.array(cert.leftover, dtype=np.int64)
    if not np.array_equal(distinct(np.concatenate([seen, leftover, low, high])), point_keys):
        flag("union-identity", "grids, leftover and partition do not reassemble the point set")
    if seen.size + leftover.size != regular.size:
        flag("union-identity", "grid sizes plus leftover do not account for the regular set")
    if np.isin(leftover, seen).any():
        flag("grids-overlap", "leftover intersects the extracted grids")
    return VerificationReport(not v, tuple(v))
