"""Richness partition, two-pencil grid extraction, the iterative grid cover,
projective normalization of grids, and certificate verification.

All threshold comparisons are exact (rationals, or the same inequality
cleared of its denominator or rounded to an integer bound); tie-breaking is
lexicographic on (x, y) for points and on (vertical, slope, intercept) for
lines, so every run is reproducible.  The extraction and the cover loop
read the key columns of a :class:`plane.Instance`; their degree scans are
joins over slope classes or columns (``join_degrees``), and the joins to
the apexes are batched line keys.  The certificate verifier reads the
partition, grids and pencils once as int64 keys and checks them with array
passes; its incidence tests are the blocked masks of
``incidence_degrees``, so it never shares the extraction's join.
:func:`normalize_grid` maps the key columns through the projective map
with one batched inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import numpy as np

from .errors import (
    EmptyGridError,
    EmptyInstanceError,
    InvalidParameterError,
    ModulusMismatchError,
    NoIncidencesError,
    PointSentToInfinityError,
)
from .field import inv_mod_array, make_modulus
from .incidence import incidence_degrees, join_degrees
from .plane import (
    AffineLine,
    AffinePoint,
    Instance,
    ProjMap,
    distinct,
    line_keys,
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


def _richness_classes(inst: Instance, low_factor, high_factor) -> tuple[Fraction, np.ndarray]:
    """The exact mean richness K = I/m and the class of each point of inst:
    0 low, 1 high, 2 regular."""
    if inst.m == 0:
        raise EmptyInstanceError("cannot partition an instance with no points")
    low_factor = Fraction(low_factor)
    high_factor = Fraction(high_factor)
    if not low_factor < high_factor:
        raise InvalidParameterError(f"need low_factor < high_factor, got {low_factor} and {high_factor}")
    deg = join_degrees(*inst.xy, inst.line_keys, inst.p)[0]
    mean = Fraction(int(deg.sum()), inst.m)
    # an integer degree d has d <= t exactly when d <= floor(t), and d >= t
    # exactly when d >= ceil(t); degrees lie in [0, n], so clamping the
    # bounds to [-1, n + 1] keeps every comparison and fits int64
    low = deg <= min(max(math.floor(low_factor * mean), -1), inst.n + 1)
    high = ~low & (deg >= min(max(math.ceil(high_factor * mean), -1), inst.n + 1))
    return mean, np.where(low, 0, np.where(high, 1, 2))


def richness_partition(inst: Instance, low_factor, high_factor) -> RichnessPartition:
    """Partition inst.points by line-degree thresholds around K = I/m."""
    mean, classes = _richness_classes(inst, low_factor, high_factor)
    return RichnessPartition(mean, Fraction(low_factor), Fraction(high_factor), *(
        tuple(compress(inst.points, (classes == c).tolist())) for c in range(3)))


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


def _select(qx, qy, keys, p: int) -> tuple[np.ndarray, int, int]:
    """The line-then-point selection over the points Q = (qx, qy): the pool
    of lines carrying at least I/(2n) of them, I = I(Q, L), and the first
    point meeting at least I(Q, pool)/(2|Q|) pool lines (one always does).
    Returns the pool mask, that point's index and I.  Each test is cleared of
    its denominator; no product exceeds 2*|Q|*n, far inside int64.
    """
    degree, richness = join_degrees(qx, qy, keys, p)
    total = int(richness.sum())
    if total == 0:
        raise NoIncidencesError("no incidences between the given points and lines")
    pool = 2 * keys.size * richness >= total
    # the pool degrees, from a scan of the pool or of its complement, whichever is smaller
    if 2 * int(pool.sum()) <= keys.size:
        deg = join_degrees(qx, qy, keys[pool], p)[0]
    else:
        deg = degree - join_degrees(qx, qy, keys[~pool], p)[0]
    return pool, int(np.argmax(2 * qx.size * deg >= int(richness[pool].sum()))), total


def two_pencil_extract(inst: Instance, mean_richness: Fraction | None = None) -> PencilGrid:
    """Run the two-pencil extraction on the points P and lines L of inst.

    Keep the lines carrying at least I/(2n) points each; pick the first
    point apex1 meeting at least I(P, L1)/(2m) of them; collect the
    candidates joined to apex1 by a line of L; repeat the line-then-point
    selection against the candidate set to obtain apex2; the grid is every
    candidate off the apex line whose join to apex2 lies in the second-stage
    line pool.  Only the returned points and lines are built as objects.

    Raises NoIncidencesError when I(P, L) = 0 and EmptyGridError when the
    construction collapses (a legal outcome when the extraction constants
    have no bite at the given sizes).
    """
    p, keys, (px, py) = inst.p, inst.line_keys, inst.xy
    pool1, a1, total = _select(px, py, keys, p)
    K = Fraction(mean_richness) if mean_richness is not None else Fraction(total, inst.m)

    # candidates: points joined to apex1 by a line of L
    others = np.flatnonzero(np.arange(inst.m) != a1)
    cand = others[np.isin(line_keys(px[a1], py[a1], px[others], py[others], p), keys)]
    if cand.size == 0:
        raise EmptyGridError("no candidate points are joined to the first apex by a line of L")
    cx, cy = px[cand], py[cand]
    # each candidate lies on its join to apex1, so I(candidates, L) > 0
    pool2, a2, _ = _select(cx, cy, keys, p)
    a2 = int(cand[a2])

    apex_key = line_keys(px[a1], py[a1], px[[a2]], py[[a2]], p)
    off = np.flatnonzero(join_degrees(cx, cy, apex_key, p)[0] == 0)
    joins2 = line_keys(px[a2], py[a2], cx[off], cy[off], p)
    grid = cand[off[np.isin(joins2, keys[pool2])]]
    if grid.size == 0:
        raise EmptyGridError("no line of the second pool joins the second apex to a point off the apex line")

    def points(idx):
        return tuple(AffinePoint(x, y, p) for x, y in zip(px[idx].tolist(), py[idx].tolist()))

    def lines(ks):
        return tuple(AffineLine.from_key(k, p) for k in ks.tolist())

    def pencil(a):
        return lines(distinct(line_keys(px[a], py[a], px[grid], py[grid], p)))

    apex1, apex2 = points([a1, a2])
    return PencilGrid(apex1, apex2, points(grid), pencil(a1), pencil(a2),
                      lines(keys[pool1]), points(cand), lines(keys[pool2]), K)


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
    c1 = _positive_c1(c1)
    c2 = Fraction(c2)
    stop_fraction = Fraction(stop_fraction)
    part = richness_partition(inst, c1, c2)
    K = part.mean_richness
    p, n = inst.p, inst.n
    working = inst.replace(points=part.regular)
    steps = []
    while working.m > stop_fraction * inst.m:
        pre = extraction_preconditions(K, working.m, n, c1)
        try:
            grid = two_pencil_extract(working, mean_richness=K)
        except (EmptyGridError, NoIncidencesError):
            break
        steps.append(CoverStep(grid, working.m, pre, grid_size_lower_bound(K, working.m, n, c1)))
        taken = np.isin(working.point_keys, [q.x * p + q.y for q in grid.points])
        working = Instance(inst.modulus, point_keys=working.point_keys[~taken], line_keys=inst.line_keys)
    return GridCertificate(c1, c2, stop_fraction, K, part, tuple(steps), working.points)


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


def _dot(row, columns, p: int) -> np.ndarray:
    """sum_k row[k] * columns[k] mod p, each product reduced before the sum:
    residues below p < 2^31 keep every product below 2^62 and the sum of
    three reduced products below 2^33."""
    return sum(r * c % p for r, c in zip(row, columns)) % p


def normalize_grid(grid: PencilGrid, lines) -> NormalizedGrid:
    """Send the apexes to the two points at infinity and read off the
    Cartesian product containing the image of the grid.

    The point keys and the line keys (without the apex line) go through
    the map as columns, with one batched inverse for the denominators of
    both."""
    tau = projective_map_from_pair(grid.apex1, grid.apex2)
    p = tau.p
    gx, gy = np.divmod(_point_keys(grid.points, p), p)
    keys = np.array([line.key() for line in lines], dtype=np.int64)
    keys = keys[keys != grid.apex_line.key()]
    # a*x + b*y + c = 0: (1, 0, -x0) for a vertical line, (s, -1, t) otherwise
    vertical = keys >= p * p
    s, t = np.divmod(keys, p)
    coeffs = (np.where(vertical, 1, s), np.where(vertical, 0, p - 1),
              np.where(vertical, (p * p - keys) % p, t))
    x, y, z = (_dot(row, (gx, gy, 1), p) for row in tau.rows)
    if not z.all():
        i = int(np.argmin(z != 0))
        raise PointSentToInfinityError(grid.points[i])
    # a line's coefficient vector maps by the adjugate transpose
    a, b, c = (_dot([row[k] for row in tau.adjugate], coeffs, p) for k in range(3))
    sloped = b != 0
    inv = inv_mod_array(np.concatenate([z, np.where(sloped, b, a)]), p)
    iz, il = inv[:z.size], inv[z.size:]
    image = Instance(make_modulus(p), point_keys=x * iz % p * p + y * iz % p,
                     line_keys=np.where(sloped, -a * il % p * p + -c * il % p, p * p + -c * il % p))
    xs = tuple(image.column_runs[0].tolist())
    ys = tuple(distinct(image.xy[1]).tolist())
    return NormalizedGrid(tau, image.points, xs, ys, image.lines)


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


def _point_keys(points, p: int) -> np.ndarray:
    """The keys x*p + y of the points in order, repeats kept; -1, a key no
    point of F_p has, for a point of another field."""
    return np.array([q.x * p + q.y if q.p == p else -1 for q in points], dtype=np.int64)


def _grid_keys(grid: PencilGrid, p: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The point keys of a grid and of its two apexes, and the line keys of
    its two pencils; raises ModulusMismatchError on an object of another
    field."""
    points, apexes = _point_keys(grid.points, p), _point_keys((grid.apex1, grid.apex2), p)
    pencils = tuple(grid.pencil1), tuple(grid.pencil2)
    if (points < 0).any() or (apexes < 0).any() or any(line.p != p for pencil in pencils for line in pencil):
        raise ModulusMismatchError(f"grid objects do not all live in F_{p}")
    return points, apexes, tuple(np.array([line.key() for line in pencil], dtype=np.int64)
                                 for pencil in pencils)


def verify_certificate(inst: Instance, cert: GridCertificate) -> VerificationReport:
    """Re-check every guarantee recorded in a cover certificate.

    Checks: the partition matches a recomputation, the grids are pairwise
    disjoint subsets of the regular set, each grid avoids its apex line and
    is covered by its two pencils, the pencils are within the c2*K size
    bound and consist of instance lines through their apex, the conditional
    size lower bound holds whenever the extraction preconditions held, and
    the pieces reassemble the full point set exactly.

    Every check is an array pass over int64 keys; the incidence tests (apex
    line, pencil apexes, pencil coverage as the |grid| x |pencil| mask) use
    the blocked masks of ``incidence_degrees``, independent of the join the
    extraction ran.
    """
    v: list[Violation] = []

    def flag(code, message):
        v.append(Violation(code, message))

    p, point_keys = inst.p, inst.point_keys
    part = cert.partition
    # partition re-check
    mean, classes = _richness_classes(inst, cert.c1, cert.c2)
    low, high, regular = (_point_keys(pts, p) for pts in (part.low, part.high, part.regular))
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
        gpts, apexes, pencils = _grid_keys(g, p)
        gset = distinct(gpts)
        overlap = int(np.isin(gset, seen).sum())
        if overlap:
            flag("grids-overlap", f"grid {idx} shares {overlap} points with earlier grids")
        seen = distinct(np.concatenate([seen, gset]))
        if not np.isin(gset, regular).all():
            flag("grid-not-regular-subset", f"grid {idx} contains points outside the regular set")
        gx, gy = np.divmod(gpts, p)
        apex_line = np.array([g.apex_line.key()])
        touching = int(np.count_nonzero(incidence_degrees(gx, gy, apex_line, p)[0]))
        if touching:
            flag("apex-line-contact", f"grid {idx} has {touching} points on the apex line")
        for which, apex, pencil in zip(("pencil1", "pencil2"), apexes.tolist(), pencils):
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

    leftover = _point_keys(cert.leftover, p)
    if not np.array_equal(distinct(np.concatenate([seen, leftover, low, high])), point_keys):
        flag("union-identity", "grids, leftover and partition do not reassemble the point set")
    if seen.size + leftover.size != regular.size:
        flag("union-identity", "grid sizes plus leftover do not account for the regular set")
    if np.isin(leftover, seen).any():
        flag("grids-overlap", "leftover intersects the extracted grids")
    return VerificationReport(not v, tuple(v))
