"""Squared Euclidean distances over F_p, pinned distance sets, isotropic
lines, perpendicular-bisector families, isosceles triples, and the
determined-lines (two-extremes) accounting with its dyadic partition.

The quadratic reports are numpy passes with bounded memory: distance sets
and isosceles triples take blocks of pin rows, each row of m distances
sorted so that its runs give the pinned set and the isosceles pairs at
once, and the determined lines are int64 line keys over blocks of point
pairs, with one batched modular inverse per block and one sort over all
keys.  A point set is given as point keys x*p + y with its modulus p and
is read through :class:`plane.Instance`, which checks p and the keys; the
results hold point and line keys (see :meth:`AffineLine.key`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyInputError, ModulusMismatchError, TooFewPointsError
from .field import inv_mod_array, make_modulus, minus_one_is_square, sqrt_mod
from .plane import _PAIR_BLOCK, AffineLine, AffinePoint, Instance, distinct, line_keys, pair_blocks


def _points(point_keys, p: int) -> Instance:
    """The point set as an Instance over F_p: p must be prime and every key
    lie in [0, p^2)."""
    return Instance(make_modulus(p), point_keys=point_keys, line_keys=())


def _distance_blocks(x, y, p):
    """Yield, for consecutive blocks of pins q holding about _PAIR_BLOCK
    distances in all, the rows d(q, .) over all points, each sorted, and the
    mask of where the runs of equal values begin.  With |dx|, |dy| < p <
    2^31 the sum of the two squares stays below 2^63, so one % p per pair
    reduces it."""
    step = max(1, _PAIR_BLOCK // max(x.size, 1))
    for lo in range(0, x.size, step):
        rows = x[lo:lo + step, None] - x
        rows *= rows
        dy = y[lo:lo + step, None] - y
        dy *= dy
        rows += dy
        rows %= p
        rows.sort(axis=1)
        starts = np.empty(rows.shape, dtype=bool)
        starts[:, 0] = True
        np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
        yield rows, starts


def _isosceles(rows, starts) -> int:
    """Ordered pairs (r, s), r != s, at one nonzero distance from a pin,
    summed over the sorted distance rows of :func:`_distance_blocks`."""
    at = np.flatnonzero(starts)
    c = np.diff(at, append=rows.size)[rows.ravel()[at] != 0]
    return int(np.dot(c, c - 1))


def distance(q: AffinePoint, r: AffinePoint) -> int:
    """Squared Euclidean distance (q_x - r_x)^2 + (q_y - r_y)^2 mod p."""
    if q.p != r.p:
        raise ModulusMismatchError(f"mixed moduli {q.p} and {r.p}")
    p = q.p
    dx = q.x - r.x
    dy = q.y - r.y
    return (dx * dx + dy * dy) % p


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """All squared distances of a point set and all pinned distance sets.

    pinned_values maps the key of each point q to its pinned set Delta_q as
    a sorted int64 array; pinned holds the same sets as frozensets, built on
    first access.  pin is the key of the point whose pinned set is largest
    (ties go to the smallest key); the keys are Python ints.  degenerate
    flags the all-zero distance set that a subset of one isotropic line
    produces.  isosceles_triples is the count of :func:`isosceles_triples`,
    taken from the same distance rows.
    """

    distances: frozenset[int]
    pinned_values: dict
    pin: int
    max_pinned: int
    degenerate: bool
    isosceles_triples: int

    @cached_property
    def pinned(self) -> dict:
        return {q: frozenset(v.tolist()) for q, v in self.pinned_values.items()}

    def __eq__(self, other):
        if not isinstance(other, DistanceReport):
            return NotImplemented
        return (self.distances, self.pinned, self.pin) == (other.distances, other.pinned, other.pin)


def distance_sets(point_keys, p: int) -> DistanceReport:
    """Exact distance set and every pinned set Delta_q of the points with
    the given keys over F_p."""
    inst = _points(point_keys, p)
    if not inst.m:
        raise EmptyInputError("need at least one point")
    values, sizes, seen, isosceles = [], [], [], 0
    for rows, starts in _distance_blocks(*inst.xy, p):
        isosceles += _isosceles(rows, starts)
        size = starts.sum(axis=1)
        block = rows[starts]
        ends = np.cumsum(size).tolist()
        values += [block[lo:hi] for lo, hi in zip([0] + ends, ends)]
        sizes.append(size)
        seen.append(distinct(block))
    keys = inst.point_keys.tolist()
    full = frozenset(distinct(np.concatenate(seen)).tolist())
    # argmax by pinned-set size; the keys ascend, so ties resolve to the
    # lexicographically smallest point
    sizes = np.concatenate(sizes)
    best = int(np.argmax(sizes))
    return DistanceReport(full, dict(zip(keys, values)), keys[best], int(sizes[best]),
                          full == frozenset({0}), isosceles)


def isotropic_lines(r: AffinePoint) -> tuple[AffineLine, AffineLine] | None:
    """The two lines through r on which all mutual distances vanish.

    They exist exactly when -1 is a square mod p (p = 1 mod 4); the first
    line uses the canonical (smaller) square root i of -1, the second its
    negative."""
    p = r.p
    if not minus_one_is_square(p):
        return None
    i = sqrt_mod(p - 1, p)
    first = AffineLine(i, (r.y - i * r.x) % p, p)
    second = AffineLine(p - i, (r.y + i * r.x) % p, p)
    return (first, second)


def bisector_instance(point_keys, r: int, p: int) -> np.ndarray:
    """The ascending distinct keys of the equal-distance lines
    {q : d(q, r) = d(q, s)} over all points s of the set with d(r, s) != 0;
    r is a point key and need not belong to the set.

    With r translated to the origin the line for s' = s - r is
    2 s'_x x + 2 s'_y y = |s'|^2; it is translated back to the original
    frame.  Zero-distance pairs are excluded, so each line is well-defined.
    """
    # r joins the set so that its key is checked too; d(r, r) = 0 keeps it
    # out of the lines
    x, y = _points([*point_keys, r], p).xy
    rx, ry = divmod(r, p)
    dx = (x - rx) % p
    dy = (y - ry) % p
    far = (dx * dx + dy * dy) % p != 0
    # the line a x + b y = cc, with b != 0 or else a != 0
    a, b = 2 * dx[far] % p, 2 * dy[far] % p
    cc = (x[far] * x[far] + y[far] * y[far] - (rx * rx + ry * ry) % p) % p
    sloped = b != 0
    inv = inv_mod_array(np.where(sloped, b, a), p)
    t = cc * inv % p
    return distinct(np.where(sloped, (-a * inv) % p * p + t, p * p + t))


def isosceles_triples(point_keys, p: int) -> int:
    """Exact count of ordered triples (q, r, s), r != s, with
    d(q, r) = d(q, s) != 0, over the points with the given keys."""
    return sum(_isosceles(*block) for block in _distance_blocks(*_points(point_keys, p).xy, p))


def _dyadic_class(k: np.ndarray) -> np.ndarray:
    """j with 2^j <= k < 2^(j+1), elementwise; frexp is exact on integers
    below 2^53."""
    return np.frexp(k)[1] - 1


@dataclass(frozen=True, eq=False)
class BeckReport:
    """Lines determined by a point set (at least two points each), their
    dyadic richness classes, and the exact pair accounting.

    keys holds the ascending line keys (:meth:`AffineLine.key`) of the
    determined lines and richness the number of points on each.  Class j
    holds the lines with point count in [2^j, 2^(j+1)); classes start at
    j = 1.  Every unordered pair of distinct points lies on exactly one
    determined line, so the per-line pair counts sum to C(m, 2).
    """

    keys: np.ndarray
    richness: np.ndarray
    pairs_by_class: dict
    pair_total: int
    expected_pairs: int
    m: int
    p: int

    @property
    def class_sizes(self) -> dict[int, int]:
        """Number of determined lines in each class, by ascending class."""
        js, sizes = np.unique(_dyadic_class(self.richness), return_counts=True)
        return dict(zip(js.tolist(), sizes.tolist()))


def determined_lines(point_keys, p: int) -> BeckReport:
    """All lines through at least two of the points with the given keys,
    with the dyadic partition by exact point count."""
    inst = _points(point_keys, p)
    m = inst.m
    if m < 2:
        raise TooFewPointsError(f"need at least two points, got {m}")
    x, y = inst.xy
    keys = np.concatenate([line_keys(x[i], y[i], x[j], y[j], p) for i, j in pair_blocks(m)])
    keys.sort()
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    pairs = np.diff(start, append=keys.size)
    # a line with k points carries c = k(k-1)/2 pairs, so 8c + 1 = (2k - 1)^2;
    # float64 takes the square root of that perfect square exactly while it
    # is below 2^53, that is for m below 2^25
    richness = (1 + np.sqrt(8 * pairs + 1).astype(np.int64)) // 2
    line_class = _dyadic_class(richness)
    pairs_by_class = {j: int(pairs[line_class == j].sum())
                      for j in np.flatnonzero(np.bincount(line_class)).tolist()}
    return BeckReport(keys[start], richness, pairs_by_class, int(pairs.sum()), m * (m - 1) // 2, m, p)
