"""Squared Euclidean distances over F_p, pinned distance sets, isotropic
lines, perpendicular-bisector families, isosceles triples, and the
determined-lines (two-extremes) accounting with its dyadic partition.

The quadratic reports are numpy passes that hold one block at a time.
Distance sets and isosceles triples take blocks of pin rows, each row of m
distances sorted so that its runs give the pinned set and the isosceles
pairs at once.  The determined lines take blocks of whole pair rows (i, j),
j > i, with one batched modular inverse per block; each block is sorted by
point and slope, and the lengths of its runs give the exact richness
histogram of the lines.  A point set is given as point keys x*p + y with
its modulus p and is read through :class:`plane.Instance`, which checks p
and the keys; the results hold point and line keys (see
:meth:`AffineLine.key`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyInputError, ModulusMismatchError, TooFewPointsError
from .field import inv_mod_array, make_modulus, minus_one_is_square, sqrt_mod
from .plane import (_PAIR_BLOCK, AffineLine, AffinePoint, Instance, _read_only, _run_starts, distinct,
                    distinct_in_place, pair_blocks)


def _points(point_keys, p: int) -> Instance:
    """The point set as an Instance over F_p: p must be prime and every key
    lie in [0, p^2)."""
    return Instance(make_modulus(p), point_keys=point_keys, line_keys=())


def _distance_blocks(x, y, p):
    """Yield, for consecutive blocks of pins q holding about _PAIR_BLOCK
    distances in all, the rows d(q, .) over all points, each sorted, the
    mask of where the runs of equal values begin, and the distances d(q, r)
    to the points r after q, taken before the sort: each distance between
    two points once.  With |dx|, |dy| < p < 2^31 the sum of the two squares
    stays below 2^63, so one % p per pair reduces it."""
    step = max(1, _PAIR_BLOCK // max(x.size, 1))
    for lo in range(0, x.size, step):
        rows = x[lo:lo + step, None] - x
        rows *= rows
        dy = y[lo:lo + step, None] - y
        dy *= dy
        rows += dy
        rows %= p
        after = rows[np.arange(x.size) > np.arange(lo, lo + rows.shape[0])[:, None]]
        rows.sort(axis=1)
        starts = np.empty(rows.shape, dtype=bool)
        starts[:, 0] = True
        np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
        yield rows, starts, after


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

    One pass over blocks of pin rows, which keeps no row past its block,
    gives the eager fields: distance_values, the set of all squared
    distances as a sorted, read-only int64 array; pin, the key of the point
    whose pinned set is largest (ties go to the smallest key), a Python
    int, and max_pinned, the size of that set; degenerate, a bool that
    flags the all-zero distance set that a subset of one isotropic line
    produces; and isosceles_triples, the count of :func:`isosceles_triples`,
    from the same distance rows.

    distances holds the same set as a frozenset of Python ints, built on
    first access.  pinned_values maps the key of each point q to its pinned
    set Delta_q as a sorted int64 array, and pinned holds the same sets as
    frozensets.  Both are computed on first access, by a second pass.
    """

    distance_values: np.ndarray
    pin: int
    max_pinned: int
    degenerate: bool
    isosceles_triples: int
    instance: Instance = field(repr=False)

    @cached_property
    def distances(self) -> frozenset[int]:
        return frozenset(self.distance_values.tolist())

    @cached_property
    def pinned_values(self) -> dict:
        inst = self.instance
        values = [row[start] for rows, starts, _ in _distance_blocks(*inst.xy, inst.p)
                  for row, start in zip(rows, starts)]
        return dict(zip(inst.point_keys.tolist(), values))

    @cached_property
    def pinned(self) -> dict:
        return {q: frozenset(v.tolist()) for q, v in self.pinned_values.items()}

    def __eq__(self, other):
        if not isinstance(other, DistanceReport):
            return NotImplemented
        return (self.distances, self.pinned, self.pin) == (other.distances, other.pinned, other.pin)


def _fold(parts: list) -> np.ndarray:
    """The sorted distinct values of the arrays in parts.  The list is
    emptied once they are concatenated, so that only the concatenation is
    alive while it is sorted, in place."""
    values = np.concatenate(parts)
    parts.clear()
    return distinct_in_place(values)


def distance_sets(point_keys, p: int) -> DistanceReport:
    """Exact distance set and every pinned set Delta_q of the points with
    the given keys over F_p."""
    inst = _points(point_keys, p)
    if not inst.m:
        raise EmptyInputError("need at least one point")
    # parts holds the distance set so far, once there is one, and the
    # distances of the blocks since, starting from d(q, q) = 0
    parts, folded, added = [np.zeros(1, dtype=np.int64)], 0, 1
    row = pin = max_pinned = isosceles = 0
    for rows, starts, after in _distance_blocks(*inst.xy, p):
        isosceles += _isosceles(rows, starts)
        # argmax by pinned-set size; the rows ascend by key, so ties
        # resolve to the lexicographically smallest point
        sizes = starts.sum(axis=1)
        best = int(np.argmax(sizes))
        if sizes[best] > max_pinned:
            pin, max_pinned = row + best, int(sizes[best])
        row += sizes.size
        parts.append(after)
        added += after.size
        # fold the blocks' values into the distance set once they outnumber
        # it, so that a fold sorts at most twice the values it adds
        if added > folded:
            parts = [_fold(parts)]
            folded, added = parts[0].size, 0
    (values,) = _read_only(_fold(parts) if added else parts[0])
    return DistanceReport(values, int(inst.point_keys[pin]), max_pinned,
                          bool(values.size == 1 and values[0] == 0), isosceles, inst)


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
    return sum(_isosceles(rows, starts) for rows, starts, _ in _distance_blocks(*_points(point_keys, p).xy, p))


def _slope_runs(x, y, p):
    """Yield, for each block of :func:`pair_blocks`, the index of its first
    point i, the keys of its pairs (i, j), j > i, sorted, and the starts of
    their runs.  A pair's key is (i - first) * (p + 1) + s, its row within
    the block and the slope s of its line (p for a vertical one), so a run
    holds the points j > i on one line through point i.  Each block's
    arrays are dropped before the next block is built; a caller that drops
    its own references as well keeps one block alive."""
    for i, j in pair_blocks(x.size):
        dx = x[j] - x[i]
        dx %= p
        key = y[j] - y[i]
        del j
        key %= p
        vertical = dx == 0
        dx[vertical] = 1
        key *= inv_mod_array(dx, p)
        key %= p
        key[vertical] = p
        first = int(i[0])
        i -= first
        i *= p + 1
        key += i
        del i, dx, vertical
        key.sort()
        start = _run_starts(key)
        yield first, key, start
        del key, start


@dataclass(frozen=True, eq=False)
class BeckReport:
    """Lines determined by a point set (at least two points each), their
    dyadic richness classes, and the exact pair accounting.

    Class j holds the lines with point count in [2^j, 2^(j+1)); classes
    start at j = 1.  Every unordered pair of distinct points lies on
    exactly one determined line, so the per-line pair counts sum to C(m, 2).

    One pass over blocks of point pairs gives the richness histogram, and
    the eager fields are read off it: line_count, the number of determined
    lines; class_sizes and pairs_by_class, the lines and the pairs of each
    class, by ascending class; and pair_total.  They are integer sums, with
    no float square root, so they are exact for every m.  keys, the
    ascending line keys (:meth:`AffineLine.key`) of the determined lines,
    and richness, the number of points on each, are computed on first
    access, by a second pass.
    """

    line_count: int
    class_sizes: dict
    pairs_by_class: dict
    pair_total: int
    expected_pairs: int
    m: int
    p: int
    instance: Instance = field(repr=False)

    @cached_property
    def _spanned(self) -> tuple[np.ndarray, np.ndarray]:
        # one line key per run; a line with k points gives k - 1 runs
        (x, y), p = self.instance.xy, self.p
        parts = []
        for first, key, start in _slope_runs(x, y, p):
            i, s = np.divmod(key[start], p + 1)
            i += first
            parts.append(np.where(s < p, s * p + (y[i] - s * x[i]) % p, p * p + x[i]))
        keys = np.concatenate(parts)
        keys.sort()
        start = _run_starts(keys)
        return keys[start], np.diff(start, append=keys.size) + 1

    @property
    def keys(self) -> np.ndarray:
        return self._spanned[0]

    @property
    def richness(self) -> np.ndarray:
        return self._spanned[1]


def determined_lines(point_keys, p: int) -> BeckReport:
    """All lines through at least two of the points with the given keys,
    with the dyadic partition by exact point count."""
    inst = _points(point_keys, p)
    m = inst.m
    if m < 2:
        raise TooFewPointsError(f"need at least two points, got {m}")
    # runs[r] counts the runs of length r.  A line with k points gives one
    # run of each length 1 .. k - 1, one from each of its points but the
    # last, so runs[k - 1] - runs[k] lines hold exactly k points.
    runs = np.zeros(m + 1, dtype=np.int64)
    for _, key, start in _slope_runs(*inst.xy, p):
        runs += np.bincount(np.diff(start, append=key.size), minlength=m + 1)
        # drop the block before _slope_runs builds the next one
        del key, start
    k = np.arange(2, m + 1)
    lines = runs[1:-1] - runs[2:]
    # class j holds k in [2^j, 2^(j+1)), the entries from 2^j - 2 on
    js = np.arange(1, m.bit_length())
    sizes = np.add.reduceat(lines, (1 << js) - 2)
    pairs = np.add.reduceat(lines * (k * (k - 1) // 2), (1 << js) - 2)
    held = sizes > 0
    classes = js[held].tolist()
    return BeckReport(int(runs[1]), dict(zip(classes, sizes[held].tolist())),
                      dict(zip(classes, pairs[held].tolist())), int(pairs.sum()),
                      m * (m - 1) // 2, m, p, inst)
