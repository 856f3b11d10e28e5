"""Squared Euclidean distances over F_p, pinned distance sets, isotropic
lines, perpendicular-bisector families, isosceles triples, and the
determined-lines (two-extremes) accounting with its dyadic partition.

The quadratic reports run one point at a time on the C kernels of
:mod:`incidence`, in memory O(m) above their results.  ``pinned`` counts the
distances from each pin in a hash table, which gives its pinned set size and
isosceles pairs, and gathers the distance set.  ``collinear`` counts the
slopes from each point to the later points, and the lengths of these runs
give the exact richness histogram of the determined lines.

Without a C compiler the same reports are numpy passes that hold one block
at a time.  Distance sets take blocks of pin rows, each row of m distances
sorted so that its runs give the pinned set and the isosceles pairs at
once.  The run histogram takes blocks of whole pair rows (i, j), j > i, in
:func:`_direction_runs`, the one numpy counterpart of ``collinear``, which
also gives the lazy line keys of a :class:`BeckReport` on either backend.

Every function takes and returns keys.  A point set, or one point, is given
as point keys x*p + y with its modulus p and is read through
:class:`plane.Instance`, which checks p and the keys; the results hold point
and line keys (see :meth:`AffineLine.key`).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyInputError, TooFewPointsError
from .field import inv_mod_array, make_modulus, minus_one_is_square, sqrt_mod
from .incidence import _collinear_runs, _load_backend
from .plane import (_PAIR_BLOCK, Instance, _read_only, _run_start_mask, _run_starts, distinct, distinct_in_place,
                    pair_blocks)


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


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """All squared distances of a point set and its largest pinned set.

    One pass, the C kernel ``pinned`` or without it numpy blocks of pin
    rows, gives every field: distance_values, the set of all squared
    distances as a sorted, read-only int64 array; pin, the key of the point
    whose pinned set is largest (ties go to the smallest key), a Python
    int, and max_pinned, the size of that set; degenerate, a bool that
    flags the all-zero distance set that a subset of one isotropic line
    produces; and isosceles_triples, the count of :func:`isosceles_triples`,
    from the same distance rows.
    """

    distance_values: np.ndarray
    pin: int
    max_pinned: int
    degenerate: bool
    isosceles_triples: int


def _fold(parts: list) -> np.ndarray:
    """The sorted distinct values of the arrays in parts.  The list is
    emptied once they are concatenated, so that only the concatenation is
    alive while it is sorted, in place."""
    values = np.concatenate(parts)
    parts.clear()
    return distinct_in_place(values)


# the allocator that the kernel ``pinned`` calls for its output array
_OUT = ctypes.CFUNCTYPE(ctypes.c_void_p, ctypes.c_int64)


def _pinned(point_keys: np.ndarray, p: int) -> tuple[np.ndarray, int, np.ndarray] | None:
    """(sizes, isosceles, values) of the m >= 1 ascending point keys from
    the C kernel ``pinned``: the size of each point's pinned distance set,
    the isosceles triples, and the sorted distance set; None without the
    kernels."""
    lib = _load_backend().lib
    if lib is None:
        return None
    sizes, isosceles, values = np.zeros(point_keys.size, np.int64), np.zeros(1, np.int64), []

    def out(n):
        try:
            values.append(np.empty(n, np.int64))
        except MemoryError:
            return None
        return values[0].ctypes.data

    if lib.pinned(point_keys, point_keys.size, p, sizes, isosceles, _OUT(out)) < 0:
        raise MemoryError("pinned kernel: no memory for the distance tables")
    values[0].sort()
    return sizes, int(isosceles[0]), values[0]


def _pinned_blocks(point_keys: np.ndarray, p: int) -> tuple[np.ndarray, int, np.ndarray]:
    """(sizes, isosceles, values) of the ascending point keys as the C
    kernel ``pinned`` gives them, from the blocks of :func:`_distance_blocks`."""
    x, y = np.divmod(point_keys, p)
    sizes = np.empty(x.size, dtype=np.int64)
    # parts holds the distance set so far, once there is one, and the
    # distances of the blocks since, starting from d(q, q) = 0
    parts, folded, added = [np.zeros(1, dtype=np.int64)], 0, 1
    row = isosceles = 0
    for rows, starts, after in _distance_blocks(x, y, p):
        isosceles += _isosceles(rows, starts)
        starts.sum(axis=1, out=sizes[row:row + len(rows)])
        row += len(rows)
        parts.append(after)
        added += after.size
        # fold the blocks' values into the distance set once they outnumber
        # it, so that a fold sorts at most twice the values it adds
        if added > folded:
            parts = [_fold(parts)]
            folded, added = parts[0].size, 0
    return sizes, isosceles, _fold(parts) if added else parts[0]


def _direction_runs(pts: np.ndarray, p: int):
    """Yield, for each block of :func:`pair_blocks` over the r distinct
    points pts (an r x 3 int64 array), the anchor i, the direction key and
    the length of each run of pairs (i, j), j > i, with equal (i, key), by
    ascending i and key.  The direction pts[j] - pts[i] is scaled by one
    batched inverse so that its first nonzero coordinate is 1, (1, v, w),
    (0, 1, w) or (0, 0, 1), and keyed v*p + w, p*p + w or p*p + p, as in
    :func:`incidence.max_collinear_3d`.  A line through point i holding c
    later points is one run of length c.  The pairs' index arrays are
    dropped before the inverse, and each anchor's row of keys is sorted in
    place.  Each block's arrays are dropped before the next block is built;
    a caller that drops its own references as well keeps one block alive."""
    r = len(pts)
    for i, j in pair_blocks(r):
        rows = np.arange(int(i[0]), int(i[-1]) + 1)
        u, v, w = (c[j] for c in pts.T)
        for d, c in zip((u, v, w), pts.T):
            d -= c[i]
            d %= p
        del i, j
        along_u, along_v = u != 0, v != 0
        lead = np.where(along_u, u, np.where(along_v, v, w))
        del u
        inv = inv_mod_array(lead, p)
        del lead
        v *= inv
        v %= p
        w *= inv
        w %= p
        del inv
        key = np.where(along_u, v * p + w, p * p + np.where(along_v, w, p))
        del v, w, along_u, along_v
        # row i of the block holds its r - 1 - i pairs
        ends = np.cumsum(r - 1 - rows)
        lo = 0
        for hi in ends.tolist():
            key[lo:hi].sort()
            lo = hi
        start = _run_start_mask(key)
        start[ends[:-1]] = True
        at = np.flatnonzero(start)
        del start
        anchor = rows[np.searchsorted(ends, at, side="right")]
        length = np.diff(at, append=key.size)
        key = key[at]
        del at
        yield anchor, key, length
        del anchor, key, length


def distance_sets(point_keys, p: int) -> DistanceReport:
    """Exact distance set and largest pinned set Delta_q of the points with
    the given keys over F_p."""
    inst = _points(point_keys, p)
    p = inst.p
    if not inst.m:
        raise EmptyInputError("need at least one point")
    sizes, isosceles, values = _pinned(inst.point_keys, p) or _pinned_blocks(inst.point_keys, p)
    # the points ascend by key, so ties go to the smallest one
    pin = int(np.argmax(sizes))
    _read_only(values)
    return DistanceReport(values, int(inst.point_keys[pin]), int(sizes[pin]),
                          bool(values.size == 1 and values[0] == 0), isosceles)


def isotropic_lines(r: int, p: int) -> tuple[int, int] | None:
    """The keys of the two lines through the point with key r on which all
    mutual distances vanish; p and r are checked as for a point set.

    They exist exactly when -1 is a square mod p (p = 1 mod 4); the first
    line uses the canonical (smaller) square root i of -1, the second its
    negative."""
    inst = _points([r], p)
    p, ((x,), (y,)) = inst.p, (c.tolist() for c in inst.xy)
    if not minus_one_is_square(p):
        return None
    i = sqrt_mod(p - 1, p)
    return (i * p + (y - i * x) % p, (p - i) * p + (y + i * x) % p)


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
    inst = _points([*point_keys, r], p)
    p, (x, y) = inst.p, inst.xy
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
    inst = _points(point_keys, p)
    return distance_sets(inst.point_keys, inst.p).isosceles_triples if inst.m else 0


@dataclass(frozen=True, eq=False)
class BeckReport:
    """Lines determined by a point set (at least two points each), their
    dyadic richness classes, and the exact pair accounting.

    Class j holds the lines with point count in [2^j, 2^(j+1)); classes
    start at j = 1.  Every unordered pair of distinct points lies on
    exactly one determined line, so the per-line pair counts sum to C(m, 2).

    One pass, the C kernel ``collinear`` or without it the numpy blocks of
    :func:`_direction_runs`, gives the richness histogram, and the eager
    fields are read off it: line_count, the number of determined lines;
    class_sizes and pairs_by_class, the lines and the pairs of each class,
    by ascending class; and pair_total.  They are integer sums, with no
    float square root, so they are exact for every m.  keys, the ascending
    line keys (:meth:`AffineLine.key`) of the determined lines, and
    richness, the number of points on each, are computed on first access,
    from the runs of a second pass over the blocks of
    :func:`_direction_runs`.
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
        # one line key per run; a line with k points gives k - 1 runs.  The
        # direction (1, s, 0) has the key s*p and (0, 1, 0) the key p*p, so
        # key // p is the slope, or p for a vertical line, and the line key
        # adds the intercept y - s*x, or x
        (x, y), p = self.instance.xy, self.p
        parts = []
        for i, key, _ in _direction_runs(np.column_stack((x, y, np.zeros_like(x))), p):
            s = key // p
            parts.append(key + np.where(s < p, (y[i] - s * x[i]) % p, x[i]))
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
    p, m = inst.p, inst.m
    if m < 2:
        raise TooFewPointsError(f"need at least two points, got {m}")
    # runs[c] counts the runs of c points after a point on its line.  A line
    # with k points gives one run of each length 1 .. k - 1, one from each
    # of its points but the last, so runs[k - 1] - runs[k] lines hold
    # exactly k points.
    x, y = inst.xy
    runs = _collinear_runs(np.column_stack((x, y, np.zeros_like(x))), p)
    k = np.arange(2, m + 1)
    lines = runs[1:] - np.append(runs[2:], 0)
    # class j holds k in [2^j, 2^(j+1)), the entries from 2^j - 2 on
    js = np.arange(1, m.bit_length())
    sizes = np.add.reduceat(lines, (1 << js) - 2)
    pairs = np.add.reduceat(lines * (k * (k - 1) // 2), (1 << js) - 2)
    held = sizes > 0
    classes = js[held].tolist()
    return BeckReport(int(runs[1]), dict(zip(classes, sizes[held].tolist())),
                      dict(zip(classes, pairs[held].tolist())), int(pairs.sum()),
                      m * (m - 1) // 2, m, p, inst)
