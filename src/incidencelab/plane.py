"""Affine and projective plane primitives over F_p.

Points and lines carry their modulus as a plain int and store canonical
residues, so structural equality coincides with geometric equality and both
types hash cheaply.  Lines use the canonical slope-intercept form, with
vertical lines tagged separately (slope None, the stored value is x0).
Between the edges a point is one int64 key, x*p + y, and a line one int64
key, slope*p + intercept or p*p + x0 for a vertical line; numeric key order
is the sort order of the points and of the lines.  The objects serve the
edges only: error payloads, reprs and :meth:`AffineLine.from_key`.
:func:`line_through` gives the key of the line through two point keys, and
:func:`line_keys` the keys of the lines through many point pairs at once.

An :class:`Instance` is built from key columns only and stores them sorted
and deduplicated, in columns of its own; keys that already ascend strictly
are checked in one pass and copied, not sorted.  The coordinate columns
(read by the naive engine, the energy layer, the maps and the files), and
the point and line objects (read only by the tests and the benchmark
tracer), are built from the keys on first access; the hash join reads the
key columns alone.

A :class:`ProjMap` is an invertible 3x3 matrix mod p, and
:func:`projective_map_from_pair` builds one from two point keys.
:func:`apply_map` is the only code that applies it: it maps the key columns
of an instance, with one batched inverse, and names the first element sent
to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CoincidentPointsError,
    InvalidParameterError,
    LineSentToInfinityError,
    ModulusMismatchError,
    PointSentToInfinityError,
    VerticalLinePresentError,
)
from .field import PrimeModulus, inv_mod_array, make_modulus


@dataclass(frozen=True, order=True)
class AffinePoint:
    """A point (x, y) in F_p^2 with canonical coordinates."""

    x: int
    y: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "x", self.x % self.p)
        object.__setattr__(self, "y", self.y % self.p)

    def __repr__(self):
        return f"({self.x},{self.y})@{self.p}"


@dataclass(frozen=True)
class AffineLine:
    """A line in canonical form: y = slope*x + intercept, or x = intercept
    when slope is None (vertical)."""

    slope: int | None
    intercept: int
    p: int

    def __post_init__(self):
        if self.slope is not None:
            object.__setattr__(self, "slope", self.slope % self.p)
        object.__setattr__(self, "intercept", self.intercept % self.p)

    def key(self) -> int:
        """The int64 key slope*p + intercept, or p*p + x0 when vertical:
        vertical lines order after the others, each by x0."""
        if self.slope is None:
            return self.p * self.p + self.intercept
        return self.slope * self.p + self.intercept

    @classmethod
    def from_key(cls, key: int, p: int) -> "AffineLine":
        if key >= p * p:
            return cls(None, key - p * p, p)
        return cls(key // p, key % p, p)

    def __repr__(self):
        if self.slope is None:
            return f"[x={self.intercept}]@{self.p}"
        return f"[y={self.slope}x+{self.intercept}]@{self.p}"


def line_keys(qx, qy, rx, ry, p: int) -> np.ndarray:
    """Keys (see :meth:`AffineLine.key`) of the lines through the point
    pairs (qx, qy) != (rx, ry), given as broadcastable arrays of canonical
    residues; one batched inversion serves every non-vertical pair."""
    qx, qy, rx, ry = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for v in (qx, qy, rx, ry)))
    dx = (rx - qx) % p
    sloped = dx != 0
    s = (ry - qy) % p * inv_mod_array(np.where(sloped, dx, 1), p) % p
    return np.where(sloped, s * p + (qy - s * qx) % p, p * p + qx)


def line_through(q: int, r: int, p: int) -> int:
    """The key of the line through the two distinct points with keys q and
    r over F_p.  p must be prime and the keys integers in [0, p^2), as for
    an :class:`Instance`; q == r raises CoincidentPointsError."""
    p = make_modulus(p).p
    _key_column((q, r), p * p, "point")
    if q == r:
        raise CoincidentPointsError(f"need two distinct points, got the key {q} twice")
    return int(line_keys(*divmod(q, p), *divmod(r, p), p))


# pairs in one block of pair_blocks: about 55 bytes of temporaries per pair
# in the passes over them keep a block near 0.9 MB; the blocks set the peak
# memory of the beck and distances commands
_PAIR_BLOCK = 1 << 14


def pair_blocks(m: int):
    """Index arrays (i, j) over all pairs i < j < m, yielded in blocks of
    whole rows i holding at most about _PAIR_BLOCK pairs, so that array
    passes over the pairs keep their temporaries bounded.  The generator
    keeps no array of a block between yields: a caller that drops its block
    before asking for the next has one block alive."""
    step = max(1, _PAIR_BLOCK // max(m, 1))
    for lo in range(0, m - 1, step):
        yield _pair_rows(np.arange(lo, min(lo + step, m - 1)), m)


def _pair_rows(rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays (i, j) of the pairs (r, j), r < j < m, of the rows r."""
    counts = m - 1 - rows
    # the pairs of row r take positions start_r .. start_r + counts_r - 1
    # and there j = position - start_r + r + 1
    i = np.repeat(rows, counts)
    j = np.repeat(np.cumsum(counts) - counts - rows - 1, counts)
    np.subtract(np.arange(i.size), j, out=j)
    return i, j


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # an instance's columns and views are shared by every caller
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _run_start_mask(a: np.ndarray) -> np.ndarray:
    """Where the runs of equal values in the sorted int64 array a begin, as
    a bool mask."""
    start = np.empty(a.size, dtype=bool)
    start[:1] = True
    np.not_equal(a[1:], a[:-1], out=start[1:])
    return start


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where the runs of equal values in the sorted int64 array a begin.

    Not np.unique: the columns are sorted already, and without a return_*
    flag np.unique imports numpy.ma (about 20 ms and 1 MB at first use).
    """
    return np.flatnonzero(_run_start_mask(a))


def run_count(a: np.ndarray) -> int:
    """The number of runs of equal values in the sorted array a, that is its
    number of distinct values, from one comparison pass."""
    return int(np.count_nonzero(a[1:] != a[:-1])) + (a.size > 0)


def distinct(a) -> np.ndarray:
    """The sorted distinct values of the integer array a, as int64: plain
    np.unique without the import of numpy.ma (see :func:`_run_starts`).

    Values that already ascend strictly, as the keys of every file that
    write_instance writes do, are checked in one comparison pass and
    returned as they are, with no sort, no run mask and no index copy: the
    array a itself when it is int64.  Any other values go through
    :func:`distinct_in_place` in a copy, so a is never changed."""
    a = np.asarray(a, dtype=np.int64)
    if (a[1:] > a[:-1]).all():
        return a
    return distinct_in_place(a.copy())


def distinct_in_place(a: np.ndarray) -> np.ndarray:
    """distinct(a) for an int64 array a that the caller gives up.  Values
    all in [0, a.size) are read off a table of counts; otherwise a is sorted
    in place and the first value of each run kept."""
    if a.size and a.min() >= 0 and a.max() < a.size:
        return np.flatnonzero(np.bincount(a))
    a.sort()
    return a[_run_start_mask(a)]


def _integer_rows(rows, what: str, width: int | None = None) -> list[tuple]:
    """The rows as tuples of Python ints, each of width values when width
    is given.  A value that is not an integer (bool, float, str) is refused,
    not reduced, as for the keys of an Instance."""
    try:
        rows = [tuple(row) for row in rows]
    except TypeError:
        raise InvalidParameterError(f"{what} must be rows of values") from None
    if width is not None and any(len(row) != width for row in rows):
        raise InvalidParameterError(f"{what} must be rows of {width} values")
    kinds = {type(v) for row in rows for v in row}
    if not all(kind is not bool and issubclass(kind, (int, np.integer)) for kind in kinds):
        raise InvalidParameterError(f"{what} must be integers, got {sorted(k.__name__ for k in kinds)}")
    return [tuple(map(int, row)) for row in rows] if kinds - {int} else rows


def _key_column(keys, bound: int, what: str) -> np.ndarray:
    """The sorted distinct int64 keys, checked to be integers in [0, bound):
    float, bool, str and object values are refused, not cast, but an empty
    sequence (float64 to numpy) is no keys.  The column is the instance's
    own: a caller's array that :func:`distinct` passes through is copied
    once, and the caller's array is left as it was."""
    column = np.asarray(keys)
    if column.ndim != 1 or column.size and column.dtype.kind not in "iu":
        raise InvalidParameterError(f"{what} keys must be a flat sequence of integers, "
                                    f"got {column.dtype} values of shape {column.shape}")
    column = distinct(column)
    if isinstance(keys, np.ndarray) and np.may_share_memory(column, keys):
        column = column.copy()
    if column.size and (column[0] < 0 or column[-1] >= bound):
        raise InvalidParameterError(f"{what} keys must lie in [0, {bound})")
    return _read_only(column)[0]


class Instance:
    """A deduplicated set of points and lines sharing one prime modulus.

    The instance is two sorted, deduplicated int64 key columns: point_keys
    holds x*p + y for each point and line_keys the :meth:`AffineLine.key`
    of each line.  Key order is (x, y) order for the points, and for the
    lines (slope, intercept) order with the vertical lines after, by x0, so
    two instances with the same content compare and serialize identically.
    The coordinate columns xy and line_columns and the object tuples points
    and lines are built on first access; only the tests and the benchmark
    tracer still read the object tuples.  A count, a degree join or a
    verifier re-check builds none of them.

    The one constructor takes the keys, in any order and with repeats:
    Instance(modulus, point_keys=..., line_keys=...).  The caller's arrays
    are never changed, shared or frozen.
    """

    def __init__(self, modulus: PrimeModulus, *, point_keys, line_keys):
        self.modulus = modulus
        p = modulus.p
        self.point_keys = _key_column(point_keys, p * p, "point")
        self.line_keys = _key_column(line_keys, p * p + p, "line")

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def m(self) -> int:
        return self.point_keys.size

    @property
    def n(self) -> int:
        return self.line_keys.size

    @cached_property
    def xy(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and the y column of the points, in point order."""
        return _read_only(*np.divmod(self.point_keys, self.p))

    @cached_property
    def line_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The slope and the intercept columns of the non-vertical lines,
        in line order, and the x0 column of the vertical lines, which order
        after them."""
        p = self.p
        sloped = np.searchsorted(self.line_keys, p * p)
        s, t = np.divmod(self.line_keys[:sloped], p)
        return _read_only(s, t, self.line_keys[sloped:] - p * p)

    @cached_property
    def points(self) -> tuple[AffinePoint, ...]:
        p = self.p
        return tuple(AffinePoint(x, y, p) for x, y in zip(*(c.tolist() for c in self.xy)))

    @cached_property
    def lines(self) -> tuple[AffineLine, ...]:
        p = self.p
        s, t, vertical = (c.tolist() for c in self.line_columns)
        return tuple([AffineLine(a, b, p) for a, b in zip(s, t)] + [AffineLine(None, x0, p) for x0 in vertical])

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.p == other.p and np.array_equal(self.point_keys, other.point_keys)
                and np.array_equal(self.line_keys, other.line_keys))

    def __repr__(self):
        return f"Instance(p={self.p}, m={self.m}, n={self.n})"


def dualize(inst: Instance) -> Instance:
    """Affine point-line duality.

    A line y = c*x + d maps to the point (c, -d) and a point (a, b) maps to
    the line y = a*x - b.  This pairing preserves incidence and is an exact
    involution: applying it twice returns the original instance.  Vertical
    lines have no slope-intercept form and are rejected.
    """
    p = inst.p
    s, t, vertical = inst.line_columns
    if vertical.size:
        raise VerticalLinePresentError(f"cannot dualize vertical line {AffineLine(None, int(vertical[0]), p)}")
    x, y = inst.xy
    return Instance(inst.modulus, point_keys=s * p + (-t) % p, line_keys=x * p + (-y) % p)


# ---------------------------------------------------------------------------
# Projective layer
# ---------------------------------------------------------------------------

def _det3(A, p):
    return (
        A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
        - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
        + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
    ) % p


def _adjugate(A, p):
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = A[r[0]][c[0]] * A[r[1]][c[1]] - A[r[0]][c[1]] * A[r[1]][c[0]]
            cof[i][j] = (-1) ** (i + j) * minor
    # adjugate = transpose of cofactor matrix
    return tuple(tuple(cof[j][i] % p for j in range(3)) for i in range(3))


@dataclass(frozen=True)
class ProjMap:
    """An invertible projective transformation of F_p^2 given by a 3x3
    matrix: rows sends a point's homogeneous vector (x, y, 1), and the
    transpose of adjugate (the inverse up to a scalar) sends a line's
    coefficient vector (a, b, c).  :func:`apply_map` applies it."""

    rows: tuple[tuple[int, int, int], ...]
    p: int

    def __post_init__(self):
        p = make_modulus(self.p).p
        rows = _integer_rows(self.rows, "projective map entries", 3)
        if len(rows) != 3:
            raise InvalidParameterError(f"projective map must have 3 rows, got {len(rows)}")
        rows = tuple(tuple(v % p for v in row) for row in rows)
        object.__setattr__(self, "rows", rows)
        if _det3(rows, p) == 0:
            raise InvalidParameterError("projective map must be invertible")

    @cached_property
    def adjugate(self) -> tuple[tuple[int, int, int], ...]:
        return _adjugate(self.rows, self.p)


def projective_map_from_pair(q: int, r: int, p: int) -> ProjMap:
    """An invertible map sending the point with key q to [1:0:0] and the
    point with key r to [0:1:0]; p and the keys are checked as by
    :func:`line_through`.

    Lines through q become horizontal lines and lines through r become
    vertical lines.  The preimage of the line at infinity is the line qr.
    Deterministic: the third basis point is the lexicographically smallest
    affine point off the line qr, sent to [0:0:1]: (0, 0) when qr misses
    it, else (1, 0) when qr is the column x = 0, else (0, 1).
    """
    qr = line_through(q, r, p)
    # (0, 0) lies on qr exactly when its intercept, or its x0, is 0
    third = (0, 0) if qr % p else (1, 0) if qr >= p * p else (0, 1)
    (qx, qy), (rx, ry) = divmod(int(q), p), divmod(int(r), p)
    # columns of N are the images of the standard basis under the inverse map
    N = ((qx, rx, third[0]), (qy, ry, third[1]), (1, 1, 1))
    return ProjMap(_adjugate(N, p), p)


def _dot(row, columns, p: int) -> np.ndarray:
    """sum_k row[k] * columns[k] mod p, each product reduced before the sum:
    residues below p < 2^31 keep every product below 2^62 and the sum of
    three reduced products below 2^33."""
    return sum(r * c % p for r, c in zip(row, columns)) % p


def apply_map(M: ProjMap, inst: Instance) -> Instance:
    """Transform an instance by a projective map, keys in and keys out.

    The point (x, y) maps as the vector (x, y, 1) by M.rows, and the line
    a*x + b*y + c = 0 as its coefficient vector (a, b, c) by the transpose
    of M.adjugate; one batched inverse serves the denominators of both.
    Every point must stay affine and every line must stay off the line at
    infinity: the first point in key order that M sends to infinity raises
    PointSentToInfinityError, and if every point stays affine the first
    such line raises LineSentToInfinityError.  The offending element is the
    only object built.  Incidences among the transformed elements are
    preserved exactly.
    """
    if M.p != inst.p:
        raise ModulusMismatchError(f"map mod {M.p} applied to instance mod {inst.p}")
    p = inst.p
    px, py = inst.xy
    x, y, z = (_dot(row, (px, py, 1), p) for row in M.rows)
    if not z.all():
        i = int(np.argmin(z != 0))
        raise PointSentToInfinityError(AffinePoint(int(px[i]), int(py[i]), p))
    keys = inst.line_keys
    # a*x + b*y + c = 0: (1, 0, -x0) for a vertical line, (s, -1, t) otherwise
    vertical = keys >= p * p
    s, t = np.divmod(keys, p)
    coeffs = (np.where(vertical, 1, s), np.where(vertical, 0, p - 1), np.where(vertical, (p - t) % p, t))
    a, b, c = (_dot([row[k] for row in M.adjugate], coeffs, p) for k in range(3))
    sloped = b != 0
    lost = ~sloped & (a == 0)
    if lost.any():
        raise LineSentToInfinityError(AffineLine.from_key(int(keys[np.argmax(lost)]), p))
    inv = inv_mod_array(np.concatenate([z, np.where(sloped, b, a)]), p)
    iz, il = inv[:z.size], inv[z.size:]
    return Instance(inst.modulus, point_keys=x * iz % p * p + y * iz % p,
                    line_keys=np.where(sloped, -a * il % p * p + -c * il % p, p * p + -c * il % p))
