"""Instance generators: the extremal grid-and-lines family, full planes,
Cartesian products, and seeded random instances.

Random instances use an explicitly specified 64-bit mixing generator (written
out below, not a library PRNG) so the same seed yields the same instance in
any implementation of this format.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable

import numpy as np

from .errors import (
    CharacteristicTooSmallError,
    EmptyInputError,
    InvalidParameterError,
    TooManyRequestedError,
)
from .field import integer, make_modulus
from .plane import Instance

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# draws per batch of sample_distinct at most: 2 MB of uint64 state
_MAX_BATCH = 1 << 18


class SeededStream:
    """Deterministic 64-bit stream: splitmix-style state mixing.

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64); the output is state'
    xor-shifted right by 30, multiplied by 0xBF58476D1CE4E5B9, xor-shifted by
    27, multiplied by 0x94D049BB133111EB, xor-shifted by 31 (all mod 2^64).
    """

    def __init__(self, seed: int):
        self.state = integer(seed, "seed") & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by unbiased rejection."""
        if bound <= 0:
            raise InvalidParameterError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound

    def _batch(self, size: int) -> np.ndarray:
        """The next size outputs of next_u64 as uint64, without advancing
        the state."""
        z = np.uint64(self.state) + np.uint64(_GAMMA) * np.arange(1, size + 1, dtype=np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def sample_distinct(self, bound: int, count: int) -> np.ndarray:
        """count distinct integers from [0, bound), in draw order, as int64.

        The draws, their order and the final state are those of calling
        below(bound) until count distinct values have appeared; the outputs
        are mixed in numpy batches instead of one at a time.
        """
        if not 0 <= count <= bound:
            raise InvalidParameterError(f"need 0 <= count <= bound, got count {count} and bound {bound}")
        found = np.empty(0, dtype=np.int64)
        while found.size < count:
            limit = (1 << 64) - ((1 << 64) % bound)
            need = count - found.size
            free = bound - found.size
            # about the expected number of draws: bound/j per new value with
            # j values unseen, over the share of draws accepted; a short
            # batch is topped up by the next
            expect = -bound * math.log1p(-need / (free + 0.5)) * 2.0**64 / limit
            size = min(_MAX_BATCH, 64 + int(expect))
            z = self._batch(size)
            drawn = np.arange(size) if limit == 1 << 64 else np.flatnonzero(z < np.uint64(limit))
            values = (z[drawn] % np.uint64(bound)).astype(np.int64)
            # first occurrences in the batch, in draw order, not seen before
            uniq, first = np.unique(values, return_index=True)
            first = np.sort(first[~np.isin(uniq, found)])[:need]
            used = int(drawn[first[-1]]) + 1 if first.size == need else size
            self.state = (self.state + _GAMMA * used) & _MASK64
            found = np.concatenate([found, values[first]])
        return found


def derive_seed(seed: int, index: int) -> int:
    """A stable per-cell seed derived from a master seed."""
    s = SeededStream((seed << 1) ^ 0xA5A5A5A5A5A5A5A5)
    for _ in range(index % 64 + 1):
        s.next_u64()
    return s.next_u64() ^ index


def elekes_construction(a: int, c: int, p: int) -> Instance:
    """The tight grid-and-lines family with 1-based coordinates.

    Points {(i, j) : 1 <= i <= a, 1 <= j <= 2ac} and lines y = s x + t for
    1 <= s <= c, 1 <= t <= ac.  Requires 2ac < p so the coordinates stay
    distinct after reduction; then m = 2 a^2 c, n = a c^2 and every line
    contains exactly a points, giving exactly a^2 c^2 incidences.
    """
    a, c = integer(a, "a"), integer(c, "c")
    if a < 1 or c < 1:
        raise InvalidParameterError(f"need a, c >= 1, got a = {a}, c = {c}")
    if 2 * a * c >= p:
        raise CharacteristicTooSmallError(f"need 2ac < p, got 2*{a}*{c} = {2 * a * c} >= {p}")
    modulus = make_modulus(p)
    p = modulus.p
    point_keys = np.arange(1, a + 1)[:, None] * p + np.arange(1, 2 * a * c + 1)
    line_keys = np.arange(1, c + 1)[:, None] * p + np.arange(1, a * c + 1)
    return Instance(modulus, point_keys=point_keys.ravel(), line_keys=line_keys.ravel())


def full_plane(p: int) -> Instance:
    """All p^2 points and all p^2 + p lines of the affine plane."""
    # point keys x*p + y and line keys s*p + t, then p*p + x0 for the
    # vertical lines, cover [0, p*p) and [0, p*p + p)
    modulus = make_modulus(p)
    p = modulus.p
    if 8 * (p * p + p) > sys.maxsize:
        raise MemoryError(f"full_plane({p}) needs {8 * (p * p + p)} bytes of line keys, beyond the address space")
    return Instance(modulus, point_keys=np.arange(p * p), line_keys=np.arange(p * p + p))


def cartesian_instance(A: Iterable[int], B: Iterable[int], lines, p: int) -> Instance:
    """The product point set A x B with a caller-chosen line family.

    lines may be line keys (:meth:`AffineLine.key`), or the string
    "spanned" for all lines determined by at least two points of the product.
    """
    from .energy import _residue_set
    modulus = make_modulus(p)
    p = modulus.p
    A, B = _residue_set(A, p, "set A"), _residue_set(B, p, "set B")
    if not A.size or not B.size:
        raise EmptyInputError("A and B must be nonempty")
    point_keys = (A[:, None] * p + B).ravel()
    if not isinstance(lines, str):
        return Instance(modulus, point_keys=point_keys, line_keys=lines)
    if lines != "spanned":
        raise InvalidParameterError(f"unknown line family {lines!r}")
    from .distances import determined_lines
    return Instance(modulus, point_keys=point_keys, line_keys=determined_lines(point_keys, p).keys)


def random_instance(p: int, m: int, n: int, seed: int) -> Instance:
    """Exactly m distinct points and n distinct lines drawn uniformly
    without replacement; the same seed always gives the same instance.

    Index encodings: point k -> (k // p, k mod p) over [0, p^2); line k over
    [0, p^2 + p) is y = (k // p) x + (k mod p) for k < p^2, else the vertical
    line x = k - p^2.  The indices are the instance's point and line keys.
    """
    modulus = make_modulus(p)
    p, m, n = modulus.p, integer(m, "m"), integer(n, "n")
    if m > p * p:
        raise TooManyRequestedError(f"at most {p * p} distinct points exist, requested {m}")
    if n > p * p + p:
        raise TooManyRequestedError(f"at most {p * p + p} distinct lines exist, requested {n}")
    stream = SeededStream(seed)
    point_keys = stream.sample_distinct(p * p, m)
    return Instance(modulus, point_keys=point_keys, line_keys=stream.sample_distinct(p * p + p, n))
