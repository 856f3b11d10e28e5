"""Instance generators: the extremal grid-and-lines family, full planes,
Cartesian products, pencils, and seeded random instances.

Random instances use an explicitly specified 64-bit mixing generator (written
out below, not a library PRNG) so the same seed yields the same instance in
any implementation of this format.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    CharacteristicTooSmallError,
    EmptyInputError,
    InvalidParameterError,
    TooManyRequestedError,
)
from .field import make_modulus
from .plane import AffineLine, AffinePoint, Instance

_MASK64 = (1 << 64) - 1


class SeededStream:
    """Deterministic 64-bit stream: splitmix-style state mixing.

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64); the output is state'
    xor-shifted right by 30, multiplied by 0xBF58476D1CE4E5B9, xor-shifted by
    27, multiplied by 0x94D049BB133111EB, xor-shifted by 31 (all mod 2^64).
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by unbiased rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound

    def sample_distinct(self, bound: int, count: int) -> list[int]:
        """count distinct integers from [0, bound), in draw order."""
        seen = set()
        out = []
        while len(out) < count:
            v = self.below(bound)
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out


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
    if a < 1 or c < 1:
        raise InvalidParameterError(f"need a, c >= 1, got a = {a}, c = {c}")
    if 2 * a * c >= p:
        raise CharacteristicTooSmallError(f"need 2ac < p, got 2*{a}*{c} = {2 * a * c} >= {p}")
    modulus = make_modulus(p)
    points = [AffinePoint(i, j, p) for i in range(1, a + 1) for j in range(1, 2 * a * c + 1)]
    lines = elekes_line_family(a, c, p)
    return Instance(modulus, points, lines)


def elekes_line_family(a: int, c: int, p: int) -> list[AffineLine]:
    """Lines y = s x + t with 1 <= s <= c and 1 <= t <= ac."""
    return [AffineLine(s, t, p) for s in range(1, c + 1) for t in range(1, a * c + 1)]


def full_plane(p: int) -> Instance:
    """All p^2 points and all p^2 + p lines of the affine plane."""
    modulus = make_modulus(p)
    points = [AffinePoint(x, y, p) for x in range(p) for y in range(p)]
    lines = [AffineLine(s, t, p) for s in range(p) for t in range(p)]
    lines += [AffineLine(None, x0, p) for x0 in range(p)]
    return Instance(modulus, points, lines)


def cartesian_instance(A: Iterable[int], B: Iterable[int], lines, p: int) -> Instance:
    """The product point set A x B with a caller-chosen line family.

    lines may be an iterable of AffineLine, or the string "spanned" for all
    lines determined by at least two points of the product.
    """
    modulus = make_modulus(p)
    A = sorted({x % p for x in A})
    B = sorted({y % p for y in B})
    if not A or not B:
        raise EmptyInputError("A and B must be nonempty")
    points = [AffinePoint(x, y, p) for x in A for y in B]
    if isinstance(lines, str):
        if lines != "spanned":
            raise ValueError(f"unknown line family {lines!r}")
        from .distances import determined_lines
        lines = determined_lines(points).lines
    return Instance(modulus, points, lines)


def random_instance(p: int, m: int, n: int, seed: int) -> Instance:
    """Exactly m distinct points and n distinct lines drawn uniformly
    without replacement; the same seed always gives the same instance.

    Index encodings: point k -> (k // p, k mod p) over [0, p^2); line k over
    [0, p^2 + p) is y = (k // p) x + (k mod p) for k < p^2, else the vertical
    line x = k - p^2.
    """
    modulus = make_modulus(p)
    if m > p * p:
        raise TooManyRequestedError(f"at most {p * p} distinct points exist, requested {m}")
    if n > p * p + p:
        raise TooManyRequestedError(f"at most {p * p + p} distinct lines exist, requested {n}")
    stream = SeededStream(seed)
    points = [AffinePoint(k // p, k % p, p) for k in stream.sample_distinct(p * p, m)]
    lines = []
    for k in stream.sample_distinct(p * p + p, n):
        if k < p * p:
            lines.append(AffineLine(k // p, k % p, p))
        else:
            lines.append(AffineLine(None, k - p * p, p))
    return Instance(modulus, points, lines)


def pencil(vertex: AffinePoint, slopes: Iterable[int], include_vertical: bool = False) -> frozenset[AffineLine]:
    """The lines through one vertex with the given slopes, optionally with
    the vertical line through it."""
    p = vertex.p
    lines = {AffineLine(s % p, (vertex.y - s * vertex.x) % p, p) for s in slopes}
    if include_vertical:
        lines.add(AffineLine(None, vertex.x, p))
    return frozenset(lines)
