"""Affine and projective plane primitives over F_p.

Points and lines carry their modulus as a plain int and store canonical
residues, so structural equality coincides with geometric equality and both
types hash cheaply.  Lines use the canonical slope-intercept form, with
vertical lines tagged separately (slope None, the stored value is x0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    CoincidentPointsError,
    LineSentToInfinityError,
    ModulusMismatchError,
    PointSentToInfinityError,
    VerticalLinePresentError,
)
from .field import PrimeModulus, inv_mod


@dataclass(frozen=True, order=True)
class AffinePoint:
    """A point (x, y) in F_p^2 with canonical coordinates."""

    x: int
    y: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "x", self.x % self.p)
        object.__setattr__(self, "y", self.y % self.p)

    def translate(self, dx: int, dy: int) -> "AffinePoint":
        return AffinePoint(self.x + dx, self.y + dy, self.p)

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

    @property
    def is_vertical(self) -> bool:
        return self.slope is None

    def sort_key(self):
        # vertical lines order after all slope-intercept lines
        if self.slope is None:
            return (1, self.intercept, 0)
        return (0, self.slope, self.intercept)

    def __lt__(self, other: "AffineLine"):
        return self.sort_key() < other.sort_key()

    def homogeneous(self) -> tuple[int, int, int]:
        """Coefficients (a, b, c) with a*x + b*y + c = 0 on the line."""
        if self.slope is None:
            return (1, 0, (-self.intercept) % self.p)
        return (self.slope, self.p - 1, self.intercept)

    def __repr__(self):
        if self.slope is None:
            return f"[x={self.intercept}]@{self.p}"
        return f"[y={self.slope}x+{self.intercept}]@{self.p}"


def vertical_line(x0: int, p: int) -> AffineLine:
    return AffineLine(None, x0, p)


def _check_same_p(a, b):
    if a.p != b.p:
        raise ModulusMismatchError(f"mixed moduli {a.p} and {b.p}")


def incident(q: AffinePoint, line: AffineLine) -> bool:
    """Is q on the line?"""
    _check_same_p(q, line)
    if line.slope is None:
        return q.x == line.intercept
    return q.y == (line.slope * q.x + line.intercept) % q.p


def line_through(q: AffinePoint, r: AffinePoint) -> AffineLine:
    """The unique canonical line through two distinct points."""
    _check_same_p(q, r)
    if q == r:
        raise CoincidentPointsError(f"need two distinct points, got {q} twice")
    p = q.p
    if q.x == r.x:
        return AffineLine(None, q.x, p)
    s = (r.y - q.y) * inv_mod(r.x - q.x, p) % p
    t = (q.y - s * q.x) % p
    return AffineLine(s, t, p)


class Instance:
    """A deduplicated set of points and lines sharing one prime modulus.

    Points and lines are stored as sorted tuples, so two instances with the
    same content compare and serialize identically.
    """

    def __init__(self, modulus: PrimeModulus, points: Iterable[AffinePoint], lines: Iterable[AffineLine]):
        self.modulus = modulus
        p = modulus.p
        pts = set(points)
        lns = set(lines)
        for q in pts:
            if q.p != p:
                raise ModulusMismatchError(f"point {q} does not live in F_{p}")
        for line in lns:
            if line.p != p:
                raise ModulusMismatchError(f"line {line} does not live in F_{p}")
        self.points: tuple[AffinePoint, ...] = tuple(sorted(pts))
        self.lines: tuple[AffineLine, ...] = tuple(sorted(lns, key=AffineLine.sort_key))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        return len(self.lines)

    @cached_property
    def point_set(self) -> frozenset[AffinePoint]:
        return frozenset(self.points)

    @cached_property
    def line_set(self) -> frozenset[AffineLine]:
        return frozenset(self.lines)

    def replace(self, points=None, lines=None) -> "Instance":
        return Instance(
            self.modulus,
            self.points if points is None else points,
            self.lines if lines is None else lines,
        )

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.p == other.p and self.points == other.points and self.lines == other.lines

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
    dual_points = []
    for line in inst.lines:
        if line.slope is None:
            raise VerticalLinePresentError(f"cannot dualize vertical line {line}")
        dual_points.append(AffinePoint(line.slope, -line.intercept, p))
    dual_lines = [AffineLine(q.x, -q.y, p) for q in inst.points]
    return Instance(inst.modulus, dual_points, dual_lines)


# ---------------------------------------------------------------------------
# Projective layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjPoint:
    """Homogeneous coordinates [a : b : c], canonically scaled so the first
    nonzero coordinate equals 1."""

    a: int
    b: int
    c: int
    p: int

    def __post_init__(self):
        p = self.p
        coords = [self.a % p, self.b % p, self.c % p]
        if coords == [0, 0, 0]:
            raise ValueError("projective point needs a nonzero coordinate")
        for v in coords:
            if v != 0:
                inv = inv_mod(v, p)
                coords = [(u * inv) % p for u in coords]
                break
        object.__setattr__(self, "a", coords[0])
        object.__setattr__(self, "b", coords[1])
        object.__setattr__(self, "c", coords[2])

    @property
    def at_infinity(self) -> bool:
        return self.c == 0

    def to_affine(self) -> AffinePoint:
        if self.c == 0:
            raise PointSentToInfinityError(self)
        inv = inv_mod(self.c, self.p)
        return AffinePoint(self.a * inv, self.b * inv, self.p)

    def __repr__(self):
        return f"[{self.a}:{self.b}:{self.c}]@{self.p}"


def embed(q: AffinePoint) -> ProjPoint:
    return ProjPoint(q.x, q.y, 1, q.p)


def x_infinity(p: int) -> ProjPoint:
    """The point at infinity of the horizontal direction; lines through it
    (other than the line at infinity) are the horizontal lines."""
    return ProjPoint(1, 0, 0, p)


def y_infinity(p: int) -> ProjPoint:
    """The point at infinity of the vertical direction."""
    return ProjPoint(0, 1, 0, p)


def _mat_vec(A, v, p):
    return tuple(sum(A[i][k] * v[k] for k in range(3)) % p for i in range(3))


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
    """An invertible projective transformation given by a 3x3 matrix."""

    rows: tuple[tuple[int, int, int], ...]
    p: int

    def __post_init__(self):
        rows = tuple(tuple(v % self.p for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if _det3(rows, self.p) == 0:
            raise ValueError("projective map must be invertible")

    @property
    def det(self) -> int:
        return _det3(self.rows, self.p)

    def inverse(self) -> "ProjMap":
        # the adjugate is a scalar multiple of the inverse, which is the same
        # projective transformation
        return ProjMap(_adjugate(self.rows, self.p), self.p)

    def apply_proj(self, q: ProjPoint) -> ProjPoint:
        v = _mat_vec(self.rows, (q.a, q.b, q.c), self.p)
        return ProjPoint(*v, self.p)

    def apply_point(self, q: AffinePoint) -> AffinePoint:
        v = _mat_vec(self.rows, (q.x, q.y, 1), self.p)
        if v[2] == 0:
            raise PointSentToInfinityError(q)
        inv = inv_mod(v[2], self.p)
        return AffinePoint(v[0] * inv, v[1] * inv, self.p)

    def apply_line(self, line: AffineLine) -> AffineLine:
        # a line with coefficient vector c transforms by the inverse
        # transpose; the adjugate transpose works projectively
        p = self.p
        coeffs = line.homogeneous()
        adj = _adjugate(self.rows, p)
        a, b, c = (
            sum(adj[k][0] * coeffs[k] for k in range(3)) % p,
            sum(adj[k][1] * coeffs[k] for k in range(3)) % p,
            sum(adj[k][2] * coeffs[k] for k in range(3)) % p,
        )
        return line_from_homogeneous(a, b, c, p)

    def line_to_infinity_preimage(self) -> AffineLine:
        """The affine line sent onto the line at infinity by this map."""
        a, b, c = self.rows[2]
        return line_from_homogeneous(a, b, c, self.p)


def line_from_homogeneous(a: int, b: int, c: int, p: int) -> AffineLine:
    """Canonical affine line with equation a*x + b*y + c = 0."""
    a %= p
    b %= p
    c %= p
    if b != 0:
        inv = inv_mod(b, p)
        return AffineLine((-a * inv) % p, (-c * inv) % p, p)
    if a != 0:
        inv = inv_mod(a, p)
        return AffineLine(None, (-c * inv) % p, p)
    raise LineSentToInfinityError(None, "coefficients (0, 0, c) describe the line at infinity")


def projective_map_from_pair(q: AffinePoint, r: AffinePoint) -> ProjMap:
    """An invertible map sending q to [1:0:0] and r to [0:1:0].

    Lines through q become horizontal lines and lines through r become
    vertical lines.  The preimage of the line at infinity is the line qr.
    Deterministic: the third basis point is the lexicographically smallest
    affine point off the line qr, sent to [0:0:1].
    """
    _check_same_p(q, r)
    if q == r:
        raise CoincidentPointsError(f"need two distinct points, got {q} twice")
    p = q.p
    qr = line_through(q, r)
    third = None
    for x in range(p):
        for y in range(p):
            cand = AffinePoint(x, y, p)
            if not incident(cand, qr):
                third = cand
                break
        if third is not None:
            break
    # columns of N are the images of the standard basis under the inverse map
    N = (
        (q.x, r.x, third.x),
        (q.y, r.y, third.y),
        (1, 1, 1),
    )
    return ProjMap(_adjugate(N, p), p)


def apply_map(M: ProjMap, inst: Instance) -> Instance:
    """Transform an instance by a projective map.

    Every point must stay affine and every line must stay off the line at
    infinity; offending elements raise.  Incidences among the transformed
    elements are preserved exactly.
    """
    if M.p != inst.p:
        raise ModulusMismatchError(f"map mod {M.p} applied to instance mod {inst.p}")
    new_points = [M.apply_point(q) for q in inst.points]
    new_lines = []
    for line in inst.lines:
        try:
            new_lines.append(M.apply_line(line))
        except LineSentToInfinityError:
            raise LineSentToInfinityError(line) from None
    return Instance(inst.modulus, new_points, new_lines)


def translation_map(dx: int, dy: int, p: int) -> ProjMap:
    return ProjMap(((1, 0, dx), (0, 1, dy), (0, 0, 1)), p)
