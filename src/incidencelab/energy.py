"""Collision energy of a scalar set against a line family, its reduction to
point-plane incidences in F_p^3 with their exact count, the Cauchy-Schwarz
bridge, and the arithmetic image sets behind the sum-product style reports.
The line family is a :class:`plane.Instance`, which has checked p and the
line keys; the energy layer reads its prime and its slope and intercept
columns, and ignores its points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import groupby

import numpy as np

from .bounds import ll_constant
from .errors import (
    DegenerateInputError,
    EmptyInputError,
    InvalidParameterError,
    OutOfRangeError,
    VerticalLinePresentError,
)
from .field import inv_mod_array, make_modulus
from .incidence import count_incidences, max_collinear_3d
from .plane import AffineLine, Instance, _integer_rows


def _residue_set(S, p: int, what: str) -> np.ndarray:
    """The sorted distinct residues mod p of the integers in S, as int64.
    A value that is not an integer (bool, float, str) is refused, not
    reduced, as for the keys of an Instance."""
    (values,) = _integer_rows((S,), what)
    return np.array(sorted({v % p for v in values}), dtype=np.int64)


def _energy_input(A, lines: Instance) -> np.ndarray:
    """The sorted distinct residues of A mod the prime of lines.  A
    vertical line (it has no (slope, intercept) form) raises."""
    vertical = lines.line_columns[2]
    if vertical.size:
        line = AffineLine(None, int(vertical[0]), lines.p)
        raise VerticalLinePresentError(f"{line} has no slope-intercept form")
    return _residue_set(A, lines.p, "set A")


@dataclass
class EnergyCount:
    """The number of six-tuples (x, s, t, x', s', t') over (A x L*)^2 with
    x s + t = x' s' + t', together with the value-multiplicity table it was
    computed from.  Always at least |A| * |L*| (the diagonal solutions)."""

    value: int
    table: dict[int, int] = field(repr=False)


def _energy(lines: Instance, xs: np.ndarray) -> EnergyCount:
    # x, s < p < 2^31, so x*s + t stays below 2^63
    s, t, _ = lines.line_columns
    values, counts = np.unique((xs[:, None] * s + t) % lines.p, return_counts=True)
    return EnergyCount(int((counts * counts).sum()), dict(zip(values.tolist(), counts.tolist())))


def line_energy(A, lines: Instance) -> EnergyCount:
    """Exact energy by multiplicity counting of x*s + t over A x L*, L the
    lines of the instance lines.

    Single pass: count each value of x*s + t, then sum count^2.  Vertical
    lines are rejected.
    """
    return _energy(lines, _energy_input(A, lines))


# ---------------------------------------------------------------------------
# Points and planes in F_p^3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneInstance3D:
    """Deduplicated points (x, y, z) and planes (a, b, c, d) of the equation
    a*x + b*y + c*z = d in F_p^3, given to the constructor, the one way in,
    as rows of residues; each plane is scaled so that the first nonzero of
    its normal (a, b, c) is 1.
    """

    p: int
    points: tuple[tuple[int, int, int], ...]
    planes: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        """Refuse what :func:`make_modulus` refuses, a row that is not 3
        (point) or 4 (plane) integers, a value outside [0, p), which
        count_point_plane's int64 sums overflow, and a zero normal; then
        scale all planes with one batched inverse, so that the sorted planes
        of each normal are one run."""
        p = make_modulus(self.p).p
        object.__setattr__(self, "p", p)
        points = _integer_rows(self.points, "point coordinates", 3)
        planes = _integer_rows(self.planes, "plane coefficients", 4)
        for what, rows in (("point coordinates", points), ("plane coefficients", planes)):
            if not all(0 <= v < p for row in rows for v in row):
                raise OutOfRangeError(f"{what} must be residues in [0, {p})")
        planes = np.array(planes, dtype=np.int64).reshape(-1, 4)
        nonzero = planes[:, :3] != 0
        if not nonzero.any(axis=1).all():
            raise InvalidParameterError("plane normal (a, b, c) must be nonzero")
        lead = planes[np.arange(len(planes)), nonzero.argmax(axis=1)]
        # residues below p < 2^31: each product stays below 2^62
        planes = planes * inv_mod_array(lead, p)[:, None] % p
        object.__setattr__(self, "points", tuple(sorted(set(points))))
        object.__setattr__(self, "planes", tuple(sorted(set(map(tuple, planes.tolist())))))

    @property
    def r(self) -> int:
        return len(self.points)

    @property
    def s(self) -> int:
        return len(self.planes)

    @cached_property
    def k(self) -> int:
        return max_collinear_3d(self.points, self.p)


def count_point_plane(inst3: PlaneInstance3D) -> int:
    """Exact |{(point, plane) : point on plane}|, one pass over the points
    per normal: the sorted planes of a normal are adjacent, and its leading 1
    keeps a*x + b*y + c*z below 2^63 for p < 2^31."""
    if inst3.r == 0 or inst3.s == 0:
        return 0
    x, y, z = np.array(inst3.points, dtype=np.int64).T
    p = inst3.p
    total = 0
    for (a, b, c), planes in groupby(inst3.planes, key=lambda plane: plane[:3]):
        total += int(np.isin((a * x + b * y + c * z) % p, [plane[3] for plane in planes]).sum())
    return total



def energy_reduction(A, lines: Instance) -> PlaneInstance3D:
    """Recast the energy count as a point-plane incidence count in F_p^3.

    Points are (x, s', t') over A x L*; for every (x', s, t) in A x L* the
    plane s*X - x'*Y - Z = -t collects exactly the six-tuple solutions, so
    the point-plane count of the output equals the energy.  Both sides have
    exactly |A| * n rows, built as residue columns for the constructor.
    """
    xs, p = _energy_input(A, lines), lines.p
    s, t, _ = lines.line_columns
    x, s, t = np.repeat(xs, s.size), np.tile(s, xs.size), np.tile(t, xs.size)
    inst3 = PlaneInstance3D(p, np.column_stack([x, s, t]).tolist(),
                            np.column_stack([s, -x % p, np.full_like(x, p - 1), -t % p]).tolist())
    assert inst3.r == inst3.s == x.size
    return inst3


@dataclass(frozen=True)
class CsBridgeResult:
    incidences: int
    energy: int
    bound: int  # |B| * energy
    holds: bool  # incidences^2 <= bound


def cs_bridge_check(A, B, lines: Instance) -> CsBridgeResult:
    """Count I(A x B, L) and the energy E of (A, L), L the lines of the
    instance lines, and check the Cauchy-Schwarz inequality I^2 <= |B| * E
    (it must always hold)."""
    xs, p = _energy_input(A, lines), lines.p
    ys = _residue_set(B, p, "set B")
    energy = _energy(lines, xs).value
    bound = ys.size * energy
    if not xs.size or not ys.size:
        return CsBridgeResult(0, energy, bound, True)
    count = count_incidences(Instance(lines.modulus, point_keys=(xs[:, None] * p + ys).ravel(),
                                      line_keys=lines.line_keys))
    return CsBridgeResult(count, energy, bound, count * count <= bound)


# ---------------------------------------------------------------------------
# Arithmetic image sets and sum-product reports
# ---------------------------------------------------------------------------

def arithmetic_image(expr: str, p: int, A=None, B=None, C=None) -> frozenset[int]:
    """The exact image set of one arithmetic expression over F_p."""
    p = make_modulus(p).p
    if expr == "A+A":
        a = _canon_set("A", A, p)
        return frozenset((u + v) % p for u in a for v in a)
    if expr == "A*A":
        a = _canon_set("A", A, p)
        return frozenset(u * v % p for u in a for v in a)
    if expr == "A*(A+1)":
        a = _canon_set("A", A, p)
        return frozenset(u * (v + 1) % p for u in a for v in a)
    if expr == "A+B*C":
        a, b, c = _canon_set("A", A, p), _canon_set("B", B, p), _canon_set("C", C, p)
        return frozenset((u + v * w) % p for u in a for v in b for w in c)
    if expr == "A*(B+C)":
        a, b, c = _canon_set("A", A, p), _canon_set("B", B, p), _canon_set("C", C, p)
        return frozenset(u * (v + w) % p for u in a for v in b for w in c)
    if expr == "x^2+xy":
        a, b = _canon_set("A", A, p), _canon_set("B", B, p)
        return frozenset((u * u + u * v) % p for u in a for v in b)
    raise InvalidParameterError(f"unknown expression {expr!r}")


@dataclass(frozen=True)
class SumProdReport:
    """Exact image-set sizes with the ratio against the relevant main term.

    The corollary statements are asymptotic, so ratios are reported and the
    characteristic-size condition is evaluated at the stated constant; no
    pass/fail verdict is attached to the growth bound itself.
    """

    corollary: str
    sizes: dict
    images: dict
    m_min: int | None
    m_max: int | None
    main_term: float
    ratio: float
    extra_ratios: dict
    condition_name: str
    condition_holds: bool
    ll_constant: Fraction


def _canon_set(name, S, p):
    if S is None or len(S) == 0:
        raise EmptyInputError(f"set {name} is required and must be nonempty")
    return _residue_set(S, p, f"set {name}").tolist()


def sumproduct_report(corollary: str, p: int, A=None, B=None, C=None, c=1) -> SumProdReport:
    """Build the exact report for one corollary-style statement.

    corollary: "5.1" sums and products of A; "5.2" the shifted product
    A*(A+1); "5.3" the three-variable expanders A+BC and A(B+C); "expander"
    the two-variable polynomial x^2 + x*y over A x B.
    """
    p = make_modulus(p).p
    cf = ll_constant(c)
    if corollary == "5.1":
        a = _canon_set("A", A, p)
        sums = arithmetic_image("A+A", p, A=a)
        prods = arithmetic_image("A*A", p, A=a)
        m_max, m_min = max(len(sums), len(prods)), min(len(sums), len(prods))
        main = len(a) ** 1.2
        return SumProdReport(
            corollary, {"A": len(a)}, {"A+A": len(sums), "A*A": len(prods)},
            m_min, m_max, main, m_max / main,
            {"min3max2_over_a6": (m_min**3 * m_max**2) / len(a) ** 6},
            "|A| << p^(5/8)", Fraction(len(a) ** 8) <= cf**8 * p**5, cf)
    if corollary == "5.2":
        a = _canon_set("A", A, p)
        if a == [0]:
            raise DegenerateInputError("A = {0} is excluded for the shifted-product report")
        img = arithmetic_image("A*(A+1)", p, A=a)
        main = len(a) ** 1.2
        return SumProdReport(
            corollary, {"A": len(a)}, {"A*(A+1)": len(img)},
            None, None, main, len(img) / main, {},
            "|A| << p^(5/8)", Fraction(len(a) ** 8) <= cf**8 * p**5, cf)
    if corollary == "5.3":
        a, b, cc = _canon_set("A", A, p), _canon_set("B", B, p), _canon_set("C", C, p)
        for name, S in (("A", a), ("B", b), ("C", cc)):
            if S == [0]:
                raise DegenerateInputError(f"{name} = {{0}} is excluded for the three-variable report")
        img1 = arithmetic_image("A+B*C", p, A=a, B=b, C=cc)
        img2 = arithmetic_image("A*(B+C)", p, A=a, B=b, C=cc)
        main = (len(a) * len(b) * len(cc)) ** 0.5
        return SumProdReport(
            corollary, {"A": len(a), "B": len(b), "C": len(cc)},
            {"A+B*C": len(img1), "A*(B+C)": len(img2)},
            None, None, main, len(img1) / main,
            {"A*(B+C)_ratio": len(img2) / main},
            "|A||B||C| << p^2", Fraction(len(a) * len(b) * len(cc)) <= cf * p * p, cf)
    if corollary == "expander":
        a, b = _canon_set("A", A, p), _canon_set("B", B, p)
        if a == [0]:
            raise DegenerateInputError("A = {0} is excluded for the two-variable expander")
        img = arithmetic_image("x^2+xy", p, A=a, B=b)
        main = min(len(a) ** 0.5 * len(b) ** 0.75, float(len(b)) ** 2)
        return SumProdReport(
            corollary, {"A": len(a), "B": len(b)}, {"x^2+xy": len(img)},
            None, None, main, len(img) / main, {},
            "|A|^2 |B| << p^2", Fraction(len(a) ** 2 * len(b)) <= cf * p * p, cf)
    raise InvalidParameterError(f"unknown corollary {corollary!r}")
