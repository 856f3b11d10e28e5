"""Reference upper bounds for I(P, L) and the hypothesis checks of the
paper's theorems 1.2, 1.3 and 1.4, in exact integer arithmetic.

The module runs on first use (see __init__): a count never reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .errors import InvalidParameterError


def _check_sizes(**sizes) -> None:
    """Refuse a given size or field size below 1; p need not be prime."""
    for name, value in sizes.items():
        if value is not None and value < 1:
            raise InvalidParameterError(f"need {name} >= 1, got {value!r}")


def ll_constant(c) -> Fraction:
    """The constant c of X << Y, read as X <= c*Y: a positive rational."""
    try:
        cf = Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        cf = 0
    if cf <= 0:
        raise InvalidParameterError(f"the << constant must be a positive rational, got {c!r}")
    return cf


def reference_bound(m: int, n: int, p: int | None = None, which: str = "table1") -> tuple[str, float]:
    """Evaluate a comparator upper bound for I(P, L) as a real number.

    "table1" selects the regime by the relation between n and m and returns
    the best-known main term for that regime.  "combinatorial" evaluates the
    unconditional double-counting bound min(m^(1/2) n + m, m n^(1/2) + n).
    "vinh" evaluates m n / p + p^(1/2) (m n)^(1/2) and needs p.
    """
    _check_sizes(m=m, n=n, p=p)
    if which == "combinatorial":
        return ("min(m^(1/2) n + m, m n^(1/2) + n)",
                min(sqrt(m) * n + m, m * sqrt(n) + n))
    if which == "vinh":
        if p is None:
            raise InvalidParameterError("vinh bound needs the field size p")
        return ("m n / p + p^(1/2) (m n)^(1/2)", m * n / p + sqrt(p) * sqrt(m * n))
    if which != "table1":
        raise InvalidParameterError(f"unknown comparator {which!r}")
    # regime selection with exact integer comparisons; the adjacent formulas
    # agree at each boundary so ties can go to the lower row
    if n * n <= m:
        return ("n < m^(1/2)", float(m))
    if n**8 <= m**7:
        return ("m^(1/2) < n < m^(7/8)", sqrt(m) * n)
    if n**7 <= m**8:
        return ("m^(7/8) < n < m^(8/7)", m ** (11 / 15) * n ** (11 / 15))
    if n <= m * m:
        return ("m^(8/7) < n < m^2", m * sqrt(n))
    return ("m^2 < n", float(n))


def within_combinatorial_bound(count: int, m: int, n: int) -> bool:
    """Exact integer check of count <= min(m^(1/2) n + m, m n^(1/2) + n)."""

    def le_sqrt_bound(c, base, excess, factor):
        # c <= sqrt(base)*factor + excess, all integers
        if c <= excess:
            return True
        return (c - excess) ** 2 <= base * factor * factor

    return le_sqrt_bound(count, m, m, n) and le_sqrt_bound(count, n, n, m)


@dataclass(frozen=True)
class HypothesisCondition:
    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Evaluation of one theorem's hypothesis conditions.

    Asymptotic conditions X << Y are operationalized as X <= c*Y with the
    reported constant c.  Verdicts use exact integer arithmetic; the lhs/rhs
    fields are float renderings for display only.
    """

    theorem: str
    conditions: tuple[HypothesisCondition, ...]
    passed: bool
    ll_constant: Fraction


def check_hypotheses(theorem: str, *, m: int | None = None, n: int | None = None,
                     a: int | None = None, b: int | None = None,
                     r: int | None = None, s: int | None = None,
                     p: int, c=1) -> HypothesisReport:
    """Check a theorem's hypothesis conditions with exact arithmetic.

    theorem "1.2" needs m, n, p; "1.3" needs a, b, n, p; "1.4" needs r, s, p,
    each at least 1; c is checked by :func:`ll_constant`.
    """
    _check_sizes(m=m, n=n, a=a, b=b, r=r, s=s, p=p)
    cf = ll_constant(c)
    conds = []

    def add(name, lhs, rhs, passed):
        conds.append(HypothesisCondition(name, float(lhs), float(rhs), bool(passed)))

    if theorem == "1.2":
        if m is None or n is None:
            raise InvalidParameterError("theorem 1.2 needs m and n")
        add("m^(7/8) < n", m ** 0.875, n, n**8 > m**7)
        add("n < m^(8/7)", n, m ** (8 / 7), n**7 < m**8)
        add("m^(-2) n^13 << p^15", n**13 / m**2,
            float(cf) * float(p)**15, Fraction(n**13) <= cf * m**2 * p**15)
    elif theorem == "1.3":
        if a is None or b is None or n is None:
            raise InvalidParameterError("theorem 1.3 needs a, b and n")
        add("a <= b", a, b, a <= b)
        add("a b^2 <= n^3", a * b * b, n**3, a * b * b <= n**3)
        add("a n << p^2", a * n, float(cf) * p * p, Fraction(a * n) <= cf * p * p)
    elif theorem == "1.4":
        if r is None or s is None:
            raise InvalidParameterError("theorem 1.4 needs r and s")
        add("r <= s", r, s, r <= s)
        add("r << p^2", r, float(cf) * p * p, Fraction(r) <= cf * p * p)
    else:
        raise InvalidParameterError(f"unknown theorem {theorem!r}")
    return HypothesisReport(theorem, tuple(conds), all(cd.passed for cd in conds), cf)
