"""Exact arithmetic in the prime field F_p.

Residues are canonical integers in [0, p).  The modulus is restricted to odd
primes with 3 <= p < 2**31 so that any product of two residues fits a 64-bit
intermediate without overflow; no big-integer machinery is needed anywhere.
That bound also lets :func:`inv_mod_array` invert a whole numpy array at
once in int64, which is how the report layers avoid one Python call per
point pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np
from .errors import (
    CompositeModulusError,
    DivisionByZeroError,
    OutOfRangeError,
)

MIN_MODULUS = 3
MAX_MODULUS = 2**31  # exclusive


@lru_cache
def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (fine below 2**31),
    memoized: one command validates its modulus in several layers."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    r = isqrt(n)
    while f <= r:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A verified odd prime characteristic p with 3 <= p < 2**31."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < MIN_MODULUS or self.p >= MAX_MODULUS:
            raise OutOfRangeError(f"modulus must be an integer in [{MIN_MODULUS}, 2^31), got {self.p}")
        if not is_prime(self.p):
            raise CompositeModulusError(f"{self.p} is not prime")

    def __repr__(self):
        return f"PrimeModulus({self.p})"


def make_modulus(n: int) -> PrimeModulus:
    """Validated constructor for :class:`PrimeModulus`."""
    return PrimeModulus(n)


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a modulo p; raises on a == 0 mod p."""
    a %= p
    if a == 0:
        raise DivisionByZeroError(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def inv_mod_array(a, p: int) -> np.ndarray:
    """Elementwise inverse mod p of an integer array, as canonical int64
    residues; raises on any entry that is 0 mod p.

    Fermat's a^(p-2) by square-and-multiply: every product is of two
    residues below p < 2**31, so it stays below 2**62 in int64.  An array of
    at least p entries holds at most p - 1 distinct residues; each of them is
    inverted once and the entries read back from a table of p inverses.
    """
    base = np.asarray(a, dtype=np.int64) % p
    if not base.all():
        raise DivisionByZeroError(f"0 has no inverse mod {p}")
    if base.size < p:
        return _fermat_inverse(base, p)
    table = np.zeros(p, dtype=np.int64)
    residues = np.flatnonzero(np.bincount(base.ravel(), minlength=p))
    table[residues] = _fermat_inverse(residues, p)
    return table[base]


def _fermat_inverse(base: np.ndarray, p: int) -> np.ndarray:
    """base^(p-2) mod p elementwise, for nonzero residues base."""
    base = base.copy()
    out = np.ones_like(base)
    e = p - 2
    while e:
        if e & 1:
            out *= base
            out %= p
        e >>= 1
        if e:
            base *= base
            base %= p
    return out


def is_square(a: int, p: int) -> bool:
    """Euler criterion: is a a quadratic residue (or zero) mod p?"""
    a %= p
    if a == 0:
        return True
    return pow(a, (p - 1) // 2, p) == 1


def minus_one_is_square(p: int) -> bool:
    """-1 is a square in F_p exactly when p = 1 (mod 4)."""
    return p % 4 == 1


def sqrt_mod(a: int, p: int) -> int | None:
    """Canonical square root of a mod p, or None if a is a non-residue.

    The canonical root is the numerically smaller of the two roots, so the
    result r always satisfies r <= p - r.  Deterministic: the Tonelli-Shanks
    branch picks the least quadratic non-residue as its auxiliary element.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks for p = 1 (mod 4).
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)

