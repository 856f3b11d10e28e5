import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incidencelab.errors import (
    CompositeModulusError,
    DivisionByZeroError,
    OutOfRangeError,
)
from incidencelab.field import (
    inv_mod,
    inv_mod_array,
    is_square,
    make_modulus,
    minus_one_is_square,
    sqrt_mod,
)

PRIMES = [3, 5, 7, 11, 13, 17, 101, 1009, 65537, 2147483629]


def test_make_modulus_accepts_primes():
    assert make_modulus(7).p == 7
    assert make_modulus(2147483629).p == 2147483629


def test_make_modulus_rejects_composites_and_range():
    with pytest.raises(CompositeModulusError):
        make_modulus(9)
    with pytest.raises(OutOfRangeError):
        make_modulus(2**31)
    with pytest.raises(OutOfRangeError):
        make_modulus(2)
    with pytest.raises(OutOfRangeError):
        make_modulus(-5)


def test_sqrt_examples():
    assert sqrt_mod(4, 7) == 2
    assert sqrt_mod(-1, 5) == 2
    assert sqrt_mod(-1, 7) is None
    assert sqrt_mod(0, 13) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_minus_one_square_iff_one_mod_four(p):
    assert minus_one_is_square(p) == (p % 4 == 1)
    assert (sqrt_mod(-1, p) is not None) == (p % 4 == 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 29, 97, 101])
def test_sqrt_exhaustive_small(p):
    squares = {v * v % p for v in range(p)}
    for a in range(p):
        r = sqrt_mod(a, p)
        assert is_square(a, p) == (a in squares)
        if a in squares:
            assert r is not None and r * r % p == a
            assert r <= p - r  # canonical smaller root
        else:
            assert r is None


@settings(max_examples=100, derandomize=True)
@given(a=st.integers(0, 10**9), pi=st.integers(0, len(PRIMES) - 1))
def test_sqrt_roundtrip_property(a, pi):
    p = PRIMES[pi]
    r = sqrt_mod(a, p)
    if r is not None:
        assert r * r % p == a % p
        assert r <= p - r


EDGE_PRIMES = (3, 1048573, 2147483629, 2147483647)


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_inv_mod_array_matches_inv_mod(p):
    a = [1, 2, p - 1, p - 2, (p + 1) // 2, p + 1, -1, -p - 2, 2 * p - 1, 3 * p + 2, 12345 * p + 678]
    a = [v for v in a if v % p]
    got = inv_mod_array(a, p)
    assert got.dtype == np.int64
    assert got.tolist() == [inv_mod(v, p) for v in a]
    assert inv_mod_array(np.array(a).reshape(-1, 1), p).ravel().tolist() == got.tolist()


@pytest.mark.parametrize("p", [3, 5, 1009])
def test_inv_mod_array_table_of_distinct_residues(p):
    # an array of at least p entries inverts each distinct residue once
    a = np.random.default_rng(p).integers(-5 * p, 5 * p, size=3 * p)
    a = a[a % p != 0]
    got = inv_mod_array(a, p)
    assert got.dtype == np.int64 and a.size >= p
    assert got.tolist() == [inv_mod(int(v), p) for v in a]
    assert inv_mod_array(a[:p].reshape(1, p, 1), p).shape == (1, p, 1)
    with pytest.raises(DivisionByZeroError):
        inv_mod_array(np.append(a, 7 * p), p)


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_inv_mod_array_raises_on_zero(p):
    for zero in (0, p, -2 * p):
        with pytest.raises(DivisionByZeroError):
            inv_mod_array([1, zero, 2], p)
    assert inv_mod_array([], p).size == 0


def test_inv_mod_large_prime():
    p = 2147483629
    for a in (2, 3, 12345, p - 1):
        assert inv_mod(a, p) * a % p == 1
