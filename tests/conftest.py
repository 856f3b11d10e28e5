import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import incidencelab
from incidencelab.constructions import SeededStream, random_instance
from incidencelab.field import inv_mod
from incidencelab.plane import AffineLine, AffinePoint, Instance
from incidencelab.incidence import warm_up_kernels

WARNING_PREFIX = "incidencelab: warning: "

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # compile the probe kernels once so timed tests measure counting, not JIT
    warm_up_kernels()


def package_env():
    """os.environ with the imported incidencelab's directory first on
    PYTHONPATH, for child processes started from another directory."""
    env = dict(os.environ)
    src = str(Path(incidencelab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def assert_error_stderr(err):
    """The stderr of a failing command: zero or more warning lines, then
    exactly one error line, and never a traceback."""
    assert "Traceback" not in err, err
    *warnings, error = err.splitlines() or [""]
    assert all(line.startswith(WARNING_PREFIX) for line in warnings), err
    assert error and not error.startswith(WARNING_PREFIX), err


def random_instances(count, seed, max_p_index=None, max_m=500, max_n=500):
    """A deterministic stream of random instances for property suites."""
    stream = SeededStream(seed)
    primes = SMALL_PRIMES[:max_p_index] if max_p_index else SMALL_PRIMES
    out = []
    for _ in range(count):
        p = primes[stream.below(len(primes))]
        m = 1 + stream.below(min(max_m, p * p))
        n = 1 + stream.below(min(max_n, p * p + p))
        out.append(random_instance(p, m, n, stream.next_u64()))
    return out


def vertical_free(inst):
    """Drop vertical lines from an instance."""
    return Instance(inst.modulus, point_keys=inst.point_keys, line_keys=inst.line_keys[inst.line_keys < inst.p ** 2])


def keyed(modulus, points=(), lines=()):
    """The instance of some point and line objects, built from their keys."""
    p = modulus.p
    return Instance(modulus, point_keys=[q.x * p + q.y for q in points], line_keys=[line.key() for line in lines])


def residues(p):
    """Residues mod p: hypothesis draws small integers first, so half of
    them are mirrored to just below p, where products come near 2^62."""
    return st.one_of(st.integers(0, p - 1), st.integers(0, p - 1).map(lambda v: p - 1 - v))


# The projective map one object at a time: the oracle for plane.apply_map.

def homogeneous_image(M, q):
    """M.rows times the homogeneous vector (x, y, 1) of the point q, mod p."""
    return tuple(sum(r * v for r, v in zip(row, (q.x, q.y, 1))) % M.p for row in M.rows)


def line_coefficients(line):
    """Coefficients (a, b, c) with a*x + b*y + c = 0 on the line."""
    if line.slope is None:
        return (1, 0, -line.intercept % line.p)
    return (line.slope, line.p - 1, line.intercept)


def line_from_coefficients(a, b, c, p):
    """The canonical line a*x + b*y + c = 0, or None for a = b = 0 mod p
    (the line at infinity)."""
    a, b, c = a % p, b % p, c % p
    if b:
        inv = inv_mod(b, p)
        return AffineLine(-a * inv, -c * inv, p)
    if a:
        return AffineLine(None, -c * inv_mod(a, p), p)
    return None


def apply_point(M, q):
    """The image of the point q under M, or None when M sends it to
    infinity."""
    x, y, z = homogeneous_image(M, q)
    if z == 0:
        return None
    inv = inv_mod(z, M.p)
    return AffinePoint(x * inv, y * inv, M.p)


def apply_line(M, line):
    """The image of the line under M: its coefficient vector times the
    adjugate (the inverse transpose up to a scalar), or None when M sends
    it to infinity."""
    coeffs = line_coefficients(line)
    return line_from_coefficients(*(sum(M.adjugate[k][j] * coeffs[k] for k in range(3)) for j in range(3)), M.p)


def line_to_infinity(M):
    """The affine line M sends onto the line at infinity, read off its
    third row; None for an affine map, whose third row is (0, 0, c)."""
    return line_from_coefficients(*M.rows[2], M.p)
