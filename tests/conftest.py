import os
from pathlib import Path

import pytest

import incidencelab
from incidencelab.constructions import SeededStream, random_instance
from incidencelab.plane import Instance
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
    return Instance(inst.modulus, inst.points, [l for l in inst.lines if l.slope is not None])
