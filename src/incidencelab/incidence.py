"""Exact incidence counting in F_p^2 and F_p^3, richness statistics,
reference upper bounds and hypothesis checks.

Two counting engines are provided.  The naive engine scans every
(point, line) pair with numpy.  The hash-join engine groups lines by slope
(or points by column, whichever side is cheaper) and probes candidate keys.
Its probes take one of three paths of the C kernels in ``_kernels.c``:
groups of at most _FLAT_GROUP_MAX values are flattened into independent
(key, value) probes for the blocked ``singles`` kernel (flat); ``multi``
tests each item against a larger group's values in a bitmap of p bits when
64 * size >= p (bitmap), and otherwise by binary search.  The C kernel
``collinear`` computes :func:`max_collinear_3d`.

The first hash-join count or collinearity call of a process compiles the
kernels with ``cc -O3 -march=native`` (on x86-64 also
``-mprefer-vector-width=512``) into ``$XDG_CACHE_HOME/incidencelab``
(default ``~/.cache/incidencelab``), keyed by the source, the flags, the
compiler's version and the CPU flags, and later processes load the cached
library.  A C compiler is optional: without one, or with an unwritable
cache, the probes run as one numpy pass per key group instead, with
identical counts but about 20x slower when most slope classes are
singletons, and max_collinear_3d as numpy passes over blocks of point
pairs.  :func:`kernel_backend` says which ran, and why.  All engines return
identical exact integers.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import threading
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import sqrt
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .field import inv_mod, inv_mod_array, make_modulus
from .plane import Instance, pair_blocks

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_CC = "cc"
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
if platform.machine() in ("x86_64", "AMD64"):
    # compilers vectorise at 256 bits on AVX-512 CPUs unless asked; 512-bit
    # singles probe about 1.6x faster on an AVX-512 Xeon (gcc 12.2), and the
    # preference is void on CPUs without AVX-512
    _CFLAGS += ("-mprefer-vector-width=512",)


class _Backend(NamedTuple):
    lib: ctypes.CDLL | None  # the compiled kernels; None on the numpy path
    reason: str  # why the numpy path runs; empty with the compiled kernels


_backend: _Backend | None = None  # resolved by the first hash-join count
_backend_lock = threading.Lock()


class _KernelUnavailable(Exception):
    """The compiled kernels cannot be built or loaded; the message says why."""


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "incidencelab")


def _cpu_flags() -> bytes:
    # -march=native code is only valid on a CPU with the same features
    try:
        with open("/proc/cpuinfo", "rb") as fh:
            for line in fh:
                if line.startswith((b"flags", b"Features")):
                    return line
    except OSError:
        pass
    return platform.machine().encode()


def _compiled_library() -> str:
    """Path of the kernel library in the cache, compiling it on a miss."""
    import subprocess
    import tempfile

    cc = shutil.which(_CC)
    if cc is None:
        raise _KernelUnavailable(f"{_CC} not on PATH")
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        raise _KernelUnavailable(f"kernel source unreadable: {exc}") from exc
    try:
        version = subprocess.run([cc, "--version"], capture_output=True, timeout=60).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise _KernelUnavailable(f"{_CC} --version failed: {exc}") from exc
    # two zlib checksums make a 64-bit key; hashlib would load OpenSSL,
    # about 3.5 MB of resident memory in every counting process
    material = b"\0".join([source, " ".join(_CFLAGS).encode(), version, _cpu_flags()])
    key = f"{zlib.crc32(material):08x}{zlib.adler32(material):08x}"
    cache = _cache_dir()
    lib = os.path.join(cache, f"_kernels-{key}.so")
    if os.path.exists(lib):
        return lib
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp", dir=cache)
        os.close(fd)
    except OSError as exc:
        raise _KernelUnavailable(f"cache not writable: {cache}") from exc
    try:
        # compile to a private file, then rename: concurrent first runs each
        # install a complete library and never load a partial one
        proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, _SOURCE],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode:
            first = next(iter(proc.stderr.strip().splitlines()), f"exit {proc.returncode}")
            raise _KernelUnavailable(f"{_CC} failed: {first}")
        os.replace(tmp, lib)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _KernelUnavailable(f"{_CC} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load_backend() -> _Backend:
    """Compile or load the C kernels once per process; on any failure fall
    back to numpy and record the reason."""
    global _backend
    if _backend is not None:
        return _backend
    with _backend_lock:
        if _backend is None:
            try:
                lib = ctypes.CDLL(_compiled_library())
                arr = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
                i64 = ctypes.c_int64
                lib.singles.argtypes = [arr, arr, i64, arr, arr, i64, i64]
                lib.multi.argtypes = [arr, arr, i64, arr, arr, i64, arr, i64, ctypes.c_void_p]
                lib.collinear.argtypes = [arr, i64, i64]
                lib.singles.restype = lib.multi.restype = lib.collinear.restype = i64
                _backend = _Backend(lib, "")
            except _KernelUnavailable as exc:
                _backend = _Backend(None, str(exc))
            except (OSError, AttributeError) as exc:
                _backend = _Backend(None, f"load failed: {exc}")
    return _backend


def kernel_backend() -> tuple[str, str]:
    """("c", "") when hash-join counts use the compiled kernels, else
    ("numpy", reason), for example ("numpy", "cc not on PATH")."""
    backend = _load_backend()
    return ("c", "") if backend.lib is not None else ("numpy", backend.reason)


def warm_up_kernels() -> bool:
    """Load or compile the C kernels now; True if hash-join counts use them."""
    return kernel_backend()[0] == "c"


def _vertical_hits(inst: Instance) -> int:
    vert_x = inst.line_columns[2]
    col_x, col_off = inst.column_runs
    if vert_x.size == 0 or col_x.size == 0:
        return 0
    idx = np.searchsorted(col_x, vert_x)
    idx = np.clip(idx, 0, col_x.size - 1)
    found = col_x[idx] == vert_x
    counts = np.diff(col_off)
    return int(counts[idx[found]].sum())


# groups with at most this many values are cheaper as independent probes in
# the blocked kernel than as binary searches in the per-group kernel
_FLAT_GROUP_MAX = 32


def _split_probes(keys: np.ndarray, offs: np.ndarray, vals: np.ndarray):
    """Flatten small CSR groups into (key, value) probe pairs; keep large
    groups in CSR form for the binary-search kernel."""
    sizes = np.diff(offs)
    flat = sizes <= _FLAT_GROUP_MAX
    val_is_flat = np.repeat(flat, sizes)
    b_offs = np.zeros(np.count_nonzero(~flat) + 1, dtype=np.int64)
    np.cumsum(sizes[~flat], out=b_offs[1:])
    return (np.repeat(keys[flat], sizes[flat]), vals[val_is_flat],
            keys[~flat], b_offs, vals[~val_is_flat])


def _join_count(p, item_a, item_b, keys, offs, vals) -> int:
    """Count pairs (item i, group g) with item_b - key_g*item_a = val (mod p)
    for some val in group g, with the C kernels when they are available."""
    lib = _load_backend().lib
    if lib is not None:
        f_keys, f_vals, b_keys, b_offs, b_vals = _split_probes(keys, offs, vals)
        n = item_a.size
        # scratch bitmap of p bits for the groups multi probes by bit tests
        bits = np.zeros(-(-p // 64), np.uint64) if (64 * np.diff(b_offs) >= p).any() else None
        return (lib.singles(item_a, item_b, n, f_keys, f_vals, f_keys.size, p)
                + lib.multi(item_a, item_b, n, b_keys, b_offs, b_keys.size, b_vals, p,
                            None if bits is None else bits.ctypes.data))
    # numpy fallback: one vectorized pass per group
    total = 0
    for g in range(keys.size):
        v = (item_b - int(keys[g]) * item_a) % p
        grp = vals[offs[g]:offs[g + 1]]
        if grp.size == 1:
            total += int((v == grp[0]).sum())
        else:
            idx = np.searchsorted(grp, v)
            idx[idx == grp.size] = 0
            total += int((grp[idx] == v).sum())
    return total


def _count_naive(inst: Instance) -> int:
    p = inst.p
    total = _vertical_hits(inst)
    px, py = inst.xy
    ls, lt, _ = inst.line_columns
    for s, t in zip(ls.tolist(), lt.tolist()):
        total += int((py == (s * px + t) % p).sum())
    return total


def _costs(inst: Instance) -> tuple[int, int]:
    """Pairs probed from the slope side and from the column side."""
    return inst.m * (inst.slope_runs[0].size + 1), inst.n * (inst.column_runs[0].size + 1)


def _count_hash_join(inst: Instance) -> int:
    cost_slope, cost_col = _costs(inst)
    total = _vertical_hits(inst)
    p = inst.p
    px, py = inst.xy
    ls, lt, _ = inst.line_columns
    if cost_slope <= cost_col:
        # probe each point against each distinct slope's intercept set
        total += _join_count(p, px, py, *inst.slope_runs, lt)
    else:
        # probe each non-vertical line against each distinct column's y-set:
        # y = s*x + t  <=>  t - (-x)*s = y (mod p)
        col_x, col_off = inst.column_runs
        total += _join_count(p, ls, lt, (-col_x) % p, col_off, py)
    return total


ENGINES = ("auto", "naive", "hash_join")


def count_incidences(inst: Instance, engine: str = "auto") -> int:
    """Exact number of incident (point, line) pairs.

    engine: "naive" scans all pairs, "hash_join" probes grouped keys on the
    cheaper side, "auto" picks the engine with the smaller cost model
    min(m*n, m*(slope classes + 1), n*(x-support + 1)).
    """
    if engine not in ENGINES:
        raise InvalidParameterError(f"unknown engine {engine!r}")
    if engine == "auto":
        engine = "naive" if inst.m * inst.n <= min(_costs(inst)) else "hash_join"
    if engine == "naive":
        return _count_naive(inst)
    return _count_hash_join(inst)


@dataclass
class RichnessHistogram:
    """Exact per-point line-degrees and per-line point-degrees."""

    per_point: dict
    per_line: dict
    total: int


# cells of one block of the incidence mask in incidence_degrees
_MASK_CELLS = 1 << 16


def incidence_degrees(px, py, keys, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point and per-line incidence counts of the points (px, py)
    against the lines with the given keys (:meth:`AffineLine.key`), from
    masks over blocks of lines holding at most about _MASK_CELLS cells."""
    per_point = np.zeros(px.size, dtype=np.int64)
    per_line = np.zeros(keys.size, dtype=np.int64)
    step = max(1, _MASK_CELLS // max(px.size, 1))
    vertical = keys >= p * p
    for rows in (np.flatnonzero(~vertical), np.flatnonzero(vertical)):
        for lo in range(0, rows.size, step):
            block = rows[lo:lo + step]
            k = keys[block, None]
            if vertical[block[0]]:
                mask = px == k - p * p
            else:
                mask = py == (k // p * px + k % p) % p
            per_point += mask.sum(axis=0)
            per_line[block] = mask.sum(axis=1)
    return per_point, per_line


def richness_histograms(inst: Instance) -> RichnessHistogram:
    per_point, per_line = incidence_degrees(*inst.xy, inst.line_keys, inst.p)
    return RichnessHistogram(dict(zip(inst.points, per_point.tolist())),
                             dict(zip(inst.lines, per_line.tolist())), int(per_point.sum()))


# ---------------------------------------------------------------------------
# Points and planes in F_p^3
# ---------------------------------------------------------------------------

def canonical_plane(a: int, b: int, c: int, d: int, p: int) -> tuple[int, int, int, int]:
    """Scale a plane a*x + b*y + c*z = d so its first nonzero normal
    coefficient equals 1; proportional coefficient tuples collapse."""
    a, b, c, d = a % p, b % p, c % p, d % p
    for lead in (a, b, c):
        if lead != 0:
            inv = inv_mod(lead, p)
            return (a * inv % p, b * inv % p, c * inv % p, d * inv % p)
    raise InvalidParameterError("plane normal (a, b, c) must be nonzero")


@dataclass(frozen=True)
class PlaneInstance3D:
    """Deduplicated points and planes in F_p^3.

    Planes are coefficient 4-tuples (a, b, c, d) in canonical scaling for the
    equation a*x + b*y + c*z = d.
    """

    p: int
    points: tuple[tuple[int, int, int], ...]
    planes: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def build(cls, p, points, planes) -> "PlaneInstance3D":
        pts = sorted({(x % p, y % p, z % p) for x, y, z in points})
        pls = sorted({canonical_plane(*pl, p) for pl in planes})
        return cls(p, tuple(pts), tuple(pls))

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
    """Exact |{(point, plane) : point on plane}|."""
    if inst3.r == 0 or inst3.s == 0:
        return 0
    pts = np.array(inst3.points, dtype=np.int64)
    p = inst3.p
    total = 0
    for a, b, c, d in inst3.planes:
        total += int(((a * pts[:, 0] + b * pts[:, 1] + c * pts[:, 2] - d) % p == 0).sum())
    return total


def max_collinear_3d(points, p: int) -> int:
    """Exact maximum number of points on one line in F_p^3 (O(r^2)).

    The direction from each point to every later point is scaled so its
    first nonzero coordinate is 1.  It is then (1, v, w), (0, 1, w) or
    (0, 0, 1), keyed v*p + w, p*p + w or p*p + p, all below 2^63 for
    p < 2^31.  A line through a point holding k later points shows as k
    equal keys of that point.  The C kernel ``collinear`` counts the keys of
    one point at a time in a hash table; without it the numpy fallback sorts
    blocks of pairs.
    """
    p = make_modulus(p).p
    pts = np.array(sorted({(x % p, y % p, z % p) for x, y, z in points}), dtype=np.int64).reshape(-1, 3)
    if len(pts) == 0:
        raise InvalidParameterError("need at least one point")
    lib = _load_backend().lib
    if lib is None:
        return _max_collinear_numpy(pts, p)
    best = lib.collinear(pts, len(pts), p)
    if best < 0:
        raise MemoryError("max_collinear_3d: no memory for the direction table")
    return best


def _max_collinear_numpy(pts: np.ndarray, p: int) -> int:
    """max_collinear_3d of r >= 1 distinct residue points, as an r x 3
    array: over blocks of pairs (i, j), i < j, one batched inverse scales
    the directions and a lexsort groups equal (i, key) pairs."""
    r = len(pts)
    best = 1
    for i, j in pair_blocks(r):
        u, v, w = ((pts[j, c] - pts[i, c]) % p for c in range(3))
        inv = inv_mod_array(np.where(u != 0, u, np.where(v != 0, v, w)), p)
        v, w = v * inv % p, w * inv % p
        key = np.where(u != 0, v * p + w, p * p + np.where(v != 0, w, p))
        order = np.lexsort((key, i))
        i, key = i[order], key[order]
        starts = np.flatnonzero((i[1:] != i[:-1]) | (key[1:] != key[:-1])) + 1
        best = max(best, 1 + int(np.diff(starts, prepend=0, append=i.size).max()))
    return best


# ---------------------------------------------------------------------------
# Reference upper bounds and hypothesis checks
# ---------------------------------------------------------------------------

def reference_bound(m: int, n: int, p: int | None = None, which: str = "table1") -> tuple[str, float]:
    """Evaluate a comparator upper bound for I(P, L) as a real number.

    "table1" selects the regime by the relation between n and m and returns
    the best-known main term for that regime.  "combinatorial" evaluates the
    unconditional double-counting bound min(m^(1/2) n + m, m n^(1/2) + n).
    "vinh" evaluates m n / p + p^(1/2) (m n)^(1/2) and needs p.
    """
    if m < 1 or n < 1:
        raise InvalidParameterError("need m, n >= 1")
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

    theorem "1.2" needs m, n, p; "1.3" needs a, b, n, p; "1.4" needs r, s, p.
    """
    cf = Fraction(c)
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
