"""Exact incidence counting in F_p^2 and F_p^3, richness statistics,
reference upper bounds and hypothesis checks.

Two counting engines are provided.  The naive engine scans every
(point, line) pair with numpy.  The hash-join engine groups lines by slope
(or points by column, whichever side is cheaper) and probes candidate keys.
Its probe loops are the C kernels in ``_kernels.c``: the first hash-join
count of a process compiles them with ``cc -O3 -march=native`` into
``$XDG_CACHE_HOME/incidencelab`` (default ``~/.cache/incidencelab``), keyed
by the source, the flags, the compiler's version and the CPU flags, and
later processes load the cached library.  A C compiler is optional: without
one, or with an unwritable cache, the probes run as one numpy pass per key
group instead, with identical counts but about 20x slower when most slope
classes are singletons.  :func:`kernel_backend` says which ran, and why.
All engines return identical exact integers.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import tempfile
import threading
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import sqrt
from typing import NamedTuple

import numpy as np

from .plane import Instance

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_CC = "cc"
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")


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
                lib.multi.argtypes = [arr, arr, i64, arr, arr, i64, arr, i64]
                lib.singles.restype = lib.multi.restype = i64
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


@dataclass
class _Sides:
    """Grouped array views of an instance used by the join engines."""

    p: int
    px: np.ndarray
    py: np.ndarray
    # distinct point columns and their sorted y-values (CSR)
    col_x: np.ndarray
    col_off: np.ndarray
    # non-vertical lines
    ls: np.ndarray
    lt: np.ndarray
    # distinct slopes and their sorted intercepts (CSR)
    slope_s: np.ndarray
    slope_off: np.ndarray
    vert_x: np.ndarray


def _sides(inst: Instance) -> _Sides:
    p = inst.p
    m = inst.m
    px = np.empty(m, dtype=np.int64)
    py = np.empty(m, dtype=np.int64)
    for i, q in enumerate(inst.points):
        px[i] = q.x
        py[i] = q.y
    # points are sorted by (x, y): columns are contiguous, y-values sorted
    col_x, col_start = np.unique(px, return_index=True) if m else (np.empty(0, np.int64), np.empty(0, np.int64))
    col_off = np.append(col_start, m).astype(np.int64)

    sl, tl, vl = [], [], []
    for line in inst.lines:
        if line.slope is None:
            vl.append(line.intercept)
        else:
            sl.append(line.slope)
            tl.append(line.intercept)
    ls = np.array(sl, dtype=np.int64)
    lt = np.array(tl, dtype=np.int64)
    # lines are sorted by (slope, intercept): slope groups contiguous
    slope_s, slope_start = np.unique(ls, return_index=True) if ls.size else (np.empty(0, np.int64), np.empty(0, np.int64))
    slope_off = np.append(slope_start, ls.size).astype(np.int64)
    return _Sides(p, px, py, col_x, col_off, ls, lt, slope_s, slope_off, np.array(vl, dtype=np.int64))


def _vertical_hits(sides: _Sides) -> int:
    if sides.vert_x.size == 0 or sides.col_x.size == 0:
        return 0
    idx = np.searchsorted(sides.col_x, sides.vert_x)
    idx = np.clip(idx, 0, sides.col_x.size - 1)
    found = sides.col_x[idx] == sides.vert_x
    counts = np.diff(sides.col_off)
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
        return (lib.singles(item_a, item_b, n, f_keys, f_vals, f_keys.size, p)
                + lib.multi(item_a, item_b, n, b_keys, b_offs, b_keys.size, b_vals, p))
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


def _count_naive(sides: _Sides) -> int:
    p = sides.p
    total = _vertical_hits(sides)
    px, py = sides.px, sides.py
    for s, t in zip(sides.ls, sides.lt):
        total += int((py == (int(s) * px + int(t)) % p).sum())
    return total


def _costs(sides: _Sides) -> tuple[int, int]:
    """Pairs probed from the slope side and from the column side."""
    m = sides.px.size
    n = sides.ls.size + sides.vert_x.size
    return m * (sides.slope_s.size + 1), n * (sides.col_x.size + 1)


def _count_hash_join(sides: _Sides) -> int:
    cost_slope, cost_col = _costs(sides)
    total = _vertical_hits(sides)
    if cost_slope <= cost_col:
        # probe each point against each distinct slope's intercept set
        total += _join_count(sides.p, sides.px, sides.py, sides.slope_s, sides.slope_off, sides.lt)
    else:
        # probe each non-vertical line against each distinct column's y-set:
        # y = s*x + t  <=>  t - (-x)*s = y (mod p)
        keys = (-sides.col_x) % sides.p
        total += _join_count(sides.p, sides.ls, sides.lt, keys, sides.col_off, sides.py)
    return total


ENGINES = ("auto", "naive", "hash_join")


def count_incidences(inst: Instance, engine: str = "auto") -> int:
    """Exact number of incident (point, line) pairs.

    engine: "naive" scans all pairs, "hash_join" probes grouped keys on the
    cheaper side, "auto" picks the engine with the smaller cost model
    min(m*n, m*(slope classes + 1), n*(x-support + 1)).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    sides = _sides(inst)
    if engine == "auto":
        engine = "naive" if inst.m * inst.n <= min(_costs(sides)) else "hash_join"
    if engine == "naive":
        return _count_naive(sides)
    return _count_hash_join(sides)


@dataclass
class RichnessHistogram:
    """Exact per-point line-degrees and per-line point-degrees."""

    per_point: dict
    per_line: dict
    total: int


def richness_histograms(inst: Instance) -> RichnessHistogram:
    p = inst.p
    m = inst.m
    px = np.array([q.x for q in inst.points], dtype=np.int64)
    py = np.array([q.y for q in inst.points], dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    per_line = {}
    for line in inst.lines:
        if line.slope is None:
            mask = px == line.intercept
        else:
            mask = py == (line.slope * px + line.intercept) % p
        per_line[line] = int(mask.sum())
        acc += mask
    per_point = {q: int(acc[i]) for i, q in enumerate(inst.points)}
    total = int(acc.sum())
    return RichnessHistogram(per_point, per_line, total)


# ---------------------------------------------------------------------------
# Points and planes in F_p^3
# ---------------------------------------------------------------------------

def canonical_plane(a: int, b: int, c: int, d: int, p: int) -> tuple[int, int, int, int]:
    """Scale a plane a*x + b*y + c*z = d so its first nonzero normal
    coefficient equals 1; proportional coefficient tuples collapse."""
    a, b, c, d = a % p, b % p, c % p, d % p
    from .field import inv_mod
    for lead in (a, b, c):
        if lead != 0:
            inv = inv_mod(lead, p)
            return (a * inv % p, b * inv % p, c * inv % p, d * inv % p)
    raise ValueError("plane normal (a, b, c) must be nonzero")


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
    """Exact maximum number of points on one line in F_p^3 (O(r^2))."""
    pts = sorted(set(points))
    r = len(pts)
    if r == 0:
        raise ValueError("need at least one point")
    if r == 1:
        return 1
    from .field import inv_mod
    best = 1
    for i, base in enumerate(pts):
        dirs = {}
        for j in range(i + 1, r):
            d = tuple((pts[j][k] - base[k]) % p for k in range(3))
            for v in d:
                if v != 0:
                    inv = inv_mod(v, p)
                    d = tuple(u * inv % p for u in d)
                    break
            dirs[d] = dirs.get(d, 0) + 1
        if dirs:
            best = max(best, 1 + max(dirs.values()))
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
        raise ValueError("need m, n >= 1")
    if which == "combinatorial":
        return ("min(m^(1/2) n + m, m n^(1/2) + n)",
                min(sqrt(m) * n + m, m * sqrt(n) + n))
    if which == "vinh":
        if p is None:
            raise ValueError("vinh bound needs the field size p")
        return ("m n / p + p^(1/2) (m n)^(1/2)", m * n / p + sqrt(p) * sqrt(m * n))
    if which != "table1":
        raise ValueError(f"unknown comparator {which!r}")
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
            raise ValueError("theorem 1.2 needs m and n")
        add("m^(7/8) < n", m ** 0.875, n, n**8 > m**7)
        add("n < m^(8/7)", n, m ** (8 / 7), n**7 < m**8)
        add("m^(-2) n^13 << p^15", n**13 / m**2,
            float(cf) * float(p)**15, Fraction(n**13) <= cf * m**2 * p**15)
    elif theorem == "1.3":
        if a is None or b is None or n is None:
            raise ValueError("theorem 1.3 needs a, b and n")
        add("a <= b", a, b, a <= b)
        add("a b^2 <= n^3", a * b * b, n**3, a * b * b <= n**3)
        add("a n << p^2", a * n, float(cf) * p * p, Fraction(a * n) <= cf * p * p)
    elif theorem == "1.4":
        if r is None or s is None:
            raise ValueError("theorem 1.4 needs r and s")
        add("r <= s", r, s, r <= s)
        add("r << p^2", r, float(cf) * p * p, Fraction(r) <= cf * p * p)
    else:
        raise ValueError(f"unknown theorem {theorem!r}")
    return HypothesisReport(theorem, tuple(conds), all(cd.passed for cd in conds), cf)
