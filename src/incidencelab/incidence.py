"""Exact incidence counting in F_p^2, richness statistics, and the maximum
collinearity of points in F_p^3.  The point-plane side of F_p^3 is in
:mod:`energy`, and the reference bounds and hypothesis checks are in
:mod:`bounds`.

Two counting engines are provided.  The hash-join engine, which ``auto``
names, probes each point against each slope class of lines, or each line
against each x-column of points, whichever side :func:`join_cost` prices
lower; with ``stats=True`` it also says how it ran (:class:`CountStats`).
The same join, with each hit placed on its point and its line, gives the
per-point and per-line degrees of :func:`richness_histograms` that the
cover layer reads; the certificate verifier re-checks them on the other
side.  The naive engine is the reference: it sums
:func:`incidence_degrees`, numpy masks over blocks of (point, line) pairs,
which only it and the verifier's incidence tests read.
Both backends of the join take the same arguments, the instance's two key
columns as items and probes, and decode the keys themselves, so the join
builds no views; a group of the probed side is a run of equal key // p.
The C kernel ``probe`` takes each group along one of three paths: groups of
at most 32 values are independent probes in a blocked loop (flat); a larger
group's values are tested in a bitmap of p bits, which the kernel
allocates, when 64 * size >= p (bitmap), and otherwise by binary search.
The C kernel ``collinear`` gives the run histogram of
:func:`max_collinear_3d` and :func:`distances.determined_lines`.

The first hash-join count, collinearity call or report of a process
compiles the kernels with ``cc -O3 -march=native`` (on x86-64 also
``-mprefer-vector-width=512``) into ``$XDG_CACHE_HOME/incidencelab``
(default ``~/.cache/incidencelab``), keyed by the source, the flags, the
resolved compiler binary (path, size and mtime) and the CPU flags, and later
processes load the cached library.  A C compiler is optional: without one,
or with an unwritable cache, the join runs as numpy passes over the
decoded key columns (:func:`_group_degrees`), with identical counts (on a
2-vCPU Xeon with numpy 2.4, random m = n = 10^4 in 0.18 s at p = 1048573
and 0.20 s at p = 1009, against 0.020 s on the C kernels, and
full_plane(101) in 0.018 s against 0.002 s), the run histogram is the one
numpy pass over blocks of point pairs, :func:`distances._direction_runs`,
and the distance reports run over numpy blocks of pin rows.
:func:`kernel_backend` says which ran, and why.  All engines return
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
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .field import make_modulus
from .plane import Instance, _integer_rows, _run_starts, run_count

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_CC = "cc"
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
if platform.machine() in ("x86_64", "AMD64"):
    # compilers vectorise at 256 bits on AVX-512 CPUs unless asked; 512-bit
    # flat probes run about 1.6x faster on an AVX-512 Xeon (gcc 12.2), and the
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
    cc = shutil.which(_CC)
    if cc is None:
        raise _KernelUnavailable(f"{_CC} not on PATH")
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        raise _KernelUnavailable(f"kernel source unreadable: {exc}") from exc
    # the resolved compiler binary with its size and mtime stands for the
    # compiler, so a cache hit starts no child process
    binary = os.path.realpath(cc)
    st = os.stat(binary)
    compiler = f"{binary}\0{st.st_size}\0{st.st_mtime_ns}".encode()
    # two zlib checksums make a 64-bit key; hashlib would load OpenSSL,
    # about 3.5 MB of resident memory in every counting process
    material = b"\0".join([source, " ".join(_CFLAGS).encode(), compiler, _cpu_flags()])
    key = f"{zlib.crc32(material):08x}{zlib.adler32(material):08x}"
    cache = _cache_dir()
    lib = os.path.join(cache, f"_kernels-{key}.so")
    if os.path.exists(lib):
        return lib
    import subprocess
    import tempfile

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
                i64, ptr = ctypes.c_int64, ctypes.c_void_p  # ndpointer refuses None
                lib.probe.argtypes = [arr, i64, arr, i64, i64, i64, ptr, ptr, arr]
                lib.collinear.argtypes = [arr, i64, i64, arr]
                lib.pinned.argtypes = [arr, i64, i64, arr, arr, ptr]
                lib.probe.restype = lib.collinear.restype = lib.pinned.restype = i64
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


def join_cost(inst: Instance) -> dict:
    """The (item, group) pairs of each side of the join: each point against
    each slope class ("slope") or each line against each x-column
    ("column"), from the runs of key // p in the two key columns, so that no
    view of inst is built."""
    p, lines = inst.p, inst.line_keys
    slopes = run_count(lines[:np.searchsorted(lines, p * p)] // p)
    return {"slope": inst.m * (slopes + 1), "column": inst.n * (run_count(inst.point_keys // p) + 1)}


def _join(inst: Instance, record, degrees: bool = False, cheaper: bool = True):
    """The incidence count of inst, or with degrees its
    :class:`RichnessHistogram`: the C kernel ``probe``, or
    :func:`_group_degrees` without it, on the same key columns, probes the
    cheaper side of :func:`join_cost`, or with cheaper=False the other
    side.  The dict record receives the side, the cost, the phase times and
    the probes issued per path (see :class:`CountStats`)."""
    lib = _load_backend().lib
    start = perf_counter()
    p, points, lines = inst.p, inst.point_keys, inst.line_keys
    sloped = int(np.searchsorted(lines, p * p))
    cost = join_cost(inst)
    side = "slope" if (cost["slope"] <= cost["column"]) == cheaper else "column"
    items, probes = (points, lines[:sloped]) if side == "slope" else (lines[:sloped], points)
    views = perf_counter() - start
    if lib is None:
        per_item, per_probe = _group_degrees(items, probes, p, side == "column", record)
        total = int(per_item.sum())
    else:
        per_item, per_probe = (np.zeros(a.size, np.int64) if degrees else None for a in (items, probes))
        paths = np.zeros(3, np.int64)
        total = lib.probe(items, items.size, probes, probes.size, p, side == "column",
                          *(None if a is None else a.ctypes.data for a in (per_item, per_probe)), paths)
        if total < 0:
            raise MemoryError("hash join: no memory for the bitmap of the probe kernel")
        record.update(zip(("flat", "bitmap", "binary_search"), (items.size * paths).tolist()))
    # the points on the vertical line x = x0 are the keys in [x0*p, (x0 + 1)*p)
    x0 = lines[sloped:] - p * p
    lo, hi = np.searchsorted(points, x0 * p), np.searchsorted(points, (x0 + 1) * p)
    total += int((hi - lo).sum())
    record.update(side=side, cost=cost, views=views, kernel=perf_counter() - start - views)
    if not degrees:
        return total
    per_point, per_sloped = (per_item, per_probe) if side == "slope" else (per_probe, per_item)
    # the vertical line through a point is the one whose key range holds it
    per_point += np.cumsum(np.bincount(lo, minlength=points.size + 1) - np.bincount(hi, minlength=points.size + 1))[:-1]
    return RichnessHistogram(per_point, np.concatenate([per_sloped, hi - lo]), total)


ENGINES = ("auto", "naive", "hash_join")


class CountStats(NamedTuple):
    """How one :func:`count_incidences` call ran.

    engine is the engine that ran, "hash_join" or "naive".  side is the
    side the join probed: "slope" (each point against each slope class's
    intercepts) or "column" (each non-vertical line against each column's
    y-values); None for naive.  cost holds the :func:`join_cost` estimate
    of each side in (item, group) pairs.  probes counts the (item, probe)
    tests actually issued per path: "flat", "bitmap" and "binary_search" of
    the C kernels (on the numpy backend :func:`_group_degrees` counts each
    value of a flattened group as flat and each searched group as binary
    search), and "mask", the cells of the naive masks.
    backend and backend_reason are :func:`kernel_backend`'s for the join.
    seconds holds the time of each phase: "views", the :func:`join_cost`
    passes over the key columns that price both sides, or for naive the
    instance's coordinate columns; and "kernel" (the probes, with the
    decoding of the keys on numpy, the vertical lines or the masks).
    """

    engine: str
    side: str | None
    cost: dict
    probes: dict
    backend: str
    backend_reason: str
    seconds: dict

    def to_json(self) -> dict:
        return self._asdict()


def count_incidences(inst: Instance, engine: str = "auto", *, stats: bool = False):
    """Exact number of incident (point, line) pairs; with stats=True the
    pair (count, :class:`CountStats`).

    engine: "hash_join" (also named "auto") probes grouped keys from the
    cheaper side of :func:`join_cost`; "naive" is the reference, the sum
    of the per-point degrees of :func:`incidence_degrees`, which tests every
    (point, line) pair in blocked masks.
    """
    if engine not in ENGINES:
        raise InvalidParameterError(f"unknown engine {engine!r}")
    record = {"flat": 0, "bitmap": 0, "binary_search": 0, "mask": 0}
    if engine == "naive":
        start = perf_counter()
        px, py = inst.xy
        views = perf_counter() - start
        count = int(incidence_degrees(px, py, inst.line_keys, inst.p)[0].sum())
        record.update(side=None, views=views, kernel=perf_counter() - start - views, mask=inst.m * inst.n)
    else:
        count = _join(inst, record)
    if not stats:
        return count
    if engine == "naive":
        record["cost"] = join_cost(inst)
        backend = ("numpy", "the naive engine runs numpy masks")
    else:
        engine, backend = "hash_join", kernel_backend()
    probes = {path: record[path] for path in ("flat", "bitmap", "binary_search", "mask")}
    seconds = {phase: record[phase] for phase in ("views", "kernel")}
    return count, CountStats(engine, record["side"], record["cost"], probes, *backend, seconds)


@dataclass(eq=False)
class RichnessHistogram:
    """Exact per-point line-degrees and per-line point-degrees: two int64
    arrays in the key order of the instance's points and lines."""

    per_point: np.ndarray
    per_line: np.ndarray
    total: int


# cells of one block of the incidence mask in incidence_degrees, and of one
# block of flattened probes in _group_degrees: 64-bit temporaries of 128 KiB.
# 2-vCPU Xeon, numpy 2.4: a full_plane(61) mask scan takes 0.10-0.12 s at
# 1 << 14 against 0.19-0.23 s at 1 << 16 (0.13 s at 1 << 13), and a mask
# scan of random m = n = 10^4 over p = 1048573 0.8 s against 1.1 s
_MASK_CELLS = 1 << 14


def incidence_degrees(px, py, keys, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point and per-line incidence counts of the points (px, py)
    against the lines with the given keys (:meth:`AffineLine.key`), from
    masks over blocks of lines holding at most about _MASK_CELLS cells.
    This is the reference that the naive engine sums and the certificate
    verifier's incidence tests read; every other degree comes from the join
    of :func:`richness_histograms`."""
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


# a group probed by one searchsorted pass costs about as much as _SEARCH_COST
# flattened probes per item plus _PASS_COST probes per pass; smaller groups
# are tested as flattened probes in blocks.  On a 2-vCPU Xeon with numpy 2.4
# a probe takes 3-4 ns and a pass 45 ns per item plus 10 us, and values from
# 2 to 8 and from 700 to 3000 gave the same join times within noise on
# full_plane(61) and on random m = n = 10^4 over p = 1009 and p = 1048573
_SEARCH_COST = 4
_PASS_COST = 700


def _divisor_test(p: int) -> tuple[np.uint64, np.uint64]:
    """(c, bound) such that the odd prime p divides u in [0, 2^64) exactly
    when u*c mod 2^64 <= bound: c = p^-1 mod 2^64 and bound =
    floor((2^64 - 1)/p), the test of the flat kernel in ``_kernels.c``."""
    return np.uint64(pow(p, -1, 1 << 64)), np.uint64(((1 << 64) - 1) // p)


def _group_degrees(items, probes, p: int, column: bool, record) -> tuple[np.ndarray, np.ndarray]:
    """Hits per item and per probe of the C kernel ``probe`` on the same
    arguments: (a, b) = divmod(item, p) meets (g, v) = divmod(probe, p)
    when b - s*a = v (mod p), where s = g, or -g mod p on the column side,
    and the probes with equal g form a group.  The dict record receives the
    (item, probe) tests of the flattened groups ("flat") and the
    (item, group) passes of the searched ones ("binary_search")."""
    item_a, item_b = np.divmod(items, p)
    g, vals = np.divmod(probes, p)
    offs = np.append(_run_starts(g), g.size)
    keys = g[offs[:-1]]
    if column:
        # y = s*x + t  <=>  t - (-x)*s = y (mod p)
        keys = (-keys) % p
    per_item = np.zeros(items.size, dtype=np.int64)
    per_val = np.zeros(probes.size, dtype=np.int64)
    sizes = np.diff(offs)
    flat = sizes * item_a.size <= _SEARCH_COST * item_a.size + _PASS_COST
    at_flat = np.flatnonzero(np.repeat(flat, sizes))
    record.update(flat=item_a.size * at_flat.size, binary_search=item_a.size * int(np.count_nonzero(~flat)))
    # as in the flat kernel, p divides u = key*a + val + p - b, which lies in
    # [1, 2^63), exactly when u*c = key*(a*c) + (val + p)*c - b*c <= bound in
    # wrapping uint64 arithmetic: no division per (item, probe) cell
    c, bound = _divisor_test(p)
    a_c, b_c = item_a.astype(np.uint64) * c, item_b.astype(np.uint64) * c
    flat_keys = np.repeat(keys[flat], sizes[flat]).astype(np.uint64)
    flat_vals = (vals[at_flat] + p).astype(np.uint64) * c
    # blocks of about _MASK_CELLS cells: rows of flattened probes against
    # chunks of at most _MASK_CELLS items
    width = min(item_a.size, _MASK_CELLS) or 1
    step = _MASK_CELLS // width
    for first in range(0, item_a.size, width):
        chunk_a, chunk_b = a_c[first:first + width], b_c[first:first + width]
        for lo in range(0, at_flat.size, step):
            hit = flat_keys[lo:lo + step, None] * chunk_a + flat_vals[lo:lo + step, None] - chunk_b <= bound
            if hit.any():
                row, col = np.nonzero(hit)
                np.add.at(per_item, col + first, 1)
                np.add.at(per_val, at_flat[lo + row], 1)
    for g in np.flatnonzero(~flat).tolist():
        lo, hi = int(offs[g]), int(offs[g + 1])
        grp = vals[lo:hi]
        u = item_b - int(keys[g]) * item_a
        # u % p; with numpy 2.4 a floor division by a scalar, a multiply and
        # a subtraction take about half the time of one %
        v = u - u // p * p
        at = np.searchsorted(grp, v)
        # an index past the group clips to its last value, which is below v
        hit = grp.take(at, mode="clip") == v
        per_item += hit
        per_val[lo:hi] = np.bincount(at[hit], minlength=hi - lo)
    return per_item, per_val


def richness_histograms(inst: Instance) -> RichnessHistogram:
    """The per-point and per-line counts of :func:`incidence_degrees`, from
    the join that :func:`count_incidences` runs, with each hit placed on its
    point and its line."""
    return _join(inst, {}, degrees=True)


# ---------------------------------------------------------------------------
# Points in F_p^3
# ---------------------------------------------------------------------------

def _residue_triples(points, p: int) -> tuple[tuple[int, int, int], ...]:
    """The sorted distinct triples (x mod p, y mod p, z mod p) of the
    integer points (x, y, z)."""
    return tuple(sorted({(x % p, y % p, z % p) for x, y, z in _integer_rows(points, "point coordinates", 3)}))


def max_collinear_3d(points, p: int) -> int:
    """Exact maximum number of points on one line in F_p^3 (O(r^2)).

    The direction from each point to every later point is scaled so its
    first nonzero coordinate is 1.  It is then (1, v, w), (0, 1, w) or
    (0, 0, 1), keyed v*p + w, p*p + w or p*p + p, all below 2^63 for
    p < 2^31.  A line through a point holding k later points shows as k
    equal keys of that point.  The C kernel ``collinear`` counts the keys of
    one point at a time in a hash table, and the answer is 1 plus the
    largest count of its histogram; without it the same histogram comes
    from the sorted blocks of pairs of :func:`distances._direction_runs`.
    """
    p = make_modulus(p).p
    pts = np.array(_residue_triples(points, p), dtype=np.int64).reshape(-1, 3)
    if len(pts) == 0:
        raise InvalidParameterError("need at least one point")
    return 1 + int(np.flatnonzero(_collinear_runs(pts, p)).max(initial=0))


def _collinear_runs(pts: np.ndarray, p: int) -> np.ndarray:
    """runs[c], c < r, the number of (anchor, direction) pairs of the r >= 1
    distinct points pts (an r x 3 int64 array) that hold exactly c later
    points, from the C kernel ``collinear``, or without it from the run
    lengths of the numpy pass :func:`distances._direction_runs`."""
    runs = np.zeros(len(pts), dtype=np.int64)
    lib = _load_backend().lib
    if lib is None:
        from .distances import _direction_runs
        for anchor, key, length in _direction_runs(pts, p):
            runs += np.bincount(length, minlength=len(pts))
            # drop the block before the pass builds the next one
            del anchor, key, length
    elif lib.collinear(pts, len(pts), p, runs) < 0:
        raise MemoryError("collinear kernel: no memory for the direction table")
    return runs

