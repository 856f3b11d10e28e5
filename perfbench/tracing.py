"""Span recording around the public functions of incidencelab.

The op driver calls :func:`install` after importing ``incidencelab.cli``.
Each wrapped function records one span per call: op id, name, parent span,
start and end (``time.perf_counter``).  ``field.inv_mod`` runs hundreds of
thousands of times per op, so it only counts calls; the cost of that counting
wrapper lands in its callers' self time.  Work counts are taken from the
arguments of each call, inside a ``trace.work`` span of their own, so their
cost is not charged to the caller.  Spans stay in memory and are written
with :meth:`Tracer.write` when the op ends; :func:`op_stats` reads them back
in the benchmark process.  Nothing inside the program is modified: wrappers
replace module attributes, and ``plane.Instance`` is wrapped at ``__init__``.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

PACKAGE = "incidencelab"

# module -> public functions wrapped with a span, in the order metrics print
SPANNED = {
    "cli": ("cli",),
    "harness": ("read_instance", "run_sweep", "records_to_json"),
    "plane": ("Instance", "line_through"),
    "constructions": ("full_plane", "elekes_construction", "random_instance"),
    "incidence": ("count_incidences", "richness_histograms", "max_collinear_3d"),
    "energy": ("line_energy", "energy_reduction"),
    "cover": ("grid_cover", "richness_partition", "two_pencil_extract",
              "verify_certificate", "normalize_grid"),
    "distances": ("determined_lines", "distance_sets", "isosceles_triples"),
}
# called hundreds of thousands of times per op: calls are counted, no span
CALLS_ONLY = ("field", "inv_mod")

# the tracer's own work counting, a leaf span under the call it counts
WORK_SPAN = "trace.work"
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns) + (WORK_SPAN,)
COUNTER_NAMES = (
    "field.inv_mod.calls",
    "incidence.count_incidences.pairs",
    "incidence.count_incidences.probes",
    "incidence.max_collinear_3d.pairs",
    "distances.determined_lines.pairs",
    "plane.Instance.items",
    "harness.read_instance.bytes",
)


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


def _count_work(args, kwargs, add):
    # the cost model of count_incidences' docstring:
    # min(m*n, m*(slope classes + 1), n*(x-support + 1))
    inst = args[0] if args else kwargs["inst"]
    m, n = inst.m, inst.n
    slopes = len({line.slope for line in inst.lines if line.slope is not None})
    cols = len({q.x for q in inst.points})
    add("incidence.count_incidences.pairs", m * n)
    add("incidence.count_incidences.probes", min(m * n, m * (slopes + 1), n * (cols + 1)))


def _collinear_work(args, kwargs, add):
    points = args[0] if args else kwargs["points"]
    add("incidence.max_collinear_3d.pairs", _pairs(len(set(points))))


def _beck_work(args, kwargs, add):
    points = args[0] if args else kwargs["points"]
    add("distances.determined_lines.pairs", _pairs(len(set(points))))


def _read_work(args, kwargs, add):
    add("harness.read_instance.bytes", os.path.getsize(args[0] if args else kwargs["path"]))


# work counted from the arguments before the call
WORK_BEFORE = {
    "incidence.count_incidences": _count_work,
    "incidence.max_collinear_3d": _collinear_work,
    "distances.determined_lines": _beck_work,
    "harness.read_instance": _read_work,
}


class Tracer:
    """In-memory span store for one op; installs wrappers into incidencelab."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        # one tuple (op, name id, parent span, start, end) per call; a slot
        # is reserved at the call's start so parents precede their children
        self.spans: list = []
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)

    def _add(self, key, value):
        self.counters[key] += value

    def _span(self, fn, name):
        name_id = SPAN_NAMES.index(name)
        work_id = SPAN_NAMES.index(WORK_SPAN)
        work = WORK_BEFORE.get(name)
        spans, stack, clock, op = self.spans, self.stack, time.perf_counter, self.op_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                t = clock()
                work(args, kwargs, self._add)
                spans.append((op, work_id, stack[-1], t, clock()))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (op, name_id, parent, t0, t1)

        return wrapper

    def _instance_init(self, init):
        spanned = self._span(init, "plane.Instance")

        @functools.wraps(init)
        def wrapper(inst, *args, **kwargs):
            spanned(inst, *args, **kwargs)
            self._add("plane.Instance.items", inst.m + inst.n)

        return wrapper

    def _calls_only(self, fn, key):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function, patching the name in each incidencelab
        module that imported it; the package must already be imported."""
        for mod, fns in SPANNED.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                orig = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
                if isinstance(orig, type):
                    orig.__init__ = self._instance_init(orig.__init__)
                else:
                    _rebind(orig, self._span(orig, name))
        mod, fn = CALLS_ONLY
        orig = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
        _rebind(orig, self._calls_only(orig, f"{mod}.{fn}.calls"))

    def write(self, path: str) -> None:
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez(path, spans=spans,
                 counters=np.array([self.counters[k] for k in COUNTER_NAMES], dtype=np.float64))


def _rebind(orig, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)


def op_stats(path: str) -> dict:
    """Per-function calls, total and self time, and the counters of one op.

    Self time is a span's duration minus the durations of its child spans.
    """
    with np.load(path) as data:
        spans = data["spans"]
        counters = dict(zip(COUNTER_NAMES, data["counters"].tolist()))
    name = spans[:, 1].astype(np.int64)
    parent = spans[:, 2].astype(np.int64)
    dur = spans[:, 4] - spans[:, 3]
    child = parent >= 0
    child_s = np.bincount(parent[child], weights=dur[child], minlength=len(spans))
    self_s = dur - child_s
    k = len(SPAN_NAMES)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_s, minlength=k)
    out = {"covered_s": float(self_s.sum()), "counters": counters}
    for i, fn in enumerate(SPAN_NAMES):
        out[fn] = (int(calls[i]), float(total[i]), float(own[i]))
    return out
