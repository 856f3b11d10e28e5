"""Benchmark of the incidencelab command line, end to end and per layer.

One run measures one workload as a closed loop with one client: each op is
a fresh process running ``driver.py``, which imports ``incidencelab.cli``
from ``src/`` and calls ``cli(argv)``.  At most one child runs at a time,
with ``INCIDENCELAB_THREADS`` unset.  Every op's output is checked against
an oracle computed by this file, outside the program.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out F] [--root DIR]
    python3 perfbench/run.py series --seeds 1-10 --out F [--workloads W1,W2] [--base-root DIR --base-out G]
    python3 perfbench/run.py compare BASE.json CHANGE.json

A run prints a provenance line, a detail line and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
README.md in this directory for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from typing import NamedTuple

import numpy as np

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
DRIVER = os.path.join(BENCH, "driver.py")

SETUP_REPS = 3
OP_TIMEOUT_S = 60
# the op tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10

CHILD_ENV = {k: v for k, v in os.environ.items() if k != "INCIDENCELAB_THREADS"}

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric of a traced run, in print order."""
    spec = [("cli.import_s", "s/op", "lower")]
    for fn in tracing.SPAN_NAMES:
        spec += [(f"{fn}.calls", "count/op", "lower"), (f"{fn}.total_s", "s/op", "lower"),
                 (f"{fn}.self_s", "s/op", "lower")]
    spec += [(name, "B/op" if name.endswith(".bytes") else "count/op", "lower")
             for name in tracing.COUNTER_NAMES]
    spec += [
        ("incidence.count_incidences.probes_per_s", "1/s", "higher"),
        ("incidence.max_collinear_3d.pairs_per_s", "1/s", "higher"),
        ("plane.Instance.items_per_s", "1/s", "higher"),
        ("harness.read_instance.mb_per_s", "MB/s", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.uncovered_s", "s/op", "lower"),
        ("trace.uncovered_frac", "frac", "lower"),
    ]
    return spec


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class OpResult(NamedTuple):
    seconds: float
    code: int | None  # None: killed at the timeout
    rss_mb: float | None  # the child's VmHWM; None if it wrote no stats
    import_s: float | None


def spawn(args: list[str], log_path: str, timeout: float) -> tuple[float, int | None]:
    """Run ``python3 args`` to completion; (seconds, exit code or None if it
    was killed at the timeout)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], CHILD_ENV, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    timed_out = True
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
    finally:
        if timed_out:  # also when interrupted while waiting
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        os.close(pidfd)
    seconds = time.perf_counter() - t0
    return seconds, None if timed_out else os.waitstatus_to_exitcode(status)


def run_driver(wl: "Workload", cmds: list[list[str]], op_id: int, spans: str | None = None,
               timeout: float = OP_TIMEOUT_S) -> OpResult:
    cmds_path, stats_path = wl.path("cmds.json"), wl.path("stats.json")
    with open(cmds_path, "w") as fh:
        json.dump(cmds, fh)
    args = [DRIVER, wl.root, cmds_path, str(op_id), stats_path] + ([spans] if spans else [])
    seconds, code = spawn(args, wl.path("op.log"), timeout)
    # peak RSS is the child's own VmHWM, written by the driver.  Neither
    # RUSAGE_CHILDREN (a maximum over every child so far) nor the child's
    # wait4 rusage (exec copies this process's peak into it) is the child's.
    try:
        with open(stats_path) as fh:
            stats = json.load(fh)
        os.remove(stats_path)
        return OpResult(seconds, code, stats["peak_rss_kb"] / 1024.0, stats["import_s"])
    except FileNotFoundError:
        return OpResult(seconds, code, None, None)


# ---------------------------------------------------------------------------
# Workloads: inputs from the seed, the commands of one op, and the oracle
# ---------------------------------------------------------------------------

class Workload:
    """Base class.  Subclasses set ``pool`` (inputs an op cycles over) and
    ``outputs`` (files one op writes), and implement the hooks below."""

    pool = 1
    outputs = ("out.json",)

    def __init__(self, root: str, work: str, seed: int, smoke: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.smoke = smoke

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def input_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def prepare(self) -> list[list[str]]:
        """Write the inputs made outside the program; return the CLI
        commands that make the rest (run in the set-up child)."""
        return []

    def op(self, k: int) -> list[list[str]]:
        raise NotImplementedError

    def compute_oracle(self) -> None:
        """Compute expected results; runs after set-up, outside its timing."""

    def check(self, k: int, outputs: list[bytes]) -> str | None:
        """None if op k's outputs are right, else what is wrong."""
        raise NotImplementedError


def count_numpy(p: int, points: np.ndarray, s: np.ndarray, t: np.ndarray, vx: np.ndarray) -> int:
    """Incidences by direct evaluation of y = s*x + t (mod p) over every
    (point, line) pair, in blocks of lines; exact while p < 2^31."""
    px, py = points[:, 0], points[:, 1]
    total = int(np.isin(px, vx).sum())  # vertical lines are distinct
    block = 128
    for b in range(0, s.size, block):
        r = (py[None, :] - s[b:b + block, None] * px[None, :] - t[b:b + block, None]) % p
        total += int(np.count_nonzero(r == 0))
    return total


def load_instance(path: str):
    with open(path) as fh:
        data = json.load(fh)
    points = np.array(data["points"], dtype=np.int64).reshape(-1, 2)
    sl = [(d["s"], d["t"]) for d in data["lines"] if d["kind"] == "sl"]
    sl = np.array(sl, dtype=np.int64).reshape(-1, 2)
    vx = np.array([d["x"] for d in data["lines"] if d["kind"] == "v"], dtype=np.int64)
    return data["p"], points, sl[:, 0], sl[:, 1], vx


class CountSparse(Workload):
    """``count --input F`` (engine auto) over a pool of random instances."""

    P = 1048573

    def __init__(self, root, work, seed, smoke):
        super().__init__(root, work, seed, smoke)
        self.size = 300 if smoke else 10000
        self.pool = 1 if smoke else 2
        self.expected: list[int] = []

    def instance(self, k: int) -> str:
        return self.path(f"inst{k % self.pool}.json")

    def prepare(self):
        return [["construct", "random", "--p", str(self.P), "--m", str(self.size),
                 "--n", str(self.size), "--seed", str(self.input_seed(k)), "--output", self.instance(k)]
                for k in range(self.pool)]

    def op(self, k):
        return [["count", "--input", self.instance(k), "--output", self.path(self.outputs[0])]]

    def compute_oracle(self):
        self.expected = [count_numpy(*load_instance(self.instance(k))) for k in range(self.pool)]

    def check(self, k, outputs):
        got = json.loads(outputs[0])
        want = {"p": self.P, "m": self.size, "n": self.size, "incidences": self.expected[k % self.pool]}
        wrong = {key: got.get(key) for key, v in want.items() if got.get(key) != v}
        return f"count {wrong} != {want}" if wrong else None


class SweepPaper(Workload):
    """``sweep --config C --format json`` over the paper's three families."""

    def __init__(self, root, work, seed, smoke):
        super().__init__(root, work, seed, smoke)
        self.pool = 1 if smoke else 2
        if smoke:
            self.families = [
                {"family": "elekes", "a": [2], "c": [1], "p": [101]},
                {"family": "full_plane", "p": [11]},
                {"family": "random", "p": [65537], "sizes": [64]},
            ]
        else:
            self.families = [
                {"family": "elekes", "a": [2, 3, 4, 5], "c": [1, 2, 4], "p": [101]},
                {"family": "full_plane", "p": [101, 151]},
                {"family": "random", "p": [65537], "sizes": [1024, 2048]},
            ]
        self.first: dict[int, bytes] = {}
        self.expected: list[dict] = []

    def config(self, k: int) -> str:
        return self.path(f"config{k % self.pool}.json")

    def prepare(self):
        for k in range(self.pool):
            with open(self.config(k), "w") as fh:
                json.dump({"seed": self.input_seed(k), "families": self.families}, fh)
        return []

    def op(self, k):
        return [["sweep", "--config", self.config(k), "--format", "json",
                 "--output", self.path(self.outputs[0])]]

    def compute_oracle(self):
        # the rows the config expands to, with the exact laws of the paper:
        # elekes(a, c) has m = 2a^2c, n = ac^2, I = a^2c^2; the full plane
        # has m = p^2, n = p^2 + p, I = p^2(p + 1); random cells have m = n
        rows = []
        for fam in self.families:
            if fam["family"] == "elekes":
                rows += [{"family": "elekes", "p": p, "m": 2 * a * a * c, "n": a * c * c,
                          "I": a * a * c * c} for p in fam["p"] for a in fam["a"] for c in fam["c"]]
            elif fam["family"] == "full_plane":
                rows += [{"family": "full_plane", "p": p, "m": p * p, "n": p * p + p,
                          "I": p * p * (p + 1)} for p in fam["p"]]
            else:
                rows += [{"family": "random", "p": p, "m": size, "n": size}
                         for p in fam["p"] for size in fam["sizes"]]
        self.expected = rows

    def check(self, k, outputs):
        first = self.first.setdefault(k % self.pool, outputs[0])
        if outputs[0] != first:
            return "sweep output differs from an earlier op with the same config"
        rows = json.loads(outputs[0])
        if len(rows) != len(self.expected):
            return f"{len(rows)} sweep rows, expected {len(self.expected)}"
        for i, (row, want) in enumerate(zip(rows, self.expected)):
            if "error" in row:
                return f"row {i}: error {row['error']}"
            wrong = {key: row.get(key) for key, v in want.items() if row.get(key) != v}
            if wrong:
                return f"row {i}: {wrong} != {want}"
        return None


def distance_oracle(path: str) -> tuple[int, int, int]:
    """(m, |distance set|, isosceles triples) by numpy brute force."""
    p, points, _, _, _ = load_instance(path)
    x, y = points[:, 0], points[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    d = (dx * dx + dy * dy) % p
    m = len(points)
    # per pin q: c_v = #{r : d(q, r) = v != 0}; triples = sum over q, v of c(c - 1)
    rows = np.repeat(np.arange(m), m).reshape(m, m)
    keys = (rows * p + d)[d != 0]
    c = np.bincount(keys)
    return m, int(np.unique(d).size), int((c * (c - 1)).sum())


class Reports(Workload):
    """One op: ``cover --normalize`` on a full plane, then ``beck`` and
    ``distances`` on a random point set."""

    P = 1009
    outputs = ("cover.json", "beck.json", "distances.json")

    def __init__(self, root, work, seed, smoke):
        super().__init__(root, work, seed, smoke)
        self.plane_p = 7 if smoke else 23
        self.points = 40 if smoke else 400
        self.pool = 1 if smoke else 2
        self.expected: list[tuple[int, int, int]] = []

    def point_set(self, k: int) -> str:
        return self.path(f"points{k % self.pool}.json")

    def prepare(self):
        cmds = [["construct", "full_plane", "--p", str(self.plane_p), "--output", self.path("plane.json")]]
        cmds += [["construct", "random", "--p", str(self.P), "--m", str(self.points), "--n", "0",
                  "--seed", str(self.input_seed(k)), "--output", self.point_set(k)]
                 for k in range(self.pool)]
        return cmds

    def op(self, k):
        cover, beck, dist = (self.path(name) for name in self.outputs)
        return [["cover", "--normalize", "--input", self.path("plane.json"), "--output", cover],
                ["beck", "--input", self.point_set(k), "--output", beck],
                ["distances", "--input", self.point_set(k), "--output", dist]]

    def compute_oracle(self):
        self.expected = [distance_oracle(self.point_set(k)) for k in range(self.pool)]

    def check(self, k, outputs):
        cover, beck, dist = (json.loads(out) for out in outputs)
        if not cover["verification"]["passed"]:
            return f"cover certificate fails: {cover['verification']['violations']}"
        part = cover["partition"]
        if part["low"] + part["high"] + part["regular"] != self.plane_p ** 2:
            return f"cover partition {part} does not split {self.plane_p ** 2} points"
        gridded = sum(len(step["points"]) for step in cover["steps"])
        if gridded + len(cover["leftover"]) != part["regular"]:
            return "cover grids and leftover do not add up to the regular set"
        if len(cover.get("normalized", ())) != len(cover["steps"]):
            return "cover output lacks one normalized grid per step"
        m, size, iso = self.expected[k % self.pool]
        pairs = m * (m - 1) // 2
        if (beck["m"], beck["pair_total"], beck["expected_pairs"]) != (m, pairs, pairs):
            return f"beck pair accounting {beck['pair_total']}/{beck['expected_pairs']} != {pairs}"
        got = (dist["m"], len(dist["distance_set"]), dist["isosceles_triples"])
        if got != (m, size, iso):
            return f"distances (m, |set|, isosceles) {got} != {(m, size, iso)}"
        return None


WORKLOADS = {"count_sparse": CountSparse, "sweep_paper": SweepPaper, "reports": Reports}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def provenance(seed, root: str) -> dict:
    sha = dirty = None
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=git_env, timeout=30)
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, env=git_env, timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "program_root": root, "git_sha": sha, "git_dirty": dirty, "cpu": cpu, "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()), "python": platform.python_version(),
        "numpy": np.__version__, "numba_importable": find_spec("numba") is not None,
        "gcc_on_path": shutil.which("gcc") is not None,
        "INCIDENCELAB_THREADS": os.environ.get("INCIDENCELAB_THREADS"), "seed": seed,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest order statistic with
    at least TAIL_BEYOND samples above it, or the minimum of a short run."""
    lat = sorted(latencies)
    n = len(lat)
    i = max(n - 1 - TAIL_BEYOND, 0)
    pct = 100.0 * i / (n - 1) if n > 1 else 50.0
    return lat[i], pct, n - 1 - i


def read_outputs(wl: Workload) -> list[bytes] | None:
    # outputs are removed once read, so an op that writes none is not
    # checked against the previous op's files
    try:
        out = []
        for name in wl.outputs:
            with open(wl.path(name), "rb") as fh:
                out.append(fh.read())
            os.remove(wl.path(name))
        return out
    except FileNotFoundError:
        return None


def verify(wl: Workload, k: int, res: OpResult, outputs) -> str | None:
    if res.code is None:
        return "timeout"
    if res.code != 0 or outputs is None:
        return f"exit code {res.code}"
    try:
        return wl.check(k, outputs)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


class SetupError(RuntimeError):
    pass


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        root: str = ROOT) -> dict:
    """One benchmark run of the program under ``root``; returns the full
    record (result line under "result")."""
    prov = provenance(seed, root)
    if not os.path.isfile(os.path.join(root, "src", "incidencelab", "cli.py")):
        raise SetupError(f"no program to measure: {root}/src/incidencelab/cli.py is missing")
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(WORKLOADS[workload](root, work, seed, smoke), seconds, trace, prov)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl: Workload, seconds: float, trace: bool, prov: dict) -> dict:
    # set-up: import, input generation and the warm-up op, several times
    setup = []
    for _ in range(1 if wl.smoke else SETUP_REPS):
        t0 = time.perf_counter()
        res = run_driver(wl, wl.prepare(), -1)
        if res.code != 0:
            raise SetupError(f"input generation failed with exit code {res.code}: {_log(wl)}")
        warm = run_driver(wl, wl.op(0), 0)
        setup.append(time.perf_counter() - t0)
        warm_out = read_outputs(wl)
    wl.compute_oracle()
    warm_error = verify(wl, 0, warm, warm_out)

    # timed phase; with --trace 1, blocks of `pool` ops alternate between
    # traced and untraced so both see every input
    lat, traced_lat, rss, errors, stats = [], [], [], [], []
    t_start = time.perf_counter()
    k = 0
    while True:
        k += 1
        traced = trace and (k // wl.pool) % 2 == 0
        spans = os.path.join(wl.work, f"spans{k}.npz") if traced else None
        res = run_driver(wl, wl.op(k), k, spans)
        err = verify(wl, k, res, read_outputs(wl))
        errors.append(err)
        if err is not None:
            print(f"op {k} failed: {err}; {_log(wl)}", file=sys.stderr)
        if traced:
            traced_lat.append(res.seconds)
            if err is None:
                stats.append((res.seconds, dict(tracing.op_stats(spans), import_s=res.import_s)))
            if os.path.exists(spans):
                os.remove(spans)
        else:
            lat.append(res.seconds)
            if res.rss_mb is not None:
                rss.append(res.rss_mb)
        elapsed = time.perf_counter() - t_start
        sampled = lat and (traced_lat or not trace)
        if sampled and (wl.smoke or elapsed >= seconds):
            break

    failed = sum(e is not None for e in errors)
    tail_s, tail_pct, beyond = tail(lat)
    if trace:
        metrics = layer_metrics(stats, traced_lat, lat)
        units = {name: unit for name, unit, _ in per_layer_spec()}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_s,
            "ops_per_s": (len(errors) - failed) / elapsed,
            "peak_rss_mb": max(rss, default=0.0),
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0 and warm_error is None,
        "attempted": len(errors),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = {
        "fail_frac": failed / len(errors), "warmup_error": warm_error,
        "op_tail_percentile": tail_pct, "op_tail_beyond": beyond, "untraced_ops": len(lat),
        "traced_ops": len(traced_lat), "timed_s": elapsed, "setup_samples_s": setup,
        "op_latencies_s": lat, "traced_latencies_s": traced_lat,
        "errors": [e for e in errors if e is not None][:5],
        # this process's own peak; the op RSS figures do not include it
        "bench_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"provenance": prov, "detail": detail, "result": result}


def _log(wl: Workload) -> str:
    try:
        with open(wl.path("op.log")) as fh:
            return fh.read().strip()[-300:]
    except OSError:
        return ""


def layer_metrics(stats, traced_lat, untraced_lat) -> dict:
    """Per-op means of the traced ops' span statistics and work counts."""
    n = max(len(stats), 1)
    # per function: calls, total seconds, self seconds, summed over traced ops
    spans = {fn: np.zeros(3) for fn in tracing.SPAN_NAMES}
    counters = dict.fromkeys(tracing.COUNTER_NAMES, 0.0)
    for _, st in stats:
        for fn in tracing.SPAN_NAMES:
            spans[fn] += st[fn]
        for key, value in st["counters"].items():
            counters[key] += value

    def rate(work, seconds):
        return float(work / seconds) if seconds > 0 else 0.0

    out = {"cli.import_s": sum(st["import_s"] for _, st in stats) / n}
    for fn, (calls, total, own) in spans.items():
        out[f"{fn}.calls"] = float(calls / n)
        out[f"{fn}.total_s"] = float(total / n)
        out[f"{fn}.self_s"] = float(own / n)
    for key in tracing.COUNTER_NAMES:
        out[key] = counters[key] / n
    out["incidence.count_incidences.probes_per_s"] = rate(
        counters["incidence.count_incidences.probes"], spans["incidence.count_incidences"][2])
    out["incidence.max_collinear_3d.pairs_per_s"] = rate(
        counters["incidence.max_collinear_3d.pairs"], spans["incidence.max_collinear_3d"][2])
    out["plane.Instance.items_per_s"] = rate(counters["plane.Instance.items"], spans["plane.Instance"][2])
    out["harness.read_instance.mb_per_s"] = rate(
        counters["harness.read_instance.bytes"] / 1e6, spans["harness.read_instance"][1])
    out["trace.overhead_frac"] = statistics.median(traced_lat) / statistics.median(untraced_lat) - 1.0
    # wall time of a traced op that neither the import nor any span's self time covers
    uncovered = [(wall - st["import_s"] - st["covered_s"], wall) for wall, st in stats] or [(0.0, 1.0)]
    out["trace.uncovered_s"] = statistics.median(u for u, _ in uncovered)
    out["trace.uncovered_frac"] = statistics.median(u / w for u, w in uncovered)
    return out


# ---------------------------------------------------------------------------
# Series and compare
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_record(workload: str, seed: int, seconds: int, root: str) -> dict | None:
    """One untraced run of the program under ``root`` in its own process."""
    os.makedirs(WORK, exist_ok=True)
    record_path = os.path.join(WORK, f"series-{os.getpid()}.json")
    t0 = time.perf_counter()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--root", root, "--out", record_path]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"{workload} seed {seed} on {root}: exit code {proc.returncode}", file=sys.stderr)
        return None
    with open(record_path) as fh:
        record = json.load(fh)
    os.remove(record_path)
    record.update(workload=workload, seed=seed, wall_s=time.perf_counter() - t0)
    res = record["result"]
    print(f"{workload} seed {seed} on {root}: {record['wall_s']:.1f}s wall, correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    return record


def sides_in_order(sides: list, i: int) -> list:
    """The sides to run for the i-th seed: which one runs first alternates,
    so that a drift of the host's speed falls on both alike."""
    return sides if i % 2 == 0 else sides[::-1]


def series(args) -> int:
    """Run the benchmark once per (workload, seed), one process at a time,
    for the spec's run_seconds, and collect the records into one results
    file.  With --base-root the same runs are made on that program tree
    too, paired by seed, and the two files are compared."""
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sides = [(ROOT, args.out)]
    if args.base_root:
        sides.insert(0, (os.path.abspath(args.base_root), args.base_out))
    runs = {out: [] for _, out in sides}
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for root, out in sides_in_order(sides, i):
                record = run_record(workload, seed, seconds, root)
                if record is None:
                    return 1
                runs[out].append(record)
    for root, out in sides:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as fh:
            json.dump({"provenance": provenance(None, root), "seconds": seconds, "runs": runs[out]}, fh, indent=1)
        print(f"{out} ({root}):")
        print_spreads(runs[out], spec)
    if args.base_root:
        print_compare(runs[args.base_out], runs[args.out], spec)
    return 0


def metric_values(runs, workload, name) -> dict[int, float]:
    """seed -> value of one end-to-end metric."""
    return {r["seed"]: r["result"]["metrics"][name]["value"] for r in runs if r["workload"] == workload}


def print_spreads(runs, spec) -> None:
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for metric in spec["end_to_end"]:
            values = list(metric_values(runs, workload, metric["name"]).values())
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{workload:13s} {metric['name']:12s} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {spread:.4f} bound {metric['bound']} {flag}")


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """better / worse / within bound / unresolved for one metric, with base
    and change paired by seed.  When either side's quartile spread exceeds
    the bound, host drift can move a median by more than the bound, so the
    verdict is unresolved unless every change run beats every base run."""
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    if (b3 - b1) / bm > bound or (c3 - c1) / cm > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return "better"
        return "unresolved"
    if sign * (cm - bm) / bm > bound:
        return "worse"
    # a gain: the change wins nine tenths of the pairs, and the medians
    # differ by more than the base's own quartile spread
    wins = sum(sign * c < sign * b for b, c in zip(base, change))
    if sign * (bm - cm) > b3 - b1 and wins >= 0.9 * len(base):
        return "better"
    return "within bound"


def print_compare(base, change, spec) -> None:
    print("workload      metric       base: median [q1, q3]            change: median [q1, q3]          verdict")
    for workload in dict.fromkeys(r["workload"] for r in base):
        for metric in spec["end_to_end"]:
            a = metric_values(base, workload, metric["name"])
            b = metric_values(change, workload, metric["name"])
            seeds = sorted(a.keys() & b.keys())
            if not seeds:
                continue
            a, b = [a[s] for s in seeds], [b[s] for s in seeds]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            base_q = f"{am:.5g} [{a1:.5g}, {a3:.5g}]"
            change_q = f"{bm:.5g} [{b1:.5g}, {b3:.5g}]"
            print(f"{workload:13s} {metric['name']:12s} {base_q:32s} {change_q:32s} "
                  f"{verdict(a, b, metric['better'], metric['bound'])}")


def compare(args) -> int:
    with open(args.base) as fh:
        base = json.load(fh)["runs"]
    with open(args.change) as fh:
        change = json.load(fh)["runs"]
    print_compare(base, change, load_spec())
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "series":
        p = argparse.ArgumentParser(prog="run.py series")
        p.add_argument("--workloads")
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--out", required=True, help="results file of this tree's program")
        p.add_argument("--base-root", help="another program tree to run, paired by seed")
        p.add_argument("--base-out", help="results file of the --base-root program")
        args = p.parse_args(argv[1:])
        if bool(args.base_root) != bool(args.base_out):
            p.error("--base-root and --base-out go together")
        return series(args)
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("change")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one op")
    p.add_argument("--out", help="also write the full record (provenance, samples) here")
    p.add_argument("--root", default=ROOT, help="the program tree to measure (default: this one)")
    args = p.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                     os.path.abspath(args.root))
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh)
    print("provenance: " + json.dumps(record["provenance"]))
    print("detail: " + json.dumps({k: v for k, v in record["detail"].items()
                                   if not k.endswith("latencies_s")}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
