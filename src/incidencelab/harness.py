"""Experiment orchestration: instance file I/O, parameter sweeps over the
instance families, log-log exponent fitting, and report serialization.

Instance JSON schema:
    {"p": <int>, "points": [[x, y], ...],
     "lines": [{"kind": "sl", "s": <int>, "t": <int>} | {"kind": "v", "x": <int>}, ...]}
with all coordinates canonical residues in [0, p).

3D instance JSON schema (for point-plane counting):
    {"p": <int>, "points": [[x, y, z], ...], "planes": [[a, b, c, d], ...]}
with planes read as a*x + b*y + c*z = d and coordinates reduced mod p.

Energy input JSON schema:
    {"p": <int>, "A": [<int>, ...], "lines": [<line as above>, ...], "B": [<int>, ...]}
with A and lines nonempty and B optional.

Every reader below raises ParseError (ConfigError for a sweep config) on a
malformed file, so the CLI exits 2 with one error line.  JSON true and false
are not integers anywhere in these files.  The instance and energy readers
check the point and line columns in bulk and fall back to the per-entry
check, which names the first bad entry; write_instance emits the canonical
compact form in one encode.

Sweep CSV schema: the fixed header CSV_HEADER, one column per key of
_COLUMNS in its order; absent fields are empty.  JSON records use the same
keys, plus "error" on a failed cell.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter
from typing import Iterable

import numpy as np

# constructions and energy run on first use (see __init__): count never
# reaches them
from . import constructions, energy
from .errors import (
    CompositeModulusError,
    ConfigError,
    Error,
    InsufficientDataError,
    InvalidParameterError,
    NonPositiveValueError,
    OutOfRangeError,
    ParseError,
)
from .field import PrimeModulus, make_modulus
from .incidence import (
    ENGINES,
    PlaneInstance3D,
    check_hypotheses,
    count_incidences,
    reference_bound,
)
from .plane import Instance

# the sweep columns in CSV order, each with the SweepRecord field it shows
_COLUMNS = {
    "family": "family", "p": "p", "m": "m", "n": "n", "a": "a", "b": "b",
    "I": "incidences", "E": "energy", "k": "k",
    "hyp_1_2": "hyp_1_2", "hyp_1_3": "hyp_1_3", "hyp_1_4": "hyp_1_4",
    "bound_table1": "bound_table1", "bound_comb": "bound_comb", "bound_vinh": "bound_vinh",
    "ratio_main": "ratio_main",
}
CSV_HEADER = ",".join(_COLUMNS)

# an energy reduction has (a*n)^2 point-plane pairs; skip it beyond this size
ENERGY_REDUCTION_CAP = 5000


class DuplicateEntryWarning(UserWarning):
    """Raised (as a warning) when a file lists the same point or line twice."""

    def __init__(self, duplicate_points: int, duplicate_lines: int):
        self.duplicate_points = duplicate_points
        self.duplicate_lines = duplicate_lines
        super().__init__(
            f"dropped {duplicate_points} duplicate point(s) and {duplicate_lines} duplicate line(s)"
        )


def _require(cond, message):
    if not cond:
        raise ParseError(message)


# ---------------------------------------------------------------------------
# Input files.  An instance file may hold 10^5 entries: a reader checks each
# column in bulk and runs the per-entry check, which names the first bad
# entry, only when the bulk check fails
# ---------------------------------------------------------------------------

def _read_text(path) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start].decode("utf-8")
        line, column = head.count("\n") + 1, len(head) - head.rfind("\n")
        raise ParseError(f"{path}: line {line}, column {column}: not UTF-8 ({exc.reason})") from exc


def _load_json(path, text: str | None = None):
    """The JSON document in a file (or in its already read text)."""
    try:
        return json.loads(_read_text(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer over 4300 digits, or deep nesting
        raise ParseError(f"{path}: {exc}") from exc


def _modulus(data, *lists: str) -> PrimeModulus:
    """The modulus of a document that must be an object with field 'p' and
    the given list fields."""
    _require(isinstance(data, dict), "the file must hold a JSON object")
    for key in ("p",) + lists:
        _require(key in data, f"missing field {key!r}")
    for key in lists:
        _require(isinstance(data[key], list), f"field {key!r} must be a list")
    try:
        return make_modulus(data["p"])
    except (CompositeModulusError, OutOfRangeError) as exc:
        raise ParseError(f"field 'p': {exc}") from exc


def _is_int(v) -> bool:
    """Is v a JSON integer?  JSON true and false load as bool, a subclass of
    int, and are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, float) or _is_int(v)


def _ints(value, size: int | None, name: str, index: int | None = None) -> tuple[int, ...]:
    """value as a tuple of integers, of length size unless size is None."""
    if isinstance(value, list) and size in (None, len(value)) and all(map(_is_int, value)):
        return tuple(value)
    where = name if index is None else f"{name}[{index}]"
    raise ParseError(f"{where} must be a list of {'' if size is None else f'{size} '}integers")


def _point_json(key: int, p: int) -> list[int]:
    return [key // p, key % p]


def _line_json(key: int, p: int) -> dict:
    if key >= p * p:
        return {"kind": "v", "x": key - p * p}
    return {"kind": "sl", "s": key // p, "t": key % p}


def _point_key(entry, p: int, i: int) -> int:
    """The key x*p + y of points[i]."""
    if isinstance(entry, list) and len(entry) == 2:
        x, y = entry
        if _is_int(x) and _is_int(y) and 0 <= x < p and 0 <= y < p:
            return x * p + y
    raise ParseError(f"points[{i}] must be a pair [x, y] of integers in [0, {p})")


def _line_key(entry, p: int, i: int) -> int:
    """The key (see :meth:`AffineLine.key`) of lines[i]."""
    kind = entry.get("kind") if isinstance(entry, dict) else None
    if kind == "sl":
        s, t = entry.get("s"), entry.get("t")
        if _is_int(s) and _is_int(t) and 0 <= s < p and 0 <= t < p:
            return s * p + t
        raise ParseError(f"lines[{i}] of kind 'sl' needs integer fields 's' and 't' in [0, {p})")
    if kind == "v":
        x = entry.get("x")
        if _is_int(x) and 0 <= x < p:
            return p * p + x
        raise ParseError(f"lines[{i}] of kind 'v' needs an integer field 'x' in [0, {p})")
    raise ParseError(f"lines[{i}] needs a 'kind' field, 'sl' or 'v'")


def _residues(values, p: int) -> np.ndarray | None:
    """The int64 array of values, a list of JSON values, or None unless
    each is an integer in [0, p)."""
    if not set(map(type, values)) <= {int}:  # bool and float are not int
        return None
    try:
        col = np.array(values, dtype=np.int64)
    except OverflowError:
        return None
    return col if not col.size or (col.min() >= 0 and col.max() < p) else None


def _point_keys(entries: list, p: int) -> np.ndarray:
    """The keys of the points entries, checked in bulk; on a malformed entry
    the per-entry check names the first one."""
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
        xy = _residues(list(chain.from_iterable(entries)), p)
        if xy is not None:
            return xy[0::2] * p + xy[1::2]
    return np.array([_point_key(entry, p, i) for i, entry in enumerate(entries)], dtype=np.int64)


def _line_keys(entries: list, p: int) -> np.ndarray:
    """The keys of the lines entries, sloped lines first, checked in bulk;
    on a malformed entry the per-entry check names the first one."""
    if set(map(type, entries)) <= {dict}:
        sloped = [entry for entry in entries if entry.get("kind") == "sl"]
        vertical = [entry for entry in entries if entry.get("kind") == "v"]
        try:
            st = _residues(list(chain.from_iterable(map(itemgetter("s", "t"), sloped))), p)
            x = _residues(list(map(itemgetter("x"), vertical)), p)
        except KeyError:
            st = x = None
        if st is not None and x is not None and len(sloped) + len(vertical) == len(entries):
            return np.concatenate((st[0::2] * p + st[1::2], x + p * p))
    return np.array([_line_key(entry, p, i) for i, entry in enumerate(entries)], dtype=np.int64)


def instance_to_dict(inst: Instance) -> dict:
    s, t, vertical = (c.tolist() for c in inst.line_columns)
    lines = [{"kind": "sl", "s": a, "t": b} for a, b in zip(s, t)] + [{"kind": "v", "x": x0} for x0 in vertical]
    return {"p": inst.p, "points": np.column_stack(inst.xy).tolist(), "lines": lines}


def read_instance(path) -> Instance:
    """Read an instance file, deduplicating with a warning on duplicates."""
    data = _load_json(path)
    modulus = _modulus(data, "points", "lines")
    p = modulus.p
    point_keys, line_keys = _point_keys(data["points"], p), _line_keys(data["lines"], p)
    inst = Instance(modulus, point_keys=point_keys, line_keys=line_keys)
    if inst.m < point_keys.size or inst.n < line_keys.size:
        warnings.warn(DuplicateEntryWarning(point_keys.size - inst.m, line_keys.size - inst.n), stacklevel=2)
    return inst


def write_instance(inst: Instance, path) -> None:
    """Write an instance in canonical (sorted, deduplicated) order, in one
    encode: json.dump would stream through the pure-Python encoder."""
    text = json.dumps(instance_to_dict(inst), separators=(",", ":"), sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_instance3d(path) -> PlaneInstance3D:
    data = _load_json(path)
    p = _modulus(data, "points", "planes").p
    _require(data["points"], "field 'points' must be nonempty")
    points = [_ints(entry, 3, "points", i) for i, entry in enumerate(data["points"])]
    planes = [_ints(entry, 4, "planes", i) for i, entry in enumerate(data["planes"])]
    try:
        return PlaneInstance3D.build(p, points, planes)
    except InvalidParameterError as exc:
        raise ParseError(str(exc)) from exc


def read_energy_input(path) -> tuple[int, tuple[int, ...], np.ndarray, tuple[int, ...] | None]:
    """Read an energy input file: (p, A, line keys, B), with B None when
    absent."""
    data = _load_json(path)
    p = _modulus(data, "A", "lines").p
    A = _ints(data["A"], None, "A")
    _require(A and data["lines"], "fields 'A' and 'lines' must be nonempty")
    line_keys = _line_keys(data["lines"], p)
    B = data.get("B")
    return p, A, line_keys, None if B is None else _ints(B, None, "B")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRecord:
    """One experiment row with exact counts and float comparators."""

    family: str
    p: int
    m: int | None = None
    n: int | None = None
    a: int | None = None
    b: int | None = None
    incidences: int | None = None
    energy: int | None = None
    k: int | None = None
    hyp_1_2: bool | None = None
    hyp_1_3: bool | None = None
    hyp_1_4: bool | None = None
    bound_table1: float | None = None
    bound_comb: float | None = None
    bound_vinh: float | None = None
    ratio_main: float | None = None
    error: str | None = None

    def csv_row(self) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "pass" if v else "fail"
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        return ",".join(fmt(getattr(self, name)) for name in _COLUMNS.values())

    def to_dict(self) -> dict:
        out = {column: getattr(self, name) for column, name in _COLUMNS.items()}
        if self.error is not None:
            out["error"] = self.error
        return out


# the integer parameters of each family; all but p must be at least 1
_FAMILY_INTS = {"elekes": ("p", "a", "c"), "full_plane": ("p",), "random": ("p", "sizes", "m", "n")}


@dataclass
class SweepConfig:
    """A list of family cells plus shared sweep settings.

    families is a list of dicts; each needs a "family" key ("elekes",
    "full_plane" or "random") and per-family parameter lists that are
    expanded as a grid in order.  The random family takes either "m" and "n"
    lists (crossed) or a "sizes" list meaning m = n = size.  Every parameter
    is an integer, at least 1 except p; a p that is not prime gives an error
    row.  An elekes entry's optional "energy" is a boolean (default true).
    seed is an integer, ll_constant a positive number and engine one of
    ENGINES.
    """

    families: list
    seed: int = 0
    ll_constant: float = 1.0
    engine: str = "auto"

    @classmethod
    def from_dict(cls, data) -> "SweepConfig":
        fams = data.get("families") if isinstance(data, dict) else None
        if not isinstance(fams, list) or not fams:
            raise ConfigError("config must be an object with a nonempty 'families' list")
        for f in fams:
            fam = f.get("family") if isinstance(f, dict) else None
            if not isinstance(fam, str) or fam not in _FAMILY_INTS:
                raise ConfigError(f"each family entry needs 'family' in {sorted(_FAMILY_INTS)}")
            for key in _FAMILY_INTS[fam]:
                for v in _as_list(f.get(key, [])):
                    if not _is_int(v) or (key != "p" and v < 1):
                        least = "" if key == "p" else " >= 1"
                        raise ConfigError(f"{fam} parameter {key!r} must hold integers{least}, got {v!r}")
            if fam == "elekes" and not isinstance(f.get("energy", True), bool):
                raise ConfigError(f"elekes 'energy' must be true or false, got {f['energy']!r}")
        seed = data.get("seed", 0)
        if not _is_int(seed):
            raise ConfigError(f"'seed' must be an integer, got {seed!r}")
        c = data.get("ll_constant", 1.0)
        if not _is_number(c) or not 0 < c <= sys.float_info.max:
            raise ConfigError(f"'ll_constant' must be a positive finite number, got {c!r}")
        engine = data.get("engine", "auto")
        if engine not in ENGINES:
            raise ConfigError(f"'engine' must be one of {list(ENGINES)}, got {engine!r}")
        return cls(fams, seed, c, engine)


def read_sweep_config(path) -> SweepConfig:
    return SweepConfig.from_dict(_load_json(path))


def _as_list(v):
    return v if isinstance(v, list) else [v]


def expand_cells(config: SweepConfig) -> list[dict]:
    """Expand every family entry into concrete parameter cells, in config order."""
    cells = []
    for entry in config.families:
        fam = entry["family"]
        keys = _FAMILY_INTS[fam]
        if fam == "random":
            keys = ("p", "sizes") if "sizes" in entry else ("p", "m", "n")
        for values in product(*(_as_list(entry.get(key, [])) for key in keys)):
            cell = {"family": fam, **dict(zip(keys, values))}
            if "sizes" in cell:
                cell["m"] = cell["n"] = cell.pop("sizes")
            if fam == "elekes":
                cell["energy"] = entry.get("energy", True)
            cells.append(cell)
    if not cells:
        raise ConfigError("the configuration expands to no cells")
    return cells


def _run_cell(cell: dict, index: int, config: SweepConfig) -> SweepRecord:
    fam = cell["family"]
    p = cell["p"]
    c = config.ll_constant
    rec = SweepRecord(family=fam, p=p)
    try:
        if fam == "elekes":
            a, cc = cell["a"], cell["c"]
            inst = constructions.elekes_construction(a, cc, p)
            rec.a, rec.b = a, 2 * a * cc
            if cell.get("energy", True):
                A = list(range(1, a + 1))
                rec.energy = energy.line_energy(A, inst.line_keys, p).value
                if a * inst.n <= ENERGY_REDUCTION_CAP:
                    red = energy.energy_reduction(A, inst.line_keys, p)
                    rec.k = red.k
                    rec.hyp_1_4 = check_hypotheses("1.4", r=red.r, s=red.s, p=p, c=c).passed
            rec.hyp_1_3 = check_hypotheses("1.3", a=a, b=rec.b, n=inst.n, p=p, c=c).passed
        elif fam == "full_plane":
            inst = constructions.full_plane(p)
        elif fam == "random":
            inst = constructions.random_instance(p, cell["m"], cell["n"],
                                                constructions.derive_seed(config.seed, index))
        else:  # pragma: no cover - guarded by expand_cells
            raise ConfigError(f"unknown family {fam!r}")
        rec.m, rec.n = inst.m, inst.n
        rec.incidences = count_incidences(inst, config.engine)
        rec.hyp_1_2 = check_hypotheses("1.2", m=inst.m, n=inst.n, p=p, c=c).passed
        rec.bound_table1 = reference_bound(inst.m, inst.n, p, "table1")[1]
        rec.bound_comb = reference_bound(inst.m, inst.n, p, "combinatorial")[1]
        rec.bound_vinh = reference_bound(inst.m, inst.n, p, "vinh")[1]
        rec.ratio_main = rec.incidences / (inst.m ** (11 / 15) * inst.n ** (11 / 15))
    except Error as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Run every cell of the sweep in config order; deterministic for a
    fixed config.

    Per-cell failures are recorded in the cell's record and never abort the
    sweep.
    """
    return [_run_cell(cell, i, config) for i, cell in enumerate(expand_cells(config))]


def records_to_csv(records: Iterable[SweepRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


def records_to_json(records: Iterable[SweepRecord]) -> str:
    return json.dumps([r.to_dict() for r in records], sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    samples: int


def _field_value(record, name):
    if isinstance(record, dict):
        if name in record:
            return record[name]
        return record.get(_COLUMNS.get(name, name))
    return getattr(record, _COLUMNS.get(name, name))


def fit_exponent(records, x_field: str, y_field: str) -> FitResult:
    """Least-squares line through (log x, log y) over the given records.

    Closed-form mean-centered least squares, so exactly constant y gives
    slope exactly 0.0.  Records may be SweepRecord objects or dicts keyed by
    CSV column names.
    """
    xs, ys = [], []
    for rec in records:
        xv = _field_value(rec, x_field)
        yv = _field_value(rec, y_field)
        if xv is None or yv is None:
            continue
        if not (_is_number(xv) and _is_number(yv) and xv > 0 and yv > 0):
            raise NonPositiveValueError(
                f"log-log fit needs positive numbers, got {x_field}={xv!r}, {y_field}={yv!r}")
        xs.append(math.log(xv))
        ys.append(math.log(yv))
    if len(xs) < 2:
        raise InsufficientDataError(f"need at least 2 records with both fields, got {len(xs)}")
    nsamp = len(xs)
    mx = sum(xs) / nsamp
    my = sum(ys) / nsamp
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        raise InsufficientDataError("all x values coincide, the slope is undefined")
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_tot = sum((y - my) ** 2 for y in ys)
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r2, nsamp)


def fit_scatter_svg(records, x_field: str, y_field: str, fit: FitResult) -> str:
    """A small self-contained log-log scatter plot with the fitted line."""
    pts = []
    for rec in records:
        xv = _field_value(rec, x_field)
        yv = _field_value(rec, y_field)
        if xv and yv and xv > 0 and yv > 0:
            pts.append((math.log10(xv), math.log10(yv)))
    if not pts:
        raise InsufficientDataError("nothing to plot")
    w, h, margin = 640, 480, 50
    lx = [q[0] for q in pts]
    ly = [q[1] for q in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def sx(v):
        return margin + (v - x0) / (x1 - x0) * (w - 2 * margin)

    def sy(v):
        return h - margin - (v - y0) / (y1 - y0) * (h - 2 * margin)

    ln10 = math.log(10)
    fy0 = (fit.intercept + fit.slope * x0 * ln10) / ln10
    fy1 = (fit.intercept + fit.slope * x1 * ln10) / ln10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>',
        f'<line x1="{sx(x0):.2f}" y1="{sy(fy0):.2f}" x2="{sx(x1):.2f}" y2="{sy(fy1):.2f}" stroke="crimson" stroke-width="1.5"/>',
    ]
    for qx, qy in pts:
        parts.append(f'<circle cx="{sx(qx):.2f}" cy="{sy(qy):.2f}" r="3" fill="steelblue"/>')
    parts.append(
        f'<text x="{margin}" y="{margin - 15}" font-family="monospace" font-size="13">'
        f'log10 {y_field} vs log10 {x_field}; slope {fit.slope:.4f}, R^2 {fit.r_squared:.4f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def read_records(path) -> list[dict]:
    """Read sweep records back from a CSV or JSON file."""
    text = _read_text(path)
    if text.lstrip().startswith("["):
        records = _load_json(path, text)
        _require(all(isinstance(rec, dict) for rec in records), f"{path}: every record must be a JSON object")
        return records
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"{path}: expected the sweep CSV header")
    out = []
    cols = list(_COLUMNS)
    for ln in lines[1:]:
        vals = ln.split(",")
        if len(vals) != len(cols):
            raise ParseError(f"{path}: row with {len(vals)} fields, expected {len(cols)}")
        rec = {}
        for key, raw in zip(cols, vals):
            if raw == "":
                rec[key] = None
            elif raw in ("pass", "fail"):
                rec[key] = raw == "pass"
            else:
                try:
                    rec[key] = int(raw)
                except ValueError:
                    try:
                        rec[key] = float(raw)
                    except ValueError:
                        rec[key] = raw
        out.append(rec)
    return out
