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
are not integers anywhere in these files.  write_instance emits the canonical
compact form in one encode, and read_instance scans that form straight into
the key columns: one anchored regex, whose spans give the number of sloped
lines, vertical lines and points, then every integer of the file, in file
order, parsed into one int64 column in chunks of about 64 KiB, where the keys
are computed.  The file's bytes are dropped before the Instance is built, and
the keys, which ascend in such a file, are not sorted again.  Any other file,
or one whose p or values fail their check, goes through json.loads and the
per-entry check, which names the first bad entry; read_energy_input always
does.

A sweep record is a dict keyed by the column names of _COLUMNS, plus
"error" on a failed cell: run_sweep returns it, records_to_json writes it as
it is, and read_records reads it back from either file.  The sweep CSV has
the fixed header CSV_HEADER, one column per name in that order; absent
fields are empty.
"""

from __future__ import annotations

import json
import math
import re
import sys
import warnings
from dataclasses import dataclass
from itertools import product
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

# the keys of a sweep record, in CSV column order
_COLUMNS = ("family", "p", "m", "n", "a", "b", "I", "E", "k", "hyp_1_2", "hyp_1_3", "hyp_1_4",
            "bound_table1", "bound_comb", "bound_vinh", "ratio_main")
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
# Input files.  An instance file may hold 10^5 entries: read_instance scans
# write_instance's compact form without building a JSON object tree, and
# only any other file goes through json.loads and the per-entry check
# ---------------------------------------------------------------------------

def _read_text(path, raw: bytes | None = None) -> str:
    """The UTF-8 text of a file (or of its already read bytes)."""
    if raw is None:
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


def _line_keys(entries: list, p: int) -> np.ndarray:
    """The keys of the lines entries; the per-entry check names the first
    malformed one."""
    return np.array([_line_key(entry, p, i) for i, entry in enumerate(entries)], dtype=np.int64)


# write_instance's compact form with an optional final newline: sloped lines
# before vertical ones, keys sorted, integers of at most 10 digits (so none
# overflows int64) without sign or leading zero.  The repeats are
# possessive, so a match keeps no backtracking state.
_INT = rb"(?:[1-9][0-9]{0,9}+|0)"
_SLOPED = rb'\{"kind":"sl","s":%s,"t":%s\}' % (_INT, _INT)
_VERTICAL = rb'\{"kind":"v","x":%s\}' % _INT
_POINT = rb"\[%s,%s\]" % (_INT, _INT)
_COMPACT = re.compile(
    rb'\{"lines":\[((?:%(s)s(?:,%(s)s)*+(?:,%(v)s)*+|%(v)s(?:,%(v)s)*+)?+)\],'
    rb'"p":(%(int)s),"points":\[((?:%(pt)s(?:,%(pt)s)*+)?+)\]\}\n?+'
    % {b"s": _SLOPED, b"v": _VERTICAL, b"int": _INT, b"pt": _POINT})
# every byte but a digit becomes a space
_DIGITS = bytes(b if 0x30 <= b <= 0x39 else 0x20 for b in range(256))
# bytes parsed at a time: a chunk and its translated copy are all of the
# file's text that the scan adds to the file's own bytes
_CHUNK = 1 << 16


def _parse_integers(raw: bytes, count: int) -> np.ndarray | None:
    """The count integers of raw, in file order, as one int64 column, or
    None if raw holds another number of them.  raw is parsed in chunks of
    about _CHUNK bytes, each cut at a byte that is not a digit."""
    column = np.empty(count, dtype=np.int64)
    filled = lo = 0
    while lo < len(raw):
        hi = lo + _CHUNK
        while hi < len(raw) and 0x30 <= raw[hi] <= 0x39:
            hi += 1
        text = raw[lo:hi].translate(_DIGITS)
        lo = hi
        if text.isspace():
            continue  # np.fromstring reads blank text as one 0
        values = np.fromstring(text, dtype=np.int64, sep=" ")
        if filled + values.size > count:
            return None
        column[filled:filled + values.size] = values
        filled += values.size
    return column if filled == count else None


def _scan_instance(raw: bytes) -> tuple[PrimeModulus, np.ndarray, np.ndarray] | None:
    """(modulus, point keys, line keys) of a file in the compact form with a
    prime p and every value below p, else None.  The file's integers are
    parsed into one column, and the keys are computed in it."""
    match = _COMPACT.fullmatch(raw)
    if match is None:
        return None
    try:
        modulus = make_modulus(int(match[2]))
    except (CompositeModulusError, OutOfRangeError):
        return None
    p = modulus.p
    # the file's integers: s and t of each sloped line, x of each vertical
    # one, p, then x and y of each point
    sloped = raw.count(b'"sl"', *match.span(1))
    at_p = 2 * sloped + raw.count(b'"v"', *match.span(1))
    column = _parse_integers(raw, at_p + 1 + 2 * raw.count(b"[", *match.span(3)))
    if column is None or column[at_p] != p:
        return None
    st, vertical, xy = column[:2 * sloped], column[2 * sloped:at_p], column[at_p + 1:]
    if max(st.max(initial=0), vertical.max(initial=0), xy.max(initial=0)) >= p:
        return None
    for pairs in (st, xy):
        pairs[0::2] *= p
        pairs[0::2] += pairs[1::2]
    vertical += p * p
    return modulus, xy[0::2], np.concatenate((st[0::2], vertical))


def instance_to_dict(inst: Instance) -> dict:
    s, t, vertical = (c.tolist() for c in inst.line_columns)
    lines = [{"kind": "sl", "s": a, "t": b} for a, b in zip(s, t)] + [{"kind": "v", "x": x0} for x0 in vertical]
    return {"p": inst.p, "points": np.column_stack(inst.xy).tolist(), "lines": lines}


def read_instance(path) -> Instance:
    """Read an instance file, deduplicating with a warning on duplicates."""
    with open(path, "rb") as fh:
        raw = fh.read()
    scanned = _scan_instance(raw)
    if scanned is None:
        data = _load_json(path, _read_text(path, raw))
        modulus = _modulus(data, "points", "lines")
        p = modulus.p
        points = np.array([_point_key(entry, p, i) for i, entry in enumerate(data["points"])], dtype=np.int64)
        scanned = modulus, points, _line_keys(data["lines"], p)
    del raw  # the key columns hold all of the file that the instance needs
    modulus, point_keys, line_keys = scanned
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


def read_energy_input(path) -> tuple[tuple[int, ...], Instance, tuple[int, ...] | None]:
    """Read an energy input file: (A, the lines as an Instance without
    points, B), with B None when absent."""
    data = _load_json(path)
    modulus = _modulus(data, "A", "lines")
    A = _ints(data["A"], None, "A")
    _require(A and data["lines"], "fields 'A' and 'lines' must be nonempty")
    lines = Instance(modulus, point_keys=(), line_keys=_line_keys(data["lines"], modulus.p))
    B = data.get("B")
    return A, lines, None if B is None else _ints(B, None, "B")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

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


def _run_cell(cell: dict, index: int, config: SweepConfig) -> dict:
    fam = cell["family"]
    p = cell["p"]
    c = config.ll_constant
    rec = {**dict.fromkeys(_COLUMNS), "family": fam, "p": p}
    try:
        if fam == "elekes":
            a, cc = cell["a"], cell["c"]
            inst = constructions.elekes_construction(a, cc, p)
            rec["a"], rec["b"] = a, 2 * a * cc
            if cell.get("energy", True):
                A = list(range(1, a + 1))
                rec["E"] = energy.line_energy(A, inst).value
                if a * inst.n <= ENERGY_REDUCTION_CAP:
                    red = energy.energy_reduction(A, inst)
                    rec["k"] = red.k
                    rec["hyp_1_4"] = check_hypotheses("1.4", r=red.r, s=red.s, p=p, c=c).passed
            rec["hyp_1_3"] = check_hypotheses("1.3", a=a, b=rec["b"], n=inst.n, p=p, c=c).passed
        elif fam == "full_plane":
            inst = constructions.full_plane(p)
        elif fam == "random":
            inst = constructions.random_instance(p, cell["m"], cell["n"],
                                                constructions.derive_seed(config.seed, index))
        else:  # pragma: no cover - guarded by expand_cells
            raise ConfigError(f"unknown family {fam!r}")
        m, n = rec["m"], rec["n"] = inst.m, inst.n
        rec["I"] = count_incidences(inst, config.engine)
        rec["hyp_1_2"] = check_hypotheses("1.2", m=m, n=n, p=p, c=c).passed
        rec["bound_table1"] = reference_bound(m, n, p, "table1")[1]
        rec["bound_comb"] = reference_bound(m, n, p, "combinatorial")[1]
        rec["bound_vinh"] = reference_bound(m, n, p, "vinh")[1]
        rec["ratio_main"] = rec["I"] / (m ** (11 / 15) * n ** (11 / 15))
    except Error as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def run_sweep(config: SweepConfig) -> list[dict]:
    """Run every cell of the sweep in config order; deterministic for a
    fixed config.  Each record is a dict keyed by the sweep columns.

    Per-cell failures are recorded in the cell's record and never abort the
    sweep.
    """
    return [_run_cell(cell, i, config) for i, cell in enumerate(expand_cells(config))]


def _csv_field(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "pass" if v else "fail"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def records_to_csv(records: Iterable[dict]) -> str:
    rows = (",".join(_csv_field(rec.get(name)) for name in _COLUMNS) for rec in records)
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def records_to_json(records: Iterable[dict]) -> str:
    return json.dumps(list(records), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    samples: int


def fit_exponent(records, x_field: str, y_field: str) -> FitResult:
    """Least-squares line through (log x, log y) over the given records.

    Closed-form mean-centered least squares, so exactly constant y gives
    slope exactly 0.0.  Records are dicts, such as the sweep records keyed
    by the CSV column names; a record missing either field, or holding None
    there, is skipped.
    """
    xs, ys = [], []
    for rec in records:
        xv = rec.get(x_field)
        yv = rec.get(y_field)
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
        xv = rec.get(x_field)
        yv = rec.get(y_field)
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
    for ln in lines[1:]:
        vals = ln.split(",")
        if len(vals) != len(_COLUMNS):
            raise ParseError(f"{path}: row with {len(vals)} fields, expected {len(_COLUMNS)}")
        rec = {}
        for key, raw in zip(_COLUMNS, vals):
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
