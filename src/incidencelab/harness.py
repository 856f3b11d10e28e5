"""Experiment orchestration: parameter sweeps over the instance families,
log-log exponent fitting, and report serialization.  Instance files are
read and written by :mod:`files`.

A sweep record is a dict keyed by the column names of _COLUMNS, plus
"error" on a failed cell: run_sweep returns it, records_to_json writes it as
it is, and read_records reads it back from either file.  The sweep CSV has
the fixed header CSV_HEADER, one column per name in that order; absent
fields are empty.  The readers raise ParseError on a malformed file and
ConfigError on a bad sweep config, so the CLI exits 2 with one error line.

The module runs on first use (see __init__): of the commands, only sweep
and fit reach it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Iterable

# constructions and energy run on first use (see __init__)
from . import constructions, energy
from .bounds import check_hypotheses, reference_bound
from .errors import ConfigError, Error, InsufficientDataError, NonPositiveValueError, ParseError
# read_instance, write_instance and instance_to_dict stay reachable here,
# where callers have long found them: perfbench's tracer wraps
# harness.read_instance, which is files.read_instance
from .files import _is_int, _load_json, _read_text, _require, instance_to_dict, read_instance, write_instance
from .incidence import ENGINES, count_incidences

# the keys of a sweep record, in CSV column order
_COLUMNS = ("family", "p", "m", "n", "a", "b", "I", "E", "k", "hyp_1_2", "hyp_1_3", "hyp_1_4",
            "bound_table1", "bound_comb", "bound_vinh", "ratio_main")
CSV_HEADER = ",".join(_COLUMNS)

# an energy reduction has (a*n)^2 point-plane pairs; skip it beyond this size
ENERGY_REDUCTION_CAP = 5000


def _is_number(v) -> bool:
    return isinstance(v, float) or _is_int(v)


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
        if not (_is_number(xv) and _is_number(yv) and 0 < xv < math.inf and 0 < yv < math.inf):
            raise NonPositiveValueError(
                f"log-log fit needs positive finite numbers, got {x_field}={xv!r}, {y_field}={yv!r}")
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
