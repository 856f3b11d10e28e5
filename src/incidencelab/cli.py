"""Command-line interface.

Subcommands: count, count3d, construct, extract, cover, energy, sumprod,
distances, beck, sweep, fit.  Exit codes: 0 success, 1 usage error, 2 data
error or MemoryError; on stderr a failing command prints zero or more
warning lines and then one error line.  Output is JSON; --format selects the
other form of three commands: count csv (the bare count), sweep csv (the
default) and fit svg.  --output writes the chosen form to a file, otherwise
to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from typing import Iterable

# constructions, cover, distances and energy run on first use (see __init__)
from . import constructions, cover, distances, energy, harness
from .errors import Error
from .field import minus_one_is_square
from .harness import _line_json, _point_json
from .incidence import ENGINES, count_incidences, count_point_plane


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_set(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _emit(text: str | Iterable[str], output: str | None) -> None:
    """Write text, or each string of an iterable in turn, to the file
    output, or else to stdout, where the last string ends the line."""
    parts = [text] if isinstance(text, str) else text
    with open(output, "w") if output else nullcontext(sys.stdout) as fh:
        for part in parts:
            fh.write(part)
        if not output and not part.endswith("\n"):
            fh.write("\n")


def _json_out(obj, output) -> None:
    _emit(json.dumps(obj, sort_keys=True), output)


# values of an int64 column per string of _json_column
_COLUMN_BLOCK = 1 << 16


def _json_column(obj: dict, key: str, column):
    """The strings of json.dumps(obj with obj[key] = column.tolist(),
    sort_keys=True), with the column's values written a block at a time, so
    that no list of Python ints for the whole column is built."""
    head, tail = json.dumps({**obj, key: []}, sort_keys=True).split(json.dumps(key) + ": []")
    yield head + json.dumps(key) + ": ["
    for lo in range(0, column.size, _COLUMN_BLOCK):
        yield (", " if lo else "") + json.dumps(column[lo:lo + _COLUMN_BLOCK].tolist())[1:-1]
    yield "]" + tail


def build_parser() -> _Parser:
    parser = _Parser(prog="incidencelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", required=True, help="input file")
        sp.add_argument("--output", help="output file (default stdout)")

    sp = sub.add_parser("count", help="count point-line incidences of an instance file")
    common(sp)
    sp.add_argument("--engine", choices=ENGINES, default="auto")
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="csv writes the bare count")
    sp.add_argument("--stats", action="store_true",
                    help="add a stats object: the engine and side that ran, probes per path, phase times")

    sp = sub.add_parser("count3d", help="count point-plane incidences of a 3D instance file")
    common(sp)

    sp = sub.add_parser("construct", help="generate an instance file")
    sp.add_argument("family", choices=("elekes", "full_plane", "random"))
    sp.add_argument("--a", type=int)
    sp.add_argument("--c", type=int)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", help="output file (default stdout)")

    sp = sub.add_parser("extract", help="run one two-pencil grid extraction")
    common(sp)

    sp = sub.add_parser("cover", help="run the grid covering loop and verify its certificate")
    common(sp)
    sp.add_argument("--c1", type=_fraction, default=Fraction(1, 2))
    sp.add_argument("--c2", type=_fraction, default=Fraction(2))
    sp.add_argument("--stop", type=_fraction, default=Fraction(1, 4))
    sp.add_argument("--normalize", action="store_true", help="include normalized grids")

    sp = sub.add_parser("energy", help="energy of (A, L) with its 3D reduction cross-check")
    common(sp)

    sp = sub.add_parser("sumprod", help="sum-product style image-set report")
    sp.add_argument("--corollary", choices=("5.1", "5.2", "5.3", "expander"), required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", type=_int_set)
    sp.add_argument("--B", type=_int_set)
    sp.add_argument("--C", type=_int_set)
    sp.add_argument("--llconstant", type=_fraction, default=Fraction(1))
    sp.add_argument("--output")

    sp = sub.add_parser("distances", help="distance-set report for the points of an instance file")
    common(sp)

    sp = sub.add_parser("beck", help="determined-lines report for the points of an instance file")
    common(sp)

    sp = sub.add_parser("sweep", help="run a sweep configuration")
    sp.add_argument("--config", required=True)
    sp.add_argument("--output")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")

    sp = sub.add_parser("fit", help="fit a log-log exponent over sweep records")
    common(sp)
    sp.add_argument("--format", choices=("json", "svg"), default="json",
                    help="svg draws the fit")
    sp.add_argument("--x-field", default="m")
    sp.add_argument("--y-field", default="I")
    return parser


def _cmd_count(args) -> int:
    if args.stats and args.format == "csv":
        return _usage_error("count --stats needs --format json")
    inst = harness.read_instance(args.input)
    if args.format == "csv":
        _emit(f"{count_incidences(inst, args.engine)}\n", args.output)
        return 0
    obj = {"p": inst.p, "m": inst.m, "n": inst.n, "engine": args.engine}
    if args.stats:
        obj["incidences"], stats = count_incidences(inst, args.engine, stats=True)
        obj["stats"] = stats.to_json()
    else:
        obj["incidences"] = count_incidences(inst, args.engine)
    _json_out(obj, args.output)
    return 0


def _cmd_count3d(args) -> int:
    inst3 = harness.read_instance3d(args.input)
    count = count_point_plane(inst3)
    _json_out({"p": inst3.p, "r": inst3.r, "s": inst3.s, "k": inst3.k,
               "incidences": count}, args.output)
    return 0


def _cmd_construct(args) -> int:
    if args.family == "elekes":
        if args.a is None or args.c is None or args.a < 1 or args.c < 1:
            return _usage_error("construct elekes needs --a and --c, both at least 1")
        inst = constructions.elekes_construction(args.a, args.c, args.p)
    elif args.family == "full_plane":
        inst = constructions.full_plane(args.p)
    else:
        if args.m is None or args.n is None:
            return _usage_error("construct random needs --m and --n")
        inst = constructions.random_instance(args.p, args.m, args.n, args.seed)
    if args.output:
        harness.write_instance(inst, args.output)
    else:
        _json_out(harness.instance_to_dict(inst), None)
    return 0


def _usage_error(message: str) -> int:
    print(f"incidencelab: error: {message}", file=sys.stderr)
    return 1


def _grid_obj(grid, p: int):
    return {
        "apex1": _point_json(grid.apex1, p),
        "apex2": _point_json(grid.apex2, p),
        "points": [_point_json(key, p) for key in grid.points],
        "pencil1": [_line_json(key, p) for key in grid.pencil1],
        "pencil2": [_line_json(key, p) for key in grid.pencil2],
        "candidates": len(grid.candidates),
        "rich_lines": len(grid.rich_lines),
        "rich_lines2": len(grid.rich_lines2),
        "mean_richness": str(grid.mean_richness),
    }


def _cmd_extract(args) -> int:
    inst = harness.read_instance(args.input)
    grid = cover.two_pencil_extract(inst)
    _json_out(_grid_obj(grid, inst.p), args.output)
    return 0


def _cmd_cover(args) -> int:
    if not 0 < args.c1 < args.c2:
        return _usage_error("cover needs 0 < --c1 < --c2")
    inst = harness.read_instance(args.input)
    cert = cover.grid_cover(inst, args.c1, args.c2, args.stop)
    report = cover.verify_certificate(inst, cert)
    obj = {
        "params": {"c1": str(cert.c1), "c2": str(cert.c2), "stop": str(cert.stop_fraction),
                   "mean_richness": str(cert.mean_richness)},
        "partition": {"low": len(cert.partition.low), "high": len(cert.partition.high),
                      "regular": len(cert.partition.regular)},
        "steps": [dict(_grid_obj(st.grid, inst.p), input_size=st.input_size,
                       preconditions={name: ok for name, ok in st.preconditions})
                  for st in cert.steps],
        "leftover": [_point_json(key, inst.p) for key in cert.leftover],
        "verification": {"passed": report.passed,
                         "violations": [{"code": v.code, "message": v.message}
                                        for v in report.violations]},
    }
    if args.normalize:
        obj["normalized"] = []
        for st in cert.steps:
            norm = cover.normalize_grid(st.grid, inst)
            obj["normalized"].append({
                "xs": list(norm.xs), "ys": list(norm.ys),
                "points": [_point_json(key, inst.p) for key in norm.image.point_keys.tolist()],
            })
    _json_out(obj, args.output)
    return 0


def _cmd_energy(args) -> int:
    A, lines, B = harness.read_energy_input(args.input)
    p = lines.p
    e = energy.line_energy(A, lines)
    red = energy.energy_reduction(A, lines)
    obj = {
        "p": p, "a": len(set(v % p for v in A)), "n": lines.n,
        "energy": e.value,
        "reduction": {"r": red.r, "s": red.s,
                      "point_plane": count_point_plane(red),
                      "max_collinear": red.k},
    }
    if B is not None:
        bridge = energy.cs_bridge_check(A, B, lines)
        obj["cs_bridge"] = {"incidences": bridge.incidences, "energy": bridge.energy,
                            "bound": bridge.bound, "holds": bridge.holds}
    _json_out(obj, args.output)
    return 0


def _cmd_sumprod(args) -> int:
    rep = energy.sumproduct_report(args.corollary, args.p, A=args.A, B=args.B, C=args.C,
                            c=args.llconstant)
    _json_out({
        "corollary": rep.corollary, "sizes": rep.sizes, "images": rep.images,
        "m_min": rep.m_min, "m_max": rep.m_max, "main_term": rep.main_term,
        "ratio": rep.ratio, "extra_ratios": rep.extra_ratios,
        "condition": rep.condition_name, "condition_holds": rep.condition_holds,
        "ll_constant": str(rep.ll_constant),
    }, args.output)
    return 0


def _cmd_distances(args) -> int:
    inst = harness.read_instance(args.input)
    rep = distances.distance_sets(inst.point_keys, inst.p)
    _emit(_json_column({
        "p": inst.p, "m": inst.m,
        "pin": _point_json(rep.pin, inst.p), "max_pinned": rep.max_pinned,
        "degenerate": rep.degenerate,
        "isosceles_triples": rep.isosceles_triples,
        # a point set (distance_sets rejects an empty one) has isotropic
        # lines through each of its points exactly when -1 is a square
        "has_isotropic_lines": minus_one_is_square(inst.p),
    }, "distance_set", rep.distance_values), args.output)
    return 0


def _cmd_beck(args) -> int:
    inst = harness.read_instance(args.input)
    rep = distances.determined_lines(inst.point_keys, inst.p)
    _json_out({
        "p": inst.p, "m": rep.m,
        "determined_lines": rep.line_count,
        "classes": {str(j): size for j, size in rep.class_sizes.items()},
        "pairs_by_class": {str(j): c for j, c in rep.pairs_by_class.items()},
        "pair_total": rep.pair_total, "expected_pairs": rep.expected_pairs,
    }, args.output)
    return 0


def _cmd_sweep(args) -> int:
    records = harness.run_sweep(harness.read_sweep_config(args.config))
    text = harness.records_to_csv(records) if args.format == "csv" else harness.records_to_json(records)
    _emit(text, args.output)
    return 0


def _cmd_fit(args) -> int:
    records = harness.read_records(args.input)
    fit = harness.fit_exponent(records, args.x_field, args.y_field)
    if args.format == "svg":
        _emit(harness.fit_scatter_svg(records, args.x_field, args.y_field, fit), args.output)
    else:
        _json_out({"slope": fit.slope, "intercept": fit.intercept,
                   "r_squared": fit.r_squared, "samples": fit.samples}, args.output)
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "count3d": _cmd_count3d,
    "construct": _cmd_construct,
    "extract": _cmd_extract,
    "cover": _cmd_cover,
    "energy": _cmd_energy,
    "sumprod": _cmd_sumprod,
    "distances": _cmd_distances,
    "beck": _cmd_beck,
    "sweep": _cmd_sweep,
    "fit": _cmd_fit,
}


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"incidencelab: warning: {message}", file=sys.stderr)


@cache
def _parser() -> _Parser:
    # one parser per process: building it costs milliseconds, and it holds no
    # state between parses
    return build_parser()


def cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    with warnings.catch_warnings():
        # one stderr line per warning, every time, with no source location
        warnings.simplefilter("always", harness.DuplicateEntryWarning)
        warnings.showwarning = _show_warning
        return _run(args)


def _run(args) -> int:
    try:
        return _COMMANDS[args.command](args)
    except (Error, MemoryError) as exc:
        print(f"incidencelab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"incidencelab: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
