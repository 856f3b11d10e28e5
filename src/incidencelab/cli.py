"""Command-line interface.

Subcommands: count, count3d, construct, extract, cover, energy, sumprod,
distances, beck, sweep, fit.  Exit codes: 0 success, 1 usage error, 2 data
error; on stderr a failing command prints zero or more warning lines and
then one error line.  Output is JSON; --format selects the other form of
three commands: count csv (the bare count), sweep csv (the default) and fit
svg.  --output writes to a file, otherwise stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

# constructions, cover, distances and energy run on first use (see __init__)
from . import constructions, cover, distances, energy, harness
from .errors import Error
from .harness import line_to_json, point_to_json
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


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_out(obj, output) -> None:
    _emit(json.dumps(obj, sort_keys=True), output)


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
                    help="csv prints the bare count when there is no --output")

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
    inst = harness.read_instance(args.input)
    count = count_incidences(inst, args.engine)
    if args.output or args.format == "json":
        _json_out({"p": inst.p, "m": inst.m, "n": inst.n, "incidences": count,
                   "engine": args.engine}, args.output)
    else:
        print(count)
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
            raise SystemExit(_usage_error("construct elekes needs --a and --c, both at least 1"))
        inst = constructions.elekes_construction(args.a, args.c, args.p)
    elif args.family == "full_plane":
        inst = constructions.full_plane(args.p)
    else:
        if args.m is None or args.n is None:
            raise SystemExit(_usage_error("construct random needs --m and --n"))
        inst = constructions.random_instance(args.p, args.m, args.n, args.seed)
    if args.output:
        harness.write_instance(inst, args.output)
    else:
        _json_out(harness.instance_to_dict(inst), None)
    return 0


def _usage_error(message: str) -> int:
    print(f"incidencelab: error: {message}", file=sys.stderr)
    return 1


def _grid_obj(grid):
    return {
        "apex1": point_to_json(grid.apex1),
        "apex2": point_to_json(grid.apex2),
        "points": [point_to_json(q) for q in grid.points],
        "pencil1": [line_to_json(l) for l in grid.pencil1],
        "pencil2": [line_to_json(l) for l in grid.pencil2],
        "candidates": len(grid.candidates),
        "rich_lines": len(grid.rich_lines),
        "rich_lines2": len(grid.rich_lines2),
        "mean_richness": str(grid.mean_richness),
    }


def _cmd_extract(args) -> int:
    inst = harness.read_instance(args.input)
    grid = cover.two_pencil_extract(inst.points, inst.lines)
    _json_out(_grid_obj(grid), args.output)
    return 0


def _cmd_cover(args) -> int:
    if not 0 < args.c1 < args.c2:
        raise SystemExit(_usage_error("cover needs 0 < --c1 < --c2"))
    inst = harness.read_instance(args.input)
    cert = cover.grid_cover(inst, args.c1, args.c2, args.stop)
    report = cover.verify_certificate(inst, cert)
    obj = {
        "params": {"c1": str(cert.c1), "c2": str(cert.c2), "stop": str(cert.stop_fraction),
                   "mean_richness": str(cert.mean_richness)},
        "partition": {"low": len(cert.partition.low), "high": len(cert.partition.high),
                      "regular": len(cert.partition.regular)},
        "steps": [dict(_grid_obj(st.grid), input_size=st.input_size,
                       preconditions={name: ok for name, ok in st.preconditions})
                  for st in cert.steps],
        "leftover": [point_to_json(q) for q in cert.leftover],
        "verification": {"passed": report.passed,
                         "violations": [{"code": v.code, "message": v.message}
                                        for v in report.violations]},
    }
    if args.normalize:
        obj["normalized"] = []
        for st in cert.steps:
            norm = cover.normalize_grid(st.grid, inst.lines)
            obj["normalized"].append({
                "xs": list(norm.xs), "ys": list(norm.ys),
                "points": [point_to_json(q) for q in norm.points],
            })
    _json_out(obj, args.output)
    return 0


def _cmd_energy(args) -> int:
    p, A, lines, B = harness.read_energy_input(args.input)
    e = energy.line_energy(A, lines, p)
    red = energy.energy_reduction(A, lines, p)
    obj = {
        "p": p, "a": len(set(v % p for v in A)), "n": len(set(lines)),
        "energy": e.value,
        "reduction": {"r": red.r, "s": red.s,
                      "point_plane": count_point_plane(red),
                      "max_collinear": red.k},
    }
    if B is not None:
        bridge = energy.cs_bridge_check(A, B, lines, p)
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
    rep = distances.distance_sets(inst.points)
    iso = distances.isotropic_lines(inst.points[0]) if inst.points else None
    _json_out({
        "p": inst.p, "m": inst.m,
        "distance_set": sorted(rep.distances),
        "pin": point_to_json(rep.pin), "max_pinned": rep.max_pinned,
        "degenerate": rep.degenerate,
        "isosceles_triples": rep.isosceles_triples,
        "has_isotropic_lines": iso is not None,
    }, args.output)
    return 0


def _cmd_beck(args) -> int:
    inst = harness.read_instance(args.input)
    rep = distances.determined_lines(inst.points)
    _json_out({
        "p": inst.p, "m": rep.m,
        "determined_lines": rep.keys.size,
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


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except Error as exc:
        print(f"incidencelab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"incidencelab: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
