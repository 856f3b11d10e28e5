import json
import math

import pytest

from incidencelab.bounds import within_combinatorial_bound
from incidencelab.constructions import full_plane, random_instance
from incidencelab.errors import (
    ConfigError,
    InsufficientDataError,
    NonPositiveValueError,
    ParseError,
)
from incidencelab.files import (
    DuplicateEntryWarning,
    instance_to_dict,
    read_instance,
    read_instance3d,
    write_instance,
)
from incidencelab.harness import (
    CSV_HEADER,
    SweepConfig,
    fit_exponent,
    fit_scatter_svg,
    read_records,
    records_to_csv,
    records_to_json,
    run_sweep,
)


def test_instance_roundtrip(tmp_path):
    inst = full_plane(3)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    assert read_instance(path) == inst


def test_roundtrip_byte_identical(tmp_path):
    inst = random_instance(13, 30, 40, seed=7)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_instance(inst, p1)
    write_instance(read_instance(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_duplicate_entries_warn(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "p": 7,
        "points": [[1, 2], [1, 2], [3, 4]],
        "lines": [{"kind": "sl", "s": 1, "t": 0}],
    }))
    with pytest.warns(DuplicateEntryWarning) as record:
        inst = read_instance(path)
    assert inst.m == 2
    assert record[0].message.duplicate_points == 1
    assert record[0].message.duplicate_lines == 0


def test_composite_p_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 9, "points": [], "lines": []}))
    with pytest.raises(ParseError, match="not prime"):
        read_instance(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"p": 7, "points": [[1, 2]')
    with pytest.raises(ParseError, match="line 1"):
        read_instance(path)


def test_noncanonical_residue_rejected(tmp_path):
    path = tmp_path / "res.json"
    path.write_text(json.dumps({"p": 7, "points": [[7, 0]], "lines": []}))
    with pytest.raises(ParseError, match="points\\[0\\]"):
        read_instance(path)


def test_unknown_line_kind(tmp_path):
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({"p": 7, "points": [], "lines": [{"kind": "zz"}]}))
    with pytest.raises(ParseError, match="kind"):
        read_instance(path)


def test_read_instance3d(tmp_path):
    path = tmp_path / "i3.json"
    path.write_text(json.dumps({
        "p": 5, "points": [[0, 0, 0], [1, 1, 1]], "planes": [[0, 0, 1, 0]],
    }))
    inst3 = read_instance3d(path)
    assert inst3.r == 2 and inst3.s == 1


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_elekes_family():
    config = SweepConfig.from_dict({
        "families": [{"family": "elekes", "a": [2, 3], "c": [1, 2], "p": [101]}],
    })
    records = run_sweep(config)
    assert len(records) == 4
    for rec in records:
        assert rec.get("error") is None
        assert rec["I"] == rec["a"]**2 * (rec["b"] // (2 * rec["a"])) ** 2  # a^2 c^2
        assert rec["E"] is not None and rec["k"] is not None
        assert rec["hyp_1_3"] is not None


def test_sweep_full_plane_family():
    config = SweepConfig.from_dict({"families": [{"family": "full_plane", "p": [3, 5, 7]}]})
    records = run_sweep(config)
    assert [r["I"] for r in records] == [36, 150, 392]


def test_sweep_deterministic_bytes():
    config = {"seed": 5, "families": [
        {"family": "random", "p": [13], "m": [10, 20], "n": [15]},
        {"family": "full_plane", "p": [5]},
    ]}
    csv1 = records_to_csv(run_sweep(SweepConfig.from_dict(config)))
    csv2 = records_to_csv(run_sweep(SweepConfig.from_dict(config)))
    assert csv1 == csv2
    assert csv1.splitlines()[0] == CSV_HEADER


def test_sweep_records_reverify_with_naive_engine():
    config = SweepConfig.from_dict({
        "seed": 11,
        "families": [{"family": "random", "p": [31], "sizes": [16, 32]}],
    })
    records = run_sweep(config)
    naive = run_sweep(SweepConfig.from_dict({
        "seed": 11, "engine": "naive",
        "families": [{"family": "random", "p": [31], "sizes": [16, 32]}],
    }))
    assert [r["I"] for r in records] == [r["I"] for r in naive]


def test_sweep_partial_failure_recorded():
    config = SweepConfig.from_dict({
        "families": [
            {"family": "elekes", "a": [2], "c": [2], "p": [7]},   # 2ac >= p
            {"family": "full_plane", "p": [5]},
        ],
    })
    records = run_sweep(config)
    assert len(records) == 2
    assert records[0].get("error") is not None and "CharacteristicTooSmall" in records[0]["error"]
    assert records[1]["I"] == 150


def test_sweep_ratios_finite_and_bounded():
    config = SweepConfig.from_dict({
        "seed": 3,
        "families": [{"family": "random", "p": [65537], "sizes": [64, 128]}],
    })
    for rec in run_sweep(config):
        assert rec.get("error") is None
        assert math.isfinite(rec["ratio_main"])
        assert within_combinatorial_bound(rec["I"], rec["m"], rec["n"])


def test_bad_configs_raise():
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"families": [{"family": "nope"}]})
    # the elekes energy flag is a JSON boolean: "no" is not false
    for flag in ("no", 0, None, [], 1.0):
        with pytest.raises(ConfigError, match="'energy' must be true or false"):
            SweepConfig.from_dict({"families": [{"family": "elekes", "p": [31], "a": [2],
                                                 "c": [1], "energy": flag}]})
    for flag in (True, False):
        SweepConfig.from_dict({"families": [{"family": "elekes", "p": [31], "a": [2],
                                             "c": [1], "energy": flag}]})


def test_csv_and_json_shapes():
    config = SweepConfig.from_dict({"families": [{"family": "full_plane", "p": [3]}]})
    records = run_sweep(config)
    csv_text = records_to_csv(records)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("full_plane,3,9,12,,,36,")
    data = json.loads(records_to_json(records))
    assert data[0]["I"] == 36 and data[0]["a"] is None


def test_read_records_roundtrip(tmp_path):
    config = SweepConfig.from_dict({"families": [{"family": "full_plane", "p": [3, 5]}]})
    records = run_sweep(config)
    path = tmp_path / "sweep.csv"
    path.write_text(records_to_csv(records))
    back = read_records(path)
    assert [r["I"] for r in back] == [36, 150]
    jpath = tmp_path / "sweep.json"
    jpath.write_text(records_to_json(records))
    back = read_records(jpath)
    assert [r["I"] for r in back] == [36, 150]


def test_sweep_records_are_what_read_records_gives_back(tmp_path):
    # run_sweep, read_records and fit_exponent share one record form: a dict
    # keyed by the CSV columns, plus "error" on a failed cell
    config = SweepConfig.from_dict({"seed": 2, "families": [
        {"family": "elekes", "a": [2], "c": [1], "p": [31]},
        {"family": "elekes", "a": [2], "c": [2], "p": [7]},  # 2ac >= p
        {"family": "random", "p": [9], "sizes": [5]},  # composite p
        {"family": "full_plane", "p": [5, 7]},
    ]})
    records = run_sweep(config)
    assert [sorted(set(rec) - {"error"}) for rec in records] == [sorted(CSV_HEADER.split(","))] * 5
    assert [i for i, rec in enumerate(records) if "error" in rec] == [1, 2]
    path = tmp_path / "sweep.json"
    path.write_text(records_to_json(records))
    assert read_records(path) == records
    assert fit_exponent(read_records(path), "m", "I") == fit_exponent(records, "m", "I")


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    records = [{"x": x, "y": x * x} for x in (2, 4, 8, 16)]
    fit = fit_exponent(records, "x", "y")
    assert abs(fit.slope - 2.0) <= 1e-12
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_recovers_noninteger_exponent():
    records = [{"x": x, "y": x ** 1.5} for x in (3, 9, 27, 81)]
    fit = fit_exponent(records, "x", "y")
    assert abs(fit.slope - 1.5) <= 1e-9


def test_fit_full_plane_slope_small_family_exact():
    # closed-form oracle: regression of log(p^2 (p+1)) on log(p^2); the
    # lower-order factor (p+1) drags the slope visibly below 3/2 at these sizes
    config = SweepConfig.from_dict({"families": [{"family": "full_plane", "p": [11, 13, 17, 19, 23]}]})
    records = run_sweep(config)
    fit = fit_exponent(records, "m", "I")
    assert fit.slope == pytest.approx(1.4697463521830811, abs=1e-12)


def test_fit_full_plane_slope_recovers_three_halves():
    config = SweepConfig.from_dict({"families": [{"family": "full_plane", "p": [29, 31, 37, 41, 43]}]})
    records = run_sweep(config)
    fit = fit_exponent(records, "m", "I")
    assert 1.48 <= fit.slope <= 1.52


def test_fit_constant_y_slope_zero():
    records = [{"x": x, "y": 5} for x in (1, 2, 3)]
    fit = fit_exponent(records, "x", "y")
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_fit_errors():
    with pytest.raises(InsufficientDataError):
        fit_exponent([{"x": 1, "y": 1}], "x", "y")
    with pytest.raises(NonPositiveValueError):
        fit_exponent([{"x": 1, "y": 0}, {"x": 2, "y": 3}], "x", "y")
    for x, y in ((1, math.inf), (math.inf, 1), (1, math.nan)):
        with pytest.raises(NonPositiveValueError, match="positive finite numbers"):
            fit_exponent([{"x": x, "y": y}, {"x": 2, "y": 3}, {"x": 4, "y": 5}], "x", "y")
    with pytest.raises(InsufficientDataError):
        fit_exponent([{"x": 2, "y": 1}, {"x": 2, "y": 3}], "x", "y")


def test_fit_svg_output():
    records = [{"x": x, "y": x * x} for x in (2, 4, 8)]
    fit = fit_exponent(records, "x", "y")
    svg = fit_scatter_svg(records, "x", "y", fit)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 3


def test_instance_to_dict_schema():
    inst = full_plane(3)
    data = instance_to_dict(inst)
    assert data["p"] == 3
    assert [1, 2] in data["points"]
    kinds = {entry["kind"] for entry in data["lines"]}
    assert kinds == {"sl", "v"}
