import json
import subprocess
import sys

import pytest

from conftest import assert_error_stderr, package_env
from incidencelab.cli import cli


def run(capsys, *argv):
    rc = cli(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_unknown_subcommand(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 1
    assert "invalid choice" in err


def test_construct_and_count(tmp_path, capsys):
    path = tmp_path / "inst.json"
    rc, _, _ = run(capsys, "construct", "elekes", "--a", "2", "--c", "1", "--p", "7",
                   "--output", str(path))
    assert rc == 0
    data = json.loads(path.read_text())
    assert len(data["points"]) == 8 and len(data["lines"]) == 2
    rc, out, _ = run(capsys, "count", "--input", str(path))
    assert rc == 0
    assert json.loads(out)["incidences"] == 4


def test_count_engines_and_output_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "construct", "full_plane", "--p", "5", "--output", str(path))
    out_path = tmp_path / "count.json"
    rc, _, _ = run(capsys, "count", "--input", str(path), "--engine", "naive",
                   "--output", str(out_path))
    assert rc == 0
    assert json.loads(out_path.read_text())["incidences"] == 150


def test_count_missing_file_is_data_error(tmp_path, capsys):
    rc, _, err = run(capsys, "count", "--input", str(tmp_path / "nope.json"))
    assert rc == 2


def test_count_composite_p_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 9, "points": [], "lines": []}))
    rc, _, err = run(capsys, "count", "--input", str(path))
    assert rc == 2
    assert "ParseError" in err


def test_construct_random_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "construct", "random", "--p", "13", "--m", "5", "--n", "6",
        "--seed", "9", "--output", str(p1))
    run(capsys, "construct", "random", "--p", "13", "--m", "5", "--n", "6",
        "--seed", "9", "--output", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_construct_usage_error(capsys):
    rc, _, _ = run(capsys, "construct", "elekes", "--p", "7")
    assert rc == 1


def test_extract_and_cover(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "construct", "full_plane", "--p", "5", "--output", str(path))
    rc, out, _ = run(capsys, "extract", "--input", str(path))
    assert rc == 0
    data = json.loads(out)
    assert data["apex1"] == [0, 0] and data["apex2"] == [0, 1]
    assert len(data["points"]) == 20
    rc, out, _ = run(capsys, "cover", "--input", str(path), "--c1", "1/2", "--c2", "2",
                     "--stop", "1/4", "--normalize")
    assert rc == 0
    data = json.loads(out)
    assert data["verification"]["passed"] is True
    assert len(data["leftover"]) == 5
    assert len(data["normalized"]) == len(data["steps"]) == 1


def test_energy_command(tmp_path, capsys):
    path = tmp_path / "energy.json"
    path.write_text(json.dumps({
        "p": 5, "A": [0, 1], "B": [0, 1],
        "lines": [{"kind": "sl", "s": 0, "t": 0}, {"kind": "sl", "s": 1, "t": 0}],
    }))
    rc, out, _ = run(capsys, "energy", "--input", str(path))
    assert rc == 0
    data = json.loads(out)
    assert data["energy"] == 10
    assert data["reduction"]["point_plane"] == 10
    assert data["cs_bridge"]["holds"] is True


def test_energy_vertical_line_is_data_error(tmp_path, capsys):
    path = tmp_path / "energy.json"
    path.write_text(json.dumps({
        "p": 5, "A": [0], "lines": [{"kind": "v", "x": 1}],
    }))
    rc, _, err = run(capsys, "energy", "--input", str(path))
    assert rc == 2


def test_count3d_command(tmp_path, capsys):
    path = tmp_path / "i3.json"
    path.write_text(json.dumps({
        "p": 3,
        "points": [[x, y, z] for x in range(3) for y in range(3) for z in range(3)],
        "planes": [[0, 0, 1, 0]],
    }))
    rc, out, _ = run(capsys, "count3d", "--input", str(path))
    assert rc == 0
    data = json.loads(out)
    assert data["incidences"] == 9 and data["r"] == 27


def test_sumprod_command(capsys):
    rc, out, _ = run(capsys, "sumprod", "--corollary", "5.1", "--p", "31", "--A", "1,2,4")
    assert rc == 0
    data = json.loads(out)
    assert data["images"] == {"A+A": 6, "A*A": 5}
    rc, _, err = run(capsys, "sumprod", "--corollary", "5.2", "--p", "7", "--A", "0")
    assert rc == 2


def test_distances_and_beck_commands(tmp_path, capsys):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({
        "p": 7,
        "points": [[x, y] for x in range(3) for y in range(3)],
        "lines": [],
    }))
    rc, out, _ = run(capsys, "distances", "--input", str(path))
    assert rc == 0
    assert json.loads(out)["degenerate"] is False
    rc, out, _ = run(capsys, "beck", "--input", str(path))
    assert rc == 0
    data = json.loads(out)
    assert data["determined_lines"] == 20
    assert data["pair_total"] == data["expected_pairs"] == 36


def test_sweep_and_fit_commands(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "families": [{"family": "full_plane", "p": [29, 31, 37, 41, 43]}],
    }))
    out_csv = tmp_path / "sweep.csv"
    rc, _, _ = run(capsys, "sweep", "--config", str(config), "--output", str(out_csv))
    assert rc == 0
    rc, out, _ = run(capsys, "fit", "--input", str(out_csv), "--x-field", "m", "--y-field", "I")
    assert rc == 0
    assert 1.48 <= json.loads(out)["slope"] <= 1.52
    svg_path = tmp_path / "fit.svg"
    rc, _, _ = run(capsys, "fit", "--input", str(out_csv), "--format", "svg",
                   "--output", str(svg_path))
    assert rc == 0
    assert svg_path.read_text().startswith("<svg")


def test_sweep_identical_config_identical_bytes(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 2, "families": [{"family": "random", "p": [13], "sizes": [8, 16]}],
    }))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", "--config", str(config), "--output", str(a))
    run(capsys, "sweep", "--config", str(config), "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_bad_config_is_data_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"families": []}))
    rc, _, _ = run(capsys, "sweep", "--config", str(config))
    assert rc == 2


def test_duplicate_warning_is_one_stderr_line(tmp_path, capfd):
    # a child process, so no test harness captures the warning
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"p": 7, "points": [[1, 2], [1, 2]], "lines": []}))
    proc = subprocess.run([sys.executable, "-m", "incidencelab.cli", "beck", "--input", str(path)],
                          env=package_env(), timeout=60)
    assert proc.returncode == 2
    err = capfd.readouterr().err
    assert_error_stderr(err)
    assert err.splitlines() == [
        "incidencelab: warning: dropped 1 duplicate point(s) and 0 duplicate line(s)",
        "incidencelab: TooFewPointsError: need at least two points, got 1",
    ]


@pytest.mark.parametrize("command", ["count3d", "extract", "cover", "energy", "distances", "beck"])
def test_format_is_not_an_option_of_json_only_commands(tmp_path, capsys, command):
    rc, _, err = run(capsys, command, "--input", str(tmp_path / "any.json"), "--format", "json")
    assert rc == 1
    assert "unrecognized arguments: --format json" in err
