import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_error_stderr, package_env
from incidencelab.cli import _COMMANDS, build_parser, cli


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


def test_count_csv_writes_the_bare_count_to_stdout_and_to_output(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "construct", "elekes", "--a", "2", "--c", "1", "--p", "7", "--output", str(path))
    rc, out, _ = run(capsys, "count", "--input", str(path), "--format", "csv")
    assert rc == 0 and out == "4\n"
    out_path = tmp_path / "count.csv"
    rc, out, _ = run(capsys, "count", "--input", str(path), "--format", "csv",
                     "--output", str(out_path))
    assert rc == 0 and out == ""
    assert out_path.read_text() == "4\n"


def test_count_stats_adds_a_stats_object(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert cli(["construct", "full_plane", "--p", "5", "--output", str(path)]) == 0
    rc, out, _ = run(capsys, "count", "--input", str(path))
    plain = json.loads(out)
    for engine, side in (("auto", "slope"), ("naive", None)):
        rc, out, _ = run(capsys, "count", "--input", str(path), "--engine", engine, "--stats")
        assert rc == 0
        obj = json.loads(out)
        stats = obj.pop("stats")
        assert obj == dict(plain, engine=engine)
        assert stats["side"] == side and stats["engine"] == ("naive" if side is None else "hash_join")
        assert set(stats) == {"engine", "side", "cost", "probes", "backend", "backend_reason", "seconds"}
        assert set(stats["seconds"]) == {"views", "kernel"}
    rc, out, err = run(capsys, "count", "--input", str(path), "--format", "csv", "--stats")
    assert rc == 1 and out == "" and "--stats needs --format json" in err


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


def test_construct_full_plane_beyond_the_address_space_is_one_line_data_error(capsys):
    # its line keys alone would take 8 (p^2 + p) > 2^63 bytes; numpy raised
    # "array is too big" from deep inside the construction
    rc, out, err = run(capsys, "construct", "full_plane", "--p", "2147483647")
    assert rc == 2 and out == ""
    assert_error_stderr(err)
    assert err.startswith("incidencelab: MemoryError: full_plane(2147483647) needs")
    assert len(err.splitlines()) == 1


def test_memory_error_is_one_line_data_error(tmp_path, capsys, monkeypatch):
    import incidencelab.cover

    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(incidencelab.cover, "grid_cover", exhausted)
    path = tmp_path / "inst.json"
    run(capsys, "construct", "full_plane", "--p", "5", "--output", str(path))
    rc, out, err = run(capsys, "cover", "--input", str(path))
    assert rc == 2 and out == ""
    assert_error_stderr(err)
    assert err.splitlines() == ["incidencelab: MemoryError: "]


def test_extract_on_an_instance_without_incidences_is_data_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"p": 7, "points": [], "lines": [{"kind": "sl", "s": 1, "t": 1}]}))
    rc, out, err = run(capsys, "extract", "--input", str(path))
    assert rc == 2 and out == ""
    assert err.splitlines() == [
        "incidencelab: NoIncidencesError: no incidences between the given points and lines"]


def test_report_commands_do_not_import_numpy_ma(tmp_path):
    # plain np.unique imports numpy.ma, about 20 ms at first use
    path = tmp_path / "inst.json"
    assert cli(["construct", "full_plane", "--p", "7", "--output", str(path)]) == 0
    script = (
        "import sys\n"
        "from incidencelab.cli import cli\n"
        "for command in (['cover', '--normalize'], ['extract'], ['beck'], ['distances']):\n"
        f"    assert cli(command + ['--input', {str(path)!r}, '--output', {str(tmp_path / 'out.json')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(), timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cover_negative_stop_is_one_error_line(tmp_path, capsys):
    # the working set emptied and the preconditions divided by m = 0
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"p": 5, "points": [[0, 0]], "lines": [{"kind": "sl", "s": 1, "t": 1}]}))
    rc, out, err = run(capsys, "cover", "--input", str(path), "--stop=-1")
    assert (rc, out) == (2, "")
    assert_error_stderr(err)
    assert "stop_fraction" in err


@pytest.mark.parametrize("constant", ["-1", "0"])
def test_sumprod_nonpositive_constant_is_one_error_line(capsys, constant):
    # c = -1 printed "condition_holds": true, as c^8 > 0
    rc, out, err = run(capsys, "sumprod", "--corollary", "5.1", "--p", "7", "--A", "1,2",
                       "--llconstant", constant)
    assert (rc, out) == (2, "")
    assert_error_stderr(err)
    assert "InvalidParameterError" in err


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


def test_energy_checks_its_modulus_once(tmp_path, capsys, monkeypatch):
    # the input reader and each energy layer validate p; the trial division
    # runs once, for the first of them
    import incidencelab.field as field
    calls = []
    isqrt = field.isqrt
    monkeypatch.setattr(field, "isqrt", lambda n: calls.append(n) or isqrt(n))
    field.is_prime.cache_clear()
    path = tmp_path / "energy.json"
    path.write_text(json.dumps({
        "p": 10007, "A": [0, 1, 2], "B": [1, 5],
        "lines": [{"kind": "sl", "s": 0, "t": 0}, {"kind": "sl", "s": 1, "t": 3}],
    }))
    rc, out, _ = run(capsys, "energy", "--input", str(path))
    assert rc == 0 and "reduction" in json.loads(out)
    assert calls == [10007]


def test_energy_builds_the_line_instance_once(tmp_path, capsys, monkeypatch):
    # the reader builds the lines as one Instance, which the energy, the
    # reduction and the bridge all read; the bridge adds the A x B product
    import incidencelab.plane as plane
    builds = []
    init = plane.Instance.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(plane.Instance, "__init__", counting_init)
    path = tmp_path / "energy.json"
    path.write_text(json.dumps({
        "p": 101, "A": [0, 1, 2], "B": [1, 5],
        "lines": [{"kind": "sl", "s": 0, "t": 0}, {"kind": "sl", "s": 1, "t": 3}],
    }))
    rc, out, _ = run(capsys, "energy", "--input", str(path))
    assert rc == 0 and "cs_bridge" in json.loads(out)
    assert len(builds) == 2


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


@pytest.mark.parametrize("p, error", [("9", "CompositeModulusError"), ("1", "OutOfRangeError"),
                                      ("4294967311", "OutOfRangeError"), ("0", "OutOfRangeError")])
def test_sumprod_checks_its_modulus(capsys, p, error):
    rc, out, err = run(capsys, "sumprod", "--corollary", "5.1", "--p", p, "--A", "1,2,4")
    assert rc == 2 and out == ""
    assert_error_stderr(err)
    assert err.startswith(f"incidencelab: {error}: ")


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


@pytest.mark.parametrize("block", [1, 4, 1 << 16])
def test_distances_writes_the_distance_set_in_blocks(tmp_path, capsys, monkeypatch, block):
    # the same bytes as one json.dumps of the report with the set as a list
    import incidencelab.cli as cli_module
    from incidencelab.distances import distance_sets
    from incidencelab.files import read_instance

    monkeypatch.setattr(cli_module, "_COLUMN_BLOCK", block)
    path, out_path = tmp_path / "pts.json", tmp_path / "out.json"
    run(capsys, "construct", "random", "--p", "1019", "--m", "30", "--n", "0", "--seed", "4", "--output", str(path))
    inst = read_instance(path)
    rep = distance_sets(inst.point_keys, inst.p)
    want = json.dumps({"p": inst.p, "m": inst.m, "distance_set": rep.distance_values.tolist(),
                       "pin": [rep.pin // inst.p, rep.pin % inst.p], "max_pinned": rep.max_pinned,
                       "degenerate": rep.degenerate, "isosceles_triples": rep.isosceles_triples,
                       "has_isotropic_lines": False}, sort_keys=True)
    assert rep.distance_values.size > 4
    rc, out, _ = run(capsys, "distances", "--input", str(path))
    assert rc == 0 and out == want + "\n"
    rc, out, _ = run(capsys, "distances", "--input", str(path), "--output", str(out_path))
    assert rc == 0 and out == "" and out_path.read_text() == want


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


def test_fit_refuses_infinite_values(tmp_path, capsys):
    # an inf in a sweep CSV, or Infinity in JSON records, made a NaN fit that
    # printed as invalid JSON and exited 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"families": [{"family": "full_plane", "p": [3, 5, 7]}]}))
    out_csv = tmp_path / "sweep.csv"
    assert run(capsys, "sweep", "--config", str(config), "--output", str(out_csv))[0] == 0
    header, first, *rest = out_csv.read_text().splitlines()
    column = header.split(",").index("I")
    row = first.split(",")
    row[column] = "inf"
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("\n".join([header, ",".join(row), *rest]) + "\n")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('[{"m": 9, "I": Infinity}, {"m": 25, "I": 150}, {"m": 49, "I": 392}]')
    for path in (bad_csv, bad_json):
        rc, out, err = run(capsys, "fit", "--input", str(path), "--x-field", "m", "--y-field", "I")
        assert rc == 2 and out == ""
        assert_error_stderr(err)
        assert len(err.splitlines()) == 1 and "positive finite numbers" in err


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


@pytest.mark.parametrize("argv", [["count", "--format", "svg"], ["fit", "--format", "csv"]])
def test_format_choices_without_their_own_form_are_usage_errors(tmp_path, capsys, argv):
    # count --format svg printed the bare count, fit --format csv the JSON fit
    command, *rest = argv
    rc, out, err = run(capsys, command, "--input", str(tmp_path / "any.json"), *rest)
    assert rc == 1 and out == ""
    assert f"invalid choice: '{rest[1]}'" in err


def test_count_runs_no_cover_distances_or_energy(tmp_path):
    # the lazily registered layers stay unexecuted in a process that only counts
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"p": 7, "points": [[1, 2], [3, 4]],
                                "lines": [{"kind": "sl", "s": 1, "t": 1}]}))
    script = (
        "import sys, types\n"
        "from incidencelab.cli import cli\n"
        f"assert cli(['count', '--input', {str(path)!r}]) == 0\n"
        "names = ('cover', 'distances', 'energy', 'constructions', 'harness', 'bounds')\n"
        "print([n for n in names if type(sys.modules.get('incidencelab.' + n)) is types.ModuleType])\n"
        "print([n for n in ('fractions', 'decimal') if n in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(), timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["incidences"] == 2
    assert proc.stdout.splitlines()[1] == "[]"
    assert proc.stdout.splitlines()[2] == "[]"


def test_count_on_a_warm_kernel_cache_starts_no_child_process(tmp_path):
    # the cache key reads the compiler binary's path, size and mtime, so a
    # cache hit needs no compiler run
    import incidencelab.incidence as inc
    if inc.kernel_backend()[0] != "c":
        pytest.skip(f"compiled kernel unavailable: {inc.kernel_backend()[1]}")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"p": 7, "points": [[1, 2], [3, 4]],
                                "lines": [{"kind": "sl", "s": 1, "t": 1}]}))
    script = (
        "import sys\n"
        "from incidencelab.cli import cli\n"
        "from incidencelab.incidence import kernel_backend\n"
        f"assert cli(['count', '--input', {str(path)!r}]) == 0\n"
        "print(kernel_backend()[0], 'subprocess' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(), timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "c False"


def test_every_traced_name_resolves_after_importing_the_cli(tmp_path):
    # perfbench/tracing.py looks each function it wraps up by module in
    # sys.modules: a name that moves, or a module that is not registered,
    # fails every traced op
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"p": 7, "points": [[1, 2], [3, 4]],
                                "lines": [{"kind": "sl", "s": 1, "t": 1}]}))
    script = (
        "import runpy, sys\n"
        "from incidencelab.cli import cli\n"
        f"tables = runpy.run_path({str(tracing)!r})\n"
        "pairs = [(m, f) for m, fs in tables['SPANNED'].items() for f in fs] + [tables['CALLS_ONLY']]\n"
        "print(sorted({m for m, _ in pairs if 'incidencelab.' + m not in sys.modules}))\n"
        "print([m + '.' + f for m, f in pairs if not hasattr(sys.modules.get('incidencelab.' + m), f)])\n"
        "tracer = tables['Tracer'](0)\n"
        "tracer.install()\n"
        f"assert cli(['count', '--input', {str(path)!r}]) == 0\n"
        # the count's read ran through the wrapper of harness.read_instance
        "print(tracer.counters['harness.read_instance.bytes'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(), timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    absent, unresolved, count, read_bytes = proc.stdout.splitlines()
    assert (absent, unresolved) == ("[]", "[]")
    assert json.loads(count)["incidences"] == 2
    assert int(read_bytes) == path.stat().st_size


# what the full parser prints at 80 columns for the argvs that only it
# parses: no argument, -h and an unknown command
_USAGE = ("usage: incidencelab [-h]\n"
          "                    {count,count3d,construct,extract,cover,energy,sumprod,distances,beck,sweep,fit}\n"
          "                    ...\n")
_HELP = _USAGE + """
Command-line interface. Subcommands: count, count3d, construct, extract,
cover, energy, sumprod, distances, beck, sweep, fit. Exit codes: 0 success, 1
usage error, 2 data error or MemoryError; on stderr a failing command prints
zero or more warning lines and then one error line. Output is JSON; --format
selects the other form of three commands: count csv (the bare count), sweep
csv (the default) and fit svg. --output writes the chosen form to a file,
otherwise to stdout.

positional arguments:
  {count,count3d,construct,extract,cover,energy,sumprod,distances,beck,sweep,fit}
    count               count point-line incidences of an instance file
    count3d             count point-plane incidences of a 3D instance file
    construct           generate an instance file
    extract             run one two-pencil grid extraction
    cover               run the grid covering loop and verify its certificate
    energy              energy of (A, L) with its 3D reduction cross-check
    sumprod             sum-product style image-set report
    distances           distance-set report for the points of an instance file
    beck                determined-lines report for the points of an instance
                        file
    sweep               run a sweep configuration
    fit                 fit a log-log exponent over sweep records

options:
  -h, --help            show this help message and exit
"""


@pytest.mark.parametrize("argv, code, out, err", [
    ([], 1, "", _USAGE + "incidencelab: error: the following arguments are required: command\n"),
    (["-h"], 0, _HELP, ""),
    (["frobnicate"], 1, "", _USAGE + "incidencelab: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'count', 'count3d', 'construct', 'extract', 'cover', 'energy', 'sumprod', "
     "'distances', 'beck', 'sweep', 'fit')\n"),
], ids=["no-argument", "help", "unknown-command"])
def test_full_parser_output(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (code, out, err)


def _subparser(parser, command):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]


def _parse(parser, argv, capsys):
    """(exit code, the parsed arguments or None, stdout, stderr) of one
    parse_args."""
    try:
        args, code = vars(parser.parse_args(argv)), 0
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return code, args, out.out, out.err


# per command, an argv that parses, then usage errors: bad --engine and
# --format choices, values that are not rational numbers or integers
_ARGVS = {
    "count": [["--input", "i"], ["--input", "i", "--engine", "fast"], ["--input", "i", "--format", "svg"]],
    "count3d": [["--input", "i"], ["--output", "o"]],
    "construct": [["random", "--p", "7"], ["plane", "--p", "7"], ["random", "--p", "seven"]],
    "extract": [["--input", "i"]],
    "cover": [["--input", "i"], ["--input", "i", "--c1", "abc"], ["--input", "i", "--stop", "1/0"],
              ["--input", "i", "--c1", "1/3", "--c2", "3"]],
    "energy": [["--input", "i"]],
    "sumprod": [["--corollary", "5.1", "--p", "7"], ["--corollary", "9.9", "--p", "7"],
                ["--corollary", "5.1", "--p", "7", "--llconstant", "x"],
                ["--corollary", "5.1", "--p", "7", "--A", "1,b"]],
    "distances": [["--input", "i"]],
    "beck": [["--input", "i"]],
    "sweep": [["--config", "c"], ["--config", "c", "--format", "svg"]],
    "fit": [["--input", "i"], ["--input", "i", "--format", "csv"]],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, command):
    # help, usage, parsed values (the string defaults of cover and sumprod
    # become Fractions) and every usage error: a missing required argument
    # (--input), an unknown option, which the top-level parser reports, and
    # the bad values of _ARGVS
    monkeypatch.setenv("COLUMNS", "80")
    full, alone = build_parser(), build_parser(command)
    assert _subparser(alone, command).format_help() == _subparser(full, command).format_help()
    assert _subparser(alone, command).format_usage() == _subparser(full, command).format_usage()
    assert alone.format_usage() == full.format_usage() == _USAGE
    assert _parse(alone, [command, *_ARGVS[command][0]], capsys)[0] == 0
    for rest in [[], ["-h"], ["--input", "i", "--bogus"], *_ARGVS[command]]:
        argv = [command, *rest]
        assert _parse(alone, argv, capsys) == _parse(full, argv, capsys), argv
