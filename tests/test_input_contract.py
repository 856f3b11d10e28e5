"""The exit-code contract of the command line on malformed input: exit 2
(exit 1 for a bad argument), and on stderr zero or more warning lines
followed by exactly one error line, never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_error_stderr
from incidencelab.cli import cli
from incidencelab.constructions import random_instance
from incidencelab.harness import instance_to_dict

ENERGY = {"p": 5, "A": [0, 1], "B": [0, 1],
          "lines": [{"kind": "sl", "s": 0, "t": 0}, {"kind": "sl", "s": 1, "t": 0}]}
ELEKES = {"family": "elekes", "a": [2], "c": [1], "p": [11]}
RANDOM = {"family": "random", "p": [7], "sizes": [4]}
SWEEP = {"seed": 1, "families": [ELEKES, {"family": "full_plane", "p": [5]}, RANDOM]}
RECORDS = [{"m": 4, "I": 8}, {"m": 9, "I": 27}, {"m": 16, "I": 64}]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli(list(argv))
    return rc, out.getvalue(), err.getvalue()


def sweep_with(**changes):
    return dict(SWEEP, **changes)


def family_with(family, **changes):
    return sweep_with(families=[dict(family, **changes)])


BAD_FILES = {
    "energy-line-without-t": ("energy", dict(ENERGY, lines=[{"kind": "sl", "s": 1}])),
    "energy-A-not-integer": ("energy", dict(ENERGY, A=[0, "1"])),
    "energy-B-not-integer": ("energy", dict(ENERGY, B=[0.5])),
    "energy-s-not-integer": ("energy", dict(ENERGY, lines=[{"kind": "sl", "s": 1.5, "t": 0}])),
    "energy-B-string": ("energy", dict(ENERGY, B="zz")),
    "energy-no-lines": ("energy", dict(ENERGY, lines=[])),
    "energy-empty-A": ("energy", dict(ENERGY, A=[])),
    "energy-noncanonical-line": ("energy", dict(ENERGY, lines=[{"kind": "sl", "s": 6, "t": 0}])),
    "energy-A-boolean": ("energy", dict(ENERGY, A=[0, True])),
    "energy-B-boolean": ("energy", dict(ENERGY, B=[False])),
    "energy-t-boolean": ("energy", dict(ENERGY, lines=[{"kind": "sl", "s": 1, "t": True}])),
    "count-x-boolean": ("count", {"p": 7, "points": [[True, 1]], "lines": []}),
    "count-y-boolean": ("count", {"p": 7, "points": [[1, False]], "lines": []}),
    "count-s-boolean": ("count", {"p": 7, "points": [], "lines": [{"kind": "sl", "s": True, "t": 0}]}),
    "count-vertical-x-boolean": ("count", {"p": 7, "points": [], "lines": [{"kind": "v", "x": False}]}),
    "beck-duplicate-then-error": ("beck", {"p": 7, "points": [[1, 2], [1, 2]], "lines": []}),
    "count-invalid-utf8": ("count", b'{"p": 7, "points": [], "lines": ["\xff"]}'),
    "count-points-not-a-list": ("count", {"p": 7, "points": 5, "lines": []}),
    "count-integer-over-4300-digits": ("count", b'{"p": ' + b"1" * 5000 + b"}"),
    "count-nesting-too-deep": ("count", b"[" * 100000),
    "count3d-coordinate-not-integer": ("count3d", {"p": 5, "points": [[0, 0, "x"]], "planes": [[0, 0, 1, 0]]}),
    "count3d-no-points": ("count3d", {"p": 5, "points": [], "planes": [[0, 0, 1, 0]]}),
    "count3d-coordinate-boolean": ("count3d", {"p": 5, "points": [[0, 0, True]], "planes": [[0, 0, 1, 0]]}),
    "sweep-engine": ("sweep", sweep_with(engine="bogus")),
    "sweep-seed-string": ("sweep", sweep_with(seed="1")),
    "sweep-ll-constant": ("sweep", sweep_with(ll_constant="x")),
    "sweep-sizes": ("sweep", family_with(RANDOM, sizes=["4"])),
    "sweep-sizes-zero": ("sweep", family_with(RANDOM, sizes=[0])),
    "sweep-a": ("sweep", family_with(ELEKES, a=[1.5])),
    "sweep-c": ("sweep", family_with(ELEKES, c="1")),
    "sweep-m": ("sweep", family_with({"family": "random", "p": [7], "n": [4]}, m=[None])),
    "sweep-n": ("sweep", family_with({"family": "random", "p": [7], "m": [4]}, n=[[4]])),
    "sweep-a-zero": ("sweep", family_with(ELEKES, a=[0])),
    "sweep-c-zero": ("sweep", family_with(ELEKES, c=[0])),
    "sweep-seed-boolean": ("sweep", sweep_with(seed=True)),
    "sweep-ll-constant-boolean": ("sweep", sweep_with(ll_constant=True)),
    "sweep-p-boolean": ("sweep", family_with(RANDOM, p=[True])),
    "sweep-sizes-boolean": ("sweep", family_with(RANDOM, sizes=[True])),
    "sweep-a-boolean": ("sweep", family_with(ELEKES, a=True)),
    "sweep-energy-string": ("sweep", family_with(ELEKES, energy="no")),
    "sweep-energy-integer": ("sweep", family_with(ELEKES, energy=0)),
    "fit-list-of-numbers": ("fit", [1, 2]),
    "fit-malformed-json": ("fit", b'[{"m": 4, "I": 8},'),
    "fit-non-numeric-field": ("fit", [{"m": "x", "I": 8}, {"m": 9, "I": 27}]),
    "fit-boolean-field": ("fit", [{"m": True, "I": 8}] + RECORDS),
}

FILE_ARG = {"sweep": "--config"}
FILE_COMMANDS = ("count", "count3d", "extract", "cover", "energy", "distances", "beck", "sweep", "fit")


def write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    return str(path)


def assert_one_line_error(rc, err, code=2):
    """Exit code code, and exactly one error line on stderr after any
    warning lines (a mutated document may list an entry twice)."""
    assert rc == code
    assert_error_stderr(err)


@pytest.mark.parametrize("command, content", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_malformed_file_exits_2_with_one_line(tmp_path, command, content):
    path = write(tmp_path / "input.json", content)
    rc, _, err = run(command, FILE_ARG.get(command, "--input"), path)
    assert_one_line_error(rc, err)


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_directory_as_input_exits_2(tmp_path, command):
    rc, _, err = run(command, FILE_ARG.get(command, "--input"), str(tmp_path))
    assert_one_line_error(rc, err)


def test_directory_as_output_exits_2(tmp_path):
    path = write(tmp_path / "inst.json", instance_to_dict(random_instance(7, 5, 5, 1)))
    rc, _, err = run("count", "--input", path, "--output", str(tmp_path))
    assert_one_line_error(rc, err)


@pytest.mark.parametrize("argv", [
    ("cover", "--c1", "2", "--c2", "1/2"),
    ("cover", "--c1", "0"),
    ("construct", "elekes", "--a", "0", "--c", "1", "--p", "7"),
], ids=["cover-c1-above-c2", "cover-c1-zero", "construct-elekes-a-zero"])
def test_bad_argument_exits_1_with_one_line(tmp_path, argv):
    if argv[0] == "cover":
        argv += ("--input", write(tmp_path / "inst.json", instance_to_dict(random_instance(7, 5, 5, 1))))
    rc, _, err = run(*argv)
    assert_one_line_error(rc, err, code=1)


# ---------------------------------------------------------------------------
# Fuzzing: one field of a small valid document becomes arbitrary JSON
# ---------------------------------------------------------------------------

SMALL_P = (3, 5, 7, 11)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-60, 60) | st.sampled_from([2**31, 2**63, -2**63, 2**64])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def instance_docs(draw):
    p = draw(st.sampled_from(SMALL_P))
    m, n = draw(st.sampled_from((1, 3, 8))), draw(st.sampled_from((0, 2, 6)))
    return instance_to_dict(random_instance(p, m, n, draw(st.integers(0, 3))))


@st.composite
def instance3d_docs(draw):
    p = draw(st.sampled_from(SMALL_P))
    return {"p": p, "points": [[i, (2 * i) % p, (i * i) % p] for i in range(draw(st.sampled_from((1, 3))))],
            "planes": [[1, 0, 0, 0], [0, 1, p - 1, 1]]}


DOCS = {
    "count": instance_docs(), "extract": instance_docs(), "cover": instance_docs(),
    "distances": instance_docs(), "beck": instance_docs(), "count3d": instance3d_docs(),
    "energy": st.sampled_from((5, 7, 11)).map(lambda p: dict(ENERGY, p=p)), "sweep": st.just(SWEEP), "fit": st.just(RECORDS),
}


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


@st.composite
def mutated(draw, docs):
    doc = draw(docs)
    path = draw(st.sampled_from(list(_paths(doc))))
    return _replaced(doc, path, draw(json_values))


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_mutated_documents_exit_0_or_2(tmp_path_factory, command):
    path = tmp_path_factory.mktemp(command) / "input.json"

    @settings(max_examples=60, deadline=None)
    @given(doc=mutated(DOCS[command]))
    def check(doc):
        rc, _, err = run(command, FILE_ARG.get(command, "--input"), write(path, doc))
        assert rc in (0, 2), err
        if rc == 2:
            assert_one_line_error(rc, err)

    check()
