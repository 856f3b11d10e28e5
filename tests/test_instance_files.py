"""Instance and energy files at array speed: the writer's bytes against a
streaming json.dump oracle, the compact-form scan of read_instance against
its JSON path, and the readers' errors and duplicate warnings against a
per-entry reference loop."""

import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incidencelab import harness
from incidencelab.errors import ParseError
from incidencelab.field import make_modulus
from incidencelab.harness import DuplicateEntryWarning, read_energy_input, read_instance, write_instance
from incidencelab.plane import Instance

# the least modulus, 3, a small one, and the largest, 2^31 - 1
PRIMES = (3, 5, 1009, 2**31 - 1)


def point_entry(key, p):
    return [key // p, key % p]


def line_entry(key, p):
    if key >= p * p:
        return {"kind": "v", "x": key - p * p}
    return {"kind": "sl", "s": key // p, "t": key % p}


def streamed_bytes(point_keys, line_keys, p):
    """The canonical file of an instance, streamed by json.dump."""
    doc = {"p": p, "points": [point_entry(k, p) for k in sorted(set(point_keys))],
           "lines": [line_entry(k, p) for k in sorted(set(line_keys))]}
    out = io.StringIO()
    json.dump(doc, out, separators=(",", ":"), sort_keys=True)
    return (out.getvalue() + "\n").encode()


def keys(draw, size, bound, vertical=0, p=0):
    """size keys below bound, the first vertical of them among the p
    vertical line keys from p^2 on."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = rng.integers(0, bound, size).tolist()
    out[:vertical] = (p * p + rng.integers(0, p, min(vertical, size))).tolist()
    return out


@st.composite
def key_instances(draw):
    p = draw(st.sampled_from(PRIMES))
    point_keys = keys(draw, draw(st.integers(0, 300)), p * p)
    line_keys = keys(draw, draw(st.integers(0, 300)), p * p + p, draw(st.integers(0, 20)), p)
    return p, point_keys, line_keys


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=key_instances())
def test_write_instance_bytes_equal_a_streamed_dump(tmp_path_factory, case):
    # vertical lines, empty points or lines, p = 3 and p = 2^31 - 1
    p, point_keys, line_keys = case
    path = tmp_path_factory.mktemp("write") / "inst.json"
    inst = Instance(make_modulus(p), point_keys=point_keys, line_keys=line_keys)
    write_instance(inst, path)
    assert path.read_bytes() == streamed_bytes(point_keys, line_keys, p)
    assert read_instance(path) == inst


@settings(max_examples=50, derandomize=True, deadline=None)
@given(case=key_instances())
def test_written_files_are_read_without_json_loads(doc_path, case):
    # a drift of the writer or of the compact-form pattern would silently
    # bring back the JSON object tree
    p, point_keys, line_keys = case
    inst = Instance(make_modulus(p), point_keys=point_keys, line_keys=line_keys)
    write_instance(inst, doc_path)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness.json, "loads", refuse)
        assert read_instance(doc_path) == inst


# ---------------------------------------------------------------------------
# The compact-form scan against the JSON path.  A space before the final
# newline keeps a document out of the scan and moves no error position, so
# each document is read both ways.
# ---------------------------------------------------------------------------

VALUE = re.compile(rb'(?<!"p":)(?<=[\[,:])[0-9]+')


def replace_value(new):
    """A mutation putting new(p) in place of one coordinate or coefficient."""
    def mutation(doc, p, i):
        found = list(VALUE.finditer(doc))
        if not found:
            return doc
        at = found[i % len(found)]
        return doc[:at.start()] + new(p, at.group()) + doc[at.end():]
    return mutation


def insert_before(pattern, text):
    """A mutation inserting text before one match of pattern."""
    def mutation(doc, p, i):
        found = list(re.finditer(pattern, doc))
        if not found:
            return doc
        at = found[i % len(found)].start()
        return doc[:at] + text + doc[at:]
    return mutation


def vertical_first(doc, p, i):
    vertical = re.search(rb',(\{"kind":"v","x":[0-9]+\})', doc)
    if vertical is None or b'"sl"' not in doc:
        return doc
    doc = doc[:vertical.start()] + doc[vertical.end():]
    return doc.replace(b'"lines":[', b'"lines":[' + vertical.group(1) + b",", 1)


def repeated_entry(doc, p, i):
    entries = list(re.finditer(rb'\[[0-9]+,[0-9]+\]|\{"kind"[^}]*\}', doc))
    if not entries:
        return doc
    at = entries[i % len(entries)]
    return doc[:at.end()] + b"," + at.group() + doc[at.end():]


def with_p(new):
    return lambda doc, p, i: doc.replace(b'"p":%d,' % p, b'"p":%d,' % new, 1)


MUTATIONS = {
    "leading zero": replace_value(lambda p, v: b"0" + v),
    "11-digit value": replace_value(lambda p, v: b"12345678901"),
    "2^64 + 1": replace_value(lambda p, v: b"%d" % (2**64 + 1)),
    "value equal to p": replace_value(lambda p, v: b"%d" % p),
    "p >= 2^31": with_p(2**31),
    "composite p": with_p(9),
    "true": replace_value(lambda p, v: b"true"),
    "2.0": replace_value(lambda p, v: b"2.0"),
    "-1": replace_value(lambda p, v: b"-1"),
    "not UTF-8": replace_value(lambda p, v: b"\xff"),
    "vertical lines before sloped ones": vertical_first,
    "trailing comma": insert_before(rb'\](?=,"p"|\}\n)', b","),
    "repeated key inside an entry": insert_before(rb'"[stx]":', b'"kind":"zz",'),
    "repeated value key inside an entry": lambda doc, p, i: re.sub(rb'"([stx])":', rb'"\1":0,"\1":', doc, count=1),
    "repeated entry": repeated_entry,
    "CRLF": lambda doc, p, i: doc[:-1] + b"\r\n",
}
# id -> (modulus or None for any of PRIMES, document shape, mutation or
# None, bytes per parse chunk or None for harness._CHUNK)
SCAN_CASES = {
    "compact": (None, "random", None, None),
    "empty points": (None, "no points", None, None),
    "empty lines": (None, "no lines", None, None),
    "empty points and lines": (None, "empty", None, None),
    "vertical lines only": (None, "vertical only", None, None),
    "p = 3": (3, "random", None, None),
    "p = 2^31 - 1": (2**31 - 1, "random", None, None),
    **{name: (None, "random", name, None) for name in MUTATIONS},
    # ten-digit values against chunks of 5 bytes: each cut falls inside a
    # number and moves to the byte after it
    "chunk cut inside a number": (2**31 - 1, "random", None, 5),
    "several chunks": (None, "random", None, 13),
    "several chunks, vertical lines only": (None, "vertical only", None, 11),
    "several chunks, value equal to p": (None, "random", "value equal to p", 16),
}


@st.composite
def scan_documents(draw, p, shape):
    p = p or draw(st.sampled_from(PRIMES))
    m = 0 if shape in ("no points", "empty") else draw(st.integers(1, 300))
    n = 0 if shape in ("no lines", "empty") else draw(st.integers(1, 300))
    vertical = n if shape == "vertical only" else draw(st.integers(0, 20))
    return p, streamed_bytes(keys(draw, m, p * p), keys(draw, n, p * p + p, vertical, p), p)


def read_outcome(path):
    """The instance or ParseError text of read_instance(path), with the
    duplicate counts it warned of."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read_instance(path)
        except ParseError as exc:
            result = str(exc)
    counts = [(w.message.duplicate_points, w.message.duplicate_lines)
              for w in caught if isinstance(w.message, DuplicateEntryWarning)]
    return result, counts


@pytest.mark.parametrize("p, shape, mutation, chunk", SCAN_CASES.values(), ids=SCAN_CASES.keys())
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_scan_and_json_path_agree(doc_path, p, shape, mutation, chunk, data):
    p, compact = data.draw(scan_documents(p, shape))
    doc = compact if mutation is None else MUTATIONS[mutation](compact, p, data.draw(st.integers(0, 10**6)))
    spaced = doc[:-1] + b" \n"
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            assert len(doc) > 2 * chunk
            mp.setattr(harness, "_CHUNK", chunk)
        # the scan takes the compact form with its values below a prime p,
        # and only that
        assert (harness._scan_instance(doc) is None) == (doc != compact and mutation != "repeated entry")
        assert harness._scan_instance(spaced) is None
        # one path for both, as the JSON path's messages name the file
        outcomes = []
        for text in (doc, spaced):
            doc_path.write_bytes(text)
            outcomes.append(read_outcome(doc_path))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
def test_parse_integers_checks_the_count(chunk):
    # the scan falls back to the JSON path on any other count
    text = b'{"a":[10,2],"b":345,"c":[[6,78]]}'
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_CHUNK", chunk)
        assert harness._parse_integers(text, 5).tolist() == [10, 2, 345, 6, 78]
        assert harness._parse_integers(text, 4) is None
        assert harness._parse_integers(text, 6) is None
        assert harness._parse_integers(b"{}", 0).size == 0


# ---------------------------------------------------------------------------
# The per-entry reference: the first bad entry, points before lines
# ---------------------------------------------------------------------------

def is_residue(v, p):
    return type(v) is int and 0 <= v < p


def reference_error(doc):
    """The message of the first malformed point or line of doc, or None."""
    p = doc["p"]
    for i, entry in enumerate(doc.get("points", [])):
        if not (isinstance(entry, list) and len(entry) == 2 and all(is_residue(v, p) for v in entry)):
            return f"points[{i}] must be a pair [x, y] of integers in [0, {p})"
    for i, entry in enumerate(doc["lines"]):
        kind = entry.get("kind") if isinstance(entry, dict) else None
        if kind == "sl":
            if not (is_residue(entry.get("s"), p) and is_residue(entry.get("t"), p)):
                return f"lines[{i}] of kind 'sl' needs integer fields 's' and 't' in [0, {p})"
        elif kind == "v":
            if not is_residue(entry.get("x"), p):
                return f"lines[{i}] of kind 'v' needs an integer field 'x' in [0, {p})"
        else:
            return f"lines[{i}] needs a 'kind' field, 'sl' or 'v'"
    return None


# "p" stands for the modulus of the document
BAD_VALUES = (True, False, 1.5, -1, "p", 2**63, 2**64, "1", None)
POINT_FORMS = {"x": lambda bad: [bad, 0], "y": lambda bad: [0, bad]}
LINE_FORMS = {"s": lambda bad: {"kind": "sl", "s": bad, "t": 0},
              "t": lambda bad: {"kind": "sl", "s": 0, "t": bad},
              "x": lambda bad: {"kind": "v", "x": bad},
              "kind": lambda bad: {"kind": bad, "s": 0, "t": 0}}
POINT_SHAPES = ([0, 0, 0], [0], [], {"x": 0, "y": 0}, 0, None)
LINE_SHAPES = ({"kind": "sl", "s": 0}, {"kind": "sl", "t": 0}, {"kind": "v"}, {"s": 0, "t": 0},
               {"kind": "zz", "x": 0}, ["sl", 0, 0], 0, None)


def bad_entries(field, forms, shapes):
    """id -> (field, a function of p giving a malformed entry)."""
    out = {}
    for name, form in forms.items():
        for bad in BAD_VALUES:
            out[f"{field}-{name}={bad!r}"] = (field, lambda p, form=form, bad=bad: form(p if bad == "p" else bad))
    for shape in shapes:
        out[f"{field}-{shape!r}"] = (field, lambda p, shape=shape: shape)
    return out


BAD_LINES = bad_entries("lines", LINE_FORMS, LINE_SHAPES)
BAD_ENTRIES = {**bad_entries("points", POINT_FORMS, POINT_SHAPES), **BAD_LINES}


@st.composite
def documents(draw, energy):
    """A valid instance (or energy) document of 200-2000 entries, with
    repeats at small p and vertical lines."""
    p = draw(st.sampled_from(PRIMES))
    doc = {"p": p, "lines": [line_entry(k, p) for k in keys(
        draw, draw(st.integers(200, 2000)), p * p + p, draw(st.integers(0, 50)), p)]}
    if energy:
        doc.update(A=[0, 1, 2], B=[1, 2])
    else:
        doc["points"] = [point_entry(k, p) for k in keys(draw, draw(st.integers(200, 2000)), p * p)]
    return doc


def mutate(data, doc, field, bad_entry, others):
    """doc with its entry at a random index of field replaced by
    bad_entry(p), and maybe one more entry by one of others."""
    replacements = [(field, bad_entry)]
    if data.draw(st.booleans()):
        replacements.append(data.draw(st.sampled_from(list(others.values()))))
    for field, bad_entry in replacements:
        doc[field][data.draw(st.integers(0, len(doc[field]) - 1))] = bad_entry(doc["p"])
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("read") / "doc.json"


def assert_reference_error(read, path, doc):
    path.write_text(json.dumps(doc))
    expected = reference_error(doc)
    assert expected is not None
    with pytest.raises(ParseError) as raised:
        read(path)
    assert str(raised.value) == expected


@pytest.mark.parametrize("field, bad_entry", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
@settings(max_examples=5, derandomize=True, deadline=None)
@given(data=st.data())
def test_read_instance_names_the_first_bad_entry(doc_path, field, bad_entry, data):
    doc = mutate(data, data.draw(documents(energy=False)), field, bad_entry, BAD_ENTRIES)
    assert_reference_error(read_instance, doc_path, doc)


@pytest.mark.parametrize("field, bad_entry", BAD_LINES.values(), ids=BAD_LINES.keys())
@settings(max_examples=5, derandomize=True, deadline=None)
@given(data=st.data())
def test_read_energy_input_names_the_first_bad_line(doc_path, field, bad_entry, data):
    doc = mutate(data, data.draw(documents(energy=True)), field, bad_entry, BAD_LINES)
    assert_reference_error(read_energy_input, doc_path, doc)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(doc=documents(energy=False), repeats=st.integers(0, 100))
def test_duplicate_warning_counts_the_repeated_entries(doc_path, doc, repeats):
    # entries repeat by chance at p = 3 and p = 5, and by the appended copies
    doc["points"] += doc["points"][:repeats]
    doc["lines"] += doc["lines"][:repeats // 2]
    p = doc["p"]
    point_keys = [x * p + y for x, y in doc["points"]]
    line_keys = [json.dumps(entry, sort_keys=True) for entry in doc["lines"]]
    dup_points = len(point_keys) - len(set(point_keys))
    dup_lines = len(line_keys) - len(set(line_keys))
    doc_path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = read_instance(doc_path)
    counts = [(w.message.duplicate_points, w.message.duplicate_lines)
              for w in caught if isinstance(w.message, DuplicateEntryWarning)]
    assert counts == ([(dup_points, dup_lines)] if dup_points or dup_lines else [])
    assert (inst.m, inst.n) == (len(set(point_keys)), len(set(line_keys)))
