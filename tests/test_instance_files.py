"""Instance and energy files at array speed: the writer's bytes against a
streaming json.dump oracle, the compact-form scan of read_instance against
its JSON path, and the readers' errors and duplicate warnings against a
per-entry reference loop."""

import io
import json
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incidencelab import files
from incidencelab.errors import ParseError
from incidencelab.field import make_modulus
from incidencelab.files import DuplicateEntryWarning, read_energy_input, read_instance, write_instance
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
        mp.setattr(files.json, "loads", refuse)
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


def truncated_inside_an_entry(doc, p, i):
    # cut outside the strings, and the final newline stays, so the spaced
    # copy fails at the same place
    entries = list(re.finditer(rb'\[[0-9]+,[0-9]+\]|\{"kind"[^}]*\}', doc))
    if not entries:
        return doc[:1] + b"\n"
    at = entries[i % len(entries)]
    cuts = [k for k in range(at.start() + 1, at.end()) if doc.count(b'"', at.start(), k) % 2 == 0]
    return doc[:cuts[i % len(cuts)]] + b"\n"


def with_p(new):
    return lambda doc, p, i: doc.replace(b'"p":%d,' % p, b'"p":%d,' % new, 1)


MUTATIONS = {
    "leading zero": replace_value(lambda p, v: b"0" + v),
    "11-digit value": replace_value(lambda p, v: b"12345678901"),
    "ten-digit value above 2^33": replace_value(lambda p, v: b"9999999999"),
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
    "leading comma": lambda doc, p, i: re.sub(rb'(?<=\[)(?=[\[{])', b",", doc, count=1),
    "no comma between entries": lambda doc, p, i: re.sub(rb'(?<=[\]}]),(?=[\[{])', b"", doc, count=1),
    "repeated key inside an entry": insert_before(rb'"[stx]":', b'"kind":"zz",'),
    "repeated value key inside an entry": lambda doc, p, i: re.sub(rb'"([stx])":', rb'"\1":0,"\1":', doc, count=1),
    "repeated entry": repeated_entry,
    "CRLF": lambda doc, p, i: doc[:-1] + b"\r\n",
    "truncated inside an entry": truncated_inside_an_entry,
    "bytes after the final newline": lambda doc, p, i: doc + (b"\n", b"0\n", b"]}\n")[i % 3],
    "head only": lambda doc, p, i: b'{"lines":[\n',
    "empty file": lambda doc, p, i: b"",
}
# id -> (modulus or None for any of PRIMES, document shape, mutation or
# None, bytes per read or None for files._CHUNK)
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
    # every cut of the head, of each entry kind, of the separator and of
    # the tail, on ten-digit values
    **{f"chunks of {chunk} bytes": (2**31 - 1, "several entries", None, chunk) for chunk in (1, 2, 3, 5, 13, 64)},
    "chunks of 3 bytes, truncated inside an entry": (None, "random", "truncated inside an entry", 3),
    "chunks of 2 bytes, bytes after the final newline": (None, "random", "bytes after the final newline", 2),
}


@st.composite
def scan_documents(draw, p, shape):
    p = p or draw(st.sampled_from(PRIMES))
    least = 10 if shape == "several entries" else 1
    m = 0 if shape in ("no points", "empty") else draw(st.integers(least, 300))
    n = 0 if shape in ("no lines", "empty") else draw(st.integers(least, 300))
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


def scan(doc):
    return files._scan_instance(io.BytesIO(doc))


@pytest.mark.parametrize("p, shape, mutation, chunk", SCAN_CASES.values(), ids=SCAN_CASES.keys())
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_scan_and_json_path_agree(doc_path, p, shape, mutation, chunk, data):
    p, compact = data.draw(scan_documents(p, shape))
    doc = compact if mutation is None else MUTATIONS[mutation](compact, p, data.draw(st.integers(0, 10**6)))
    # an empty file has no final newline to space
    spaced = doc[:-1] + b" \n" if doc else doc
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            assert len(doc) > 2 * chunk
            mp.setattr(files, "_CHUNK", chunk)
        # the scan takes the compact form with its values below a prime p,
        # and only that
        assert (scan(doc) is None) == (doc != compact and mutation != "repeated entry")
        assert scan(spaced) is None
        # one path for both, as the JSON path's messages name the file
        outcomes = []
        for text in (doc, spaced):
            doc_path.write_bytes(text)
            outcomes.append(read_outcome(doc_path))
    assert outcomes[0] == outcomes[1]


def test_every_chunk_size_gives_the_same_keys():
    # each cut of a small document with both kinds of line and points: an
    # entry, the head, the separator or the tail split over two reads
    p = 1009
    point_keys, line_keys = [0, 5, 1009 * 7 + 1008, p * p - 1], [3, 1009 * 1008, p * p + 4, p * p + p - 1]
    doc = streamed_bytes(point_keys, line_keys, p)
    assert len(doc) > 70
    for chunk in range(1, 71):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(files, "_CHUNK", chunk)
            modulus, points, lines = scan(doc)
        assert (modulus.p, points.tolist(), lines.tolist()) == (p, point_keys, line_keys), chunk


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
def test_parse_integers_checks_the_count(chunk):
    # the scan parses the integers of each entry and takes only entries with
    # their count of them: on any other count it falls back to the JSON path
    head, tail = b'{"lines":[{"kind":"sl","s":1,"t":2},{"kind":"v","x":3}],"p":11,"points":[', b"]}\n"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_CHUNK", chunk)
        modulus, points, lines = scan(head + b"[10,2],[6,7]" + tail)
        assert (modulus.p, points.tolist(), lines.tolist()) == (11, [112, 73], [13, 124])
        for entries in (b"[10,2],[6]", b"[10,2],[6,7,8]", b"[10,2],[]", b"[10,2,6,7]"):
            assert scan(head + entries + tail) is None
        assert scan(b'{"lines":[{"kind":"sl","s":1},{"kind":"v","x":3}],"p":11,"points":[]}\n') is None
        assert scan(b'{"lines":[{"kind":"v","x":3,"y":4}],"p":11,"points":[]}\n') is None
        modulus, points, lines = scan(b'{"lines":[],"p":11,"points":[]}\n')
        assert (modulus.p, points.size, lines.size) == (11, 0, 0)


class ReadSizes(io.RawIOBase):
    """A binary handle over bytes that records the size of every read."""

    def __init__(self, data):
        self.data, self.sizes = io.BytesIO(data), []

    def read(self, size=-1):
        self.sizes.append(size)
        return self.data.read(size)


def test_scan_reads_at_most_a_chunk_at_a_time():
    rng = np.random.default_rng(5)
    p = 2**31 - 1
    doc = streamed_bytes(rng.integers(0, p * p, 4000).tolist(), rng.integers(0, p * p + p, 4000).tolist(), p)
    assert len(doc) > 3 * files._CHUNK
    # a file that leaves the compact form ends its scan where it does: at
    # its end, at its middle, or in the first piece
    for text, reads in ((doc, None), (doc[:-1] + b" \n", None), (doc[:len(doc) // 2], None),
                        (doc[:10] + b" " + doc[10:], 1)):
        handle = ReadSizes(text)
        files._scan_instance(handle)
        assert all(size is not None and 0 < size <= files._CHUNK for size in handle.sizes)
        assert len(handle.sizes) <= (reads or -(-len(text) // files._CHUNK) + 1)


def test_read_peak_follows_the_key_columns(tmp_path):
    # at acceptance-9 scale the read holds the keys, its pieces of them and
    # the instance's own copy, never the file or a column of its integers
    import tracemalloc
    rng = np.random.default_rng(9)
    p = 1048573
    inst = Instance(make_modulus(p), point_keys=rng.integers(0, p * p, 10**5),
                    line_keys=np.append(rng.integers(0, p * p, 10**5 - 100), p * p + np.arange(100)))
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    tracemalloc.start()
    try:
        assert read_instance(path) == inst
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (inst.point_keys.nbytes + inst.line_keys.nbytes)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("form", ["compact", "spaced", "malformed"])
def test_read_instance_takes_a_pipe(tmp_path, form):
    # a pipe cannot seek or be read twice: the same instance or error as
    # the same bytes in a regular file, from one open of the path
    doc = streamed_bytes([1, 5, 13], [2, 7, 9 * 9 + 4], 9 if form == "malformed" else 11)
    doc = {"compact": doc, "spaced": doc[:-1] + b" \n", "malformed": doc}[form]
    regular, pipe = tmp_path / "regular.json", tmp_path / "pipe.json"
    regular.write_bytes(doc)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(doc,), daemon=True)
    writer.start()
    opened = []

    def open_once(file, *args, **kwargs):
        assert not opened, "the path was opened twice"
        opened.append(file)
        return open(file, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "open", open_once, raising=False)
        through_pipe = read_outcome(pipe)
    writer.join()
    expected = read_outcome(regular)
    if isinstance(expected[0], str):
        expected = (expected[0].replace(str(regular), str(pipe)), expected[1])
    assert through_pipe == expected
    assert isinstance(expected[0], str) == (form == "malformed")


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
