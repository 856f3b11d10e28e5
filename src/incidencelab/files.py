"""Instance, energy and 3D instance files: reading, writing and the JSON
form of a point or a line.

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

Every reader below raises ParseError on a malformed file, so the CLI exits
2 with one error line.  JSON true and false are not integers anywhere in
these files.  write_instance emits the canonical compact form in one
encode, and read_instance streams that form straight into the key columns:
it reads the file in pieces of 64 KiB and matches each section of the form
(head, sloped lines, vertical lines, p, points, tail) with a regex of its
own, and the complete entries of each piece are keyed at once, so the read
holds the keys and no copy of the file.  The keys, which ascend in such a
file, are not sorted again.  Any other file, or one whose p or values fail
their check, goes through json.loads and the per-entry check, which names
the first bad entry; read_energy_input always does.

This is the only file layer a count loads: the 3D reader builds its
instance through the energy module, which runs on first use (see
__init__).
"""

from __future__ import annotations

import io
import json
import re
import warnings

import numpy as np

from . import energy
from .errors import CompositeModulusError, InvalidParameterError, OutOfRangeError, ParseError
from .field import PrimeModulus, make_modulus
from .plane import Instance


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
# Input files.  An instance file may hold 10^5 entries: read_instance streams
# write_instance's compact form into the key columns in pieces, with no JSON
# object tree and no copy of the file, and only any other file goes through
# json.loads and the per-entry check
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


def _run(entry: bytes) -> re.Pattern:
    """A run of entries, each after a comma but a list's first: group 1 is
    the comma before the run's first entry, if any."""
    return re.compile(rb"(,?)%s(?:,%s)*+" % (entry, entry))


# the sections of the form, in file order.  A scan stays in a run of entries
# until a later section matches, and the tail must end the file
_SECTIONS = (
    re.compile(rb'\{"lines":\['),
    _run(_SLOPED),
    _run(_VERTICAL),
    re.compile(rb'\],"p":(%s),"points":\[' % _INT),
    _run(_POINT),
    re.compile(rb"\]\}\n?+"),
)
_HEAD, _SLOPED_RUN, _VERTICAL_RUN, _SEPARATOR, _POINT_RUN, _TAIL = range(len(_SECTIONS))
_RUNS = (_SLOPED_RUN, _VERTICAL_RUN, _POINT_RUN)
# every byte but a digit becomes a space
_DIGITS = bytes(b if 0x30 <= b <= 0x39 else 0x20 for b in range(256))
# bytes read at a time; an entry cut at the end of a piece waits in a carry
# for the next one
_CHUNK = 1 << 16
# the longest entry with its comma takes 44 bytes and the separator 27, so
# a carry this long that matches no section never will
_CARRY = 64
# the key of a sloped line (s, t) is held as s * 2^_SHIFT + t until p is read
_SHIFT = 31


def _scan_instance(fh) -> tuple[PrimeModulus, np.ndarray, np.ndarray] | None:
    """(modulus, point keys, line keys) of a file in the compact form with a
    prime p and every value below p, else None.  The binary handle fh is
    read in pieces of _CHUNK bytes, and the complete entries of each piece
    are keyed at once: no copy of the file and no column of all its
    integers is built."""
    sloped, vertical, points = [], [], []  # the keyed pieces of each list
    buf, pos, eof = b"", 0, False
    section, first = _HEAD, True  # first: no entry yet in the current list
    while True:
        for at in range(section, len(_SECTIONS)):
            match = _SECTIONS[at].match(buf, pos)
            if match or at not in _RUNS:
                break
        if match is None or at == _TAIL and not (eof and match.end() == len(buf)):
            if eof or len(buf) - pos >= _CARRY:
                return None
            piece = fh.read(_CHUNK)
            buf, pos, eof = buf[pos:] + piece, 0, not piece
            continue
        pos, section = match.end(), at if at in _RUNS else at + 1
        if at == _TAIL:
            return modulus, np.concatenate([*points, np.empty(0, np.int64)]), lines
        if at in _RUNS:
            if bool(match[1]) == first:
                return None  # a comma before a list's first entry, or none between two
            first = False
            values = np.fromstring(match[0].translate(_DIGITS), dtype=np.int64, sep=" ")
            if at == _VERTICAL_RUN:
                vertical.append(values)
            elif values.max() >= (p if at == _POINT_RUN else 1 << _SHIFT):
                return None  # a value of 2^31 or more is at least any p
            elif at == _POINT_RUN:
                points.append(values[0::2] * p + values[1::2])
            else:
                sloped.append(values[0::2] << _SHIFT | values[1::2])
        elif at == _SEPARATOR:
            try:
                modulus = make_modulus(int(match[1]))
            except (CompositeModulusError, OutOfRangeError):
                return None
            p, first = modulus.p, True
            for keys in sloped:
                t = keys & ((1 << _SHIFT) - 1)
                keys >>= _SHIFT
                if max(keys.max(), t.max()) >= p:
                    return None
                keys *= p
                keys += t
            for keys in vertical:
                if keys.max() >= p:
                    return None
                keys += p * p
            lines = np.concatenate([*sloped, *vertical, np.empty(0, np.int64)])
            sloped.clear()
            vertical.clear()


def instance_to_dict(inst: Instance) -> dict:
    s, t, vertical = (c.tolist() for c in inst.line_columns)
    lines = [{"kind": "sl", "s": a, "t": b} for a, b in zip(s, t)] + [{"kind": "v", "x": x0} for x0 in vertical]
    return {"p": inst.p, "points": np.column_stack(inst.xy).tolist(), "lines": lines}


def read_instance(path) -> Instance:
    """Read an instance file, deduplicating with a warning on duplicates."""
    with open(path, "rb") as fh:
        # a pipe cannot seek back for the JSON path, so it is read whole
        source = fh if fh.seekable() else io.BytesIO(fh.read())
        scanned = _scan_instance(source)
        if scanned is None:
            source.seek(0)
            data = _load_json(path, _read_text(path, source.read()))
    if scanned is None:
        modulus = _modulus(data, "points", "lines")
        p = modulus.p
        points = np.array([_point_key(entry, p, i) for i, entry in enumerate(data["points"])], dtype=np.int64)
        scanned = modulus, points, _line_keys(data["lines"], p)
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


def read_instance3d(path) -> energy.PlaneInstance3D:
    data = _load_json(path)
    p = _modulus(data, "points", "planes").p
    _require(data["points"], "field 'points' must be nonempty")
    points = [_ints(entry, 3, "points", i) for i, entry in enumerate(data["points"])]
    planes = [_ints(entry, 4, "planes", i) for i, entry in enumerate(data["planes"])]
    try:
        return energy.PlaneInstance3D.build(p, points, planes)
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
