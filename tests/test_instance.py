"""The key-column Instance and the batched seeded stream.

An Instance is two sorted int64 key columns; its object views, equality,
key checks and duplicates must behave as they did when it held sorted
object tuples.  SeededStream.sample_distinct mixes its outputs in numpy
batches; the scalar loop below is the reference it must reproduce, draw for
draw and state for state.
"""

import hashlib

import numpy as np
import pytest

import incidencelab.constructions as constructions
from conftest import random_instances, vertical_free
from incidencelab.cli import cli
from incidencelab.constructions import SeededStream, elekes_construction, full_plane, random_instance
from incidencelab.errors import InvalidParameterError
from incidencelab.field import make_modulus
from incidencelab.harness import instance_to_dict
from incidencelab.incidence import count_incidences
from incidencelab.plane import AffineLine, AffinePoint, Instance, dualize


def oracle_sample_distinct(stream: SeededStream, bound: int, count: int) -> list[int]:
    """count distinct integers from [0, bound), drawn one at a time."""
    seen = set()
    out = []
    while len(out) < count:
        v = stream.below(bound)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _check_calls(seed, calls):
    batched, scalar = SeededStream(seed), SeededStream(seed)
    for bound, count in calls:
        got = batched.sample_distinct(bound, count)
        assert got.dtype == np.int64
        assert got.tolist() == oracle_sample_distinct(scalar, bound, count), (seed, bound, count)
        assert batched.state == scalar.state, (seed, bound, count)
    # the streams continue identically
    assert batched.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("p", [3, 5, 7, 31, 1009, 1048573, 2147483647])
def test_sample_distinct_matches_scalar_loop(p):
    for seed in range(25):
        small = p <= 31
        # back-to-back calls on one stream: points, then lines, then more
        # points; small fields are drawn to exhaustion
        m = p * p if small else 40 + seed
        n = p * p + p if small else 30 + 2 * seed
        _check_calls(seed * 7919 + p, [(p * p, m), (p * p + p, n), (p * p, min(p * p, 5 + seed)), (p, 1)])


@pytest.mark.parametrize("max_batch", [1, 2, 3, 5, 64])
def test_sample_distinct_every_batch_boundary(monkeypatch, max_batch):
    # small batches end on every possible draw, also on the last needed one
    # with rejected or repeated draws after it in the same batch
    monkeypatch.setattr(constructions, "_MAX_BATCH", max_batch)
    for seed in range(10):
        _check_calls(seed, [(9, 9), (12, 12), (49, 20), (2147483647 ** 2, 50), (3, 2), (3, 3)])


def test_sample_distinct_power_of_two_bound():
    # 2^64 is a multiple of the bound, so no draw is rejected (limit 2^64)
    for seed in range(25):
        _check_calls(seed, [(1 << 10, 1 << 10), (1 << 40, 200), (1, 1), (2, 2), (1 << 62, 30)])


def test_sample_distinct_edge_counts():
    _check_calls(5, [(7, 0), (7, 7), (1, 0)])
    with pytest.raises(InvalidParameterError):
        SeededStream(1).sample_distinct(3, 4)
    with pytest.raises(InvalidParameterError):
        SeededStream(1).sample_distinct(3, -1)


def test_random_instance_matches_scalar_draws():
    for p, m, n, seed in ((13, 60, 90, 2), (3, 9, 12, 0), (65537, 500, 700, 9)):
        stream = SeededStream(seed)
        point_keys = oracle_sample_distinct(stream, p * p, m)
        line_keys = oracle_sample_distinct(stream, p * p + p, n)
        points = [AffinePoint(k // p, k % p, p) for k in point_keys]
        lines = [AffineLine.from_key(k, p) for k in line_keys]
        inst = random_instance(p, m, n, seed)
        assert inst.points == tuple(sorted(points))
        assert inst.lines == tuple(sorted(lines, key=AffineLine.sort_key))


def _objects(p, seed, size):
    stream = SeededStream(seed)
    points = [AffinePoint(stream.below(p), stream.below(p), p) for _ in range(size)]
    lines = [AffineLine(stream.below(p), stream.below(p), p) for _ in range(size)]
    lines += [AffineLine(None, stream.below(p), p) for _ in range(size // 4)]
    return points, lines


@pytest.mark.parametrize("p", [3, 7, 101, 2147483647])
def test_object_and_key_constructors_agree(p):
    """The object views of an instance built from the keys of some objects
    are those objects, sorted and deduplicated."""
    mod = make_modulus(p)
    for seed in range(10):
        points, lines = _objects(p, seed, 60)
        inst = Instance(mod, point_keys=[q.x * p + q.y for q in points], line_keys=[l.key() for l in lines])
        assert inst.points == tuple(sorted(set(points)))
        assert inst.lines == tuple(sorted(set(lines), key=AffineLine.sort_key))
        assert count_incidences(inst, "naive") == count_incidences(inst, "hash_join")


def test_instance_columns_follow_key_order():
    inst = Instance(make_modulus(7), point_keys=[3 * 7 + 1, 0 * 7 + 6, 3 * 7 + 0],
                    line_keys=[AffineLine(None, 2, 7).key(), AffineLine(5, 1, 7).key(), AffineLine(0, 4, 7).key()])
    assert inst.point_keys.tolist() == [6, 21, 22]
    assert inst.line_keys.tolist() == [4, 36, 51]
    assert [c.tolist() for c in inst.xy] == [[0, 3, 3], [6, 0, 1]]
    assert [c.tolist() for c in inst.line_columns] == [[0, 5], [4, 1], [2]]
    assert [c.tolist() for c in inst.column_runs] == [[0, 3], [0, 1, 3]]
    assert [c.tolist() for c in inst.slope_runs] == [[0, 5], [0, 1, 2]]
    with pytest.raises(ValueError):
        inst.point_keys[0] = 1  # the columns are read-only


def test_instance_rejects_bad_keys_and_forms():
    mod = make_modulus(7)
    for point_keys, line_keys in (([49], []), ([-1], []), ([], [56]), ([], [-3])):
        with pytest.raises(InvalidParameterError):
            Instance(mod, point_keys=point_keys, line_keys=line_keys)
    Instance(mod, point_keys=[48], line_keys=[55])  # the largest keys
    # the keys are the one form, by keyword only, and both are required
    for args, kwargs in (((mod, [], []), {}), ((mod, [], []), {"point_keys": [1], "line_keys": []}),
                         ((mod,), {"point_keys": [1]}), ((mod,), {})):
        with pytest.raises(TypeError):
            Instance(*args, **kwargs)


def test_instance_refuses_keys_that_are_not_integers():
    # floats, bools, strings and integers past int64 are refused, not cast;
    # an empty sequence, float64 to numpy, is no keys
    mod = make_modulus(7)
    for keys in ([1.9, 3.2], [3.0], [True], np.array([False, True]), ["3"], [2**70], [[1, 2]], 5):
        for point_keys, line_keys in ((keys, []), ([], keys)):
            with pytest.raises(InvalidParameterError):
                Instance(mod, point_keys=point_keys, line_keys=line_keys)
    with pytest.raises(InvalidParameterError, match="point keys must lie in"):
        Instance(mod, point_keys=[2**63], line_keys=[])  # uint64 to numpy
    empty = Instance(mod, point_keys=(), line_keys=np.empty(0))
    assert (empty.m, empty.n) == (0, 0) and empty.point_keys.dtype == empty.line_keys.dtype == np.int64
    small = Instance(mod, point_keys=np.array([5, 3], np.int32), line_keys=np.array([55], np.uint8))
    assert small.point_keys.tolist() == [3, 5] and small.line_keys.tolist() == [55]


def test_instance_duplicates_collapse():
    mod = make_modulus(7)
    inst = Instance(mod, point_keys=[5, 3, 5, 5, 48], line_keys=[55, 0, 55])
    assert (inst.m, inst.n) == (3, 2)
    assert inst.points == (AffinePoint(0, 3, 7), AffinePoint(0, 5, 7), AffinePoint(6, 6, 7))
    assert inst.lines == (AffineLine(0, 0, 7), AffineLine(None, 6, 7))


def test_empty_instance():
    mod = make_modulus(5)
    inst = Instance(mod, point_keys=[], line_keys=[])
    assert (inst.m, inst.n, inst.points, inst.lines) == (0, 0, (), ())
    assert count_incidences(inst) == count_incidences(inst, "naive") == 0
    assert instance_to_dict(inst) == {"p": 5, "points": [], "lines": []}
    assert dualize(inst) == inst
    assert inst == Instance(mod, point_keys=np.empty(0, np.int64), line_keys=())


def test_dualize_keys_involution():
    for inst in random_instances(30, seed=77, max_m=80, max_n=80):
        inst = vertical_free(inst)
        dual = dualize(inst)
        p = inst.p
        assert dual.points == tuple(sorted(AffinePoint(l.slope, -l.intercept, p) for l in inst.lines))
        assert dualize(dual) == inst


CONSTRUCT = {
    "random --p 13 --m 60 --n 90 --seed 2": "6e564d271bb6468281bf999ebbccf20cdeca1b33f145cbfcfa58c1c15c72e276",
    "random --p 101 --m 80 --n 120 --seed 5": "f973d459444fb419d5ba73d3a43da489e0d2a83baad20135dee86d6e91c153e0",
    "random --p 3 --m 9 --n 12 --seed 0": "29786311057c240694a856fcd6ce074a1068371e0523bc9a61526159ac7cb48e",
    "random --p 2147483647 --m 30 --n 10 --seed 4": "d16e9747b4e3d10c138ea4c3c92817a2b33c43884889e2fd1459663ec072e7e8",
    "random --p 1048573 --m 2000 --n 2000 --seed 7": "f020fcb7435c230dcc28d6bb540ddc102609ec0726d14131787040829f391fef",
    "random --p 31 --m 961 --n 992 --seed 11": "7b06e38832bad05280751997be57c9943aac49cd9b7874cc48d949c2a93d5bc3",
    "full_plane --p 7": "0fa83a50cc3c35f47e069ce97b4facd43c248f0e61ca26d4b79f94f848cdd17d",
    "full_plane --p 23": "5b207fa8a82b33337261ba0f9f48a32ee84c0f0b3f51acd3aad4fc70b35a175d",
    "elekes --a 3 --c 2 --p 31": "d51291bc559b5edef870f7cc5a80cbd9eea67c3db3adeaf8ac6f7aa73383ccdd",
    "elekes --a 5 --c 4 --p 101": "8279cd7302bfea3e4cadda4d15e56e64dc9c7da2bd3acc82753465eb57bc596d",
}

# the same instances written with --output (compact separators)
CONSTRUCT_FILES = {
    "random --p 13 --m 60 --n 90 --seed 2": "860e02acbd581ff61b5816f905279bb03b20ec4820ef52e0a4e7ee3c60ad7d2a",
    "random --p 3 --m 9 --n 12 --seed 0": "6d3c548400d0b71b13e1feda7ca0e09eeb9bda34b2c138fff7d9ab13819cf252",
    "full_plane --p 7": "3628d8a64601897fb5dd0b557bd8251707402d0d24fc95765534e6f3526e79c6",
    "elekes --a 3 --c 2 --p 31": "a686a019b717b335317f43ae3b34e00d51a2cd79bce9c1481f1363d69d924504",
}


@pytest.mark.parametrize("args", sorted(CONSTRUCT))
def test_construct_output_bytes_unchanged(capsys, args):
    # digests of the output of the object-tuple Instance and the scalar stream
    assert cli(["construct", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CONSTRUCT[args]


@pytest.mark.parametrize("args", sorted(CONSTRUCT_FILES))
def test_construct_file_bytes_unchanged(tmp_path, args):
    path = tmp_path / "inst.json"
    assert cli(["construct", *args.split(), "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONSTRUCT_FILES[args]


def test_generators_build_no_objects():
    for inst in (full_plane(31), elekes_construction(4, 3, 101), random_instance(1009, 300, 300, 1)):
        count_incidences(inst)
        instance_to_dict(inst)
        assert "points" not in vars(inst) and "lines" not in vars(inst)
