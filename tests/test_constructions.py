import pytest

from conftest import pencil
from incidencelab.constructions import (
    SeededStream,
    cartesian_instance,
    elekes_construction,
    full_plane,
    random_instance,
)
from incidencelab.errors import (
    CharacteristicTooSmallError,
    InvalidParameterError,
    OutOfRangeError,
    TooManyRequestedError,
)
from incidencelab.files import instance_to_dict
from incidencelab.incidence import count_incidences, richness_histograms
from incidencelab.plane import AffineLine, AffinePoint, incident


def test_elekes_rejects_nonpositive_parameters():
    for a, c in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(InvalidParameterError):
            elekes_construction(a, c, 101)


def test_elekes_examples():
    inst = elekes_construction(2, 1, 7)
    assert (inst.m, inst.n, count_incidences(inst)) == (8, 2, 4)
    inst = elekes_construction(3, 2, 31)
    assert (inst.m, inst.n, count_incidences(inst)) == (36, 12, 36)


def test_elekes_characteristic_guard():
    with pytest.raises(CharacteristicTooSmallError):
        elekes_construction(2, 2, 7)  # 2ac = 8 >= 7


def test_elekes_every_line_has_a_points():
    for a in range(1, 9):
        for c in range(1, 5):
            p = 1009
            inst = elekes_construction(a, c, p)
            assert inst.m == 2 * a * a * c and inst.n == a * c * c
            hist = richness_histograms(inst)
            assert set(hist.per_line.tolist()) == {a}
            assert count_incidences(inst) == a * a * c * c


def test_elekes_tightness_ratio():
    # I / (a^(3/4) (2ac)^(1/2) (ac^2)^(3/4)) simplifies to 2^(-1/2)
    for a, c in [(2, 1), (3, 2), (8, 4)]:
        inst = elekes_construction(a, c, 1009)
        count = count_incidences(inst)
        denom = a ** 0.75 * (2 * a * c) ** 0.5 * (a * c * c) ** 0.75
        assert count / denom == pytest.approx(2 ** -0.5, abs=1e-12)


@pytest.mark.parametrize("p,expected", [(3, 36), (5, 150)])
def test_full_plane(p, expected):
    inst = full_plane(p)
    assert inst.m == p * p and inst.n == p * p + p
    assert count_incidences(inst) == expected


def test_full_plane_rejects_two():
    with pytest.raises(OutOfRangeError):
        full_plane(2)


def test_cartesian_examples():
    inst = cartesian_instance([0, 1], [0, 1], [AffineLine(1, 0, 5).key()], 5)
    assert inst.m == 4 and inst.n == 1 and count_incidences(inst) == 2
    horizontals = [AffineLine(0, t, 11).key() for t in range(5)]
    inst = cartesian_instance(range(5), range(5), horizontals, 11)
    assert count_incidences(inst) == 25


def test_cartesian_matches_elekes():
    # the lines y = s x + t for 1 <= s <= c and 1 <= t <= ac, as keys
    for a, c, p in ((2, 1, 7), (3, 2, 31)):
        lines = [s * p + t for s in range(1, c + 1) for t in range(1, a * c + 1)]
        inst = cartesian_instance(range(1, a + 1), range(1, 2 * a * c + 1), lines, p)
        assert inst == elekes_construction(a, c, p)


def test_cartesian_spanned():
    inst = cartesian_instance([0, 1], [0, 1], "spanned", 5)
    assert inst.n == 6  # 2 horizontals, 2 verticals, 2 diagonals


def test_random_instance_contract():
    inst = random_instance(7, 3, 2, seed=42)
    assert inst.m == 3 and inst.n == 2


def test_random_instance_determinism():
    a = random_instance(7, 3, 2, seed=42)
    b = random_instance(7, 3, 2, seed=42)
    assert instance_to_dict(a) == instance_to_dict(b)
    c = random_instance(7, 3, 2, seed=43)
    assert a != c or a.points == c.points  # different seeds usually differ


def test_random_instance_too_many():
    with pytest.raises(TooManyRequestedError):
        random_instance(7, 50, 1, seed=1)
    with pytest.raises(TooManyRequestedError):
        random_instance(7, 1, 57, seed=1)
    # the exact capacities are allowed
    inst = random_instance(3, 9, 12, seed=0)
    assert inst.m == 9 and inst.n == 12


def test_seeded_stream_rejection_is_uniform_range():
    stream = SeededStream(123)
    vals = [stream.below(10) for _ in range(1000)]
    assert set(vals) <= set(range(10))
    assert len(set(vals)) == 10


def test_pencil_examples():
    vertex = AffinePoint(0, 0, 5)
    lines = pencil(vertex, [1, 2])
    assert lines == frozenset({AffineLine(1, 0, 5), AffineLine(2, 0, 5)})
    full = pencil(vertex, range(5), include_vertical=True)
    assert len(full) == 6
    assert all(incident(vertex, line) for line in full)


def test_two_pencils_share_at_most_one_line():
    stream = SeededStream(8)
    for _ in range(30):
        p = (5, 7, 11)[stream.below(3)]
        v1 = AffinePoint(stream.below(p), stream.below(p), p)
        v2 = AffinePoint(stream.below(p), stream.below(p), p)
        if v1 == v2:
            continue
        p1 = pencil(v1, range(p), include_vertical=True)
        p2 = pencil(v2, range(p), include_vertical=True)
        assert len(p1 & p2) <= 1
