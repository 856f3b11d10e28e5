import pytest

from incidencelab.constructions import SeededStream
from incidencelab.energy import (
    arithmetic_image,
    cs_bridge_check,
    energy_reduction,
    line_energy,
    sumproduct_report,
)
from incidencelab.errors import (
    CompositeModulusError,
    DegenerateInputError,
    EmptyInputError,
    InvalidParameterError,
    VerticalLinePresentError,
)
from incidencelab.field import make_modulus
from incidencelab.incidence import count_point_plane, max_collinear_3d
from incidencelab.plane import AffineLine, Instance


def brute_energy(A, lines, p):
    """Oracle: enumerate all six-tuples over (A x L*)^2."""
    duals = sorted({(l.slope, l.intercept) for l in lines})
    xs = sorted({x % p for x in A})
    items = [(x, s, t) for x in xs for s, t in duals]
    return sum(
        1
        for (x, s, t) in items
        for (x2, s2, t2) in items
        if (x * s + t) % p == (x2 * s2 + t2) % p
    )


def _random_lines(stream, p, n):
    return [AffineLine(stream.below(p), stream.below(p), p) for _ in range(n)]


def keys(lines):
    """The line keys (AffineLine.key) of the lines."""
    return [line.key() for line in lines]


def family(line_keys, p):
    """The lines with the given keys as an Instance over F_p without points,
    the form the energy functions take."""
    return Instance(make_modulus(p), point_keys=(), line_keys=line_keys)


def test_line_energy_examples():
    lines = [AffineLine(0, 0, 5), AffineLine(1, 0, 5)]
    e = line_energy([0, 1], family(keys(lines), 5))
    assert e.value == 10
    assert e.table == {0: 3, 1: 1}
    assert brute_energy([0, 1], lines, 5) == 10
    assert line_energy([0], family([0], 5)).value == 1
    assert line_energy([0, 1, 2], family([AffineLine(1, 0, 5).key()], 5)).value == 3
    # A is read mod p
    assert line_energy([0, 1, 6], family(keys(lines), 5)) == line_energy([0, 1], family(keys(lines), 5))


def test_line_energy_rejects_vertical():
    with pytest.raises(VerticalLinePresentError):
        line_energy([0, 1], family([AffineLine(None, 2, 5).key()], 5))


# each energy function on the lines with the given keys over F_p; the keys
# and p are checked where the line Instance is built, the vertical lines in
# the energy function
ENERGY_CALLS = {
    "line_energy": lambda A, line_keys, p: line_energy(A, family(line_keys, p)),
    "energy_reduction": lambda A, line_keys, p: energy_reduction(A, family(line_keys, p)),
    "cs_bridge_check": lambda A, line_keys, p: cs_bridge_check(A, [0, 1], family(line_keys, p)),
}


@pytest.mark.parametrize("call", ENERGY_CALLS.values(), ids=ENERGY_CALLS.keys())
def test_energy_rejects_a_line_of_another_modulus(call):
    # keys carry no modulus: the key 35 of y = 5x over F_7 lies outside the
    # line keys [0, 30) of F_5, and so does a negative key
    with pytest.raises(InvalidParameterError):
        call([0, 1, 2], [AffineLine(5, 0, 7).key()], 5)
    with pytest.raises(InvalidParameterError):
        call([0, 1, 2], [AffineLine(1, 0, 5).key(), 30], 5)
    with pytest.raises(InvalidParameterError):
        call([0, 1, 2], [AffineLine(1, 0, 5).key(), -1], 5)


@pytest.mark.parametrize("call", ENERGY_CALLS.values(), ids=ENERGY_CALLS.keys())
def test_energy_rejects_vertical_and_composite_modulus(call):
    with pytest.raises(VerticalLinePresentError):
        call([0, 1], keys([AffineLine(1, 0, 5), AffineLine(None, 2, 5)]), 5)
    with pytest.raises(CompositeModulusError):
        call([0, 1], [AffineLine(1, 0, 9).key()], 9)
    with pytest.raises(CompositeModulusError):
        call([0, 1], [], 9)


def test_line_energy_matches_bruteforce_50_random():
    stream = SeededStream(2024)
    for _ in range(50):
        p = (5, 7, 11, 13, 17)[stream.below(5)]
        a = 1 + stream.below(6)
        n = 1 + stream.below(max(1, 200 // a))
        A = {stream.below(p) for _ in range(a)}
        lines = set(_random_lines(stream, p, n))
        e = line_energy(A, family(keys(lines), p))
        assert e.value == brute_energy(A, lines, p)
        assert e.value >= len(A) * len(lines)  # diagonal solutions
        assert sum(c * c for c in e.table.values()) == e.value


def test_energy_reduction_examples():
    lines = [AffineLine(0, 0, 5), AffineLine(1, 0, 5)]
    red = energy_reduction([0, 1], family(keys(lines), 5))
    assert red.r == 4 and red.s == 4
    assert count_point_plane(red) == 10
    assert energy_reduction([5, 6], family(keys(lines), 5)) == red
    red1 = energy_reduction([0], family([0], 5))
    assert red1.r == red1.s == 1 and count_point_plane(red1) == 1


def test_energy_reduction_equals_energy_50_random():
    stream = SeededStream(31337)
    for _ in range(50):
        p = (5, 7, 11, 13)[stream.below(4)]
        a = 1 + stream.below(4)
        n = 1 + stream.below(max(1, 120 // a))
        A = {stream.below(p) for _ in range(a)}
        lines = set(_random_lines(stream, p, n))
        red = energy_reduction(A, family(keys(lines), p))
        assert red.r == red.s == len(A) * len(lines)
        assert count_point_plane(red) == line_energy(A, family(keys(lines), p)).value


def _max_concurrent_or_parallel(lines, p):
    """Most lines sharing a point, or sharing a slope (parallel class)."""
    from collections import Counter
    slopes = Counter(l.slope for l in lines)
    best = max(slopes.values())
    lines = list(lines)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b = lines[i], lines[j]
            if a.slope == b.slope:
                continue
            from incidencelab.field import inv_mod
            x = (b.intercept - a.intercept) * inv_mod(a.slope - b.slope, p) % p
            y = (a.slope * x + a.intercept) % p
            through = sum(1 for l in lines if (l.slope * x + l.intercept) % p == y)
            best = max(best, through)
    return best


def test_reduction_collinearity_bound_50_random():
    stream = SeededStream(515)
    for _ in range(50):
        p = (5, 7, 11)[stream.below(3)]
        a = 1 + stream.below(4)
        A = {stream.below(p) for _ in range(a)}
        lines = set(_random_lines(stream, p, 1 + stream.below(12)))
        red = energy_reduction(A, family(keys(lines), p))
        bound = max(len(A), _max_concurrent_or_parallel(lines, p))
        assert max_collinear_3d(red.points, p) <= bound


def test_cs_bridge_examples():
    lines = [AffineLine(0, 0, 5), AffineLine(1, 0, 5)]
    res = cs_bridge_check([0, 1], [0, 1], family(keys(lines), 5))
    assert res.incidences == 4
    assert res.energy == 10
    assert res.bound == 20 and res.holds
    empty = cs_bridge_check([0, 1], [], family(keys(lines), 5))
    assert empty.incidences == 0 and empty.holds


def test_cs_bridge_holds_100_random():
    stream = SeededStream(717)
    for _ in range(100):
        p = (5, 7, 11, 13)[stream.below(4)]
        A = {stream.below(p) for _ in range(1 + stream.below(5))}
        B = {stream.below(p) for _ in range(1 + stream.below(5))}
        lines = set(_random_lines(stream, p, 1 + stream.below(15)))
        res = cs_bridge_check(A, B, family(keys(lines), p))
        assert res.holds, "the Cauchy-Schwarz inequality must always hold"
        assert res.incidences ** 2 <= len(set(b % p for b in B)) * res.energy


def test_arithmetic_image_examples():
    assert arithmetic_image("A+A", 7, A=[1, 2]) == {2, 3, 4}
    assert arithmetic_image("A*A", 7, A=[1, 2]) == {1, 2, 4}
    assert arithmetic_image("A*(A+1)", 7, A=[1, 2]) == {2, 3, 4, 6}
    assert arithmetic_image("x^2+xy", 7, A=[1, 2], B=[0, 1]) == {1, 2, 4, 6}
    assert arithmetic_image("A+B*C", 7, A=[0], B=[1], C=[1, 2]) == {1, 2}
    assert arithmetic_image("A*(B+C)", 7, A=[2], B=[1], C=[0, 1]) == {2, 4}


def test_arithmetic_image_empty_input():
    with pytest.raises(EmptyInputError):
        arithmetic_image("A+A", 7, A=[])
    with pytest.raises(EmptyInputError):
        arithmetic_image("A+B*C", 7, A=[1], B=[1], C=None)


def test_progression_image_sizes():
    # arithmetic progression without wraparound: |A+A| = 2|A| - 1
    p = 101
    A = list(range(1, 11))
    assert len(arithmetic_image("A+A", p, A=A)) == 19
    # geometric progression with product range below p: |A*A| = 2|A| - 1
    G = [2**k for k in range(5)]  # products reach 2^8 = 256 < 1009
    assert len(arithmetic_image("A*A", 1009, A=G)) == 9


def test_sumproduct_report_51():
    rep = sumproduct_report("5.1", 31, A=[1, 2, 4])
    # oracle: direct enumeration of the 9 sums and products
    sums = {(u + v) % 31 for u in (1, 2, 4) for v in (1, 2, 4)}
    prods = {(u * v) % 31 for u in (1, 2, 4) for v in (1, 2, 4)}
    assert rep.images == {"A+A": len(sums), "A*A": len(prods)}
    assert rep.m_max == 6 and rep.m_min == 5
    assert rep.ratio == pytest.approx(6 / 3**1.2)


def test_sumproduct_report_53_example():
    rep = sumproduct_report("5.3", 7, A=[1], B=[1], C=[1, 2])
    assert rep.images["A+B*C"] == 2


def test_sumproduct_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        sumproduct_report("5.2", 7, A=[0])
    with pytest.raises(DegenerateInputError):
        sumproduct_report("expander", 7, A=[0], B=[1, 2])
    with pytest.raises(DegenerateInputError):
        sumproduct_report("5.3", 7, A=[1], B=[0], C=[1])


def test_sumproduct_condition_evaluation():
    # |A| = 4, p = 7: 4^8 = 65536 > 7^5 = 16807, so the size condition fails
    rep = sumproduct_report("5.1", 7, A=[1, 2, 3, 4])
    assert not rep.condition_holds
    rep = sumproduct_report("5.1", 1009, A=[1, 2, 3, 4])
    assert rep.condition_holds


def test_expander_report_main_term():
    rep = sumproduct_report("expander", 101, A=[1, 2, 3], B=[1, 2, 3, 4])
    assert rep.main_term == pytest.approx(min(3**0.5 * 4**0.75, 16.0))
    img = arithmetic_image("x^2+xy", 101, A=[1, 2, 3], B=[1, 2, 3, 4])
    assert rep.images["x^2+xy"] == len(img)
