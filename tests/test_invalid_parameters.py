"""Library calls with a bad argument raise InvalidParameterError, an
incidencelab.Error that is still a ValueError for callers that catch one."""

import json
from fractions import Fraction

import pytest

from incidencelab.bounds import check_hypotheses, reference_bound
from incidencelab.constructions import SeededStream, cartesian_instance, full_plane
from incidencelab.cover import grid_cover
from incidencelab.distances import bisector_instance
from incidencelab.energy import (
    PlaneInstance3D,
    arithmetic_image,
    canonical_plane,
    cs_bridge_check,
    energy_reduction,
    line_energy,
    sumproduct_report,
)
from incidencelab.errors import CompositeModulusError, Error, InvalidParameterError, OutOfRangeError, ParseError
from incidencelab.field import make_modulus
from incidencelab.files import read_instance3d
from incidencelab.incidence import count_incidences, max_collinear_3d
from incidencelab.plane import Instance, ProjMap

SITES = {
    "count_incidences-unknown-engine": lambda: count_incidences(full_plane(3), "x"),
    "max_collinear_3d-no-points": lambda: max_collinear_3d([], 7),
    "canonical_plane-zero-normal": lambda: canonical_plane(0, 0, 0, 1, 7),
    "reference_bound-empty-side": lambda: reference_bound(0, 5),
    "reference_bound-vinh-without-p": lambda: reference_bound(5, 5, None, "vinh"),
    "reference_bound-unknown-comparator": lambda: reference_bound(5, 5, 7, "x"),
    "check_hypotheses-1.2-without-m": lambda: check_hypotheses("1.2", n=4, p=7),
    "check_hypotheses-1.3-without-a": lambda: check_hypotheses("1.3", b=4, n=4, p=7),
    "check_hypotheses-1.4-without-r": lambda: check_hypotheses("1.4", s=4, p=7),
    "check_hypotheses-unknown-theorem": lambda: check_hypotheses("9.9", p=7),
    "Instance-line-key-range": lambda: Instance(make_modulus(5), point_keys=(), line_keys=[30]),
    "Instance-negative-key": lambda: Instance(make_modulus(5), point_keys=(), line_keys=[-1]),
    "PlaneInstance3D.build-float-coordinate": lambda: PlaneInstance3D.build(5, [(0.5, 1, 2)], [(1, 0, 0, 0)]),
    "PlaneInstance3D.build-string-coordinate": lambda: PlaneInstance3D.build(5, [("1", 1, 2)], [(1, 0, 0, 0)]),
    "PlaneInstance3D.build-float-plane": lambda: PlaneInstance3D.build(5, [(1, 1, 2)], [(1, 0, 0, 0.5)]),
    "max_collinear_3d-float-coordinate": lambda: max_collinear_3d([(0.5, 0, 0), (1, 0, 0), (2.7, 0, 0)], 5),
    "max_collinear_3d-boolean-coordinate": lambda: max_collinear_3d([(True, 0, 0), (2, 0, 0)], 5),
    "bisector_instance-pin-out-of-range": lambda: bisector_instance([0], 25, 5),
    "SeededStream.below-zero": lambda: SeededStream(1).below(0),
    "SeededStream.sample_distinct-too-many": lambda: SeededStream(1).sample_distinct(3, 4),
    "cartesian_instance-unknown-family": lambda: cartesian_instance([1], [1], "x", 7),
    "ProjMap-singular": lambda: ProjMap(((1, 2, 3), (2, 4, 6), (0, 0, 1)), 7),
    "arithmetic_image-unknown-expression": lambda: arithmetic_image("A-A", 7, A=[1]),
    "sumproduct_report-unknown-corollary": lambda: sumproduct_report("9.9", 7, A=[1]),
    # a negative stop fraction emptied the working set, and the
    # preconditions divided by m = 0
    "grid_cover-negative-stop": lambda: grid_cover(full_plane(3), Fraction(1, 2), 2, -1),
    # a row of the wrong width: a 3-value plane was kept and the count
    # raised IndexError; a 2-value point raised a bare ValueError
    "PlaneInstance3D-plane-of-three-values": lambda: PlaneInstance3D(5, ((0, 0, 0),), ((1, 0, 0),)),
    "PlaneInstance3D.build-point-of-two-values": lambda: PlaneInstance3D.build(5, [(1, 2)], [(1, 0, 0, 0)]),
    "max_collinear_3d-point-of-two-values": lambda: max_collinear_3d([(1, 2)], 5),
    # integer sets: a float was deduplicated as a value of its own, then
    # cast, or kept as a float in the images
    "line_energy-float-in-A": lambda: line_energy([1, 1.5], _lines()),
    "energy_reduction-boolean-in-A": lambda: energy_reduction([True, 2], _lines()),
    "cs_bridge_check-float-in-B": lambda: cs_bridge_check([1, 2], [0.5], _lines()),
    "sumproduct_report-float-in-A": lambda: sumproduct_report("5.1", 7, A=[1.5, 2]),
    "arithmetic_image-float-in-A": lambda: arithmetic_image("A*A", 7, A=[0.5]),
    "arithmetic_image-string-in-C": lambda: arithmetic_image("A+B*C", 7, A=[1], B=[2], C="3"),
    "cartesian_instance-float-in-A": lambda: cartesian_instance([0.5, 1], [1], [], 7),
    "cartesian_instance-boolean-in-B": lambda: cartesian_instance([1], [False], [], 7),
    "ProjMap-float-entry": lambda: ProjMap(((1.5, 0, 0), (0, 1, 0), (0, 0, 1)), 7),
    "ProjMap-row-of-two-values": lambda: ProjMap(((1, 0), (0, 1, 0), (0, 0, 1)), 7),
    # a matrix of two or four rows raised a bare IndexError from _det3, or
    # was accepted with its fourth row
    "ProjMap-two-rows": lambda: ProjMap(((1, 0, 0), (0, 1, 0)), 7),
    "ProjMap-four-rows": lambda: ProjMap(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)), 7),
    # a row that is not iterable raised a bare TypeError
    "max_collinear_3d-row-not-iterable": lambda: max_collinear_3d([1, 2, 3], 5),
    "PlaneInstance3D-row-not-iterable": lambda: PlaneInstance3D(5, (1, 2, 3), ()),
    "PlaneInstance3D.build-row-not-iterable": lambda: PlaneInstance3D.build(5, [(1, 2, 3)], [1]),
    "ProjMap-row-not-iterable": lambda: ProjMap((1, 2, 3), 7),
    # the << constant: c = -1 passed 5.1's test as c^8 > 0, c = 0 failed
    # every test, and a string raised a bare ValueError from Fraction
    "check_hypotheses-negative-constant": lambda: check_hypotheses("1.4", r=1, s=2, p=7, c=-1),
    "check_hypotheses-zero-constant": lambda: check_hypotheses("1.3", a=1, b=2, n=3, p=7, c=0),
    "check_hypotheses-constant-not-a-number": lambda: check_hypotheses("1.4", r=1, s=2, p=7, c="x"),
    "check_hypotheses-infinite-constant": lambda: check_hypotheses("1.4", r=1, s=2, p=7, c=float("inf")),
    "sumproduct_report-negative-constant": lambda: sumproduct_report("5.1", 7, A=[1, 2], c=-1),
    "sumproduct_report-zero-constant": lambda: sumproduct_report("5.3", 7, A=[1], B=[2], C=[3], c=Fraction(0)),
    "sumproduct_report-constant-not-a-number": lambda: sumproduct_report("5.2", 7, A=[1], c="x"),
    # sizes below 1: m = 0 raised a bare ZeroDivisionError, a = -1 passed
    # 1.3's tests, and p = -3 a bare ValueError from sqrt
    "check_hypotheses-1.2-no-points": lambda: check_hypotheses("1.2", m=0, n=10, p=7),
    "check_hypotheses-1.2-no-lines": lambda: check_hypotheses("1.2", m=10, n=0, p=7),
    "check_hypotheses-1.3-negative-a": lambda: check_hypotheses("1.3", a=-1, b=2, n=3, p=7),
    "check_hypotheses-1.3-zero-b": lambda: check_hypotheses("1.3", a=1, b=0, n=3, p=7),
    "check_hypotheses-1.4-zero-r": lambda: check_hypotheses("1.4", r=0, s=2, p=7),
    "check_hypotheses-1.4-negative-s": lambda: check_hypotheses("1.4", r=1, s=-2, p=7),
    "check_hypotheses-zero-p": lambda: check_hypotheses("1.4", r=1, s=2, p=0),
    "reference_bound-vinh-negative-p": lambda: reference_bound(10, 10, -3, "vinh"),
}


def _lines():
    """The lines y = x + 1 and y = 2x over F_7, as an Instance."""
    return Instance(make_modulus(7), point_keys=(), line_keys=[1 * 7 + 1, 2 * 7])


@pytest.mark.parametrize("site", sorted(SITES))
def test_bad_argument_raises_invalid_parameter(site):
    with pytest.raises(InvalidParameterError) as err:
        SITES[site]()
    assert isinstance(err.value, Error) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("p, error", [(9, CompositeModulusError), (2**31, OutOfRangeError), (7.0, OutOfRangeError)])
def test_projective_map_checks_its_modulus(p, error):
    # a composite p was accepted, and its determinant test is no field test
    with pytest.raises(error):
        ProjMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), p)


def test_zero_plane_normal_in_a_file_is_a_parse_error(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"p": 7, "points": [[1, 2, 3]], "planes": [[0, 7, 0, 1]]}))
    with pytest.raises(ParseError, match="plane normal"):
        read_instance3d(path)
