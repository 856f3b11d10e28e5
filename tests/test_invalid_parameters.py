"""Library calls with a bad argument raise InvalidParameterError, an
incidencelab.Error that is still a ValueError for callers that catch one."""

import json

import pytest

from incidencelab.bounds import check_hypotheses, reference_bound
from incidencelab.constructions import SeededStream, cartesian_instance, full_plane
from incidencelab.distances import bisector_instance
from incidencelab.energy import PlaneInstance3D, arithmetic_image, canonical_plane, sumproduct_report
from incidencelab.errors import Error, InvalidParameterError, ParseError
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
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_bad_argument_raises_invalid_parameter(site):
    with pytest.raises(InvalidParameterError) as err:
        SITES[site]()
    assert isinstance(err.value, Error) and isinstance(err.value, ValueError)


def test_zero_plane_normal_in_a_file_is_a_parse_error(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"p": 7, "points": [[1, 2, 3]], "planes": [[0, 7, 0, 1]]}))
    with pytest.raises(ParseError, match="plane normal"):
        read_instance3d(path)
