"""Byte identity of the report commands on fixed small inputs.

The expected SHA-256 digests are of stdout as produced by the pure-Python
pair loops that the numpy passes replaced; any change in the bytes of
``cover --normalize``, ``extract``, ``beck``, ``distances``, ``energy`` or
``count3d`` fails here.
"""

import hashlib
import json

import pytest

from incidencelab import harness
from incidencelab.cli import cli
from incidencelab.constructions import elekes_construction, full_plane, random_instance
from incidencelab.field import make_modulus
from incidencelab.plane import AffinePoint, Instance


def _isotropic(p, i):
    """Points (t, i t) on the isotropic line y = i x through the origin."""
    return Instance(make_modulus(p), [AffinePoint(t, i * t, p) for t in range(p)], [])


def _with_runs(p):
    """Random points plus a planted collinear run and a planted column."""
    base = random_instance(p, 40, 30, 17)
    run = [AffinePoint(t, 3 * t + 5, p) for t in range(12)]
    col = [AffinePoint(7, 2 * t, p) for t in range(9)]
    return Instance(base.modulus, list(base.points) + run + col, base.lines)


INSTANCES = {
    "full7": lambda: full_plane(7),
    "elekes": lambda: elekes_construction(3, 2, 31),
    "rand13": lambda: random_instance(13, 60, 90, 2),
    "rand101": lambda: random_instance(101, 80, 120, 5),
    "runs1009": lambda: _with_runs(1009),
    "big": lambda: random_instance(2147483647, 30, 10, 4),
    "iso13": lambda: _isotropic(13, 5),
}

RAW = {
    "energy31": {"p": 31, "A": [1, 2, 3, 5, 8, 13, 21], "B": [0, 4, 9],
                 "lines": [{"kind": "sl", "s": s, "t": t} for s in range(1, 5) for t in range(0, 12, 3)]},
    "energy_big": {"p": 2147483629, "A": [1, 2, 4, 8, 2147483628],
                   "lines": [{"kind": "sl", "s": s, "t": 7 * s} for s in (1, 2, 3, 1000003)]},
    "plane31": {"p": 31, "points": [[t, 2 * t + 1, 5 * t] for t in range(10)] + [[1, 2, 3], [4, 5, 6], [0, 0, 0]],
                "planes": [[1, 0, 0, 3], [2, 4, 6, 8], [0, 1, 1, 5], [1, 1, 1, 0]]},
    "plane_big": {"p": 2147483647, "points": [[t, -t, 3 * t] for t in range(6)] + [[5, 9, 2**30], [-1, -1, -1]],
                  "planes": [[1, 1, 0, 0], [0, 0, 1, 3]]},
}

CASES = {
    "cover_full7": ("cover", "--normalize", "full7"),
    "cover_elekes": ("cover", "--normalize", "elekes"),
    "cover_rand13": ("cover", "--normalize", "rand13"),
    "extract_full7": ("extract", "full7"),
    "extract_elekes": ("extract", "elekes"),
    "extract_rand13": ("extract", "rand13"),
    "beck_rand13": ("beck", "rand13"),
    "beck_rand101": ("beck", "rand101"),
    "beck_runs1009": ("beck", "runs1009"),
    "beck_big": ("beck", "big"),
    "beck_elekes": ("beck", "elekes"),
    "beck_iso13": ("beck", "iso13"),
    "distances_rand13": ("distances", "rand13"),
    "distances_rand101": ("distances", "rand101"),
    "distances_runs1009": ("distances", "runs1009"),
    "distances_big": ("distances", "big"),
    "distances_iso13": ("distances", "iso13"),
    "energy_energy31": ("energy", "energy31"),
    "energy_big": ("energy", "energy_big"),
    "count3d_plane31": ("count3d", "plane31"),
    "count3d_plane_big": ("count3d", "plane_big"),
}

EXPECTED = {
    "beck_big": (0, '86779ca8fd2bc460c31b106636cf58f0972ef9b2b740d98a724dd94c787851da'),
    "beck_elekes": (0, '2459438775e17bc4c25af9fcaf5356a1a3226ad71b6291a114947589bc65a49a'),
    "beck_iso13": (0, 'ca73d485e5d1677c0ce56b4b0ecbf7a63e5c1dc7d200f8a416ec02069fe85536'),
    "beck_rand101": (0, '1d089920793d09f5d707c83bec37442bac438d30270b1b2eeb0866212312d010'),
    "beck_rand13": (0, '5193e54a978669918cd720682d8ef03e0b7dd77f899ae42f24e912551c387918'),
    "beck_runs1009": (0, '2aaf4fa417de623584b25a962cefa61525ee6ffa32836bab2cf7f62e9c611d37'),
    "count3d_plane31": (0, '3f103a658d116dc29aea20f856678da781693a834e1d64f231720ea273d4e210'),
    "count3d_plane_big": (0, '8d8b61fac40df28f8b50152f3d98a0d18637a70ae89404d35458033bba2ff6cb'),
    "cover_elekes": (0, '0810c1c6166a15c36f09576062435eb23072e2148e2f0483836e55f92041b314'),
    "cover_full7": (0, '5ec9ab3ec5f7500ff22d811a45ca51603d96a2cb3aaf28974c2df520411c655e'),
    "cover_rand13": (0, '77e512249829418bde2c72977e6c0133a0a32c2fcdbe5d4b76213af61652c294'),
    "distances_big": (0, '20013e53820fb2e38585efe0a035cf021e49a736ddd5f62fdc2635f30ae0ce87'),
    "distances_iso13": (0, 'baab29d77278b331ef36c01a4bb06207f451f46d3a536b5bff9c51d23e723f2b'),
    "distances_rand101": (0, 'b420ea6e0d572ae361ab65c8697e43206052b3a1073ada1beb98242735c3144d'),
    "distances_rand13": (0, 'f0f98a02f7776e80e91c0eb1ab6e062e6a16202fddd78d2ddb7115a939e27ef9'),
    "distances_runs1009": (0, '71f6e17f8cb9c0f6d652dba5c1eca1ef8aa5d386ba7a1d7e7437ca739dc5e2a8'),
    "energy_big": (0, 'a7f828e2c651d10009a847404ffb367276cca81c4248f1a4488bad0104386868'),
    "energy_energy31": (0, 'ec32bc4dfb4aea061989f1b2185caa83b1224c4e5a0aa694ddd0e261c802a744'),
    "extract_elekes": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "extract_full7": (0, '9c037cf20e743aabbcf2c0be7841389e3efd8f6c1853457cd343bd9ac88f860f'),
    "extract_rand13": (0, '9152866a10e0a6f0d189daa229e4f4eb05cbeab72ead272d879ff57512b6851f'),
}


def _run(tmp_path, capsys, case):
    *argv, name = CASES[case]
    path = tmp_path / f"{name}.json"
    if name in RAW:
        path.write_text(json.dumps(RAW[name]))
    else:
        harness.write_instance(INSTANCES[name](), path)
    rc = cli([*argv, "--input", str(path)])
    out = capsys.readouterr().out
    return rc, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_output_bytes_unchanged(tmp_path, capsys, case):
    assert _run(tmp_path, capsys, case) == EXPECTED[case]
