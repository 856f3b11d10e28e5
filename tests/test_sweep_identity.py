"""Byte identity of ``sweep`` output on fixed configurations.

The expected SHA-256 digests are of the JSON and the CSV that ``sweep``
wrote before the energy layer read its lines through ``plane.Instance``;
any change in the bytes of a sweep record fails here.  The configurations
cover elekes cells with the energy on and off (on both sides of the
energy-reduction cap), error rows for a composite p and for 2ac >= p,
random cells by sizes and by crossed m and n, full planes, the naive
engine and a non-default ll_constant.
"""

import hashlib
import json

import pytest

from incidencelab.cli import cli

CONFIGS = {
    "mixed": {
        "seed": 3,
        "families": [
            {"family": "elekes", "p": [31, 101], "a": [2, 3], "c": [1, 2]},
            {"family": "elekes", "p": [149], "a": [12], "c": [6]},
            {"family": "elekes", "p": [9, 31, 53], "a": [4], "c": [4], "energy": False},
            {"family": "elekes", "p": [9], "a": [1], "c": [1]},
            {"family": "random", "p": [101], "sizes": [20, 50]},
            {"family": "random", "p": [13, 17], "m": [5, 10], "n": [7, 30]},
            {"family": "full_plane", "p": [5, 7]},
        ],
    },
    "naive": {
        "seed": 11,
        "engine": "naive",
        "ll_constant": 2.5,
        "families": [
            {"family": "full_plane", "p": [11]},
            {"family": "elekes", "p": 53, "a": 2, "c": 3},
            {"family": "random", "p": [9, 31], "sizes": [12]},
        ],
    },
}

EXPECTED = {
    "mixed_csv": "ca366e3033eb23b1781dbeaf5fbb77960341dd1896ccbdfaad65919fcf132f00",
    "mixed_json": "3a906a34a240732e18f29e4639eb2fa8aa9fcc8849448c4924d7b39f382ab2d7",
    "naive_csv": "492dc187b96e6a492115ef921bf893a891c436d87cc532abcaca4b698984fbce",
    "naive_json": "0b341a35bfd4ef377d5f8c12fd697217d2eeba536405ab3104ac169b396170c0",
}


@pytest.mark.parametrize("name,fmt", [(name, fmt) for name in sorted(CONFIGS) for fmt in ("csv", "json")])
def test_sweep_output_bytes_unchanged(tmp_path, capsys, name, fmt):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    assert cli(["sweep", "--config", str(config), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED[f"{name}_{fmt}"]
