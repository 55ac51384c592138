"""The four CLI outputs, pinned by their full sha256, on two scenarios.

The default ones are the commands `bench/golden.py` runs, with the same
candidates text, so a change that moves any output byte fails here.  The
masked ones run a tilted geometric-mode panel, which leaves points
behind it, with the macro station on a lattice corner, which puts the
-inf sentinel on the edge of every map and ranking.  The hashes
were pinned on x86-64 with AVX-512F and numpy 2.4.6, where numpy's
vectorized `log10` and `power` run AVX-512 loops that round some inputs
differently from libm's log10 and pow.  A host whose numpy calls libm
for them writes the other family's bytes, which
`tests/test_dispatch_family.py` pins.
"""

import hashlib

import pytest

from irs_planner.cli import run

CANDIDATES = "x_m,y_m,z_m\n0,200,5\n100,200,5\n100,100,6\n"

GOLDEN = {
    "map-conv": "486a9c40c8d1d95e1c11d44a8624931b95b2193ef667bc218eb00ede78afaca3",
    "map-irs": "6a4cea46b9dbfd6551dbdae2cf9974a206a6ff4b32bfaf9f737aa3f08d378798",
    "compare": "bfd30977f01f4cdc61b805367f79f45a739f206fad9b207c1480ac0c42ccbed0",
    "sweep": "923486aba6b7f02e28fdceaa687f0a81a6dabc9c0bff31f7594e1043fee88bc9",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_output_bytes(command, tmp_path):
    argv = [command]
    if command == "sweep":
        candidates = tmp_path / "candidates.csv"
        candidates.write_text(CANDIDATES)
        argv += ["--bs", "0,0,5", "--candidates", str(candidates)]
    out = tmp_path / f"{command}.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]


MASKED_CONFIG = """\
irs_normal = 0.6,0,-0.8
macro_bs_x = 0
macro_bs_y = 0
macro_bs_z = 1.5
grid_resolution = 10
"""
# the last candidate is an edge point at user height
MASKED_CANDIDATES = CANDIDATES + "200,100,1.5\n"

MASKED = {
    "map-conv": "a50dbd9ddc873b8e7184c91644fb6c9cbc745d89911d05774c560ac7eea88774",
    "map-irs": "673e22f19d6b67a4c32a54c8d7df051ec186e603e169e0ef80281720a0a6fe40",
    "compare": "53a0931186e01ed3d88c839444246091d409e717dba058f6aa03ed803c4bc91c",
    "sweep": "9f7eb3ff344882f677382a28846f94fc38e037a02db22281d7b98c64d96bd846",
}


@pytest.mark.parametrize("command", sorted(MASKED))
def test_masked_output_bytes(command, tmp_path):
    config = tmp_path / "masked.conf"
    config.write_text(MASKED_CONFIG)
    argv = [command, "--config", str(config)]
    if command == "sweep":
        candidates = tmp_path / "candidates.csv"
        candidates.write_text(MASKED_CANDIDATES)
        argv += ["--candidates", str(candidates)]
    out = tmp_path / f"{command}.csv"
    with pytest.warns(RuntimeWarning, match="coincide with a transmitter"):
        assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MASKED[command]
