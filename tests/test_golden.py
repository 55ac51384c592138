"""The four default CLI outputs, pinned by their full sha256.

These are the commands `bench/golden.py` runs, with the same candidates
text, so a change that moves any output byte fails here.  The hashes
were pinned on x86-64 with AVX-512F and numpy 2.4.6.  numpy's vectorized
`power` takes a different code path on other CPUs and rounds some inputs
differently from libm's pow, so another host may need its own pins.
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
