"""The golden CLI outputs of both numpy dispatch families.

numpy sends float64 `log10` and `power` either to AVX-512 loops or to the
C library, by the CPU it finds at import, and the two round some inputs
apart, so the output bytes depend on that choice.  The environment
variable below names numpy 2.4's x86-64 dispatch targets that use
AVX-512, so numpy skips them.  A name the numpy build does not dispatch
to is reported with an ImportWarning, which Python's default warning
filters hide, and numpy goes on.

A process names its family with a probe, not from CPU flags: under the
variable numpy still reports AVX-512 in `__cpu_features__`.
`tests/test_golden.py` pins the `avx512` family in the test process.
Here one child process, with the variable set, names its family and
runs the same 8 commands; it must be of the `libm` family and write the
`libm` table's bytes.
"""

import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np

import irs_planner
from irs_planner.cli import run
from test_golden import CANDIDATES, GOLDEN, MASKED, MASKED_CANDIDATES, MASKED_CONFIG

DISABLE_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

# the sha256 of each golden command's output under the variable; the
# masked sweep is the one output the two families share
LIBM = {
    "default compare": "0d68910d07ff6fb9c722abe72ccb31978a7d16c732e09ee165f4294006e375c6",
    "default map-conv": "32eb5b2289c535bad57c128da7b042cc5c940dfb67c68045001079cfffa940eb",
    "default map-irs": "603ffd7b232ead45ead7fd73a77a75b650f5a2f530766a8ddba9ed6e0ec5ff11",
    "default sweep": "c25a0a9795eddc61ac95f28cf8dce5a8cbb82d544c3c781a7c39b95eefcfa98b",
    "masked compare": "b9443d94b5cb7c770575694a927122abfebed483c6f10430ab2cb6eee87480ab",
    "masked map-conv": "e73a62f0b26db82cf868a30e34697623f8040d6c6bdb9d71df52385437edad49",
    "masked map-irs": "f2ca89cd6b527e03919764ab7d926945d3c204a6538d94d5d19f2dc5ead3477b",
    "masked sweep": "9f7eb3ff344882f677382a28846f94fc38e037a02db22281d7b98c64d96bd846",
}


def dispatch_family() -> str:
    """'libm' if numpy's log10 equals math.log10 on 20,000 seeded values, else 'avx512'."""
    rng = random.Random(2101)
    values = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(20_000)]
    vector = np.log10(np.array(values)).tolist()
    same = all(v == math.log10(x) for v, x in zip(vector, values))
    return "libm" if same else "avx512"


def _golden_hashes(work: str) -> dict:
    """The sha256 of each golden command's --out file, run as test_golden runs it."""
    work = pathlib.Path(work)
    (work / "candidates.csv").write_text(CANDIDATES)
    (work / "masked_candidates.csv").write_text(MASKED_CANDIDATES)
    (work / "masked.conf").write_text(MASKED_CONFIG)
    hashes = {}
    for scenario, commands in (("default", GOLDEN), ("masked", MASKED)):
        for command in sorted(commands):
            if scenario == "default":
                argv = [command]
                sweep = ["--bs", "0,0,5", "--candidates", str(work / "candidates.csv")]
            else:
                argv = [command, "--config", str(work / "masked.conf")]
                sweep = ["--candidates", str(work / "masked_candidates.csv")]
            out = work / f"{scenario}-{command}.csv"
            if run(argv + (sweep if command == "sweep" else []) + ["--out", str(out)]) != 0:
                raise RuntimeError(f"{scenario} {command} failed")
            hashes[f"{scenario} {command}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return hashes


def _child_report(work: str) -> None:
    """Print this process's family and golden hashes as one JSON line."""
    print(json.dumps({"family": dispatch_family(), "hashes": _golden_hashes(work)}))


def test_golden_outputs_of_the_libm_family(tmp_path):
    env = os.environ.copy()
    env["NPY_DISABLE_CPU_FEATURES"] = DISABLE_AVX512
    # the child imports the same irs_planner and test modules as this test
    src = os.path.dirname(os.path.dirname(irs_planner.__file__))
    tests = os.path.dirname(__file__)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import test_dispatch_family as t; t._child_report({str(tmp_path)!r})"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["family"] == "libm"
    assert report["hashes"] == LIBM
