"""Regenerate the default CLI outputs and their sha256, for byte-for-byte diffs.

Run from the root of a source checkout:

    python3 bench/golden.py            # writes bench/golden/
    python3 bench/golden.py --out DIR

It writes `map-conv.csv`, `map-irs.csv`, `compare.csv` and `sweep.csv`
(`sweep --bs 0,0,5` over the README's three candidates, kept beside it as
`candidates.csv`), plus `SHA256SUMS`.  Compare two commits by running it
in each checkout and diffing the `SHA256SUMS` files.  The directory is a
copy made anew on every run, not a stored expectation.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CANDIDATES = "x_m,y_m,z_m\n0,200,5\n100,200,5\n100,100,6\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "golden")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from irs_planner import cli

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    candidates = out / "candidates.csv"
    candidates.write_text(CANDIDATES)
    commands = {
        "map-conv.csv": ["map-conv"],
        "map-irs.csv": ["map-irs"],
        "compare.csv": ["compare"],
        "sweep.csv": ["sweep", "--bs", "0,0,5", "--candidates", str(candidates)],
    }
    sums = []
    for name, argv_ in commands.items():
        status = cli.run(argv_ + ["--out", str(out / name)])
        if status != 0:
            sys.exit(f"error: {' '.join(argv_)} exited with status {status}")
        sums.append(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}\n")
    (out / "SHA256SUMS").write_text("".join(sums))
    sys.stdout.write("".join(sums))
    return 0


if __name__ == "__main__":
    sys.exit(main())
