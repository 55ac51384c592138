"""Command-line front end: coverage maps, placement sweeps, comparisons.

Exit status is 0 on success, 1 on a runtime failure (bad config, bad
candidate file, I/O, too little memory), and 2 on a usage error.  Output
files are written with fixed formatting and ordering so identical
invocations produce byte-identical bytes.  Maps are computed in bounded
blocks of lattice rows and written in bounded sub-blocks of rows, so a
fine map needs no more memory than a coarse one; the scenario is checked
before the output is opened, and a map that fails while it is written
removes the regular file it opened, so a map that fails creates no file.
The argument parser is built once per process, on the first call of run,
and reused: parsing keeps no state between calls.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
from dataclasses import replace
from typing import Iterable

from .coverage import _csv_rows, _map_blocks, format_value
from .linkbudget import Position3D
from .placement import (
    ComparisonReport,
    ExplicitList,
    compare_models,
    optimize_placement,
    ranking_to_csv,
)
from .scenario import (
    ConfigError,
    Objective,
    Scenario,
    default_scenario,
    load_scenario,
    with_panel_position,
)


def _parse_position(text: str, flag: str) -> Position3D:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{flag}: expected X,Y,Z")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{flag}: expected three numbers") from None
    if not all(map(math.isfinite, (x, y, z))):
        raise ConfigError(f"{flag}: coordinates must be finite")
    return Position3D(x, y, z)


def _read_candidates(path: str) -> ExplicitList:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read candidates file: {exc}") from exc
    if not lines or lines[0].strip() != "x_m,y_m,z_m":
        raise ConfigError("candidates file must start with header 'x_m,y_m,z_m'")
    positions = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        positions.append(_parse_position(line.strip(), f"candidates line {lineno}"))
    if not positions:
        raise ConfigError("candidates file lists no positions")
    return ExplicitList(tuple(positions))


def _build_scenario(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(args.config) if args.config else default_scenario()
    if args.resolution is not None:
        if not (math.isfinite(args.resolution) and args.resolution > 0):
            raise ConfigError("--resolution: grid_resolution must be positive")
        scenario = replace(scenario, grid_resolution=args.resolution)
    if args.objective is not None:
        scenario = replace(scenario, objective=Objective(args.objective))
    if args.bs is not None:
        scenario = replace(scenario, micro_bs_position=_parse_position(args.bs, "--bs"))
    if getattr(args, "irs", None) is not None:
        scenario = with_panel_position(scenario, _parse_position(args.irs, "--irs"))
    return scenario


def _write_output(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks to stdout or to the file `out`.

    If writing raises, `out` is removed before the error propagates, but
    only while it still names the regular file that was opened: a device,
    a pipe or a symlink is left alone.
    """
    if out is None:
        sys.stdout.writelines(chunks)
        return
    handle = open(out, "w", encoding="utf-8", newline="")
    opened = os.fstat(handle.fileno())
    try:
        with handle:
            handle.writelines(chunks)
    except BaseException:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(out)):
                os.remove(out)
        raise


def _comparison_csv(report: ComparisonReport) -> str:
    rows = [
        ("conventional_power_w", format_value(report.conventional_power)),
        ("irs_power_w", format_value(report.irs_power)),
        ("power_reduction_fraction", format_value(report.power_reduction_fraction)),
        ("irs_x_m", format_value(report.irs_position.x)),
        ("irs_y_m", format_value(report.irs_position.y)),
        ("irs_z_m", format_value(report.irs_position.z)),
        ("conventional_edge_min_db", format_value(report.conventional_edge.min_db)),
        ("conventional_edge_mean_db", format_value(report.conventional_edge.mean_db)),
        ("conventional_edge_max_db", format_value(report.conventional_edge.max_db)),
        ("irs_edge_min_db", format_value(report.irs_edge.min_db)),
        ("irs_edge_mean_db", format_value(report.irs_edge.mean_db)),
        ("irs_edge_max_db", format_value(report.irs_edge.max_db)),
    ]
    return "key,value\n" + "\n".join(f"{key},{value}" for key, value in rows) + "\n"


def _add_common_flags(parser: argparse.ArgumentParser, with_irs: bool) -> None:
    parser.add_argument("--config", metavar="PATH", help="scenario config file")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument(
        "--objective",
        choices=("min", "mean"),
        help="cell-edge statistic used for ranking",
    )
    parser.add_argument(
        "--resolution", type=float, metavar="METERS", help="grid spacing override"
    )
    parser.add_argument("--bs", metavar="X,Y,Z", help="micro base station position override")
    if with_irs:
        parser.add_argument("--irs", metavar="X,Y,Z", help="panel position override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irs-planner",
        description="SINR coverage maps and reflecting-panel placement for small cells",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    map_conv = sub.add_parser("map-conv", help="SINR map under direct service")
    _add_common_flags(map_conv, with_irs=False)

    map_irs = sub.add_parser("map-irs", help="SINR map under panel-assisted service")
    _add_common_flags(map_irs, with_irs=True)

    sweep = sub.add_parser("sweep", help="rank candidate panel positions")
    _add_common_flags(sweep, with_irs=False)
    sweep.add_argument(
        "--candidates",
        metavar="PATH",
        required=True,
        help="CSV of candidate positions with header x_m,y_m,z_m",
    )

    compare = sub.add_parser(
        "compare", help="direct service at full power vs panel-assisted at reduced power"
    )
    _add_common_flags(compare, with_irs=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser run uses, built on its first call rather than at import."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit status."""
    args = _parser().parse_args(argv)
    try:
        scenario = _build_scenario(args)
        if args.command in ("map-conv", "map-irs"):
            blocks = _map_blocks(scenario, irs=args.command == "map-irs")
            chunks = _csv_rows(scenario.micro_extent, scenario.grid_resolution, blocks)
        elif args.command == "sweep":
            candidates = _read_candidates(args.candidates)
            chunks = [ranking_to_csv(optimize_placement(scenario, candidates, scenario.objective))]
        else:
            chunks = [_comparison_csv(compare_models(scenario, scenario.panel.position))]
        _write_output(chunks, args.out)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; of these only Python's is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
