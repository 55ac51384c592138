"""Command-line front end: coverage maps, placement sweeps, comparisons.

Exit status is 0 on success, 1 on a runtime failure (bad config, bad
candidate file, I/O), and 2 on a usage error.  Output files are written
with fixed formatting and ordering so identical invocations produce
byte-identical bytes.  The IRS_PLANNER_THREADS environment variable is
still validated (0, unset or a positive integer) but starts no threads:
sweeps are scored in batches on one thread.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .coverage import format_value, map_to_csv, sinr_map_conventional, sinr_map_irs
from .linkbudget import Position3D
from .placement import (
    ComparisonReport,
    ExplicitList,
    compare_models,
    evaluate_placement,
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


def _thread_count() -> int:
    raw = os.environ.get("IRS_PLANNER_THREADS", "").strip()
    if raw in ("", "0"):
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        raise ConfigError(f"IRS_PLANNER_THREADS: not an integer: '{raw}'") from None
    if count < 1:
        raise ConfigError("IRS_PLANNER_THREADS: must be 0 (all cores) or a positive integer")
    return count


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


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "wb") as handle:
        handle.write(text.encode("utf-8"))


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


def run(argv: list[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _build_scenario(args)
        if args.command == "map-conv":
            text = map_to_csv(sinr_map_conventional(scenario))
        elif args.command == "map-irs":
            text = map_to_csv(sinr_map_irs(scenario))
        elif args.command == "sweep":
            candidates = _read_candidates(args.candidates)
            ranking = optimize_placement(
                scenario, candidates, scenario.objective, max_workers=_thread_count()
            )
            text = ranking_to_csv(ranking)
        else:
            best = evaluate_placement(
                scenario, scenario.panel.position, scenario.objective
            )
            text = _comparison_csv(compare_models(scenario, best))
        _write_output(text, args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
