"""Seeded inputs, operations and output checks for each workload.

A workload is built once per run from its seed: it writes its config and
candidate files and returns one round of operations.  The runner repeats
the round until the run's time is up, so every run attempts whole rounds
of the same operations, and a repeated operation must reproduce the bytes
of its first run.  Each operation reports how many items it completed;
its check runs outside the timed span and raises on a wrong output.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import reference as ref
from reference import Params, require

import irs_planner
from irs_planner import cli

MAP_HEADER = b"x_m,y_m,sinr_db"
SWEEP_HEADER = "rank,x_m,y_m,z_m,objective_db,edge_min_db,edge_mean_db,edge_max_db"
COMPARE_KEYS = (
    "conventional_power_w", "irs_power_w", "power_reduction_fraction",
    "irs_x_m", "irs_y_m", "irs_z_m",
    "conventional_edge_min_db", "conventional_edge_mean_db", "conventional_edge_max_db",
    "irs_edge_min_db", "irs_edge_mean_db", "irs_edge_max_db",
)


@dataclass
class Op:
    """One timed call into the program and the check of what it returned."""

    label: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], None]
    out: str | None = None  # the --out file of a CLI operation


def _pos(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _cli_op(label: str, argv: list[str], out: str, items: int, check) -> Op:
    digests: list[bytes] = []

    def run():
        return cli.run(argv + ["--out", out])

    def verify(status):
        require(status == 0, f"{label}: exit status {status}")
        with open(out, "rb") as handle:
            data = handle.read()
        # every operation writes a new file, as one command-line call would;
        # rewriting a truncated file makes ext4 start writeback at close
        os.remove(out)
        digest = hashlib.sha256(data).digest()
        if digests:
            require(digest == digests[0], f"{label}: repeated input gave different bytes")
            return
        check(data)
        digests.append(digest)

    return Op(label, items, run, verify, out)


def _round(rng: random.Random, lo: float, hi: float, step: float = 0.01) -> float:
    return round(rng.uniform(lo, hi) / step) * step


def _tilted_normal(rng: random.Random) -> tuple:
    tilt = math.radians(rng.uniform(25.0, 55.0))
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    return (math.sin(tilt) * math.cos(azimuth), math.sin(tilt) * math.sin(azimuth), -math.cos(tilt))


def _clear_geometric(params: Params, x, y, z) -> bool:
    """Base station in front, users on both sides and none on the plane."""
    ct, _, proj = ref.cascade_cosines(params, x, y, z)
    behind = float(np.mean(proj < 0.0))
    return ct > 0.05 and 0.05 < behind < 0.6 and float(np.min(np.abs(proj))) > 1e-6


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


# ---------------------------------------------------------------- map


def check_map(params: Params, irs: bool):
    """The README's map format, order and values, recomputed."""
    x, y, nx, ny = ref.lattice(params)
    z = np.full(x.shape, params.user_height)
    signal = ref.irs_signal(params, x, y, z) if irs else ref.conventional_signal(params, x, y, z)
    expected = ref.sinr_db(params, signal, x, y, z)

    def check(data: bytes) -> None:
        # one row at a time, so the check's memory stays below the program's
        stream = io.BytesIO(data)
        require(stream.readline() == MAP_HEADER + b"\n", "map header")
        require(data.endswith(b"\n"), "map output must end with a newline")
        cols = np.empty((3, nx * ny))
        rows = 0
        for rows, line in enumerate(stream, start=1):
            fields = line.split(b",")
            require(rows <= nx * ny and len(fields) == 3, f"map row {rows} is not a lattice row")
            cols[:, rows - 1] = [float(v) for v in fields]
        require(rows == nx * ny, f"map has {rows} rows, expected {nx * ny}")
        require(bool(np.all(cols[0] == x) and np.all(cols[1] == y)),
                "map rows are not the lattice in row-major order")
        got = cols[2]
        sentinel = np.isneginf(expected)
        require(bool(np.array_equal(np.isneginf(got), sentinel)),
                f"-inf at {int(np.isneginf(got).sum())} rows, expected {int(sentinel.sum())}")
        err = np.abs(got[~sentinel] - expected[~sentinel])
        require(bool(np.all(err <= ref.DB_TOL)), f"map sinr_db off by up to {err.max():.3g} dB")

    return check


def map_workload(seed: int, work: str) -> list[Op]:
    """map-conv and map-irs alternating on the default 1 m lattice."""
    rng = random.Random(seed)
    base = Params()
    x, y, _, _ = ref.lattice(base)
    z = np.full(x.shape, base.user_height)
    while True:
        geo = ref.geometric(
            replace(base, irs=(_round(rng, 0, 200), _round(rng, 0, 200), _round(rng, 8, 15))),
            _tilted_normal(rng))
        if _clear_geometric(geo, x, y, z):
            break
    config = _write(os.path.join(work, "map-geometric.cfg"), geo.config_text())
    bs1 = (_round(rng, 20, 180), _round(rng, 20, 180), _round(rng, 3, 10))
    bs2 = (_round(rng, 20, 180), _round(rng, 20, 180), _round(rng, 3, 10))
    irs1 = (_round(rng, 0, 200), _round(rng, 0, 200), _round(rng, 6, 15))
    out = os.path.join(work, "map.csv")
    rows = len(x)
    return [
        _cli_op("map-conv", ["map-conv", "--bs", _pos(bs1)], out, rows,
                check_map(replace(base, bs=bs1), irs=False)),
        _cli_op("map-irs", ["map-irs", "--irs", _pos(irs1)], out, rows,
                check_map(replace(base, irs=irs1), irs=True)),
        _cli_op("map-conv geometric config", ["map-conv", "--config", config, "--bs", _pos(bs2)],
                out, rows, check_map(replace(geo, bs=bs2), irs=False)),
        _cli_op("map-irs geometric", ["map-irs", "--config", config, "--irs", _pos(geo.irs)],
                out, rows, check_map(geo, irs=True)),
    ]


# ---------------------------------------------------------------- sweep


def check_sweep(params: Params, objective: str, candidates: list, rng: random.Random,
                mirror_pairs: int):
    """Ranking shape, order, ties and a sample of recomputed edge summaries.

    `mirror_pairs` pairs of candidates are mirror images in a symmetric
    scenario; the exactly summed edge mean makes each pair tie exactly.
    """
    cx = params.micro[0] + params.micro[2] / 2.0
    cy = params.micro[1] + params.micro[3] / 2.0
    sample = set(rng.sample(range(len(candidates)), 4))

    def check(data: bytes) -> None:
        lines = data.decode("utf-8").split("\n")
        require(lines[0] == SWEEP_HEADER, f"sweep header {lines[0][:40]!r}")
        require(lines[-1] == "", "sweep output must end with a newline")
        rows = [line.split(",") for line in lines[1:-1]]
        require(len(rows) == len(candidates), f"{len(rows)} rows for {len(candidates)} candidates")
        require([r[0] for r in rows] == [str(k) for k in range(1, len(rows) + 1)],
                "ranks must run 1..K")
        values = [tuple(float(v) for v in r[1:]) for r in rows]
        require(sorted(v[:3] for v in values) == sorted(candidates),
                "ranking must list each candidate once")
        column = 4 if objective == "min" else 5
        previous = None
        ties = 0
        for rank, v in enumerate(values, start=1):
            require(v[3] == v[column], f"rank {rank}: objective is not edge_{objective}_db")
            require(v[4] <= v[5] <= v[6], f"rank {rank}: edge min <= mean <= max violated")
            key = (-v[3], math.sqrt((v[0] - cx) ** 2 + (v[1] - cy) ** 2 + v[2] ** 2)) + v[:3]
            if previous is not None:
                require(key[0] >= previous[0], f"rank {rank}: objective increases")
                require(key[0] != previous[0] or key > previous,
                        f"rank {rank}: tie not ordered by distance from the cell centre, then x, y, z")
                ties += key[0] == previous[0]
            previous = key
        require(ties >= mirror_pairs, f"{ties} ties, expected {mirror_pairs} mirrored pairs")
        for k in sample:
            v = values[k]
            expected = ref.edge_summary(replace(params, irs=v[:3]), irs=True)
            require(all(ref.close_db(a, b) for a, b in zip(v[4:], expected)),
                    f"rank {k + 1}: edge summary {v[4:]} != reference {expected}")

    return check


def _candidates_file(path: str, points: list) -> str:
    return _write(path, "x_m,y_m,z_m\n" + "".join(_pos(p) + "\n" for p in points))


def sweep_workload(seed: int, work: str) -> list[Op]:
    """Rank 210 candidates per call under both objectives and angle modes."""
    rng = random.Random(seed)
    # macro and micro stations on the line x = 100, so mirrored lattice
    # candidates tie exactly and the tie order is exercised
    mirrored = replace(Params(), macro_bs=(100.0, 500.0, 10.0),
                       config_lines=("macro_bs_x = 100.0",))
    down = ref.geometric(Params(), (0.0, 0.0, -1.0))
    # the 10 m lattice at z = 6 over the rows y = 0..90 m
    lattice_10m = [(10.0 * i, 10.0 * j, 6.0) for j in range(10) for i in range(21)]
    specs = [
        ("sweep lattice fixed min", mirrored, "min", None),
        ("sweep random geometric mean", down, "mean", (6.0, 15.0)),
        ("sweep random geometric min", down, "min", (6.0, 15.0)),
    ]
    ops = []
    for index, (label, params, objective, heights) in enumerate(specs):
        if heights is None:
            bs = (100.0, _round(rng, 20, 180), _round(rng, 3, 5.5))
            points = lattice_10m
            pairs = 10 * 10  # (x, y) and (200 - x, y) for x < 100 in each row
        else:
            bs = (_round(rng, 20, 180), _round(rng, 20, 180), _round(rng, 2, 5.5))
            pairs = 0
            points = []
            while len(points) < len(lattice_10m):
                p = (_round(rng, 0, 200), _round(rng, 0, 200), _round(rng, *heights))
                if math.dist(p, bs) >= 1.0 and p not in points:
                    points.append(p)
        config = _write(os.path.join(work, f"sweep-{index}.cfg"), params.config_text())
        path = _candidates_file(os.path.join(work, f"candidates-{index}.csv"), points)
        argv = ["sweep", "--config", config, "--candidates", path, "--objective", objective,
                "--bs", _pos(bs)]
        ops.append(_cli_op(label, argv, os.path.join(work, "ranking.csv"), len(points),
                           check_sweep(replace(params, bs=bs), objective, points, rng, pairs)))
    return ops


# ---------------------------------------------------------------- compare-fine

FINE_RESOLUTION = 0.25


def check_compare(params: Params):
    conv_edge = ref.edge_summary(params, irs=False)
    irs_edge = ref.edge_summary(params, irs=True)

    def check(data: bytes) -> None:
        lines = data.decode("utf-8").split("\n")
        require(lines[0] == "key,value" and lines[-1] == "", "compare output framing")
        pairs = [line.split(",") for line in lines[1:-1]]
        require(tuple(p[0] for p in pairs) == COMPARE_KEYS, "compare keys or their order")
        got = {k: float(v) for k, v in pairs}
        require(got["conventional_power_w"] == params.power_conv, "conventional_power_w")
        require(got["irs_power_w"] == params.power_irs, "irs_power_w")
        require(got["power_reduction_fraction"] == 1.0 - params.power_irs / params.power_conv,
                "power_reduction_fraction != 1 - P_irs/P_conv")
        require((got["irs_x_m"], got["irs_y_m"], got["irs_z_m"]) == params.irs, "panel position")
        for prefix, expected in (("conventional", conv_edge), ("irs", irs_edge)):
            values = [got[f"{prefix}_edge_{s}_db"] for s in ("min", "mean", "max")]
            require(all(ref.close_db(a, b) for a, b in zip(values, expected)),
                    f"{prefix} edge {values} != reference {expected}")

    return check


def compare_fine_workload(seed: int, work: str) -> list[Op]:
    """compare on a 0.25 m lattice; no serialization of the maps."""
    rng = random.Random(seed)
    base = replace(Params(), resolution=FINE_RESOLUTION)
    points = (int(200 / FINE_RESOLUTION) + 1) ** 2
    ops = []
    for objective in ("min", "mean"):
        bs = (_round(rng, 20, 180), _round(rng, 20, 180), _round(rng, 3, 5.5))
        irs = (_round(rng, 0, 200), _round(rng, 0, 200), _round(rng, 6, 15))
        params = replace(base, bs=bs, irs=irs)
        argv = ["compare", "--resolution", repr(FINE_RESOLUTION), "--objective", objective,
                "--irs", _pos(irs), "--bs", _pos(bs)]
        ops.append(_cli_op(f"compare {objective}", argv, os.path.join(work, "compare.csv"),
                           points, check_compare(params)))
    return ops


# ---------------------------------------------------------------- scalar

SCALAR_BATCH = 1000  # users per panel in one operation


def _program_scenario(params: Params):
    scenario = irs_planner.parse_scenario(params.config_text())
    scenario = irs_planner.with_panel_position(scenario, irs_planner.Position3D(*params.irs))
    return replace(scenario, micro_bs_position=irs_planner.Position3D(*params.bs))


def scalar_evaluate(params: Params, user: tuple) -> dict:
    """The program's scalar link budget at one user, as the workload calls it."""
    scenario = _program_scenario(params)
    return _scalar_calls(scenario, [irs_planner.Position3D(*user)])[0]


def _scalar_calls(scenario, users) -> list[dict]:
    env = scenario.env
    bs = scenario.micro_bs_position
    panel = scenario.panel
    sources = scenario.interference_sources()
    p_conv = scenario.micro_power_conventional
    p_irs = scenario.micro_power_irs
    alpha = env.pathloss_exponent_micro
    noise = env.noise_power
    rows = []
    for user in users:
        link = irs_planner.ConventionalLink(p_conv, bs, user, alpha)
        conv = irs_planner.conventional_rx_power(link, env)
        irs = irs_planner.irs_rx_power(p_irs, panel, bs, user, env)
        interference = irs_planner.interference_power(user, sources, env)
        rows.append({
            "conv": conv, "irs": irs, "interference": interference,
            "conv_db": irs_planner.sinr(conv, interference, noise).sinr_db,
            "irs_db": irs_planner.sinr(irs, interference, noise).sinr_db,
        })
    return rows


def check_scalar(params: Params, users: np.ndarray):
    x, y, z = users.T
    expected = {
        "conv": ref.conventional_signal(params, x, y, z),
        "irs": ref.irs_signal(params, x, y, z),
        "interference": ref.interference(params, x, y, z),
    }
    expected["conv_db"] = ref.sinr_db(params, expected["conv"], x, y, z)
    expected["irs_db"] = ref.sinr_db(params, expected["irs"], x, y, z)
    rel = {"conv": ref.REL_TOL, "irs": ref.irs_rel_tol(params, x, y, z),
           "interference": ref.REL_TOL}

    def check(rows: list[dict]) -> None:
        require(len(rows) == len(x), "one result per user")
        for key, want in expected.items():
            got = np.array([row[key] for row in rows])
            exact = (want == 0.0) | np.isinf(want)
            require(bool(np.array_equal(got[exact], want[exact])),
                    f"{key}: zero power or -inf where the reference has none, or vice versa")
            base = key.removesuffix("_db")
            if key.endswith("_db"):
                tolerance = ref.DB_TOL + 10.0 / math.log(10.0) * rel[base]
            else:
                tolerance = rel[base] * np.abs(want)
            with np.errstate(invalid="ignore"):
                off = ~exact & ~(np.abs(got - want) <= tolerance)
            require(not off.any(), f"{key}: {int(off.sum())} values off the reference")

    return check


def scalar_workload(seed: int, work: str) -> list[Op]:
    """Per-point scalar evaluations; each operation covers both panels."""
    rng = random.Random(seed)
    base = Params()

    def users():
        return np.array([(_round(rng, 0, 200), _round(rng, 0, 200), _round(rng, 0.5, 2.5))
                         for _ in range(SCALAR_BATCH)])

    while True:
        tilted = ref.geometric(
            replace(base, irs=(_round(rng, 40, 160), _round(rng, 40, 160), _round(rng, 8, 15))),
            _tilted_normal(rng))
        tilted_users = users()
        if _clear_geometric(tilted, *tilted_users.T):
            break
    fixed = replace(base, irs=(_round(rng, 0, 200), _round(rng, 0, 200), _round(rng, 6, 15)))
    halves = [(fixed, users()), (tilted, tilted_users)]
    calls = [(_program_scenario(params), [irs_planner.Position3D(*p) for p in points.tolist()])
             for params, points in halves]
    checks = [check_scalar(params, points) for params, points in halves]

    def run():
        return [_scalar_calls(scenario, positions) for scenario, positions in calls]

    def check(results):
        for verify, rows in zip(checks, results):
            verify(rows)

    return [Op("scalar fixed and geometric", 2 * SCALAR_BATCH, run, check)]


WORKLOADS = {
    "map": map_workload,
    "sweep": sweep_workload,
    "compare-fine": compare_fine_workload,
    "scalar": scalar_workload,
}
