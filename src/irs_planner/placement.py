"""Candidate enumeration, placement ranking, and model comparison.

A placement run moves the panel across a candidate set, scores each
position by a cell-edge statistic of the reflected-path SINR, and
ranks candidates best-first.  Ties break by distance from the service
area's ground center, then by coordinates, so rankings are total and
reproducible.

A grid sweep is admitted by the map lattice's rule, scenario._check_steps,
and takes its ticks from the map's coverage._axis, adding the far
boundary when the last tick falls short of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coverage import EdgeStats, _axis, _edge_rows, _panel_hop, edge_stats_reflected
from .linkbudget import Position3D, distance
from .scenario import CellExtent, Objective, Scenario, _check_steps, _is_whole


@dataclass(frozen=True)
class ExplicitList:
    """Candidate positions given verbatim."""

    positions: tuple[Position3D, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(self.positions))
        if len(self.positions) == 0:
            raise ValueError("candidate list must not be empty")


@dataclass(frozen=True)
class GridSweep:
    """Candidates on a step lattice over an extent, boundary included."""

    extent: CellExtent
    step: float  # m
    height: float  # m

    def __post_init__(self) -> None:
        _check_steps(self.extent, self.step, "sweep step")
        if not math.isfinite(self.height):
            raise ValueError("sweep height must be finite")


CandidateSpec = ExplicitList | GridSweep


@dataclass(frozen=True)
class PlacementResult:
    """One scored candidate: its position, objective, and edge summary."""

    irs_position: Position3D
    objective_db: float
    edge: EdgeStats


@dataclass(frozen=True)
class ComparisonReport:
    """Edge statistics of the direct and reflected serving models."""

    conventional_power: float  # W
    irs_power: float  # W
    irs_position: Position3D
    conventional_edge: EdgeStats
    irs_edge: EdgeStats
    power_reduction_fraction: float

    def __post_init__(self) -> None:
        expected = 1.0 - self.irs_power / self.conventional_power
        if self.power_reduction_fraction != expected:
            raise ValueError("power_reduction_fraction is inconsistent with the powers")
        if not 0.0 <= self.power_reduction_fraction <= 1.0:
            raise ValueError("power_reduction_fraction must lie in [0, 1]")


def _sweep_axis(origin: float, span: float, step: float) -> list[float]:
    """Ticks every step from origin, ending on the far boundary origin + span.

    The ticks are the map lattice's (coverage._axis).  A last tick that
    stands for the boundary, because it equals it or span / step is within
    a few ulp of a positive integer, is replaced by the boundary; otherwise
    the boundary is appended after it.
    """
    ticks = _axis(origin, span, step).tolist()
    far = origin + span
    if ticks[-1] == far or (len(ticks) > 1 and _is_whole(span / step)):
        ticks[-1] = far
    else:
        ticks.append(far)
    return ticks


def enumerate_candidates(spec: CandidateSpec) -> list[Position3D]:
    """Expand a candidate spec into a deterministic position list.

    Grid sweeps are row-major and always include the extent boundary, so
    a step wider than the extent still yields the four corners.
    """
    if isinstance(spec, ExplicitList):
        return list(spec.positions)
    xs = _sweep_axis(spec.extent.origin_x, spec.extent.width, spec.step)
    ys = _sweep_axis(spec.extent.origin_y, spec.extent.depth, spec.step)
    return [Position3D(x, y, spec.height) for y in ys for x in xs]


def _result(position: Position3D, stats: EdgeStats, objective: Objective) -> PlacementResult:
    value = stats.min_db if objective is Objective.EDGE_MIN else stats.mean_db
    return PlacementResult(irs_position=position, objective_db=value, edge=stats)


def evaluate_placement(
    scenario: Scenario, irs_position: Position3D, objective: Objective
) -> PlacementResult:
    """Score one panel position by the requested cell-edge statistic.

    A position on the base station raises ValueError.
    """
    _panel_hop(scenario, irs_position)
    [stats] = _edge_rows(scenario, False, [irs_position])
    return _result(irs_position, stats, objective)


def optimize_placement(
    scenario: Scenario,
    spec: CandidateSpec,
    objective: Objective,
) -> list[PlacementResult]:
    """Rank every candidate, best objective first.

    Candidates are scored on the cell edge only, in batches of bounded
    size on the calling thread.  A candidate on the base station
    rejects the whole run with ValueError, naming the candidate, before
    any scoring.  Ties order by distance from the service area's ground
    center, then by (x, y, z).
    """
    candidates = enumerate_candidates(spec)
    stats = edge_stats_reflected(scenario, candidates)
    results = [_result(c, s, objective) for c, s in zip(candidates, stats)]
    cx, cy = scenario.micro_extent.center()
    center = Position3D(cx, cy, 0.0)

    def sort_key(result: PlacementResult) -> tuple:
        position = result.irs_position
        return (
            -result.objective_db,
            distance(position, center),
            position.x,
            position.y,
            position.z,
        )

    return sorted(results, key=sort_key)


def compare_models(scenario: Scenario, irs_position: Position3D) -> ComparisonReport:
    """Contrast direct full-power service with panel-assisted reduced power.

    Direct service runs at the conventional power; reflected service runs
    at the reduced power with the panel at `irs_position`.  Both are
    summarized over the same cell-edge points, computed there only, in
    one pass that warns once about points on a transmitter, counting them
    over both models.  A position on the base station, or a reduced power
    above the conventional one, raises ValueError before any scoring.
    """
    _panel_hop(scenario, irs_position)
    conventional, irs = scenario.micro_power_conventional, scenario.micro_power_irs
    fraction = 1.0 - irs / conventional
    if not fraction >= 0.0:
        raise ValueError(
            f"micro_power_irs {irs!r} exceeds micro_power_conventional {conventional!r}, so "
            "the power reduction would be negative"
        )
    conventional_edge, irs_edge = _edge_rows(scenario, True, [irs_position])
    return ComparisonReport(
        conventional_power=conventional,
        irs_power=irs,
        irs_position=irs_position,
        conventional_edge=conventional_edge,
        irs_edge=irs_edge,
        power_reduction_fraction=fraction,
    )


def ranking_to_csv(results: list[PlacementResult]) -> str:
    """Serialize a ranking as CSV, one row per candidate, rank from 1.

    Every number is written as format_value writes it, repr(float(v)),
    unrolled into one f-string per row.
    """
    rows = [
        f"{rank},{float(p.x)!r},{float(p.y)!r},{float(p.z)!r},{float(r.objective_db)!r},"
        f"{float(e.min_db)!r},{float(e.mean_db)!r},{float(e.max_db)!r}\n"
        for rank, r in enumerate(results, start=1)
        for p, e in [(r.irs_position, r.edge)]
    ]
    return "rank,x_m,y_m,z_m,objective_db,edge_min_db,edge_mean_db,edge_max_db\n" + "".join(rows)
