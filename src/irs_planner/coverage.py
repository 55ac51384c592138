"""Downlink SINR maps over a rectangular service area.

A map samples the user plane on a regular lattice: nx = floor(width /
resolution) + 1 columns and ny = floor(depth / resolution) + 1 rows,
stored row-major (the row index varies slowest).  Values are SINR in dB
with -inf as the zero-signal sentinel; grid points that coincide with a
transmitter get the sentinel and a warning rather than raising, so one
degenerate point cannot abort a whole map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .linkbudget import FixedAngles, Position3D, distance, element_scatter_gain

if TYPE_CHECKING:
    from .scenario import Scenario

SENTINEL_DB = -math.inf
# array elements per batch of panel positions scored on the cell edge
_CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class CellExtent:
    """An axis-aligned rectangle on the ground plane, in meters."""

    origin_x: float
    origin_y: float
    width: float
    depth: float

    def __post_init__(self) -> None:
        for name in ("origin_x", "origin_y", "width", "depth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"CellExtent.{name} must be finite")
        if not (self.width > 0 and self.depth > 0):
            raise ValueError("extent width and depth must be positive")

    def contains(self, other: "CellExtent") -> bool:
        return (
            other.origin_x >= self.origin_x
            and other.origin_y >= self.origin_y
            and other.origin_x + other.width <= self.origin_x + self.width
            and other.origin_y + other.depth <= self.origin_y + self.depth
        )

    def center(self) -> tuple[float, float]:
        return (self.origin_x + self.width / 2.0, self.origin_y + self.depth / 2.0)


@dataclass(frozen=True, eq=False)
class SinrMap:
    """SINR samples in dB over the lattice spanned by an extent."""

    extent: CellExtent
    resolution: float  # m
    user_height: float  # m
    values: np.ndarray  # flat float64, length nx * ny, row-major

    @property
    def nx(self) -> int:
        return grid_shape(self.extent, self.resolution)[0]

    @property
    def ny(self) -> int:
        return grid_shape(self.extent, self.resolution)[1]

    def value_at(self, i: int, j: int) -> float:
        nx, ny = grid_shape(self.extent, self.resolution)
        if not (0 <= i < nx and 0 <= j < ny):
            raise ValueError("grid index out of range")
        return float(self.values[j * nx + i])


@dataclass(frozen=True)
class EdgeStats:
    """Summary of SINR over the service-area perimeter points."""

    min_db: float
    mean_db: float  # linear-domain mean reported in dB
    max_db: float
    point_count: int

    def __post_init__(self) -> None:
        if self.point_count < 1:
            raise ValueError("point_count must be at least 1")
        if math.isnan(self.min_db) or math.isnan(self.mean_db) or math.isnan(self.max_db):
            raise ValueError("edge statistics must not be NaN")
        if not (self.min_db <= self.mean_db <= self.max_db):
            raise ValueError("edge statistics must satisfy min <= mean <= max")


def _check_resolution(extent: CellExtent, resolution: float) -> None:
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError("grid_resolution must be positive")
    if resolution > min(extent.width, extent.depth):
        raise ValueError("grid_resolution must not exceed the extent dimensions")


def grid_shape(extent: CellExtent, resolution: float) -> tuple[int, int]:
    """Lattice dimensions (nx, ny) for an extent at a resolution."""
    _check_resolution(extent, resolution)
    nx = int(math.floor(extent.width / resolution)) + 1
    ny = int(math.floor(extent.depth / resolution)) + 1
    return nx, ny


def build_grid(extent: CellExtent, resolution: float, user_height: float) -> list[Position3D]:
    """Sample positions covering the extent at the user height.

    Points are ordered row-major: the y index varies slowest and the x
    index fastest, which fixes the serialization order of every map.
    """
    nx, ny = grid_shape(extent, resolution)
    points = []
    for j in range(ny):
        y = extent.origin_y + j * resolution
        for i in range(nx):
            x = extent.origin_x + i * resolution
            points.append(Position3D(x, y, user_height))
    return points


def cell_edge_points(
    extent: CellExtent, resolution: float, user_height: float
) -> list[Position3D]:
    """The perimeter subset of build_grid, in grid order."""
    x, y = _perimeter(extent, resolution)
    return [Position3D(px, py, user_height) for px, py in zip(x.tolist(), y.tolist())]


def _grid_axes(extent: CellExtent, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    nx, ny = grid_shape(extent, resolution)
    xs = extent.origin_x + resolution * np.arange(nx, dtype=np.float64)
    ys = extent.origin_y + resolution * np.arange(ny, dtype=np.float64)
    return xs, ys


def _lattice(extent: CellExtent, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y of every lattice point, flat and row-major."""
    x, y = np.meshgrid(*_grid_axes(extent, resolution))
    return x.reshape(-1), y.reshape(-1)


def _perimeter(extent: CellExtent, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the lattice perimeter in grid order.

    That is the first row, both ends of each inner row, then the last
    row; grid_shape guarantees at least two rows and two columns.
    """
    xs, ys = _grid_axes(extent, resolution)
    inner = ys[1:-1]
    x = np.concatenate([xs, np.tile(xs[[0, -1]], len(inner)), xs])
    y = np.concatenate([np.full(len(xs), ys[0]), np.repeat(inner, 2), np.full(len(xs), ys[-1])])
    return x, y


def _interference_grid(
    scenario: "Scenario", x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interference power per grid point and a mask of coincident points."""
    env = scenario.env
    wl = env.wavelength
    total = np.zeros_like(x)
    dead = np.zeros(x.shape, dtype=bool)
    for source in scenario.interference_sources():
        d = np.sqrt(
            (x - source.position.x) ** 2
            + (y - source.position.y) ** 2
            + (scenario.user_height - source.position.z) ** 2
        )
        dead |= d == 0.0
        if source.transmit_power == 0.0:
            continue
        with np.errstate(divide="ignore"):
            total = total + source.transmit_power * wl ** 2 / (
                d ** source.pathloss_exponent * 16.0 * math.pi ** 2
            )
    return total, dead


def _direct_signal(
    scenario: "Scenario", x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Power served directly by the base station, and the points on it."""
    bs = scenario.micro_bs_position
    wl = scenario.env.wavelength
    d = np.sqrt(
        (x - bs.x) ** 2 + (y - bs.y) ** 2 + (scenario.user_height - bs.z) ** 2
    )
    dead = d == 0.0
    with np.errstate(divide="ignore"):
        signal = scenario.micro_power_conventional * wl ** 2 / (
            d ** scenario.env.pathloss_exponent_micro * 16.0 * math.pi ** 2
        )
    return np.where(dead, 0.0, signal), dead


def _reflected_signal(
    scenario: "Scenario",
    positions: Sequence[Position3D],
    r1: Sequence[float],
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Power served through the panel at each of K positions, shape (K, points).

    `r1` holds each position's nonzero hop length from the base station.
    Per-position scalars such as (user_height - z) ** 2 stay Python
    floats, because numpy's power can differ from Python's in the last
    bit, and every array operation is elementwise, so a value does not
    depend on the batch it is computed in.  Geometric-mode panels zero
    out points behind the surface.  Also returns the mask of points on a
    panel.
    """
    panel = scenario.panel
    bs = scenario.micro_bs_position
    hop = np.array(r1)[:, None]
    dx = x - np.array([p.x for p in positions])[:, None]
    dy = y - np.array([p.y for p in positions])[:, None]
    dz = [scenario.user_height - p.z for p in positions]
    r2 = np.sqrt(dx ** 2 + dy ** 2 + np.array([d ** 2 for d in dz])[:, None])
    dead = r2 == 0.0
    mode = panel.angle_mode
    if isinstance(mode, FixedAngles):
        cos_t: np.ndarray | float = math.cos(mode.theta_t)
        cos_r: np.ndarray | float = math.cos(mode.theta_r)
    else:
        n0, n1, n2 = mode.normal
        # a base station behind the panel gets no reflected power anywhere
        cos_t = np.array([
            max(((bs.x - p.x) * n0 + (bs.y - p.y) * n1 + (bs.z - p.z) * n2) / r, 0.0)
            for p, r in zip(positions, r1)
        ])[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_r = (dx * n0 + dy * n1 + np.array(dz)[:, None] * n2) / r2
        cos_r = np.where(dead | (cos_r < 0.0), 0.0, cos_r)
    wl = scenario.env.wavelength
    g_sc = element_scatter_gain(panel.element_len_x, panel.element_len_y, wl)
    gain = (
        scenario.micro_power_irs
        * wl ** 2
        * panel.reflection_coefficient ** 2
        * g_sc
        * panel.gain_tx
        * panel.gain_rx
        * panel.element_len_x
        * panel.element_len_y
        * panel.elements_m ** 2
        * panel.elements_n ** 2
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        signal = gain * cos_t * cos_r / ((hop * r2) ** 2 * 64.0 * math.pi ** 3)
    return np.where(dead, 0.0, signal), dead


def _sinr_db(
    scenario: "Scenario",
    signal: np.ndarray,
    interference: np.ndarray,
    dead: np.ndarray,
) -> np.ndarray:
    """SINR in dB, with the sentinel at zero signal and at dead points."""
    with np.errstate(divide="ignore"):
        linear = signal / (interference + scenario.env.noise_power)
        db = np.where(linear > 0.0, 10.0 * np.log10(np.where(linear > 0.0, linear, 1.0)), SENTINEL_DB)
    if dead.any():
        warnings.warn(
            f"{int(dead.sum())} grid point(s) coincide with a transmitter; "
            "writing the -inf sentinel there",
            RuntimeWarning,
            stacklevel=3,
        )
        db = np.where(dead, SENTINEL_DB, db)
    return db


def _as_map(scenario: "Scenario", db: np.ndarray) -> SinrMap:
    return SinrMap(
        extent=scenario.micro_extent,
        resolution=scenario.grid_resolution,
        user_height=scenario.user_height,
        values=db.reshape(-1),
    )


def sinr_map_conventional(scenario: "Scenario") -> SinrMap:
    """SINR map served directly by the small-cell base station."""
    x, y = _lattice(scenario.micro_extent, scenario.grid_resolution)
    signal, dead = _direct_signal(scenario, x, y)
    interference, dead_i = _interference_grid(scenario, x, y)
    return _as_map(scenario, _sinr_db(scenario, signal, interference, dead | dead_i))


def sinr_map_irs(scenario: "Scenario") -> SinrMap:
    """SINR map served through the reflecting panel at reduced power.

    Only the cascaded path contributes to the signal.  Geometric-mode
    panels zero out points behind the surface; a panel coincident with
    the base station is a malformed scenario and raises.
    """
    position = scenario.panel.position
    r1 = distance(scenario.micro_bs_position, position)
    if r1 == 0.0:
        raise ValueError("panel position coincides with the base station")
    x, y = _lattice(scenario.micro_extent, scenario.grid_resolution)
    signal, dead = _reflected_signal(scenario, [position], [r1], x, y)
    interference, dead_i = _interference_grid(scenario, x, y)
    return _as_map(scenario, _sinr_db(scenario, signal, interference, dead | dead_i))


def _lattice_index(sinr_map: SinrMap, point: Position3D) -> int:
    if point.z != sinr_map.user_height:
        raise ValueError("point height does not match the map's user height")
    extent = sinr_map.extent
    res = sinr_map.resolution
    nx, ny = grid_shape(extent, res)
    i = round((point.x - extent.origin_x) / res)
    j = round((point.y - extent.origin_y) / res)
    if not (0 <= i < nx and 0 <= j < ny):
        raise ValueError("point lies outside the map lattice")
    if extent.origin_x + i * res != point.x or extent.origin_y + j * res != point.y:
        raise ValueError("point is not on the map lattice")
    return j * nx + i


def _summarize(values: list[float]) -> EdgeStats:
    """Min, linear-domain mean and max of SINR values in dB."""
    # Python's ** (libm pow), not numpy's vectorized power, which differs
    # in the last bit on some inputs and would change the output bytes
    linear = [10.0 ** (v / 10.0) for v in values]
    mean_linear = math.fsum(linear) / len(linear)
    mean_db = 10.0 * math.log10(mean_linear) if mean_linear > 0.0 else SENTINEL_DB
    low = min(values)
    high = max(values)
    # the dB round trip can drift by one ulp; keep the mean inside [min, max]
    mean_db = min(max(mean_db, low), high)
    return EdgeStats(
        min_db=low,
        mean_db=mean_db,
        max_db=high,
        point_count=len(values),
    )


def edge_stats(sinr_map: SinrMap, edge: Sequence[Position3D]) -> EdgeStats:
    """Min, linear-domain mean, and max SINR over the given edge points.

    Every point must fall on the map lattice.  The mean is accumulated
    with exact summation in the linear domain and converted back to dB,
    so it is reproducible across platforms and point orderings.
    """
    if len(edge) == 0:
        raise ValueError("edge point set must not be empty")
    return _summarize([float(sinr_map.values[_lattice_index(sinr_map, p)]) for p in edge])


def edge_stats_direct(scenario: "Scenario") -> EdgeStats:
    """Cell-edge statistics of direct service, computed on the perimeter only.

    Equal to edge_stats(sinr_map_conventional(scenario), cell_edge_points(...))
    without computing the map.
    """
    x, y = _perimeter(scenario.micro_extent, scenario.grid_resolution)
    signal, dead = _direct_signal(scenario, x, y)
    interference, dead_i = _interference_grid(scenario, x, y)
    return _summarize(_sinr_db(scenario, signal, interference, dead | dead_i).tolist())


def edge_stats_reflected(
    scenario: "Scenario", positions: Sequence[Position3D]
) -> list[EdgeStats]:
    """Cell-edge statistics of panel-assisted service, one per panel position.

    Each entry equals edge_stats(sinr_map_irs(...), cell_edge_points(...))
    with the panel moved to that position, but only the perimeter is
    computed.  Interference at the perimeter is computed once, then the
    positions are scored in chunks of at most _CHUNK_ELEMENTS array
    elements, so memory stays bounded however many positions there are.
    A position on the base station raises ValueError before any scoring.
    """
    r1 = [distance(scenario.micro_bs_position, p) for p in positions]
    if 0.0 in r1:
        k = r1.index(0.0)
        p = positions[k]
        raise ValueError(
            f"candidate {k} (counting from 0) at ({p.x!r}, {p.y!r}, {p.z!r}) "
            "coincides with the base station"
        )
    x, y = _perimeter(scenario.micro_extent, scenario.grid_resolution)
    interference, dead_i = _interference_grid(scenario, x, y)
    chunk = max(1, _CHUNK_ELEMENTS // len(x))
    stats = []
    for start in range(0, len(positions), chunk):
        stop = start + chunk
        signal, dead = _reflected_signal(scenario, positions[start:stop], r1[start:stop], x, y)
        db = _sinr_db(scenario, signal, interference, dead | dead_i)
        stats.extend(_summarize(row.tolist()) for row in db)
    return stats


def format_value(value: float) -> str:
    """Shortest round-trip decimal form of a float; the sentinel is -inf."""
    if value == -math.inf:
        return "-inf"
    return repr(float(value))


def map_to_csv(sinr_map: SinrMap) -> str:
    """Serialize a map as x_m,y_m,sinr_db rows in grid order.

    Floats use the shortest round-trip decimal form and the sentinel is
    written as -inf, which keeps output byte-stable across runs.
    """
    extent = sinr_map.extent
    res = sinr_map.resolution
    nx, ny = grid_shape(extent, res)
    lines = ["x_m,y_m,sinr_db"]
    idx = 0
    for j in range(ny):
        y = extent.origin_y + j * res
        for i in range(nx):
            x = extent.origin_x + i * res
            lines.append(
                f"{format_value(x)},{format_value(y)},{format_value(sinr_map.values[idx])}"
            )
            idx += 1
    return "\n".join(lines) + "\n"
