"""Downlink SINR maps over a rectangular service area.

This module and placement, which builds on it, are the package's numpy
code; the service area, a scenario.CellExtent, and the rule that admits
a lattice over it, scenario._check_steps, are defined with the scenario,
so that the scalar API and a scenario's own checks load without numpy.

A map samples the user plane on a regular lattice: nx = floor(width /
resolution) + 1 columns and ny = floor(depth / resolution) + 1 rows,
stored row-major (the row index varies slowest).  The coordinates along
each side are origin + resolution * k, written once in _axis; grids,
maps, edges, CSV text and placement's grid sweeps all take theirs from
it, so they agree to the bit.  A ratio that falls
within a few ulp below an integer counts as that integer, so 0.3 / 0.1
(2.9999999999999996 in floats) gives 4 columns and the last column lies
on the far boundary, within one ulp, instead of a step inside it.  A
resolution that leaves more than sys.maxsize steps along a side, or more
than sys.maxsize lattice points, or that is at most 2 ulp of the
lattice's largest coordinate, so that two ticks could round to one
double, is a ValueError naming grid_resolution, raised before anything
is allocated.  Values are SINR in dB with -inf as
the zero-signal sentinel; grid points that coincide with a transmitter
get the sentinel and one warning per map rather than raising, so one
degenerate point cannot abort a whole map.

Every SINR value comes from one loop, _sinr_batches.  Per block of
points it computes interference plus noise once, scores the serving
rows in batches of at most _CHUNK_ELEMENTS elements through one kernel,
_Kernel, whose named row buffers every batch reuses, and it warns at
most once per call about points on a transmitter, naming the first
caller outside the package.  A map is row 0 over blocks of whole
lattice rows (one row if a row is longer than _CHUNK_ELEMENTS), each a
view of the kernel's signal row;
sinr_map_conventional and sinr_map_irs copy the blocks into one SinrMap,
and the command line writes each block as it comes, without a copy, so
its memory does not grow with the lattice.  Cell-edge scoring is many
rows over one block, the perimeter.  The kernel is elementwise and keeps
one operation order, so a value does not depend on its block, its batch
or the buffer size.

Map text is written in sub-blocks of whole rows, at most _TEXT_ELEMENTS
points, each as one matrix of bytes (_csv_rows).  format_value (repr)
defines the text of every number.  _format_values writes the same digits
for a whole array of map values from exact integer arithmetic, and
leaves to format_value the few values outside the range where it does
so.  compare calls format_value for its few numbers, and sweep rankings
write the same text, repr(float(v)), inline (placement.ranking_to_csv).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .linkbudget import (
    _PI_CUBED,
    _PI_SQUARED,
    FixedAngles,
    Position3D,
    _incidence_cosine,
    _panel_gain,
    distance,
)
from .scenario import CellExtent, Scenario, _check_resolution, _steps

SENTINEL_DB = -math.inf
# array elements per batch: panel positions scored on the cell edge, or
# lattice points of a map block
_CHUNK_ELEMENTS = 1 << 15
# lattice points per sub-block of map text: _csv_rows formats whole rows,
# at most this many points at a time (one row if a row is longer)
_TEXT_ELEMENTS = 1 << 13
# columns _format_values may write: a sign, 16 integer digits, the point and
# 18 fraction digits, which is more than format_value's longest text (24)
_VALUE_COLUMNS = 36
# the byte that pads map text to its columns; no text holds it
_PAD = 0
_MANTISSA = (1 << 52) - 1
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)  # 10**18 < 2**63
_PACKAGE = __name__.partition(".")[0]


@dataclass(frozen=True, eq=False)
class SinrMap:
    """SINR samples in dB over the lattice spanned by an extent."""

    extent: CellExtent
    resolution: float  # m
    user_height: float  # m
    values: np.ndarray  # flat float64, length nx * ny, row-major

    def __post_init__(self) -> None:
        nx, ny = grid_shape(self.extent, self.resolution)
        if np.shape(self.values) != (nx * ny,):
            raise ValueError(f"values must be a flat array of {nx} * {ny} lattice values")
        # the admitted lattice's dimensions, kept as attributes, not fields
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled map; one pickled before it kept nx and ny admits its lattice."""
        self.__dict__.update(state)
        if "nx" not in state:
            self.__post_init__()

    def value_at(self, i: int, j: int) -> float:
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise ValueError("grid index out of range")
        return float(self.values[j * self.nx + i])


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


def _axis(origin: float, length: float, step: float) -> np.ndarray:
    """Lattice coordinates along one side: origin + step * k for k = 0 .. _steps."""
    return origin + step * np.arange(_steps(length, step) + 1, dtype=np.float64)


def grid_shape(extent: CellExtent, resolution: float) -> tuple[int, int]:
    """Lattice dimensions (nx, ny) for an extent at a resolution."""
    _check_resolution(extent, resolution)
    return _steps(extent.width, resolution) + 1, _steps(extent.depth, resolution) + 1


def build_grid(extent: CellExtent, resolution: float, user_height: float) -> list[Position3D]:
    """Sample positions covering the extent at the user height.

    Points are ordered row-major: the y index varies slowest and the x
    index fastest, which fixes the serialization order of every map.
    """
    xs, ys = (axis.tolist() for axis in _grid_axes(extent, resolution))
    return [Position3D(x, y, user_height) for y in ys for x in xs]


def cell_edge_points(
    extent: CellExtent, resolution: float, user_height: float
) -> list[Position3D]:
    """The perimeter subset of build_grid, in grid order."""
    x, y = _perimeter(extent, resolution)
    return [Position3D(px, py, user_height) for px, py in zip(x.tolist(), y.tolist())]


def _grid_axes(extent: CellExtent, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    _check_resolution(extent, resolution)
    return (
        _axis(extent.origin_x, extent.width, resolution),
        _axis(extent.origin_y, extent.depth, resolution),
    )


def _lattice_rows(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y of every point of the rows at ys, flat and row-major."""
    x, y = np.meshgrid(xs, ys)
    return x.reshape(-1), y.reshape(-1)


def _lattice(extent: CellExtent, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y of every lattice point, flat and row-major."""
    return _lattice_rows(*_grid_axes(extent, resolution))


def _perimeter(extent: CellExtent, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the lattice perimeter in grid order.

    That is the first row, both ends of each inner row, then the last
    row; _check_resolution guarantees at least two rows and two columns.
    """
    xs, ys = _grid_axes(extent, resolution)
    inner = ys[1:-1]
    x = np.concatenate([xs, np.tile(xs[[0, -1]], len(inner)), xs])
    y = np.concatenate([np.full(len(xs), ys[0]), np.repeat(inner, 2), np.full(len(xs), ys[-1])])
    return x, y


class _Kernel:
    """Signal and SINR in dB over batches of points, in buffers made once.

    _sinr_batches makes one kernel per call and passes every batch
    through it.  Each ufunc writes with out= into row slices of named
    (rows, points) buffers, so a batch allocates no array of its own size:
    the signal, then its dB; two scratch blocks; a spare block for
    reflected's second hops; the dead and off masks; and one row each for
    the block's floor and its points on the source.  A result holds until
    the next call that writes its rows.  Each value is linkbudget's
    expression evaluated elementwise in the same order, so it does not
    depend on the batch or the buffer size.
    """

    def __init__(self, scenario: Scenario, rows: int, points: int) -> None:
        self.scenario = scenario
        # one allocation: with one per buffer, a 210-candidate sweep took
        # about 300 page faults per call (the freed pages went back to the
        # system) and ran about 7% slower
        floats = np.empty((4, rows, points))
        self.signal, self.spare, self.scratch = floats[0], floats[1], floats[2:]
        self.dead, self.off = np.empty((2, rows, points), dtype=bool)
        self.floor_power = np.empty(points)
        self.floor_dead = np.empty(points, dtype=bool)

    def power_law(
        self, x: np.ndarray, y: np.ndarray, tx: Position3D, power: float, alpha: float,
        out: np.ndarray, dead: np.ndarray
    ) -> None:
        """Power from one transmitter into `out`, zero on it, and the points on it into `dead`.

        P * wl**2 / (d**alpha * 16 * pi**2), with d from (dx*dx + dy*dy) +
        dz*dz, in the order of linkbudget.conventional_rx_power.
        """
        d, dy = out, self.scratch[0, 0, : len(x)]
        dz = self.scenario.user_height - tx.z
        # a hop or a path loss that overflows is infinitely long or large, so
        # it carries zero power; the points on the transmitter are masked below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.subtract(x, tx.x, out=d)
            d *= d
            np.subtract(y, tx.y, out=dy)
            dy *= dy
            d += dy
            d += dz * dz
            np.sqrt(d, out=d)
            np.equal(d, 0.0, out=dead)
            d **= alpha  # the same fast paths as d ** alpha
            d *= 16.0
            d *= _PI_SQUARED
            np.divide(power * self.scenario.env.wavelength ** 2, d, out=d)
        np.copyto(d, 0.0, where=dead)

    def floor(self, x: np.ndarray, y: np.ndarray) -> None:
        """Interference plus noise into floor_power, the points on the source into floor_dead."""
        n = len(x)
        power, dead = self.floor_power[:n], self.floor_dead[:n]
        [s] = self.scenario.interference_sources()
        self.power_law(x, y, s.position, s.transmit_power, s.pathloss_exponent, power, dead)
        power += self.scenario.env.noise_power

    def reflected(
        self, positions: np.ndarray, x: np.ndarray, y: np.ndarray, first: int = 0
    ) -> None:
        """Power served through the panel at each of K positions, into signal rows from `first`.

        `positions` is a (K, 3) array, none on the base station.  Only rows
        from `first` on are written.  Both hops are (dx*dx + dy*dy) + dz*dz
        and the power is gain * cos_t * cos_r / ((r1 * r2) * (r1 * r2) * 64
        * pi**3), left to right, as in linkbudget.irs_rx_power, so the two
        agree bit for bit.  Geometric-mode panels zero out points behind the
        surface.  The points on a panel go into the same rows of dead.
        """
        rows, n = slice(first, first + len(positions)), len(x)
        dx, r2 = self.signal[rows, :n], self.spare[rows, :n]
        dy, denominator = self.scratch[:, rows, :n]
        dead, off = self.dead[rows, :n], self.off[rows, :n]
        panel = self.scenario.panel
        bs = self.scenario.micro_bs_position
        gain = _panel_gain(self.scenario.micro_power_irs, panel, self.scenario.env.wavelength)
        mode = panel.angle_mode
        px, py, pz = positions.T
        dz = (self.scenario.user_height - pz)[:, None]
        # a hop that overflows is infinitely long, so it carries zero power;
        # a point on a panel divides by zero and is masked below, and NaN
        # (an infinite gain times a zero cosine) gets the sentinel in sinr_db
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bx, by, bz = bs.x - px, bs.y - py, bs.z - pz
            r1 = np.sqrt(bx * bx + by * by + bz * bz)
            np.subtract(x, px[:, None], out=dx)
            np.subtract(y, py[:, None], out=dy)
            np.multiply(dx, dx, out=r2)
            np.multiply(dy, dy, out=denominator)
            r2 += denominator
            r2 += dz * dz
            np.sqrt(r2, out=r2)
            np.equal(r2, 0.0, out=dead)
            if isinstance(mode, FixedAngles):
                numerator: np.ndarray | float = (
                    gain * math.cos(mode.theta_t) * math.cos(mode.theta_r)
                )
            else:
                # a base station behind the panel gets no reflected power anywhere
                cos_t = np.maximum(_incidence_cosine(mode.normal, bx, by, bz, r1), 0.0)[:, None]
                n0, n1, n2 = mode.normal
                cos_r = dx
                cos_r *= n0
                dy *= n1
                cos_r += dy
                cos_r += dz * n2
                cos_r /= r2
                np.less(cos_r, 0.0, out=off)
                off |= dead
                np.copyto(cos_r, 0.0, where=off)
                numerator = cos_r
                numerator *= gain * cos_t  # (gain * cos_t) * cos_r
            np.multiply(r2, r1[:, None], out=denominator)
            denominator *= denominator
            denominator *= 64.0
            denominator *= _PI_CUBED
            signal = dx  # the numerator's buffer in geometric mode
            np.divide(numerator, denominator, out=signal)
        np.copyto(signal, 0.0, where=dead)

    def sinr_db(self, rows: int, points: int) -> int:
        """SINR in dB in place of the first `rows` signal rows; returns the dead points.

        The floor is the block's, from floor.  The sentinel goes where the
        signal is zero and where dead or floor_dead holds.  dead is
        overwritten.
        """
        linear = self.signal[:rows, :points]
        dead, off = self.dead[:rows, :points], self.off[:rows, :points]
        dead |= self.floor_dead[:points]
        # a noise power near the bottom of the double range overflows the
        # linear SINR to +inf, which becomes +inf dB on purpose
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(linear, self.floor_power[:points], out=linear)
            np.greater(linear, 0.0, out=off)
            np.logical_not(off, out=off)
            off |= dead
            np.copyto(linear, 1.0, where=off)
            np.log10(linear, out=linear)
            linear *= 10.0
        np.copyto(linear, SENTINEL_DB, where=off)
        return int(np.count_nonzero(dead))


def _warn_dead(count: int) -> None:
    """Warn once about `count` points on a transmitter, if there are any.

    The warning blames the innermost frame whose module lies outside this
    package, so no helper frame inside it moves the blame.
    """
    if count:
        frame, level = sys._getframe(1), 2
        while frame and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"{count} grid point(s) coincide with a transmitter; "
            "writing the -inf sentinel there",
            RuntimeWarning,
            stacklevel=level,
        )


def _panel_hop(scenario: Scenario, position: Position3D) -> None:
    """ValueError if the hop from the base station to one panel position is zero."""
    if distance(scenario.micro_bs_position, position) == 0.0:
        raise ValueError("panel position coincides with the base station")


def _hops(scenario: Scenario, positions: Sequence[Position3D]) -> None:
    """ValueError naming the first candidate whose hop from the base station is zero."""
    bs = scenario.micro_bs_position
    for k, p in enumerate(positions):
        if distance(bs, p) == 0.0:
            raise ValueError(
                f"candidate {k} (counting from 0) at ({p.x!r}, {p.y!r}, {p.z!r}) "
                "coincides with the base station"
            )


def _sinr_batches(
    scenario: Scenario,
    direct: bool,
    positions: Sequence[Position3D],
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
) -> Iterator[np.ndarray]:
    """SINR in dB of each serving row over each block of points, batch by batch.

    The rows are direct service if `direct`, then the panel at each of
    `positions`, none on the base station.  No block in `blocks` is longer
    than the first.  Each batch yields its dB, shape (rows, points), a
    view that holds until the next batch and that the caller may overwrite.
    """
    panels = np.array([(p.x, p.y, p.z) for p in positions], dtype=np.float64).reshape(-1, 3)
    rows = direct + len(panels)
    bs, power = scenario.micro_bs_position, scenario.micro_power_conventional
    alpha = scenario.env.pathloss_exponent_micro
    kernel = None
    dead_count = 0
    for x, y in blocks:
        n = len(x)
        if kernel is None:  # sized by the first block, the longest
            batch = max(1, min(rows, _CHUNK_ELEMENTS // n))
            kernel = _Kernel(scenario, batch, n)
        kernel.floor(x, y)
        for start in range(0, rows, batch):
            k = min(batch, rows - start)
            lead = int(direct and start == 0)  # direct service is row 0 of the first batch
            if lead:
                kernel.power_law(x, y, bs, power, alpha, kernel.signal[0, :n], kernel.dead[0, :n])
            served = panels[max(start - direct, 0) : start + k - direct]
            if len(served):
                kernel.reflected(served, x, y, lead)
            dead_count += kernel.sinr_db(k, n)
            yield kernel.signal[:k, :n]
    _warn_dead(dead_count)


def _map_blocks(scenario: Scenario, irs: bool) -> Iterator[np.ndarray]:
    """SINR in dB over the map lattice, one flat block of whole rows at a time.

    With `irs` the signal is the cascaded path through the panel only,
    otherwise the direct path.  A block is a view that the next one
    overwrites.  The scenario is checked before this returns, so a
    malformed one raises before any block is asked for.
    """
    xs, ys = _grid_axes(scenario.micro_extent, scenario.grid_resolution)
    rows = max(1, _CHUNK_ELEMENTS // len(xs))
    blocks = (_lattice_rows(xs, ys[j0 : j0 + rows]) for j0 in range(0, len(ys), rows))
    positions = [scenario.panel.position] if irs else []
    if irs:
        _panel_hop(scenario, scenario.panel.position)
    return (db[0] for db in _sinr_batches(scenario, not irs, positions, blocks))


def _as_map(scenario: Scenario, blocks: Iterator[np.ndarray]) -> SinrMap:
    # each block is copied before the next overwrites it
    return SinrMap(
        extent=scenario.micro_extent,
        resolution=scenario.grid_resolution,
        user_height=scenario.user_height,
        values=np.concatenate(list(map(np.copy, blocks))),
    )


def sinr_map_conventional(scenario: Scenario) -> SinrMap:
    """SINR map served directly by the small-cell base station."""
    return _as_map(scenario, _map_blocks(scenario, irs=False))


def sinr_map_irs(scenario: Scenario) -> SinrMap:
    """SINR map served through the reflecting panel at reduced power.

    Only the cascaded path contributes to the signal.  Geometric-mode
    panels zero out points behind the surface; a panel coincident with
    the base station is a malformed scenario and raises.
    """
    return _as_map(scenario, _map_blocks(scenario, irs=True))


def _lattice_index(sinr_map: SinrMap, xs: list[float], ys: list[float], point: Position3D) -> int:
    """Flat index of a point of the map lattice whose axes are xs and ys."""
    if point.z != sinr_map.user_height:
        raise ValueError("point height does not match the map's user height")
    extent = sinr_map.extent
    try:
        i = round((point.x - extent.origin_x) / sinr_map.resolution)
        j = round((point.y - extent.origin_y) / sinr_map.resolution)
    except OverflowError:  # an offset that overflows lies off every lattice
        i = j = -1
    if not (0 <= i < len(xs) and 0 <= j < len(ys)):
        raise ValueError("point lies outside the map lattice")
    if xs[i] != point.x or ys[j] != point.y:
        raise ValueError("point is not on the map lattice")
    return j * len(xs) + i


def _exact_row_sums(terms: np.ndarray) -> list[float]:
    """math.fsum of each row of a 2-D array of non-negative floats, in numpy.

    Each pass cuts every term of a row at one binary place, `width` bits
    below the previous cut (the first lies `width` bits below the row's
    top bit), and numpy sums the parts above the cut; the parts below go
    on to the next pass.  Those parts are whole multiples, under
    2 ** width, of one power of two, and width = 53 - n.bit_length()
    leaves room for the carries of n of them, so each pass sums exactly in
    any order (Rump, Ogita & Oishi, "Accurate floating-point summation",
    2008).  math.fsum then rounds each row's few exact partial sums once,
    to the same float as math.fsum over the terms.  `terms` is
    overwritten.  A term or a sum beyond the largest double raises
    OverflowError.
    """
    width = 53 - terms.shape[1].bit_length()
    top = terms.max(axis=1)
    if not np.isfinite(top).all():
        raise OverflowError("a term exceeds the largest double")
    shift = np.frexp(top)[1][:, None] - width
    high = np.empty_like(terms)
    partials = [[0.0] * len(terms)]  # so that rows of zeros need no pass
    with np.errstate(over="ignore"):
        while terms.any():
            np.ldexp(terms, -shift, out=high)
            np.floor(high, out=high)
            np.ldexp(high, shift, out=high)
            partials.append(high.sum(axis=1).tolist())
            terms -= high
            shift -= width
    sums = [math.fsum(p) for p in zip(*partials)]
    if math.inf in sums:
        raise OverflowError("a sum exceeds the largest double")
    return sums


def _summarize(db: np.ndarray) -> list[EdgeStats]:
    """Min, linear-domain mean and max of each row of SINR values in dB.

    The mean is the correctly rounded sum of 10 ** (v / 10) over a row,
    with libm's pow, divided by the row length and taken back to dB.  A
    row holding +inf has a mean of +inf.  A finite row whose linear terms
    or their sum exceed the largest double raises ValueError: that takes
    values within 10 * log10(n) dB of 3082.5 dB, which only a noise power
    near the bottom of the double range produces.  `db` is overwritten
    with the linear terms, once each row's min and max are taken.
    """
    n = db.shape[1]
    lows, highs = db.min(axis=1), db.max(axis=1)
    # np.float_power's float64 loop calls libm's pow, as math.pow does;
    # np.power is vectorized (SVML with AVX-512) and differs in the last
    # bit on some inputs, which would change the output bytes
    terms = db
    terms /= 10.0
    with np.errstate(over="ignore"):
        np.float_power(10.0, terms, out=terms)
    # rows with +inf (or NaN) take their max as the mean and skip the sum
    terms[~(highs < math.inf)] = 0.0
    try:
        sums = _exact_row_sums(terms)
    except OverflowError:
        raise ValueError(
            "edge SINR too high for a linear-domain mean: 10 ** (SINR / 10) or its sum "
            "over the edge exceeds the largest double"
        ) from None
    stats = []
    for low, high, total in zip(lows.tolist(), highs.tolist(), sums):
        mean_linear = total / n if high < math.inf else high
        mean_db = 10.0 * math.log10(mean_linear) if mean_linear > 0.0 else SENTINEL_DB
        # the dB round trip can drift by one ulp; keep the mean inside [min, max]
        mean_db = min(max(mean_db, low), high)
        stats.append(EdgeStats(min_db=low, mean_db=mean_db, max_db=high, point_count=n))
    return stats


def edge_stats(sinr_map: SinrMap, edge: Sequence[Position3D]) -> EdgeStats:
    """Min, linear-domain mean, and max SINR over the given edge points.

    Every point must fall on the map lattice.  The mean is accumulated
    with exact summation in the linear domain and converted back to dB,
    so it is reproducible across platforms and point orderings.  A +inf
    on the edge makes the mean +inf; an edge whose linear-domain sum
    exceeds the largest double raises ValueError.
    """
    if len(edge) == 0:
        raise ValueError("edge point set must not be empty")
    xs, ys = (axis.tolist() for axis in _grid_axes(sinr_map.extent, sinr_map.resolution))
    index = [_lattice_index(sinr_map, xs, ys, p) for p in edge]
    return _summarize(sinr_map.values[index][None, :])[0]


def _edge_rows(
    scenario: Scenario, direct: bool, positions: Sequence[Position3D]
) -> list[EdgeStats]:
    """Cell-edge statistics of direct service if `direct`, then of each panel position.

    No position may lie on the base station: each public scorer checks its
    positions once (_panel_hop or _hops) before it calls this, which checks
    none.  The perimeter is one block of _sinr_batches, so memory stays
    bounded however many positions there are.
    """
    x, y = _perimeter(scenario.micro_extent, scenario.grid_resolution)
    batches = _sinr_batches(scenario, direct, positions, [(x, y)])
    return [s for db in batches for s in _summarize(db)]


def edge_stats_direct(scenario: Scenario) -> EdgeStats:
    """Cell-edge statistics of direct service, computed on the perimeter only.

    Equal to edge_stats(sinr_map_conventional(scenario), cell_edge_points(...))
    without computing the map.
    """
    [stats] = _edge_rows(scenario, True, [])
    return stats


def edge_stats_reflected(
    scenario: Scenario, positions: Sequence[Position3D]
) -> list[EdgeStats]:
    """Cell-edge statistics of panel-assisted service, one per panel position.

    Each entry equals edge_stats(sinr_map_irs(...), cell_edge_points(...))
    with the panel moved to that position, but only the perimeter is
    computed, in bounded batches (_edge_rows).  Perimeter points on a
    transmitter get the sentinel and one warning per call, counting them
    over all positions.  This is where a sweep's positions are checked:
    one on the base station raises ValueError naming the first such
    candidate (_hops) before any scoring, and placement.optimize_placement
    scores through this function.
    """
    _hops(scenario, positions)
    return _edge_rows(scenario, False, positions)


def format_value(value: float) -> str:
    """Shortest round-trip decimal form of a float; the sentinel is -inf.

    That is repr of the float, which spells -inf as "-inf".
    """
    return repr(float(value))


def _text_table(texts: Sequence[str], width: int) -> np.ndarray:
    """ASCII texts as the rows of a uint8 matrix `width` wide, padded with _PAD."""
    padded = "".join([t.ljust(width, chr(_PAD)) for t in texts]).encode("ascii")
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width)


def _format_values(values: np.ndarray, chars: np.ndarray) -> int:
    """Write format_value of each value into a row of `chars`; return the width used.

    Row k of `chars` (uint8, at least _VALUE_COLUMNS columns), read over
    the returned width without its _PAD bytes, is the text of values[k].
    Columns from that width on are left as they were.

    Every finite v with 2**-4 <= |v| < 2**50 whose mantissa is not a power
    of two is written from exact integers, by the free-format algorithm of
    Steele & White ("How to Print Floating-Point Numbers Accurately", PLDI
    1990) that repr follows.  With v = M * 2**(e - 53) and 2**52 <= M <
    2**53, the integer part is M >> (53 - e), and the rest of v is R / S
    with R = 4 * M mod S and S = 2**(55 - e), so that half an ulp is 2.
    Each step multiplies R by 10 and takes the next digit off it, and
    multiplies the margin, which starts at half an ulp, by 10.  The digits
    stop at the first step where they, or they with the last one raised,
    lie within the margin of v (or on it when M is even, since
    round-half-even reads that back as v).  Once a step stops, every later
    one would.  The last digit is then rounded half to even on what is
    left, R / S: if only one of the two candidates lies within the margin,
    it is the nearer one.  In this range an ulp is at most 1/8, so the
    integer part is never cut and the text is fixed-point, as repr writes
    it, and every integer in the loop stays below 2**63.

    Every -inf sentinel gets the text of one format_value call.  A raised
    digit that would carry past 9 (the stop rule leaves none), and every
    other value (zeros, subnormals, non-finite values, powers of two,
    values outside the range), are written by format_value one by one.
    The text is built one column per row of a scratch matrix, so that each
    step writes one contiguous row, and is copied into `chars` once.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    bits = values.view(np.int64)
    biased = (bits >> 52) & 0x7FF
    fast = (biased >= 1019) & (biased <= 1072) & ((bits & _MANTISSA) != 0)
    # 1.5 stands in for the others: it stops after one digit
    np.copyto(biased, 1023, where=~fast)
    mantissa = bits & _MANTISSA
    np.copyto(mantissa, 1 << 51, where=~fast)
    mantissa |= 1 << 52
    shift = 1075 - biased  # 53 - e, from 3 to 56
    whole = mantissa >> shift
    shift += 2
    size = np.left_shift(1, shift)  # S
    mask = size - 1
    fraction = mantissa << 2
    fraction &= mask  # R
    even = 1 - (mantissa & 1)

    # row c holds column c of the text: the sign, the integer digits
    # right-aligned, the point, then the fraction digits
    text = np.empty((_VALUE_COLUMNS, n), dtype=np.uint8)
    text[0] = _PAD
    np.copyto(text[0], ord("-"), where=bits < 0)
    point = 1 + len(str(int(whole.max())))
    rest = whole
    for column in range(point - 1, 0, -1):
        rest, digit = np.divmod(rest, 10)
        np.add(digit, ord("0"), out=text[column], casting="unsafe")
        if column < point - 1:  # the units digit stays, 0 included
            np.copyto(text[column], _PAD, where=whole < _POWERS_OF_TEN[point - 1 - column])
    text[point] = ord(".")

    digits = text[point + 1 :]
    start = fraction.copy()
    limit = np.empty_like(whole)
    gap = np.empty_like(whole)
    stop = np.zeros(n, dtype=bool)
    stopped = np.zeros(n, dtype=np.uint8)  # steps taken after the last digit
    margin = 2
    steps = 0
    while not stop.all():
        stopped += stop
        fraction *= 10
        margin *= 10
        np.right_shift(fraction, shift, out=digits[steps], casting="unsafe")
        digits[steps] += ord("0")
        np.copyto(digits[steps], _PAD, where=stop)
        fraction &= mask
        np.add(even, margin, out=limit)
        np.subtract(size, fraction, out=gap)
        np.minimum(gap, fraction, out=gap)
        np.less(gap, limit, out=stop)
        steps += 1
    count = steps - stopped.astype(np.int64)  # fraction digits of each value

    # the last digit rounds half to even on the rest, R / S: when only one
    # of it and it raised lies within the margin, that one is the nearer.
    # R is 4 * M * 10**count mod S, from unsigned products, which wrap
    # modulo 2**64, a multiple of S
    power = _POWERS_OF_TEN[count].view(np.uint64)
    fraction = (start.view(np.uint64) * power).view(np.int64)
    fraction &= mask
    fraction <<= 1  # 2R against S
    index = (count - 1) * n + np.arange(n)
    last = digits.reshape(-1)[index]
    up = fraction > size
    up |= (fraction == size) & ((last & 1) == 1)
    last += up
    digits.reshape(-1)[index] = last
    fast &= last <= ord("9")
    width = point + 1 + steps
    chars[:, :width] = text[:width].T

    sentinel = values == SENTINEL_DB
    other = np.flatnonzero(~fast & ~sentinel)
    texts = [format_value(v) for v in values[other].tolist()]
    end = max([width] + [len(t) for t in texts])
    chars[:, width:end] = _PAD
    # "-inf" fits: the width holds a sign, a digit, the point and a digit
    chars[sentinel, :width] = _text_table([format_value(SENTINEL_DB)], width)
    if texts:
        chars[other, :end] = _text_table(texts, end)
    return end


def _csv_rows(
    extent: CellExtent, resolution: float, blocks: Iterable[np.ndarray]
) -> Iterator[str]:
    """The CSV text of a map: the header line, then one string per sub-block.

    `blocks` hold the map's values in grid order, in whole rows.  Each
    block is written in sub-blocks of whole rows, at most _TEXT_ELEMENTS
    points (one row if a row is longer).  A sub-block's lines are the rows
    of one uint8 matrix, x field, comma, y field, comma, value, newline,
    each field padded with _PAD to its widest text; the text is the
    matrix's bytes without the padding.  Each coordinate is formatted once
    per map by format_value, and the values by _format_values.  Every
    sub-block reuses the matrix, so the x fields and commas are written once.
    """
    xs, ys = (list(map(format_value, axis.tolist())) for axis in _grid_axes(extent, resolution))
    nx = len(xs)
    x_table = _text_table(xs, max(map(len, xs)))
    y_table = _text_table(ys, max(map(len, ys)))
    y0 = x_table.shape[1] + 1
    v0 = y0 + y_table.shape[1] + 1
    rows = max(1, _TEXT_ELEMENTS // nx)  # per sub-block
    chars = np.empty((rows, nx, v0 + _VALUE_COLUMNS + 1), dtype=np.uint8)
    chars[:, :, : y0 - 1] = x_table
    chars[:, :, [y0 - 1, v0 - 1]] = ord(",")
    yield "x_m,y_m,sinr_db\n"
    j = 0
    for block in blocks:
        for start in range(0, len(block), rows * nx):
            values = block[start : start + rows * nx]
            taken = len(values) // nx
            chars[:taken, :, y0 : v0 - 1] = y_table[j : j + taken, None]
            j += taken
            line = chars[:taken].reshape(len(values), -1)
            end = v0 + _format_values(values, line[:, v0:])
            line[:, end] = ord("\n")
            yield line[:, : end + 1].tobytes().translate(None, bytes([_PAD])).decode("ascii")


def map_to_csv(sinr_map: SinrMap) -> str:
    """Serialize a map as x_m,y_m,sinr_db rows in grid order.

    Floats use the shortest round-trip decimal form and the sentinel is
    written as -inf, which keeps output byte-stable across runs.
    """
    return "".join(_csv_rows(sinr_map.extent, sinr_map.resolution, [sinr_map.values]))
