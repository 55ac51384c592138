"""Downlink SINR maps over a rectangular service area.

A map samples the user plane on a regular lattice: nx = floor(width /
resolution) + 1 columns and ny = floor(depth / resolution) + 1 rows,
stored row-major (the row index varies slowest).  The coordinates along
each side are origin + resolution * k, written once in _axis; grids,
maps, edges, CSV text and placement's grid sweeps all take theirs from
it, so they agree to the bit.  A ratio that falls
within a few ulp below an integer counts as that integer, so 0.3 / 0.1
(2.9999999999999996 in floats) gives 4 columns and the last column lies
on the far boundary, within one ulp, instead of a step inside it.
Values are SINR in dB with -inf as the zero-signal sentinel; grid points
that coincide with a transmitter get the sentinel and one warning per
map rather than raising, so one degenerate point cannot abort a whole
map.

Maps are computed in blocks of whole lattice rows, at most
_CHUNK_ELEMENTS points per block (one row if a row is longer).
sinr_map_conventional and sinr_map_irs join the blocks into one SinrMap;
the command line formats and writes each block as it comes, one row of
text at a time, so its memory does not grow with the lattice.  The
cell-edge scorers work the same way on batches of panel positions.

One kernel, _Kernel, computes the direct or reflected signal and the
SINR in dB for every map and scorer.  A call makes its buffers once and
reuses them for every block or batch, writing each ufunc's result in
place.  The kernel is elementwise and keeps one operation order, so a
value does not depend on its block, its batch or the buffer size, and
each call warns at most once about points on a transmitter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .linkbudget import FixedAngles, Position3D, _cascade_gain, _incidence_cosine, distance

if TYPE_CHECKING:
    from .scenario import Scenario

SENTINEL_DB = -math.inf
# array elements per batch: panel positions scored on the cell edge, or
# lattice points of a map block
_CHUNK_ELEMENTS = 1 << 15
# a lattice ratio this many ulp or fewer below an integer counts as it
_SNAP_ULPS = 4


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


def _is_whole(ratio: float) -> bool:
    """Whether a lattice ratio is within _SNAP_ULPS ulp of an integer."""
    return abs(ratio - round(ratio)) <= _SNAP_ULPS * math.ulp(ratio)


def _steps(length: float, resolution: float) -> int:
    """Whole resolution steps in a length, snapping a ratio just below an integer up."""
    ratio = length / resolution
    return round(ratio) if _is_whole(ratio) else math.floor(ratio)


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

    A scorer or map call makes one kernel and passes every batch through
    it.  Each ufunc writes with out= into the kernel's buffers, of `size`
    elements, so a batch allocates no array of its own size; a result is
    a view of a buffer and holds until the next call on the same kernel.
    Each value is linkbudget's expression evaluated elementwise in the
    same order, so it does not depend on the batch or the buffer size.
    """

    def __init__(self, scenario: "Scenario", size: int) -> None:
        self.scenario = scenario
        self._real = np.empty((4, size))
        self._mask = np.empty((2, size), dtype=bool)

    def _views(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Four float buffers, then two bool buffers, as views of `shape`."""
        n = math.prod(shape)
        return tuple(b[:n].reshape(shape) for buffers in (self._real, self._mask) for b in buffers)

    def power_law(
        self, x: np.ndarray, y: np.ndarray, tx: Position3D, power: float, alpha: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Power-law power from one transmitter, zero on it, and the points on it.

        P * wl**2 / (d**alpha * 16 * pi**2), with d from (dx*dx + dy*dy) +
        dz**2, in the order of linkbudget.conventional_rx_power.
        """
        d, dy, _, _, dead, _ = self._views(x.shape)
        np.subtract(x, tx.x, out=d)
        d *= d
        np.subtract(y, tx.y, out=dy)
        dy *= dy
        d += dy
        d += (self.scenario.user_height - tx.z) ** 2
        np.sqrt(d, out=d)
        np.equal(d, 0.0, out=dead)
        with np.errstate(divide="ignore", invalid="ignore"):
            d **= alpha  # the same fast paths as d ** alpha
            d *= 16.0
            d *= math.pi ** 2
            np.divide(power * self.scenario.env.wavelength ** 2, d, out=d)
        np.copyto(d, 0.0, where=dead)
        return d, dead

    def direct(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Power served directly by the base station, and the points on it."""
        s = self.scenario
        alpha = s.env.pathloss_exponent_micro
        return self.power_law(x, y, s.micro_bs_position, s.micro_power_conventional, alpha)

    def interference(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interference power per point and a mask of points on a source, as new arrays."""
        total = np.zeros_like(x)
        dead = np.zeros(x.shape, dtype=bool)
        for s in self.scenario.interference_sources():
            power, on_source = self.power_law(
                x, y, s.position, s.transmit_power, s.pathloss_exponent
            )
            dead |= on_source
            if s.transmit_power != 0.0:
                total += power
        return total, dead

    def floor(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interference plus noise power per point, and the points on a source."""
        total, dead = self.interference(x, y)
        total += self.scenario.env.noise_power
        return total, dead

    def reflected(
        self, positions: Sequence[Position3D], r1: Sequence[float], x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Power served through the panel at each of K positions, shape (K, points).

        `r1` holds each position's nonzero hop length from the base station.
        Per-position scalars such as (user_height - z) ** 2 stay Python
        floats, because numpy's power can differ from Python's in the last
        bit.  The hop is (dx*dx + dy*dy) + dz**2 and the power is
        gain * cos_t * cos_r / ((r1 * r2)**2 * 64 * pi**3), left to right,
        as in linkbudget.irs_rx_power.  Geometric-mode panels zero out points
        behind the surface.  Also returns the mask of points on a panel.
        """
        shape = (len(positions), len(x))
        dx, dy, r2, denominator, dead, off = self._views(shape)
        panel = self.scenario.panel
        bs = self.scenario.micro_bs_position
        dz = [self.scenario.user_height - p.z for p in positions]
        np.subtract(x, np.array([p.x for p in positions])[:, None], out=dx)
        np.subtract(y, np.array([p.y for p in positions])[:, None], out=dy)
        np.multiply(dx, dx, out=r2)
        np.multiply(dy, dy, out=denominator)
        r2 += denominator
        r2 += np.array([d ** 2 for d in dz])[:, None]
        np.sqrt(r2, out=r2)
        np.equal(r2, 0.0, out=dead)
        gain = _cascade_gain(self.scenario.micro_power_irs, panel, self.scenario.env.wavelength)
        mode = panel.angle_mode
        if isinstance(mode, FixedAngles):
            numerator: np.ndarray | float = gain * math.cos(mode.theta_t) * math.cos(mode.theta_r)
        else:
            # a base station behind the panel gets no reflected power anywhere
            cos_t = np.array([
                max(_incidence_cosine(mode.normal, bs.x - p.x, bs.y - p.y, bs.z - p.z, r), 0.0)
                for p, r in zip(positions, r1)
            ])[:, None]
            n0, n1, n2 = mode.normal
            cos_r = dx
            with np.errstate(invalid="ignore", divide="ignore"):
                cos_r *= n0
                dy *= n1
                cos_r += dy
                cos_r += np.array(dz)[:, None] * n2
                cos_r /= r2
            np.less(cos_r, 0.0, out=off)
            off |= dead
            np.copyto(cos_r, 0.0, where=off)
            numerator = cos_r
            numerator *= gain * cos_t  # (gain * cos_t) * cos_r
        np.multiply(r2, np.array(r1)[:, None], out=denominator)
        denominator *= denominator
        denominator *= 64.0
        denominator *= math.pi ** 3
        signal = dx  # the numerator's buffer in geometric mode
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(numerator, denominator, out=signal)
        np.copyto(signal, 0.0, where=dead)
        return signal, dead

    def sinr_db(
        self, signal: np.ndarray, dead: np.ndarray, floor: np.ndarray, dead_i: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """SINR in dB in place of `signal`, and the number of dead points.

        `floor` is interference plus noise.  The sentinel goes where the
        signal is zero and where `dead` or `dead_i` holds.  `dead` is
        overwritten.
        """
        off = self._views(signal.shape)[5]  # the second mask buffer
        dead |= dead_i
        # a noise power near the bottom of the double range overflows the
        # linear SINR to +inf, which becomes +inf dB on purpose
        with np.errstate(divide="ignore", over="ignore"):
            linear = np.divide(signal, floor, out=signal)
            np.greater(linear, 0.0, out=off)
            np.logical_not(off, out=off)
            off |= dead
            np.copyto(linear, 1.0, where=off)
            db = np.log10(linear, out=linear)
            db *= 10.0
        np.copyto(db, SENTINEL_DB, where=off)
        return db, int(np.count_nonzero(dead))

    def summarize(self, db: np.ndarray) -> list[EdgeStats]:
        """_summarize of the rows that sinr_db returned.

        Every signal, and so its dB, is in the first float buffer; the
        second takes the linear terms.
        """
        return _summarize(db, self._views(db.shape)[1])


def _warn_dead(count: int, stacklevel: int) -> None:
    """Warn once about `count` points on a transmitter, if there are any.

    `stacklevel` counts from the caller: 1 blames the caller itself.
    """
    if count:
        warnings.warn(
            f"{count} grid point(s) coincide with a transmitter; "
            "writing the -inf sentinel there",
            RuntimeWarning,
            stacklevel=stacklevel + 1,
        )


def _panel_hop(scenario: "Scenario", position: Position3D) -> float:
    """Distance from the base station to one panel position; zero raises ValueError."""
    r1 = distance(scenario.micro_bs_position, position)
    if r1 == 0.0:
        raise ValueError("panel position coincides with the base station")
    return r1


def _map_blocks(scenario: "Scenario", irs: bool) -> Iterator[np.ndarray]:
    """SINR in dB over the map lattice, one flat block of whole rows at a time.

    With `irs` the signal is the cascaded path through the panel only,
    otherwise the direct path.  The scenario is checked before this
    returns, so a malformed one raises before any block is asked for.
    """
    xs, ys = _grid_axes(scenario.micro_extent, scenario.grid_resolution)
    rows = max(1, _CHUNK_ELEMENTS // len(xs))
    kernel = _Kernel(scenario, min(rows, len(ys)) * len(xs))
    if not irs:
        return _blocks(kernel, kernel.direct, xs, ys, rows)
    position = scenario.panel.position
    r1 = _panel_hop(scenario, position)
    return _blocks(kernel, lambda x, y: kernel.reflected([position], [r1], x, y), xs, ys, rows)


def _blocks(
    kernel: _Kernel,
    signal_at: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    xs: np.ndarray,
    ys: np.ndarray,
    rows: int,
) -> Iterator[np.ndarray]:
    dead_count = 0
    for j0 in range(0, len(ys), rows):
        x, y = _lattice_rows(xs, ys[j0 : j0 + rows])
        floor, dead_i = kernel.floor(x, y)
        db, count = kernel.sinr_db(*signal_at(x, y), floor, dead_i)
        dead_count += count
        # a copy, because the kernel reuses its buffers for the next block
        yield db.reshape(-1).copy()
    # one warning per map, after the last block, blaming sinr_map_*'s caller
    _warn_dead(dead_count, stacklevel=4)


def _as_map(scenario: "Scenario", blocks: Iterator[np.ndarray]) -> SinrMap:
    return SinrMap(
        extent=scenario.micro_extent,
        resolution=scenario.grid_resolution,
        user_height=scenario.user_height,
        values=np.concatenate(list(blocks)),
    )


def sinr_map_conventional(scenario: "Scenario") -> SinrMap:
    """SINR map served directly by the small-cell base station."""
    return _as_map(scenario, _map_blocks(scenario, irs=False))


def sinr_map_irs(scenario: "Scenario") -> SinrMap:
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
    i = round((point.x - extent.origin_x) / sinr_map.resolution)
    j = round((point.y - extent.origin_y) / sinr_map.resolution)
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


def _summarize(db: np.ndarray, terms: np.ndarray) -> list[EdgeStats]:
    """Min, linear-domain mean and max of each row of SINR values in dB.

    The mean is the correctly rounded sum of 10 ** (v / 10) over a row,
    with libm's pow, divided by the row length and taken back to dB.  A
    row holding +inf has a mean of +inf.  A finite row whose linear terms
    or their sum exceed the largest double raises ValueError: that takes
    values within 10 * log10(n) dB of 3082.5 dB, which only a noise power
    near the bottom of the double range produces.  `terms` is a buffer
    of db's shape, overwritten with the linear terms.
    """
    highs = db.max(axis=1)
    # np.float_power's float64 loop calls libm's pow, as math.pow does;
    # np.power is vectorized (SVML with AVX-512) and differs in the last
    # bit on some inputs, which would change the output bytes
    np.divide(db, 10.0, out=terms)
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
    n = db.shape[1]
    stats = []
    for low, high, total in zip(db.min(axis=1).tolist(), highs.tolist(), sums):
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
    row = sinr_map.values[index][None, :]
    return _summarize(row, np.empty_like(row))[0]


def edge_stats_direct(scenario: "Scenario") -> EdgeStats:
    """Cell-edge statistics of direct service, computed on the perimeter only.

    Equal to edge_stats(sinr_map_conventional(scenario), cell_edge_points(...))
    without computing the map.
    """
    x, y = _perimeter(scenario.micro_extent, scenario.grid_resolution)
    kernel = _Kernel(scenario, len(x))
    floor, dead_i = kernel.floor(x, y)
    db, dead_count = kernel.sinr_db(*kernel.direct(x, y), floor, dead_i)
    _warn_dead(dead_count, stacklevel=2)
    return kernel.summarize(db[None, :])[0]


def edge_stats_reflected(
    scenario: "Scenario", positions: Sequence[Position3D]
) -> list[EdgeStats]:
    """Cell-edge statistics of panel-assisted service, one per panel position.

    Each entry equals edge_stats(sinr_map_irs(...), cell_edge_points(...))
    with the panel moved to that position, but only the perimeter is
    computed.  Interference plus noise at the perimeter is computed once,
    then the positions are scored in batches of at most _CHUNK_ELEMENTS
    array elements, through one kernel whose buffers every batch reuses,
    so memory stays bounded however many positions there are and a
    value does not depend on its batch.  Perimeter points on a
    transmitter get the sentinel and one warning per call, counting them
    over all positions.  A position on the base station raises
    ValueError before any scoring.
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
    chunk = max(1, _CHUNK_ELEMENTS // len(x))
    kernel = _Kernel(scenario, min(chunk, len(positions)) * len(x))
    floor, dead_i = kernel.floor(x, y)
    stats = []
    dead_count = 0
    for start in range(0, len(positions), chunk):
        stop = start + chunk
        signal, dead = kernel.reflected(positions[start:stop], r1[start:stop], x, y)
        db, count = kernel.sinr_db(signal, dead, floor, dead_i)
        dead_count += count
        stats.extend(kernel.summarize(db))
    _warn_dead(dead_count, stacklevel=2)
    return stats


def format_value(value: float) -> str:
    """Shortest round-trip decimal form of a float; the sentinel is -inf.

    That is repr of the float, which spells -inf as "-inf".
    """
    return repr(float(value))


def _csv_rows(
    extent: CellExtent, resolution: float, blocks: Iterable[np.ndarray]
) -> Iterator[str]:
    """The CSV text of a map: the header line, then one string per lattice row.

    `blocks` hold the map's values in grid order, in whole rows.  Each
    coordinate is formatted once per map.
    """
    xs, ys = (list(map(format_value, axis.tolist())) for axis in _grid_axes(extent, resolution))
    nx = len(xs)
    yield "x_m,y_m,sinr_db\n"
    rows = iter(ys)
    for block in blocks:
        values = map(repr, block.tolist())  # format_value, unrolled
        for y in islice(rows, len(block) // nx):
            yield "".join([f"{x},{y},{v}\n" for x, v in zip(xs, islice(values, nx))])


def map_to_csv(sinr_map: SinrMap) -> str:
    """Serialize a map as x_m,y_m,sinr_db rows in grid order.

    Floats use the shortest round-trip decimal form and the sentinel is
    written as -inf, which keeps output byte-stable across runs.
    """
    return "".join(_csv_rows(sinr_map.extent, sinr_map.resolution, [sinr_map.values]))
