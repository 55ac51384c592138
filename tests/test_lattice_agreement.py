"""Every output that names lattice points names the same floats.

The map lattice, build_grid, the CSV x and y columns, the cell edge that
edge_stats reads and the ticks of a grid sweep all take their coordinates
from coverage._axis.  Drawn extents include sides whose length over the
resolution lands a few ulp below an integer, as 0.3 / 0.1 does.

A step that scenario._check_steps admits gives ticks that are all
distinct doubles, however far out the origin lies.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irs_planner import (
    CellExtent,
    GridSweep,
    build_grid,
    cell_edge_points,
    edge_stats,
    enumerate_candidates,
    map_to_csv,
)
from irs_planner import coverage, placement
from irs_planner.scenario import _check_steps

_USER_HEIGHT = 1.5


def _hex(xs, ys):
    return [(float.hex(float(x)), float.hex(float(y))) for x, y in zip(xs, ys)]


@st.composite
def _side(draw, resolution):
    """A side length: n steps exactly, n steps less 1-4 ulp, or any length."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["whole", "below", "any"]))
    if kind == "any":
        return draw(st.floats(resolution, n * resolution)), False
    length = n * resolution
    if kind == "below":
        for _ in range(draw(st.integers(1, 4))):
            length = math.nextafter(length, 0.0)
    return length, kind == "whole"


@st.composite
def _lattices(draw):
    resolution = draw(st.floats(1e-3, 50.0))
    origin = st.floats(-1000.0, 1000.0)
    width, whole_x = draw(_side(resolution))
    depth, whole_y = draw(_side(resolution))
    extent = CellExtent(draw(origin), draw(origin), width, depth)
    return extent, resolution, whole_x and whole_y


@settings(max_examples=200, deadline=None)
@given(_lattices())
@example((CellExtent(0.0, 0.0, 0.3, 0.3), 0.1, False))
@example((CellExtent(-1.0, 2.5, 7.2, 0.3), 0.1, False))
def test_outputs_agree_on_the_lattice(lattice):
    extent, resolution, whole = lattice
    x, y = coverage._lattice(extent, resolution)
    expected = _hex(x, y)

    grid = build_grid(extent, resolution, _USER_HEIGHT)
    assert _hex([p.x for p in grid], [p.y for p in grid]) == expected

    sinr_map = coverage.SinrMap(extent, resolution, _USER_HEIGHT, np.zeros(len(x)))
    rows = [line.split(",") for line in map_to_csv(sinr_map).splitlines()[1:]]
    assert _hex([float(r[0]) for r in rows], [float(r[1]) for r in rows]) == expected

    edge = cell_edge_points(extent, resolution, _USER_HEIGHT)
    assert edge_stats(sinr_map, edge).point_count == len(edge)

    xs, ys = coverage._grid_axes(extent, resolution)
    on_boundary = (
        xs[-1] == extent.origin_x + extent.width and ys[-1] == extent.origin_y + extent.depth
    )
    # a side of exactly n steps ends the lattice on the boundary
    assert on_boundary or not whole
    if on_boundary:
        sweep = enumerate_candidates(GridSweep(extent, resolution, _USER_HEIGHT))
        assert _hex([p.x for p in sweep], [p.y for p in sweep]) == expected


@st.composite
def _far_origin(draw):
    """Any origin up to 1e300 in magnitude, a power of two, or 1-4 ulp below one."""
    kind = draw(st.sampled_from(["any", "power", "below"]))
    if kind == "any":
        return draw(st.floats(-1e300, 1e300))
    origin = math.ldexp(draw(st.sampled_from([1.0, -1.0])), draw(st.integers(-1074, 996)))
    for _ in range(draw(st.integers(1, 4)) if kind == "below" else 0):
        origin = math.nextafter(origin, 0.0)
    return origin


@st.composite
def _far_lattices(draw):
    """An extent and a step within 4 ulp of 2 ulp of the extent's larger origin."""
    ox, oy = draw(_far_origin()), draw(_far_origin())
    step = 2 * math.ulp(max(abs(ox), abs(oy)))
    nudge = draw(st.integers(-4, 4))
    for _ in range(abs(nudge)):
        step = math.nextafter(step, math.inf if nudge > 0 else 0.0)
    (width, _), (depth, _) = draw(_side(step)), draw(_side(step))
    # near 0 the nudges can reach 0 itself
    assume(min(step, width, depth) > 0)
    return CellExtent(ox, oy, width, depth), step


@settings(max_examples=200, deadline=None)
@given(_far_lattices(), st.sampled_from(["grid_resolution", "sweep step"]))
@example((CellExtent(1e20, 0.0, 1.0, 1.0), 0.5), "sweep step")
@example((CellExtent(1e20, 0.0, 4 * 49152.0, 1.0), 49152.0), "grid_resolution")
def test_an_admitted_step_gives_distinct_ticks(lattice, name):
    extent, step = lattice
    try:
        _check_steps(extent, step, name)
    except ValueError as exc:
        assert str(exc).startswith(f"{name} ")
        return
    for origin, span in ((extent.origin_x, extent.width), (extent.origin_y, extent.depth)):
        for ticks in (
            coverage._axis(origin, span, step).tolist(),
            placement._sweep_axis(origin, span, step),
        ):
            assert all(a < b for a, b in zip(ticks, ticks[1:]))
