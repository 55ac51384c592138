"""Edge-only scoring against the full-map oracle.

`optimize_placement` and `compare_models` summarize SINR on the cell edge
without computing whole maps.  Every summary they produce must be exactly
(`==`, `-inf` included, the sign of zero too) the summary of the full map
read at `cell_edge_points`, and that summary must equal one written out
here from the map's lattice indices.
"""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from irs_planner import (
    CellExtent,
    EdgeStats,
    ExplicitList,
    FixedAngles,
    GeometricAngles,
    GridSweep,
    Objective,
    Position3D,
    build_grid,
    cell_edge_points,
    compare_models,
    default_scenario,
    edge_stats,
    evaluate_placement,
    optimize_placement,
    parse_scenario,
    sinr_map_conventional,
    sinr_map_irs,
    with_panel_position,
)
from irs_planner import coverage
from irs_planner.cli import run

# at least one point of each lattice is on a panel placed at user height
pytestmark = pytest.mark.filterwarnings("ignore:.*coincide with a transmitter:RuntimeWarning")


def _bits(stats):
    return tuple(float.hex(float(v)) for v in (stats.min_db, stats.mean_db, stats.max_db)) + (
        stats.point_count,
    )


def _edge(scenario):
    return cell_edge_points(scenario.micro_extent, scenario.grid_resolution, scenario.user_height)


def _written_out(sinr_map):
    """The edge summary as the README defines it, from the map's lattice indices."""
    nx, ny = sinr_map.nx, sinr_map.ny
    values = [
        sinr_map.value_at(i, j)
        for j in range(ny)
        for i in (range(nx) if j in (0, ny - 1) else (0, nx - 1))
    ]
    mean_linear = math.fsum(10.0 ** (v / 10.0) for v in values) / len(values)
    mean = 10.0 * math.log10(mean_linear) if mean_linear > 0.0 else -math.inf
    low, high = min(values), max(values)
    return EdgeStats(low, min(max(mean, low), high), high, len(values))


def _oracle(sinr_map, scenario):
    stats = edge_stats(sinr_map, _edge(scenario))
    assert _bits(stats) == _bits(_written_out(sinr_map))
    return stats


def _oracle_irs(scenario, position):
    return _oracle(sinr_map_irs(with_panel_position(scenario, position)), scenario)


def _oracle_conventional(scenario):
    return _oracle(sinr_map_conventional(scenario), scenario)


def _tilted_normal(rng):
    tilt = math.radians(rng.uniform(20.0, 70.0))
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    return (
        math.sin(tilt) * math.cos(azimuth),
        math.sin(tilt) * math.sin(azimuth),
        -math.cos(tilt),
    )


def _scenario(seed):
    """A seeded scenario: tilted or fixed panel, resolution not dividing the cell."""
    rng = random.Random(seed)
    base = default_scenario()
    width = rng.choice([200.0, 150.0, 37.5])
    depth = rng.choice([200.0, 90.0, 41.0])
    extent = CellExtent(rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0), width, depth)
    if seed % 2:
        mode = GeometricAngles(_tilted_normal(rng))
    else:
        mode = FixedAngles(rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5))
    bs = Position3D(
        extent.origin_x + rng.uniform(0.0, width),
        extent.origin_y + rng.uniform(0.0, depth),
        rng.uniform(2.0, 8.0),
    )
    return replace(
        base,
        micro_extent=extent,
        micro_bs_position=bs,
        grid_resolution=rng.choice([7.0, 3.3, 6.1, 2.9]),
        panel=replace(base.panel, angle_mode=mode),
        objective=rng.choice([Objective.EDGE_MIN, Objective.EDGE_MEAN]),
    )


def _candidates(scenario, seed, count=24):
    """Random panel positions, plus some at user height on edge points."""
    rng = random.Random(seed)
    extent = scenario.micro_extent
    positions = [
        Position3D(
            extent.origin_x + rng.uniform(-10.0, extent.width + 10.0),
            extent.origin_y + rng.uniform(-10.0, extent.depth + 10.0),
            rng.uniform(3.0, 15.0),
        )
        for _ in range(count)
    ]
    positions += rng.sample(_edge(scenario), 3)  # on the lattice: the -inf sentinel
    return ExplicitList(tuple(positions))


@pytest.mark.parametrize("seed", range(12))
def test_sweep_matches_full_maps(seed):
    scenario = _scenario(seed)
    spec = _candidates(scenario, seed)
    ranking = optimize_placement(scenario, spec, scenario.objective)
    assert len(ranking) == len(spec.positions)
    sentinels = 0
    for result in ranking:
        oracle = _oracle_irs(scenario, result.irs_position)
        assert _bits(result.edge) == _bits(oracle)
        expected = oracle.min_db if scenario.objective is Objective.EDGE_MIN else oracle.mean_db
        assert float.hex(result.objective_db) == float.hex(expected)
        sentinels += result.edge.min_db == -math.inf
    assert sentinels >= 3


@pytest.mark.parametrize("seed", range(12))
def test_compare_matches_full_maps(seed):
    scenario = _scenario(seed)
    position = _candidates(scenario, seed).positions[0]
    report = compare_models(scenario, position)
    assert _bits(report.conventional_edge) == _bits(_oracle_conventional(scenario))
    assert _bits(report.irs_edge) == _bits(_oracle_irs(scenario, position))


def test_compare_warns_once_for_both_models():
    # the macro station on the edge corner at user height: one point on a
    # transmitter in each model's row, counted in one warning per call
    scenario = parse_scenario("macro_bs_x = 0\nmacro_bs_y = 0\nmacro_bs_z = 1.5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = compare_models(scenario, scenario.panel.position)
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "2 grid point(s) coincide with a transmitter; "
         "writing the -inf sentinel there")
    ]
    assert caught[0].filename == __file__
    assert report.conventional_edge.min_db == report.irs_edge.min_db == -math.inf
    # every other public scorer, with the one point in its one row, warns
    # once too, and the warning blames the scorer's caller
    panel = scenario.panel.position
    for call in (
        lambda: sinr_map_conventional(scenario),
        lambda: sinr_map_irs(scenario),
        lambda: coverage.edge_stats_direct(scenario),
        lambda: coverage.edge_stats_reflected(scenario, [panel]),
        lambda: evaluate_placement(scenario, panel, Objective.EDGE_MIN),
        lambda: optimize_placement(scenario, ExplicitList((panel,)), Objective.EDGE_MIN),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [str(w.message) for w in caught] == [
            "1 grid point(s) coincide with a transmitter; writing the -inf sentinel there"
        ]
        assert caught[0].filename == __file__


def test_no_positions_give_no_statistics():
    assert coverage.edge_stats_reflected(default_scenario(), []) == []


def test_compare_rejects_a_panel_on_the_station():
    scenario = default_scenario()
    with pytest.raises(ValueError, match="^panel position coincides with the base station$"):
        compare_models(scenario, scenario.micro_bs_position)


def test_points_behind_a_tilted_panel_match():
    scenario = default_scenario()
    scenario = replace(
        scenario,
        grid_resolution=6.5,
        panel=replace(scenario.panel, angle_mode=GeometricAngles((0.6, 0.0, -0.8))),
    )
    positions = [Position3D(float(x), 100.0, 8.0) for x in range(0, 201, 25)]
    for objective in Objective:
        ranking = optimize_placement(scenario, ExplicitList(tuple(positions)), objective)
        behind = 0
        for result in ranking:
            assert _bits(result.edge) == _bits(_oracle_irs(scenario, result.irs_position))
            behind += result.edge.min_db == -math.inf and result.edge.max_db > -math.inf
        assert behind > 0


@pytest.mark.parametrize("chunk_elements", [1, 500, 1 << 15])
def test_chunk_size_does_not_change_results(chunk_elements, monkeypatch):
    scenario = _scenario(3)
    spec = _candidates(scenario, 3, count=40)
    monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", chunk_elements)
    ranking = optimize_placement(scenario, spec, Objective.EDGE_MEAN)
    for result in ranking:
        assert _bits(result.edge) == _bits(_oracle_irs(scenario, result.irs_position))


@pytest.mark.parametrize("chunk_elements", [1, 40, 1 << 15])
def test_one_warning_per_scoring_call_whatever_the_chunk_size(chunk_elements, monkeypatch):
    # 120 candidates on the default 800-point edge, so 1 << 15 makes three
    # batches of 40; one candidate in each batch lies on an edge point
    scenario = default_scenario()
    rng = random.Random(12)
    positions = [
        Position3D(rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0), rng.uniform(3.0, 15.0))
        for _ in range(120)
    ]
    for k, point in zip((10, 50, 90), rng.sample(_edge(scenario), 3)):
        positions[k] = point
    monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", chunk_elements)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coverage.edge_stats_reflected(scenario, positions)
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "3 grid point(s) coincide with a transmitter; "
         "writing the -inf sentinel there")
    ]
    assert caught[0].filename == __file__


def test_mirrored_candidates_tie_exactly():
    # stations on the line x = 100, so mirror images across it score alike
    scenario = default_scenario()
    scenario = replace(
        scenario,
        grid_resolution=4.0,
        macro_bs=replace(scenario.macro_bs, position=Position3D(100.0, 500.0, 10.0)),
        micro_bs_position=Position3D(100.0, 60.0, 4.0),
    )
    rng = random.Random(7)
    positions = []
    for _ in range(20):
        dx = rng.choice([10.0, 25.0, 40.0, 75.0])
        y = rng.choice([0.0, 30.0, 60.0, 90.0, 150.0])
        z = rng.choice([6.0, 9.0, 12.0])
        positions += [Position3D(100.0 - dx, y, z), Position3D(100.0 + dx, y, z)]
    spec = ExplicitList(tuple(dict.fromkeys(positions)))
    for objective in Objective:
        ranking = optimize_placement(scenario, spec, objective)
        by_position = {r.irs_position: r for r in ranking}
        for p, result in by_position.items():
            twin = by_position[Position3D(200.0 - p.x, p.y, p.z)]
            assert result.objective_db == twin.objective_db
            assert _bits(result.edge) == _bits(_oracle_irs(scenario, p))


@pytest.mark.parametrize(
    "extent, resolution",
    [
        (CellExtent(0.0, 0.0, 200.0, 200.0), 7.0),
        (CellExtent(12.5, -3.0, 41.0, 9.0), 2.9),
        (CellExtent(0.0, 0.0, 10.0, 5.0), 5.0),
        (CellExtent(0.0, 0.0, 3.0, 3.0), 3.0),
        (CellExtent(0.0, 0.0, 0.3, 0.3), 0.1),
    ],
)
def test_cell_edge_points_are_the_perimeter_of_the_grid(extent, resolution):
    grid = build_grid(extent, resolution, 1.5)
    xs = sorted({p.x for p in grid})
    ys = sorted({p.y for p in grid})
    perimeter = [p for p in grid if p.x in (xs[0], xs[-1]) or p.y in (ys[0], ys[-1])]
    assert cell_edge_points(extent, resolution, 1.5) == perimeter


def test_grid_sweep_scores_like_explicit_positions():
    scenario = replace(default_scenario(), grid_resolution=4.0)
    spec = GridSweep(scenario.micro_extent, 40.0, 6.0)
    ranking = optimize_placement(scenario, spec, Objective.EDGE_MIN)
    for result in ranking:
        assert _bits(result.edge) == _bits(_oracle_irs(scenario, result.irs_position))


def _silent_macro(noise_power):
    """Defaults with no interference and the given noise power."""
    scenario = default_scenario()
    return replace(
        scenario,
        env=replace(scenario.env, noise_power=noise_power),
        macro_bs=replace(scenario.macro_bs, transmit_power=0.0),
    )


_SMALL_CELL = CellExtent(0.0, 0.0, 2.0, 2.0)


def _map_of(edge_db):
    """A 3 x 3 map at 1 m resolution with these 8 edge values and 0 dB in the centre."""
    values = np.array(edge_db[:4] + [0.0] + edge_db[4:], dtype=float)
    return coverage.SinrMap(_SMALL_CELL, 1.0, 1.5, values)


def _edge_of_map():
    return cell_edge_points(_SMALL_CELL, 1.0, 1.5)


def test_infinite_sinr_on_the_edge_gives_an_infinite_mean():
    # a noise power of one subnormal: the linear SINR overflows to +inf everywhere
    scenario = _silent_macro(5e-324)
    inf = math.inf
    assert coverage.edge_stats_direct(scenario) == EdgeStats(inf, inf, inf, 800)
    position = Position3D(0.0, 200.0, 5.0)
    assert coverage.edge_stats_reflected(scenario, [position]) == [EdgeStats(inf, inf, inf, 800)]
    assert evaluate_placement(scenario, position, Objective.EDGE_MEAN).objective_db == inf


def test_an_overflowing_linear_sinr_warns_nothing(tmp_path):
    # the +inf from dividing by a subnormal noise power is handled on purpose,
    # so numpy's overflow warning must not reach the command line's stderr
    config = tmp_path / "subnormal-noise.conf"
    config.write_text("noise_power = 5e-324\nmacro_bs_power = 0\n")
    for command in ("compare", "map-conv"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = tmp_path / f"{command}.csv"
            assert run([command, "--config", str(config), "--out", str(out)]) == 0
        assert [str(w.message) for w in caught if "overflow" in str(w.message)] == []


def test_a_row_holding_inf_has_an_infinite_mean_whatever_else_it_holds():
    # 3090 dB alone would overflow the linear domain; next to +inf it does not matter
    edge_db = [-math.inf, 3.0, 3090.0, math.inf, 7.0, 0.0, 1.0, 2.0]
    stats = edge_stats(_map_of(edge_db), _edge_of_map())
    assert _bits(stats) == _bits(EdgeStats(-math.inf, math.inf, math.inf, 8))


@pytest.mark.parametrize(
    "edge_db",
    [
        # one term beyond the largest double (10 ** 308.26 overflows)
        [3082.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        # finite terms whose sum overflows
        [3080.0] * 8,
    ],
)
def test_a_linear_mean_beyond_the_double_range_raises(edge_db):
    with pytest.raises(ValueError, match="largest double"):
        edge_stats(_map_of(edge_db), _edge_of_map())


def test_the_largest_finite_means_match_the_written_out_oracle():
    # just inside the double range: a sum of 8e307, and one term of 10 ** 308.25
    for edge_db in ([3070.0] * 8, [3082.5] + [-math.inf] * 7):
        sinr_map = _map_of(edge_db)
        assert _bits(edge_stats(sinr_map, _edge_of_map())) == _bits(_written_out(sinr_map))


def test_an_overflowing_edge_mean_is_a_clean_error(tmp_path, capsys):
    # noise power 1e-320: finite edge SINR near 3000 dB whose linear sum overflows
    with pytest.raises(ValueError, match="largest double"):
        coverage.edge_stats_direct(_silent_macro(1e-320))
    config = tmp_path / "tiny-noise.conf"
    config.write_text("noise_power = 1e-320\nmacro_bs_power = 0\n")
    out = tmp_path / "compare.csv"
    assert run(["compare", "--config", str(config), "--out", str(out)]) == 1
    assert "largest double" in capsys.readouterr().err
    assert not out.exists()
