"""Unit tests for grid construction, SINR maps, and edge statistics."""

import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from irs_planner import (
    CellExtent,
    ConventionalLink,
    EdgeStats,
    GeometricAngles,
    InterferenceSource,
    Position3D,
    SinrMap,
    build_grid,
    cell_edge_points,
    conventional_rx_power,
    default_scenario,
    distance,
    edge_stats,
    interference_power,
    irs_rx_power,
    map_to_csv,
    sinr,
    sinr_map_conventional,
    sinr_map_irs,
    with_panel_position,
)
from irs_planner import coverage


def small_scenario(silent_macro=True, **overrides):
    """20 m cell at 2 m resolution: 11 x 11 grid, fast to evaluate."""
    base = default_scenario()
    panel_position = overrides.pop("panel_position", Position3D(10.0, 10.0, 6.0))
    macro = base.macro_bs
    if silent_macro:
        macro = replace(macro, transmit_power=0.0)
    fields = dict(
        micro_extent=CellExtent(0.0, 0.0, 20.0, 20.0),
        micro_bs_position=Position3D(10.0, 10.0, 5.0),
        grid_resolution=2.0,
        macro_bs=macro,
    )
    fields.update(overrides)
    scenario = replace(base, **fields)
    return with_panel_position(scenario, panel_position)


class TestBuildGrid:
    def test_coarse_extent_gives_four_corners(self):
        points = build_grid(CellExtent(0, 0, 200, 200), 200.0, 1.5)
        assert [(p.x, p.y) for p in points] == [(0, 0), (200, 0), (0, 200), (200, 200)]

    def test_default_cell_point_count(self):
        points = build_grid(CellExtent(0, 0, 200, 200), 1.0, 1.5)
        assert len(points) == 201 * 201

    def test_non_square_counts(self):
        points = build_grid(CellExtent(0, 0, 10, 5), 2.5, 1.5)
        assert len(points) == 5 * 3

    def test_row_major_ordering(self):
        points = build_grid(CellExtent(0, 0, 4, 4), 2.0, 1.5)
        assert [(p.x, p.y) for p in points] == [
            (0, 0), (2, 0), (4, 0),
            (0, 2), (2, 2), (4, 2),
            (0, 4), (2, 4), (4, 4),
        ]

    def test_points_carry_user_height(self):
        for p in build_grid(CellExtent(0, 0, 4, 4), 2.0, 1.7):
            assert p.z == 1.7

    def test_points_stay_inside_extent(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            width = float(rng.uniform(1.0, 500.0))
            depth = float(rng.uniform(1.0, 500.0))
            res = float(rng.uniform(0.1, min(width, depth)))
            ox = float(rng.uniform(-100, 100))
            oy = float(rng.uniform(-100, 100))
            extent = CellExtent(ox, oy, width, depth)
            for p in build_grid(extent, res, 1.5):
                assert p.x >= ox and p.y >= oy
                assert p.x <= ox + width + 1e-9
                assert p.y <= oy + depth + 1e-9

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0.0, "grid_resolution must be positive"),
            (-1.0, "grid_resolution must be positive"),
            (250.0, "grid_resolution must not exceed the extent dimensions"),
        ],
        ids=["0.0", "-1.0", "250.0"],
    )
    def test_resolution_validation(self, bad, message):
        assert _rejections(CellExtent(0, 0, 200, 200), bad) == [message] * 2

    @pytest.mark.parametrize("fine", [5e-324, 1e-300, 200 / 2.0**63, 1e-12, 1e-16])
    def test_step_count_beyond_maxsize_names_the_key(self, fine):
        # 200 / 2**63 steps exactly 2**63 times, one more than sys.maxsize;
        # 1e-12 and 1e-16 leave fewer steps per side but more lattice points
        grid, edge = _rejections(CellExtent(0, 0, 200, 200), fine)
        assert grid == edge and grid.startswith("grid_resolution ")

    def test_ticks_that_round_onto_each_other_are_rejected(self):
        # every x tick 1e20 + 0.5 * k rounds to 1e20
        grid, edge = _rejections(CellExtent(1e20, 0, 2, 2), 0.5)
        assert grid == edge and grid.startswith("grid_resolution ")


def _rejections(extent, resolution):
    """The message of each of build_grid and cell_edge_points, which admit their lattice."""
    messages = []
    for admit in (build_grid, cell_edge_points):
        with pytest.raises(ValueError) as info:
            admit(extent, resolution, 1.5)
        messages.append(str(info.value))
    return messages


class TestCellEdgePoints:
    def test_three_by_three_has_eight(self):
        edge = cell_edge_points(CellExtent(0, 0, 4, 4), 2.0, 1.5)
        assert len(edge) == 8
        assert (2.0, 2.0) not in {(p.x, p.y) for p in edge}

    def test_two_by_two_is_all_corners(self):
        edge = cell_edge_points(CellExtent(0, 0, 200, 200), 200.0, 1.5)
        assert len(edge) == 4

    def test_default_cell_perimeter_count(self):
        edge = cell_edge_points(CellExtent(0, 0, 200, 200), 1.0, 1.5)
        assert len(edge) == 800

    def test_edge_is_subset_of_grid_in_order(self):
        extent = CellExtent(-10, 5, 12, 8)
        grid = build_grid(extent, 2.0, 1.5)
        edge = cell_edge_points(extent, 2.0, 1.5)
        positions = {(p.x, p.y, p.z) for p in grid}
        for p in edge:
            assert (p.x, p.y, p.z) in positions
        indexed = [grid.index(p) for p in edge]
        assert indexed == sorted(indexed)


class TestLatticeRatio:
    # each width / resolution rounds to a float one ulp below an integer
    @pytest.mark.parametrize(
        "width, resolution", [(0.3, 0.1), (0.7, 0.1), (2.3, 0.01), (0.3, 0.05)]
    )
    def test_perimeter_reaches_the_far_boundary(self, width, resolution):
        steps = round(width / resolution)
        assert width / resolution < steps
        extent = CellExtent(0.0, 0.0, width, width)
        edge = cell_edge_points(extent, resolution, 1.5)
        assert len(edge) == 4 * steps
        for far in (max(p.x for p in edge), max(p.y for p in edge)):
            assert abs(far - width) <= math.ulp(width)

    def test_ratio_well_below_an_integer_is_floored(self):
        extent = CellExtent(0.0, 0.0, 0.3, 0.3)
        resolution = 0.1 * (1.0 + 1e-12)
        edge = cell_edge_points(extent, resolution, 1.5)
        assert len(edge) == 4 * 2
        assert max(p.x for p in edge) < 0.3 - resolution / 2


class TestEdgeStats:
    def build_map(self, values, extent=CellExtent(0, 0, 2, 2), res=1.0, height=1.5):
        return SinrMap(extent, res, height, np.asarray(values, dtype=np.float64))

    def test_constant_map(self):
        m = self.build_map([5.0] * 9)
        edge = cell_edge_points(m.extent, m.resolution, m.user_height)
        stats = edge_stats(m, edge)
        assert stats.min_db == stats.max_db == 5.0
        assert stats.mean_db == pytest.approx(5.0, abs=1e-12)
        assert stats.point_count == 8

    def test_mean_is_linear_domain(self):
        # frozen oracle: 10*log10((1 + 10) / 2) for values 0 dB and 10 dB
        m = SinrMap(CellExtent(0, 0, 1, 1), 1.0, 1.5, np.array([0.0, 10.0, 0.0, 10.0]))
        edge = cell_edge_points(m.extent, m.resolution, m.user_height)
        stats = edge_stats(m, edge)
        assert stats.mean_db == pytest.approx(7.4036268949424385, abs=1e-12)

    def test_sentinel_participates_as_zero(self):
        m = SinrMap(CellExtent(0, 0, 1, 1), 1.0, 1.5,
                    np.array([-math.inf, -math.inf, -math.inf, -math.inf]))
        edge = cell_edge_points(m.extent, m.resolution, m.user_height)
        stats = edge_stats(m, edge)
        assert stats.min_db == -math.inf
        assert stats.mean_db == -math.inf
        assert stats.max_db == -math.inf

    def test_min_le_mean_le_max_randomized(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            values = rng.uniform(-40, 40, 16)
            m = SinrMap(CellExtent(0, 0, 3, 3), 1.0, 1.5, values)
            edge = cell_edge_points(m.extent, m.resolution, m.user_height)
            stats = edge_stats(m, edge)
            assert stats.min_db <= stats.mean_db <= stats.max_db

    def test_off_lattice_point_rejected(self):
        m = self.build_map([0.0] * 9)
        with pytest.raises(ValueError):
            edge_stats(m, [Position3D(0.5, 0.0, 1.5)])

    def test_wrong_height_rejected(self):
        m = self.build_map([0.0] * 9)
        with pytest.raises(ValueError):
            edge_stats(m, [Position3D(0.0, 0.0, 2.0)])

    def test_outside_point_rejected(self):
        m = self.build_map([0.0] * 9)
        with pytest.raises(ValueError):
            edge_stats(m, [Position3D(5.0, 0.0, 1.5)])
        # the point's offset from the origin overflows
        far = self.build_map([0.0] * 9, extent=CellExtent(-1e308, 0, 2e300, 2e300), res=1e300)
        with pytest.raises(ValueError, match="outside the map lattice"):
            edge_stats(far, [Position3D(1e308, 0.0, 1.5)])

    def test_empty_edge_rejected(self):
        m = self.build_map([0.0] * 9)
        with pytest.raises(ValueError):
            edge_stats(m, [])

    @pytest.mark.parametrize("shape", [(5,), (10,), (3, 3), ()])
    def test_values_must_fill_the_lattice(self, shape):
        with pytest.raises(ValueError, match=r"^values must be a flat array of 3 \* 3 "):
            self.build_map(np.zeros(shape))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((1.0, 1.0, 1.0, 0), "point_count must be at least 1"),
            ((1.0, math.nan, 1.0, 1), "edge statistics must not be NaN"),
            ((1.0, 0.0, 2.0, 1), "edge statistics must satisfy min <= mean <= max"),
        ],
        ids=["no points", "nan", "unordered"],
    )
    def test_summary_admission_messages(self, fields, message):
        with pytest.raises(ValueError) as info:
            EdgeStats(*fields)
        assert str(info.value) == message


def scalar_conventional_db(scenario, point):
    link = ConventionalLink(
        scenario.micro_power_conventional,
        scenario.micro_bs_position,
        point,
        scenario.env.pathloss_exponent_micro,
    )
    signal = conventional_rx_power(link, scenario.env)
    noise = scenario.env.noise_power
    interference = interference_power(point, scenario.interference_sources(), scenario.env)
    return sinr(signal, interference, noise).sinr_db


def scalar_irs_db(scenario, point):
    signal = irs_rx_power(
        scenario.micro_power_irs,
        scenario.panel,
        scenario.micro_bs_position,
        point,
        scenario.env,
    )
    interference = interference_power(point, scenario.interference_sources(), scenario.env)
    return sinr(signal, interference, scenario.env.noise_power).sinr_db


class TestConventionalMap:
    def test_deterministic_rebuild(self):
        scenario = small_scenario(silent_macro=False)
        a = sinr_map_conventional(scenario)
        b = sinr_map_conventional(scenario)
        assert np.array_equal(a.values, b.values)

    def test_matches_scalar_link_budget(self):
        scenario = small_scenario(silent_macro=False)
        m = sinr_map_conventional(scenario)
        grid = build_grid(scenario.micro_extent, scenario.grid_resolution, scenario.user_height)
        rng = np.random.default_rng(67)
        for idx in rng.choice(len(grid), size=30, replace=False):
            expected = scalar_conventional_db(scenario, grid[idx])
            assert m.values[idx] == pytest.approx(expected, abs=1e-9)

    def test_radial_symmetry_about_centered_station(self):
        scenario = small_scenario()
        m = sinr_map_conventional(scenario)
        nx, ny = m.nx, m.ny
        for j in range(ny):
            for i in range(nx):
                v = m.value_at(i, j)
                assert v == pytest.approx(m.value_at(nx - 1 - i, j), abs=1e-9)
                assert v == pytest.approx(m.value_at(i, ny - 1 - j), abs=1e-9)

    def test_noise_doubling_shifts_by_three_db(self):
        scenario = small_scenario()
        louder = replace(scenario, env=replace(scenario.env, noise_power=2e-12))
        base = sinr_map_conventional(scenario)
        shifted = sinr_map_conventional(louder)
        delta = base.values - shifted.values
        assert np.allclose(delta, 10.0 * math.log10(2.0), atol=1e-12)

    def test_monotone_with_distance_without_interference(self):
        scenario = small_scenario()
        m = sinr_map_conventional(scenario)
        grid = build_grid(scenario.micro_extent, scenario.grid_resolution, scenario.user_height)
        pairs = sorted(
            zip((distance(p, scenario.micro_bs_position) for p in grid), m.values.tolist())
        )
        for (d1, v1), (d2, v2) in zip(pairs, pairs[1:]):
            if d2 > d1:
                assert v2 < v1
            else:
                assert v2 == pytest.approx(v1, abs=1e-9)

    def test_station_on_grid_point_gets_sentinel_and_warning(self):
        scenario = small_scenario(
            micro_bs_position=Position3D(10.0, 10.0, 1.5),
        )
        with pytest.warns(RuntimeWarning):
            m = sinr_map_conventional(scenario)
        center = m.value_at(5, 5)
        assert center == -math.inf
        assert np.isfinite(np.delete(m.values, 5 * m.nx + 5)).all()


class TestIrsMap:
    def test_deterministic_rebuild(self):
        scenario = small_scenario(silent_macro=False)
        a = sinr_map_irs(scenario)
        b = sinr_map_irs(scenario)
        assert np.array_equal(a.values, b.values)

    def test_matches_scalar_link_budget(self):
        scenario = small_scenario(
            silent_macro=False, micro_bs_position=Position3D(0.0, 0.0, 5.0)
        )
        m = sinr_map_irs(scenario)
        grid = build_grid(scenario.micro_extent, scenario.grid_resolution, scenario.user_height)
        rng = np.random.default_rng(71)
        for idx in rng.choice(len(grid), size=30, replace=False):
            expected = scalar_irs_db(scenario, grid[idx])
            assert m.values[idx] == pytest.approx(expected, abs=1e-9)

    def test_zero_reflection_yields_all_sentinel(self):
        scenario = small_scenario()
        scenario = replace(
            scenario, panel=replace(scenario.panel, reflection_coefficient=0.0)
        )
        m = sinr_map_irs(scenario)
        assert (m.values == -math.inf).all()

    def test_translation_invariance(self):
        scenario = small_scenario(silent_macro=False,
                                  micro_bs_position=Position3D(0.0, 0.0, 5.0))
        dx, dy = 37.5, -12.25
        shifted = replace(
            scenario,
            macro_extent=CellExtent(
                scenario.macro_extent.origin_x + dx,
                scenario.macro_extent.origin_y + dy,
                scenario.macro_extent.width,
                scenario.macro_extent.depth,
            ),
            micro_extent=CellExtent(
                scenario.micro_extent.origin_x + dx,
                scenario.micro_extent.origin_y + dy,
                scenario.micro_extent.width,
                scenario.micro_extent.depth,
            ),
            macro_bs=replace(
                scenario.macro_bs,
                position=Position3D(
                    scenario.macro_bs.position.x + dx,
                    scenario.macro_bs.position.y + dy,
                    scenario.macro_bs.position.z,
                ),
            ),
            micro_bs_position=Position3D(
                scenario.micro_bs_position.x + dx,
                scenario.micro_bs_position.y + dy,
                scenario.micro_bs_position.z,
            ),
        )
        shifted = with_panel_position(
            shifted,
            Position3D(
                scenario.panel.position.x + dx,
                scenario.panel.position.y + dy,
                scenario.panel.position.z,
            ),
        )
        a = sinr_map_irs(scenario)
        b = sinr_map_irs(shifted)
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_moving_panel_away_decreases_every_value(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        near = sinr_map_irs(with_panel_position(scenario, Position3D(10.0, 10.0, 25.0)))
        far = sinr_map_irs(with_panel_position(scenario, Position3D(10.0, 10.0, 50.0)))
        assert (far.values < near.values).all()

    def test_geometric_mode_facing_away_is_all_sentinel(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        scenario = replace(
            scenario,
            panel=replace(scenario.panel, angle_mode=GeometricAngles((0.0, 0.0, 1.0))),
        )
        m = sinr_map_irs(scenario)
        assert (m.values == -math.inf).all()

    def test_geometric_mode_facing_down_serves_users(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        scenario = replace(
            scenario,
            panel=replace(scenario.panel, angle_mode=GeometricAngles((0.0, 0.0, -1.0))),
        )
        m = sinr_map_irs(scenario)
        assert np.isfinite(m.values).all()

    def test_panel_on_station_rejected(self):
        scenario = small_scenario(micro_bs_position=Position3D(10.0, 10.0, 6.0))
        with pytest.raises(ValueError):
            sinr_map_irs(scenario)


class TestMapCsv:
    def test_header_and_row_count(self):
        scenario = small_scenario()
        m = sinr_map_conventional(scenario)
        lines = map_to_csv(m).splitlines()
        assert lines[0] == "x_m,y_m,sinr_db"
        assert len(lines) == 1 + m.nx * m.ny

    def test_values_round_trip(self):
        scenario = small_scenario()
        m = sinr_map_conventional(scenario)
        lines = map_to_csv(m).splitlines()[1:]
        for idx, line in enumerate(lines):
            x, y, v = line.split(",")
            assert float(v) == m.values[idx]
            j, i = divmod(idx, m.nx)
            assert float(x) == m.extent.origin_x + i * m.resolution
            assert float(y) == m.extent.origin_y + j * m.resolution

    def test_sentinel_spelled_minus_inf(self):
        scenario = small_scenario()
        scenario = replace(
            scenario, panel=replace(scenario.panel, reflection_coefficient=0.0)
        )
        text = map_to_csv(sinr_map_irs(scenario))
        assert ",-inf" in text
        assert "nan" not in text

    def test_byte_stable(self):
        scenario = small_scenario(silent_macro=False)
        a = map_to_csv(sinr_map_conventional(scenario))
        b = map_to_csv(sinr_map_conventional(scenario))
        assert a == b

    def test_value_at_bounds_check(self):
        scenario = small_scenario()
        m = sinr_map_conventional(scenario)
        with pytest.raises(ValueError):
            m.value_at(m.nx, 0)


class TestSinrMap:
    def test_a_map_keeps_the_lattice_it_admitted(self, monkeypatch):
        m = SinrMap(CellExtent(0, 0, 3, 2), 1.0, 1.5, np.arange(12, dtype=np.float64))

        def no_shape(*args):
            raise AssertionError("the lattice was admitted again")

        monkeypatch.setattr(coverage, "grid_shape", no_shape)
        assert (m.nx, m.ny) == (4, 3)
        assert m.value_at(3, 0) == 3.0 and m.value_at(1, 2) == 9.0
        with pytest.raises(ValueError, match="^grid index out of range$"):
            m.value_at(4, 0)
        # replace builds a new map, which admits its lattice again
        with pytest.raises(AssertionError, match="admitted again"):
            replace(m, values=np.zeros(12))
        monkeypatch.undo()
        wider = replace(m, extent=CellExtent(0, 0, 5, 2), values=np.zeros(18))
        assert (wider.nx, wider.ny) == (6, 3)
        with pytest.raises(ValueError, match=r"^values must be a flat array of 6 \* 3 "):
            replace(wider, values=np.zeros(12))

    def test_value_at_takes_integer_indices(self):
        m = SinrMap(CellExtent(0, 0, 4, 4), 1.0, 1.5, np.arange(25, dtype=np.float64))
        for i in (1.5, 4.5):
            with pytest.raises(TypeError):
                m.value_at(i, 0)
        assert m.value_at(np.int64(4), np.int64(1)) == 9.0
        with pytest.raises(ValueError, match="^grid index out of range$"):
            m.value_at(m.nx, 0)

    def test_kept_dimensions_are_not_fields(self):
        m = SinrMap(CellExtent(0, 0, 3, 2), 1.0, 1.5, np.zeros(12))
        assert [f.name for f in fields(m)] == ["extent", "resolution", "user_height", "values"]
        assert repr(m).startswith("SinrMap(extent=CellExtent(")
        assert "nx=" not in repr(m)
        copied = pickle.loads(pickle.dumps(m))
        assert (copied.nx, copied.ny) == (4, 3) and (copied.values == m.values).all()
        with pytest.raises(FrozenInstanceError):
            m.nx = 5
