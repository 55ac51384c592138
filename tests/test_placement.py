"""Unit tests for candidate enumeration, ranking, and model comparison."""

import math
import random
import tracemalloc
from dataclasses import replace

import pytest

from irs_planner import (
    CellExtent,
    ComparisonReport,
    ExplicitList,
    GridSweep,
    Objective,
    Position3D,
    compare_models,
    default_scenario,
    enumerate_candidates,
    evaluate_placement,
    optimize_placement,
    ranking_to_csv,
    with_panel_position,
)
from irs_planner import coverage, placement

from test_coverage import small_scenario


class TestEnumerateCandidates:
    def test_explicit_list_verbatim(self):
        positions = (Position3D(1, 2, 3), Position3D(4, 5, 6))
        assert enumerate_candidates(ExplicitList(positions)) == list(positions)

    def test_grid_sweep_counts(self):
        spec = GridSweep(CellExtent(0, 0, 200, 200), 100.0, 5.0)
        candidates = enumerate_candidates(spec)
        assert len(candidates) == 9
        assert candidates[0] == Position3D(0, 0, 5.0)
        assert candidates[-1] == Position3D(200, 200, 5.0)

    def test_grid_sweep_includes_boundary_for_wide_step(self):
        spec = GridSweep(CellExtent(0, 0, 200, 200), 300.0, 5.0)
        candidates = enumerate_candidates(spec)
        assert {(p.x, p.y) for p in candidates} == {(0, 0), (200, 0), (0, 200), (200, 200)}

    def test_grid_sweep_row_major(self):
        spec = GridSweep(CellExtent(0, 0, 2, 2), 1.0, 4.0)
        xys = [(p.x, p.y) for p in enumerate_candidates(spec)]
        assert xys == sorted(xys, key=lambda t: (t[1], t[0]))

    def test_empty_explicit_list_rejected(self):
        with pytest.raises(ValueError):
            ExplicitList(())

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            GridSweep(CellExtent(0, 0, 10, 10), 0.0, 5.0)

    @pytest.mark.parametrize("step", [5e-324, 1e-300])
    def test_too_fine_step_names_the_sweep_step(self, step):
        # the map lattice's rule: no more than sys.maxsize steps along a side
        with pytest.raises(ValueError, match="^sweep step .* steps along a side$"):
            GridSweep(CellExtent(0, 0, 200, 200), step, 5.0)

    def test_ticks_that_round_onto_each_other_are_rejected(self):
        # every x tick 1e20 + 0.5 * k rounds to 1e20
        with pytest.raises(ValueError, match="^sweep step "):
            GridSweep(CellExtent(1e20, 0, 1, 1), 0.5, 5.0)

    def test_a_side_that_rounds_onto_its_origin_is_rejected(self):
        # 1e20 + 1 == 1e20, so a step wider than the side would put the far
        # boundary onto the origin and yield two candidates, not four corners
        with pytest.raises(ValueError, match="^sweep step .* rounds onto its origin$"):
            GridSweep(CellExtent(1e20, 0, 1, 1), 1e10, 5.0)
        with pytest.raises(ValueError, match="^sweep step .* rounds onto its origin$"):
            GridSweep(CellExtent(0, -1e20, 1, 1), 1e10, 5.0)
        corners = enumerate_candidates(GridSweep(CellExtent(1e15, 0, 1, 1), 1e10, 5.0))
        assert [(p.x, p.y) for p in corners] == [
            (1e15, 0.0), (1e15 + 1, 0.0), (1e15, 1.0), (1e15 + 1, 1.0)
        ]


class TestSweepAxis:
    """Grid sweep ticks end on the far boundary, with no near-duplicate before it."""

    @staticmethod
    def _axis(span, step):
        spec = GridSweep(CellExtent(0.0, 0.0, span, step), step, 5.0)
        return [p.x for p in enumerate_candidates(spec) if p.y == 0.0]

    @pytest.mark.parametrize("span, step, ticks", [(7.2, 0.48, 16), (248.92, 2.54, 99)])
    def test_a_step_that_divides_the_span_ends_on_the_boundary(self, span, step, ticks):
        xs = self._axis(span, step)
        assert len(xs) == ticks
        assert xs[-1] == span
        assert xs[-2] == (ticks - 2) * step

    def test_a_step_that_does_not_divide_the_span_appends_the_boundary(self):
        assert self._axis(10.0, 3.0) == [0.0, 3.0, 6.0, 9.0, 10.0]
        assert self._axis(2.0, 4.0) == [0.0, 2.0]
        assert self._axis(1e-300, 1e30) == [0.0, 1e-300]

    def test_steps_of_span_over_n(self):
        rng = random.Random(84)
        for _ in range(2000):
            span = round(rng.uniform(0.5, 500.0), 2)
            step = span / rng.randint(1, 200)
            xs = self._axis(span, step)
            assert xs[-1] == span
            assert len(xs) == coverage._steps(span, step) + 1
            assert min(b - a for a, b in zip(xs, xs[1:])) >= step / 2

    def test_an_offset_origin_keeps_the_boundary(self):
        spec = GridSweep(CellExtent(-3.7, 12.25, 7.2, 248.92), 0.48, 5.0)
        xs = sorted({p.x for p in enumerate_candidates(spec)})
        assert len(xs) == 16 and xs[-1] == -3.7 + 7.2


class TestEvaluatePlacement:
    def test_result_carries_position_and_stats(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        result = evaluate_placement(scenario, Position3D(10.0, 10.0, 6.0), Objective.EDGE_MIN)
        assert result.irs_position == Position3D(10.0, 10.0, 6.0)
        assert result.objective_db == result.edge.min_db
        assert result.edge.min_db <= result.edge.mean_db <= result.edge.max_db

    def test_mean_objective_reads_mean(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        result = evaluate_placement(scenario, Position3D(10.0, 10.0, 6.0), Objective.EDGE_MEAN)
        assert result.objective_db == result.edge.mean_db

    def test_deterministic(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        a = evaluate_placement(scenario, Position3D(4.0, 16.0, 6.0), Objective.EDGE_MIN)
        b = evaluate_placement(scenario, Position3D(4.0, 16.0, 6.0), Objective.EDGE_MIN)
        assert a == b

    def test_dead_panel_scores_sentinel(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        scenario = replace(scenario, panel=replace(scenario.panel, reflection_coefficient=0.0))
        result = evaluate_placement(scenario, Position3D(10.0, 10.0, 6.0), Objective.EDGE_MIN)
        assert result.objective_db == -math.inf

    def test_candidate_on_station_rejected(self):
        scenario = small_scenario()
        with pytest.raises(ValueError):
            evaluate_placement(scenario, scenario.micro_bs_position, Objective.EDGE_MIN)


class TestOptimizePlacement:
    def candidates(self):
        return ExplicitList(
            (
                Position3D(0.0, 20.0, 6.0),
                Position3D(10.0, 20.0, 6.0),
                Position3D(10.0, 10.0, 6.0),
                Position3D(20.0, 10.0, 6.0),
            )
        )

    def test_exhaustive_and_sorted(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        ranking = optimize_placement(scenario, self.candidates(), Objective.EDGE_MIN)
        assert len(ranking) == 4
        values = [r.objective_db for r in ranking]
        assert values == sorted(values, reverse=True)
        positions = {r.irs_position for r in ranking}
        assert positions == set(self.candidates().positions)

    def test_rank_order_invariant_under_signal_scaling(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        louder = replace(scenario, micro_power_irs=scenario.micro_power_irs * 10.0)
        base = optimize_placement(scenario, self.candidates(), Objective.EDGE_MIN)
        scaled = optimize_placement(louder, self.candidates(), Objective.EDGE_MIN)
        assert [r.irs_position for r in base] == [r.irs_position for r in scaled]
        for b, s in zip(base, scaled):
            assert s.objective_db - b.objective_db == pytest.approx(10.0, abs=1e-9)

    def test_reranking_is_idempotent(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        ranking = optimize_placement(scenario, self.candidates(), Objective.EDGE_MIN)
        rerank = optimize_placement(
            scenario, ExplicitList(tuple(r.irs_position for r in ranking)), Objective.EDGE_MIN
        )
        assert [r.irs_position for r in rerank] == [r.irs_position for r in ranking]

    def test_symmetric_tie_breaks_lexicographically(self):
        scenario = small_scenario()  # station at the cell center
        mirrored = ExplicitList((Position3D(14.0, 10.0, 6.0), Position3D(6.0, 10.0, 6.0)))
        ranking = optimize_placement(scenario, mirrored, Objective.EDGE_MIN)
        assert ranking[0].objective_db == ranking[1].objective_db
        assert ranking[0].irs_position.x == 6.0

    def test_sweep_through_station_rejected_before_scoring(self, monkeypatch):
        def no_scoring(*args):
            raise AssertionError("a candidate was scored")

        monkeypatch.setattr(coverage._Kernel, "reflected", no_scoring)
        scenario = default_scenario()  # station at (100, 100, 5)
        spec = GridSweep(scenario.micro_extent, 10.0, 5.0)
        with pytest.raises(ValueError, match=r"candidate 220 .*\(100\.0, 100\.0, 5\.0\)"):
            optimize_placement(scenario, spec, Objective.EDGE_MIN)

    def test_sweep_memory_does_not_grow_with_the_candidates(self):
        # README "Sweeps": a tracemalloc peak of about 1.8 MiB for 2,000
        # candidates, results included; the 800-point edge scored in one
        # (2,000, 800) array would take 12.2 MiB per buffer
        rng = random.Random(2000)
        candidates = ExplicitList(tuple(
            Position3D(rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0), rng.uniform(6.0, 15.0))
            for _ in range(2000)
        ))
        tracemalloc.start()
        try:
            ranking = optimize_placement(default_scenario(), candidates, Objective.EDGE_MIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ranking) == 2000
        assert peak < 3 * 2**20

    def test_grid_sweep_spec_accepted(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        spec = GridSweep(scenario.micro_extent, 10.0, 6.0)
        ranking = optimize_placement(scenario, spec, Objective.EDGE_MIN)
        assert len(ranking) == 9


class TestCompareModels:
    def test_power_reduction_default_scenario(self):
        scenario = small_scenario(silent_macro=False)
        position = Position3D(10.0, 10.0, 6.0)
        report = compare_models(scenario, position)
        assert report.power_reduction_fraction == 0.9
        assert report.conventional_power == 10.0
        assert report.irs_power == 1.0

    def test_power_reduction_half(self):
        scenario = small_scenario(micro_power_conventional=10.0, micro_power_irs=5.0)
        position = Position3D(10.0, 10.0, 6.0)
        report = compare_models(scenario, position)
        assert report.power_reduction_fraction == 0.5

    def test_equal_powers_zero_reduction(self):
        scenario = small_scenario(micro_power_conventional=2.0, micro_power_irs=2.0)
        position = Position3D(10.0, 10.0, 6.0)
        report = compare_models(scenario, position)
        assert report.power_reduction_fraction == 0.0

    def test_reflected_power_above_conventional_rejected_before_scoring(self, monkeypatch):
        scenario = small_scenario(micro_power_conventional=2.0, micro_power_irs=20.0)

        def no_scoring(*args):
            raise AssertionError("scored before the powers were checked")

        monkeypatch.setattr(placement, "_edge_rows", no_scoring)
        with pytest.raises(
            ValueError, match="^micro_power_irs 20.0 exceeds micro_power_conventional 2.0, "
        ):
            compare_models(scenario, Position3D(10.0, 10.0, 6.0))

    def test_edges_cover_same_points(self):
        scenario = small_scenario(silent_macro=False)
        position = Position3D(10.0, 10.0, 6.0)
        report = compare_models(scenario, position)
        assert report.conventional_edge.point_count == report.irs_edge.point_count

    def test_inconsistent_fraction_rejected(self):
        scenario = small_scenario(silent_macro=False)
        position = Position3D(10.0, 10.0, 6.0)
        good = compare_models(scenario, position)
        with pytest.raises(ValueError):
            ComparisonReport(
                conventional_power=good.conventional_power,
                irs_power=good.irs_power,
                irs_position=good.irs_position,
                conventional_edge=good.conventional_edge,
                irs_edge=good.irs_edge,
                power_reduction_fraction=0.5,
            )


class TestRankingCsv:
    def test_format(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        ranking = optimize_placement(
            scenario,
            ExplicitList((Position3D(10.0, 10.0, 6.0), Position3D(0.0, 20.0, 6.0))),
            Objective.EDGE_MIN,
        )
        lines = ranking_to_csv(ranking).splitlines()
        assert lines[0] == "rank,x_m,y_m,z_m,objective_db,edge_min_db,edge_mean_db,edge_max_db"
        assert len(lines) == 3
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")
        first = lines[1].split(",")
        assert float(first[1]) == ranking[0].irs_position.x
        assert float(first[4]) == ranking[0].objective_db

    def test_sentinel_serialization(self):
        scenario = small_scenario(micro_bs_position=Position3D(0.0, 0.0, 5.0))
        scenario = replace(scenario, panel=replace(scenario.panel, reflection_coefficient=0.0))
        ranking = optimize_placement(
            scenario, ExplicitList((Position3D(10.0, 10.0, 6.0),)), Objective.EDGE_MIN
        )
        assert ",-inf," in ranking_to_csv(ranking)
