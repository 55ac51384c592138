"""End-to-end tests for the command-line interface (in-process)."""

import pytest

from irs_planner.cli import run

# Small scenario so CLI runs stay fast: 11 x 11 grid points.
SMALL_CONFIG = """\
micro_width = 20
micro_depth = 20
micro_bs_x = 10
micro_bs_y = 10
micro_bs_z = 5
irs_x = 10
irs_y = 10
irs_z = 6
grid_resolution = 2
"""

CANDIDATES = "x_m,y_m,z_m\n4,10,6\n10,4,6\n16,10,6\n10,16,6\n"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "small.conf"
    path.write_text(SMALL_CONFIG)
    return str(path)


@pytest.fixture
def candidates_path(tmp_path):
    path = tmp_path / "candidates.csv"
    path.write_text(CANDIDATES)
    return str(path)


class TestUsageErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run([])
        assert info.value.code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

    def test_sweep_requires_candidates(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["sweep"])
        assert info.value.code == 2


class TestRuntimeErrors:
    def test_missing_config_file(self, capsys):
        assert run(["map-conv", "--config", "/no/such/file.conf"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_config_value(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text("grid_resolution = -1\n")
        assert run(["map-conv", "--config", str(path)]) == 1
        assert "grid_resolution" in capsys.readouterr().err

    def test_malformed_bs_flag(self, config_path, capsys):
        assert run(["map-conv", "--config", config_path, "--bs", "1,2"]) == 1
        assert "--bs" in capsys.readouterr().err

    def test_negative_resolution_flag(self, config_path, capsys):
        assert run(["map-conv", "--config", config_path, "--resolution", "-2"]) == 1
        assert "--resolution" in capsys.readouterr().err

    def test_bad_candidates_header(self, config_path, tmp_path, capsys):
        path = tmp_path / "cand.csv"
        path.write_text("x,y,z\n1,2,3\n")
        assert run(["sweep", "--config", config_path, "--candidates", str(path)]) == 1
        assert "x_m,y_m,z_m" in capsys.readouterr().err

    def test_empty_candidates(self, config_path, tmp_path, capsys):
        path = tmp_path / "cand.csv"
        path.write_text("x_m,y_m,z_m\n")
        assert run(["sweep", "--config", config_path, "--candidates", str(path)]) == 1

    def test_candidate_on_base_station(self, config_path, tmp_path, capsys):
        path = tmp_path / "cand.csv"
        path.write_text("x_m,y_m,z_m\n10,10,5\n")
        assert run(["sweep", "--config", config_path, "--candidates", str(path)]) == 1

    def test_candidate_on_default_station_named(self, tmp_path, capsys):
        path = tmp_path / "cand.csv"
        path.write_text("x_m,y_m,z_m\n0,200,5\n100,100,5\n100,200,5\n")
        assert run(["sweep", "--candidates", str(path)]) == 1
        err = capsys.readouterr().err
        assert "candidate 1 " in err and "(100.0, 100.0, 5.0)" in err
        assert "base station" in err

    @pytest.mark.parametrize("command", ["compare", "map-irs"])
    def test_panel_on_default_station(self, command, capsys):
        assert run([command, "--irs", "100,100,5"]) == 1
        assert capsys.readouterr().err == "error: panel position coincides with the base station\n"

    @pytest.mark.parametrize("key", ["noise_power_dbm", "irs_gain_tx_db", "irs_gain_rx_db"])
    def test_overflowing_db_value(self, key, tmp_path, capsys):
        path = tmp_path / "loud.conf"
        path.write_text(f"{key} = 4000\n")
        assert run(["compare", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: line 1: {key}: value out of range\n"

    def test_bad_thread_env(self, config_path, candidates_path, capsys, monkeypatch):
        monkeypatch.setenv("IRS_PLANNER_THREADS", "many")
        args = ["sweep", "--config", config_path, "--candidates", candidates_path]
        assert run(args) == 1
        assert "IRS_PLANNER_THREADS" in capsys.readouterr().err

    def test_negative_thread_env(self, config_path, candidates_path, capsys, monkeypatch):
        monkeypatch.setenv("IRS_PLANNER_THREADS", "-3")
        args = ["sweep", "--config", config_path, "--candidates", candidates_path]
        assert run(args) == 1


class TestMapCommands:
    def test_map_conv_stdout(self, config_path, capsys):
        assert run(["map-conv", "--config", config_path]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "x_m,y_m,sinr_db"
        assert len(lines) == 1 + 11 * 11

    def test_map_irs_stdout(self, config_path, capsys):
        assert run(["map-irs", "--config", config_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x_m,y_m,sinr_db"
        assert len(lines) == 1 + 11 * 11

    def test_out_file_matches_stdout(self, config_path, tmp_path, capsys):
        assert run(["map-conv", "--config", config_path]) == 0
        stdout_text = capsys.readouterr().out
        out_path = tmp_path / "map.csv"
        assert run(["map-conv", "--config", config_path, "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == stdout_text.encode("utf-8")

    def test_defaults_used_without_config(self, capsys):
        assert run(["map-conv", "--resolution", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # default 200 m cell at 20 m spacing
        assert len(lines) == 1 + 11 * 11

    def test_bs_override_changes_map(self, config_path, capsys):
        assert run(["map-conv", "--config", config_path]) == 0
        base = capsys.readouterr().out
        assert run(["map-conv", "--config", config_path, "--bs", "4,4,5"]) == 0
        moved = capsys.readouterr().out
        assert moved != base

    def test_irs_override_changes_map(self, config_path, capsys):
        assert run(["map-irs", "--config", config_path]) == 0
        base = capsys.readouterr().out
        assert run(["map-irs", "--config", config_path, "--irs", "4,4,6"]) == 0
        assert capsys.readouterr().out != base

    def test_resolution_override(self, config_path, capsys):
        assert run(["map-conv", "--config", config_path, "--resolution", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 5 * 5

    def test_rerun_is_byte_identical(self, config_path, capsys):
        assert run(["map-irs", "--config", config_path]) == 0
        first = capsys.readouterr().out
        assert run(["map-irs", "--config", config_path]) == 0
        assert capsys.readouterr().out == first


class TestSweepCommand:
    def test_ranked_output(self, config_path, candidates_path, capsys):
        assert run(["sweep", "--config", config_path, "--candidates", candidates_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,x_m,y_m,z_m,objective_db,edge_min_db,edge_mean_db,edge_max_db"
        assert len(lines) == 1 + 4
        ranks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ranks == [1, 2, 3, 4]
        objectives = [float(line.split(",")[4]) for line in lines[1:]]
        assert objectives == sorted(objectives, reverse=True)

    def test_objective_flag_selects_column(self, config_path, candidates_path, capsys):
        assert run(
            [
                "sweep",
                "--config",
                config_path,
                "--candidates",
                candidates_path,
                "--objective",
                "mean",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == fields[6]  # objective echoes edge mean

    def test_min_objective_echoes_min_column(self, config_path, candidates_path, capsys):
        assert run(["sweep", "--config", config_path, "--candidates", candidates_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == fields[5]

    def test_thread_count_does_not_change_bytes(
        self, config_path, candidates_path, tmp_path, monkeypatch
    ):
        out_one = tmp_path / "one.csv"
        out_eight = tmp_path / "eight.csv"
        args = ["sweep", "--config", config_path, "--candidates", candidates_path]
        monkeypatch.setenv("IRS_PLANNER_THREADS", "1")
        assert run(args + ["--out", str(out_one)]) == 0
        monkeypatch.setenv("IRS_PLANNER_THREADS", "8")
        assert run(args + ["--out", str(out_eight)]) == 0
        assert out_one.read_bytes() == out_eight.read_bytes()


class TestCompareCommand:
    def test_reduction_fraction_row(self, config_path, capsys):
        assert run(["compare", "--config", config_path]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "conventional_power_w,10.0" in lines
        assert "irs_power_w,1.0" in lines
        assert "power_reduction_fraction,0.9" in lines

    def test_reports_panel_position(self, config_path, capsys):
        assert run(["compare", "--config", config_path, "--irs", "4,10,6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "irs_x_m,4.0" in lines
        assert "irs_y_m,10.0" in lines
        assert "irs_z_m,6.0" in lines

    def test_edge_rows_present_and_ordered(self, config_path, capsys):
        assert run(["compare", "--config", config_path]) == 0
        rows = dict(
            line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:]
        )
        for side in ("conventional", "irs"):
            low = float(rows[f"{side}_edge_min_db"])
            mid = float(rows[f"{side}_edge_mean_db"])
            high = float(rows[f"{side}_edge_max_db"])
            assert low <= mid <= high
