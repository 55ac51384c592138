"""End-to-end tests for the command-line interface (in-process)."""

import sys

import numpy as np
import pytest

from irs_planner import Objective, Scenario, cli
from irs_planner.cli import build_parser, run

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
    def test_panel_on_default_station(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run([command, "--irs", "100,100,5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: panel position coincides with the base station\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["noise_power_dbm", "irs_gain_tx_db", "irs_gain_rx_db"])
    def test_overflowing_db_value(self, key, tmp_path, capsys):
        path = tmp_path / "loud.conf"
        path.write_text(f"{key} = 4000\n")
        assert run(["compare", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: line 1: {key}: value out of range\n"

    @pytest.mark.parametrize(
        "argv, source",
        [
            (["map-conv", "--bs", "nan,10,5"], "--bs"),
            (["compare", "--bs", "10,-inf,5"], "--bs"),
            (["map-irs", "--irs", "10,10,inf"], "--irs"),
            (["compare", "--irs", "NaN,10,6"], "--irs"),
            (["sweep", "--candidates", "CANDIDATES"], "candidates line 3"),
        ],
        ids=["bs nan", "bs -inf", "irs inf", "irs NaN", "candidate inf"],
    )
    def test_non_finite_coordinates_name_their_source(
        self, argv, source, config_path, tmp_path, capsys
    ):
        path = tmp_path / "cand.csv"
        path.write_text("x_m,y_m,z_m\n4,10,6\n10,inf,6\n")
        argv = [str(path) if arg == "CANDIDATES" else arg for arg in argv]
        out = tmp_path / "out.csv"
        assert run(argv + ["--config", config_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {source}: coordinates must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["map-conv", "map-irs", "compare", "sweep"])
    @pytest.mark.parametrize("resolution", ["5e-324", "1e-300", "1e-12", "1e-16"])
    def test_too_fine_resolution_names_the_key(
        self, command, resolution, config_path, candidates_path, tmp_path, capsys
    ):
        out = tmp_path / "out.csv"
        argv = [command, "--config", config_path, "--resolution", resolution, "--out", str(out)]
        if command == "sweep":
            argv += ["--candidates", candidates_path]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid_resolution ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["map-conv", "map-irs", "compare", "sweep"])
    def test_ticks_that_round_onto_each_other_name_the_key(
        self, command, candidates_path, tmp_path, capsys
    ):
        # a 2 m cell 1e20 m out: every 1e20 + 0.5 * k rounds to 1e20
        path = tmp_path / "far.conf"
        path.write_text(
            "macro_origin_x = 1e20\nmicro_origin_x = 1e20\nmicro_width = 2\nmicro_depth = 2\n"
            "micro_bs_x = 1e20\nmicro_bs_y = 1\nirs_x = 1e20\nirs_y = 1\ngrid_resolution = 0.5\n"
        )
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "sweep":
            argv += ["--candidates", candidates_path]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid_resolution ") and err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize("command", ["compare", "map-irs", "sweep"])
    def test_compare_checks_its_powers_by_their_keys(
        self, command, candidates_path, tmp_path, capsys
    ):
        # only compare needs the reflected power below the conventional one
        path = tmp_path / "louder.conf"
        path.write_text(SMALL_CONFIG + "micro_power_irs = 20\n")
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "sweep":
            argv += ["--candidates", candidates_path]
        if command != "compare":
            assert run(argv) == 0 and out.exists()
            return
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: micro_power_irs 20.0 exceeds micro_power_conventional 10.0, "
            "so the power reduction would be negative\n"
        )
        assert not out.exists()


COMMANDS = ["map-conv", "map-irs", "compare", "sweep"]


def _argv(command, config, out, candidates):
    argv = [command, "--config", config, "--out", out]
    return argv + ["--candidates", candidates] if command == "sweep" else argv


class TestOverrides:
    # each flag alone is bad; the error line is the one each flag gave when
    # every override was admitted on its own (--irs on the station:
    # TestRuntimeErrors.test_panel_on_default_station)
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--resolution", "-2", "--resolution: grid_resolution must be positive"),
            ("--resolution", "30", "grid_resolution must not exceed the extent dimensions"),
            ("--resolution", "1e-300",
             f"grid_resolution 1e-300 leaves more than {sys.maxsize} steps along a side"),
            ("--resolution", "1e-12",
             f"grid_resolution 1e-12 leaves more than {sys.maxsize} lattice points"),
            ("--bs", "1,2", "--bs: expected X,Y,Z"),
            ("--bs", "1,2,x", "--bs: expected three numbers"),
            ("--bs", "inf,10,5", "--bs: coordinates must be finite"),
        ],
        ids=["negative", "above extent", "too fine steps", "too fine points", "bs two",
             "bs text", "bs inf"],
    )
    def test_one_bad_override_exits_1_with_its_line(
        self, flag, value, message, command, config_path, candidates_path, tmp_path, capsys
    ):
        out = tmp_path / "out.csv"
        assert run(_argv(command, config_path, str(out), candidates_path) + [flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--resolution", "5", "--objective", "mean", "--irs", "100,90,6",
             "--bs", "90,100,5"],
            ["sweep", "--config", "CONFIG", "--objective", "mean", "--bs", "4,4,5",
             "--candidates", "CANDIDATES"],
        ],
        ids=["compare", "sweep"],
    )
    def test_a_command_admits_two_scenarios(
        self, argv, config_path, candidates_path, tmp_path, monkeypatch
    ):
        admitted = []
        admit = Scenario.__post_init__

        def counted(scenario):
            admit(scenario)
            admitted.append(scenario)

        monkeypatch.setattr(Scenario, "__post_init__", counted)
        paths = {"CONFIG": config_path, "CANDIDATES": candidates_path}
        out = tmp_path / "out.csv"
        assert run([paths.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 0
        assert len(admitted) == 2
        base, overridden = admitted
        assert overridden.objective is Objective.EDGE_MEAN != base.objective
        assert overridden.micro_bs_position != base.micro_bs_position


class TestExtremeValues:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("frequency", ["1e300", "1e-320"])
    def test_wavelength_square_outside_doubles_names_the_key(
        self, frequency, command, candidates_path, tmp_path, capsys
    ):
        config = tmp_path / "far.conf"
        config.write_text(f"carrier_frequency = {frequency}\n")
        out = tmp_path / "out.csv"
        assert run(_argv(command, str(config), str(out), candidates_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: carrier_frequency ") and err.count("\n") == 1
        assert not out.exists()

    # each squares a coordinate difference past the largest double: that
    # hop is infinitely long and carries no power
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "line",
        ["macro_bs_z = 1e300", "irs_z = 1e200", "macro_bs_y = 1e300", "irs_x = 1e300",
         "micro_bs_z = 1e300"],
    )
    def test_overflowing_values_run_without_nan(
        self, line, command, candidates_path, tmp_path, capsys
    ):
        config = tmp_path / "far.conf"
        config.write_text(f"{line}\ngrid_resolution = 10\n")
        out = tmp_path / "out.csv"
        assert run(_argv(command, str(config), str(out), candidates_path)) == 0
        assert capsys.readouterr().err == ""
        assert "nan" not in out.read_text()

    # a cascade gain past the largest double would write +inf at every
    # served point; element counts whose squares are too large for a double
    # would end in an OverflowError
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "line",
        [pytest.param("irs_elements_m = 1" + "0" * 160, id="elements_m"),
         pytest.param("irs_element_len_x = 1e300\nirs_normal = 0.6,0,-0.8", id="element_len_x"),
         pytest.param("irs_gain_tx = 1e300\nirs_gain_rx = 1e300", id="gains")],
    )
    def test_infinite_cascade_gain_exits_1(
        self, line, command, candidates_path, tmp_path, capsys
    ):
        config = tmp_path / "gain.conf"
        config.write_text(f"{line}\ngrid_resolution = 10\n")
        out = tmp_path / "out.csv"
        assert run(_argv(command, str(config), str(out), candidates_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "irs_elements_m" in err and "irs_gain_rx" in err and "cascade gain" in err
        assert not out.exists()


def _one_block_then(exc):
    """A stand-in for cli._map_blocks that yields one lattice row, then raises."""

    def blocks(scenario, irs):
        yield np.zeros(11)
        raise exc

    return blocks


class TestFailedMapLeavesNoFile:
    def test_value_error_exits_1(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_map_blocks", _one_block_then(ValueError("broken block")))
        out = tmp_path / "map.csv"
        assert run(["map-conv", "--config", config_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: broken block\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 14.9 GiB"), "Unable to allocate 14.9 GiB"),
            (MemoryError(), "out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_exits_1(
        self, exc, message, config_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "_map_blocks", _one_block_then(exc))
        out = tmp_path / "map.csv"
        assert run(["map-irs", "--config", config_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_uncaught_error_propagates(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_map_blocks", _one_block_then(RuntimeError("broken block")))
        out = tmp_path / "map.csv"
        out.write_text("an older map\n")
        with pytest.raises(RuntimeError, match="broken block"):
            run(["map-irs", "--config", config_path, "--out", str(out)])
        assert not out.exists()


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


class TestParserReuse:
    """run parses with one parser per process; no call may leave state for the next."""

    def test_irs_override_does_not_carry_over(self, config_path, tmp_path):
        plain, moved, again = (tmp_path / f"{name}.csv" for name in ("plain", "moved", "again"))
        args = ["compare", "--config", config_path, "--out"]
        assert run(args + [str(plain)]) == 0
        assert run(args + [str(moved), "--irs", "4,10,6"]) == 0
        assert run(args + [str(again)]) == 0
        assert "irs_x_m,10.0" in again.read_text().splitlines()
        assert again.read_bytes() == plain.read_bytes() != moved.read_bytes()

    def test_usage_error_leaves_no_state(self, config_path, candidates_path, tmp_path, capsys):
        alone, after = tmp_path / "alone.csv", tmp_path / "after.csv"
        args = ["sweep", "--config", config_path, "--candidates", candidates_path]
        assert run(args + ["--out", str(alone)]) == 0
        with pytest.raises(SystemExit) as info:
            run(["sweep", "--config", config_path, "--objective", "median"])
        assert info.value.code == 2
        assert run(args + ["--out", str(after)]) == 0
        assert after.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("command", [[], ["map-conv"], ["map-irs"], ["sweep"], ["compare"]])
    def test_help_matches_a_fresh_parser(self, command, config_path, capsys):
        assert run(["map-conv", "--config", config_path]) == 0
        capsys.readouterr()
        texts = []
        for parse in (run, build_parser().parse_args, run):
            with pytest.raises(SystemExit) as info:
                parse(command + ["--help"])
            assert info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]
        assert texts[0].startswith(" ".join(["usage: irs-planner"] + command))
