"""Unit tests for scenario defaults and the config format."""

import math

import pytest

from irs_planner import (
    CellExtent,
    ConfigError,
    FixedAngles,
    GeometricAngles,
    InterferenceSource,
    IrsPanel,
    Objective,
    Position3D,
    RadioEnvironment,
    Scenario,
    db_to_linear,
    default_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
)
from irs_planner.scenario import _DEFAULTS, _VARIANTS


class TestDefaults:
    def test_empty_text_yields_full_defaults(self):
        scenario = parse_scenario("")
        assert scenario == default_scenario()

    def test_empty_file_yields_full_defaults(self, tmp_path):
        path = tmp_path / "empty.conf"
        path.write_text("")
        assert load_scenario(str(path)) == default_scenario()

    def test_radio_defaults(self):
        s = default_scenario()
        assert s.env.carrier_frequency == 130e9
        assert s.env.noise_power == 1e-12
        assert s.env.pathloss_exponent_micro == 3.0
        assert s.env.pathloss_exponent_macro == 4.0

    def test_geometry_defaults(self):
        s = default_scenario()
        assert (s.macro_extent.width, s.macro_extent.depth) == (1000.0, 1000.0)
        assert (s.micro_extent.width, s.micro_extent.depth) == (200.0, 200.0)
        assert s.macro_bs.position == Position3D(500.0, 500.0, 10.0)
        assert s.micro_bs_position == Position3D(100.0, 100.0, 5.0)
        assert s.user_height == 1.5
        assert s.grid_resolution == 1.0

    def test_power_defaults(self):
        s = default_scenario()
        assert s.macro_bs.transmit_power == 50.0
        assert s.micro_power_conventional == 10.0
        assert s.micro_power_irs == 1.0

    def test_panel_defaults(self):
        s = default_scenario()
        panel = s.panel
        assert panel.elements_m == 128
        assert panel.elements_n == 128
        assert panel.element_len_x == s.env.wavelength / 2.0
        assert panel.element_len_y == s.env.wavelength / 2.0
        assert panel.reflection_coefficient == 0.9
        assert panel.gain_tx == db_to_linear(20.0)
        assert panel.gain_rx == db_to_linear(15.0)
        assert panel.position == Position3D(100.0, 100.0, 6.0)
        assert panel.angle_mode == FixedAngles(math.pi / 4, math.pi / 4)

    def test_objective_default(self):
        assert default_scenario().objective is Objective.EDGE_MIN


class TestParsing:
    def test_single_override_keeps_other_defaults(self):
        scenario = parse_scenario("micro_power_irs = 2.0\n")
        assert scenario.micro_power_irs == 2.0
        assert scenario.micro_power_conventional == 10.0
        assert scenario.env.carrier_frequency == 130e9

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nmicro_power_irs = 3.0  # trailing comment\n"
        assert parse_scenario(text).micro_power_irs == 3.0

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key 'transmit_power'"):
            parse_scenario("transmit_power = 5\n")

    def test_parse_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_scenario("# ok\nmicro_power_irs = 1.0\nthis is not a pair\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_scenario("user_height = 1.5\nuser_height = 2.0\n")

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError, match="micro_power_irs"):
            parse_scenario("micro_power_irs = lots\n")

    def test_validation_error_names_field(self):
        with pytest.raises(ConfigError, match="grid_resolution"):
            parse_scenario("grid_resolution = -1\n")

    def test_micro_cell_must_stay_inside_macro_cell(self):
        with pytest.raises(ConfigError, match="micro_extent"):
            parse_scenario("micro_origin_x = 900\n")

    def test_scientific_notation(self):
        scenario = parse_scenario("carrier_frequency = 28e9\n")
        assert scenario.env.carrier_frequency == 28e9
        # element size defaults track the overridden carrier
        assert scenario.panel.element_len_x == scenario.env.wavelength / 2.0

    def test_objective_choices(self):
        assert parse_scenario("objective = mean\n").objective is Objective.EDGE_MEAN
        assert parse_scenario("objective = min\n").objective is Objective.EDGE_MIN
        with pytest.raises(ConfigError, match="objective"):
            parse_scenario("objective = max\n")

    def test_element_count_must_be_integer(self):
        with pytest.raises(ConfigError, match="irs_elements_m"):
            parse_scenario("irs_elements_m = 12.5\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("micro_power_irs = lots\ncarrier_frequency = x\n", "line 1: micro_power_irs: "),
            ("irs_elements_m = 1.5\nirs_normal = 0,0,0\n", "line 1: irs_elements_m: "),
        ],
    )
    def test_first_bad_line_is_reported(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_scenario(text)
        assert str(info.value).startswith(message)


class TestUnitVariants:
    def test_noise_in_dbm(self):
        scenario = parse_scenario("noise_power_dbm = -90\n")
        assert scenario.env.noise_power == pytest.approx(1e-12, rel=1e-12)

    def test_noise_variants_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_scenario("noise_power = 1e-12\nnoise_power_dbm = -90\n")

    def test_gain_in_db(self):
        scenario = parse_scenario("irs_gain_tx_db = 23\n")
        assert scenario.panel.gain_tx == db_to_linear(23.0)

    def test_gain_linear(self):
        scenario = parse_scenario("irs_gain_rx = 12.5\n")
        assert scenario.panel.gain_rx == 12.5

    def test_gain_variants_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_scenario("irs_gain_tx = 100\nirs_gain_tx_db = 20\n")

    def test_angles_in_degrees(self):
        scenario = parse_scenario("irs_theta_t_deg = 30\nirs_theta_r_deg = 60\n")
        assert scenario.panel.angle_mode == FixedAngles(math.radians(30.0), math.radians(60.0))

    def test_angles_in_radians(self):
        scenario = parse_scenario("irs_theta_t_rad = 0.5\n")
        assert scenario.panel.angle_mode.theta_t == 0.5
        assert scenario.panel.angle_mode.theta_r == math.pi / 4

    def test_angle_variants_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_scenario("irs_theta_t_rad = 0.5\nirs_theta_t_deg = 30\n")

    def test_normal_selects_geometric_mode(self):
        scenario = parse_scenario("irs_normal = 0, 0, -2\n")
        assert scenario.panel.angle_mode == GeometricAngles((0.0, 0.0, -1.0))

    def test_normal_and_angles_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_scenario("irs_normal = 0,0,-1\nirs_theta_t_deg = 45\n")

    def test_zero_normal_rejected(self):
        with pytest.raises(ConfigError, match="irs_normal"):
            parse_scenario("irs_normal = 0,0,0\n")

    def test_normal_needs_three_components(self):
        with pytest.raises(ConfigError, match="three"):
            parse_scenario("irs_normal = 0,1\n")

    @pytest.mark.parametrize("key", ["noise_power_dbm", "irs_gain_tx_db", "irs_gain_rx_db"])
    def test_overflowing_db_value_is_config_error(self, key):
        with pytest.raises(ConfigError) as info:
            parse_scenario(f"# too loud\n{key} = 4000\n")
        assert str(info.value) == f"line 2: {key}: value out of range"


# One valid non-default value for every key of the config format.
NON_DEFAULT = {
    "carrier_frequency": "28e9",
    "noise_power": "2e-12",
    "noise_power_dbm": "-80",
    "pathloss_exponent_micro": "3.5",
    "pathloss_exponent_macro": "4.5",
    "macro_origin_x": "-10",
    "macro_origin_y": "-10",
    "macro_width": "900",
    "macro_depth": "900",
    "micro_origin_x": "10",
    "micro_origin_y": "10",
    "micro_width": "150",
    "micro_depth": "150",
    "macro_bs_power": "40",
    "macro_bs_x": "400",
    "macro_bs_y": "400",
    "macro_bs_z": "20",
    "micro_bs_x": "50",
    "micro_bs_y": "50",
    "micro_bs_z": "7",
    "micro_power_conventional": "8",
    "micro_power_irs": "2",
    "irs_x": "60",
    "irs_y": "60",
    "irs_z": "9",
    "irs_elements_m": "64",
    "irs_elements_n": "64",
    "irs_element_len_x": "0.01",
    "irs_element_len_y": "0.01",
    "irs_reflection_coefficient": "0.5",
    "irs_gain_tx": "50",
    "irs_gain_tx_db": "10",
    "irs_gain_rx": "20",
    "irs_gain_rx_db": "10",
    "irs_theta_t_rad": "0.3",
    "irs_theta_t_deg": "30",
    "irs_theta_r_rad": "0.3",
    "irs_theta_r_deg": "30",
    "irs_normal": "0,0,-1",
    "user_height": "2",
    "grid_resolution": "2",
    "objective": "mean",
}


class TestSchema:
    def test_every_key_has_a_non_default_value_here(self):
        assert set(NON_DEFAULT) == set(_DEFAULTS) | set(_VARIANTS)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_every_key_alone_changes_the_scenario(self, key):
        assert parse_scenario(f"{key} = {NON_DEFAULT[key]}\n") != default_scenario()


class TestRoundTrip:
    def test_default_scenario_round_trips(self):
        scenario = default_scenario()
        assert parse_scenario(dump_scenario(scenario)) == scenario

    def test_overridden_scenario_round_trips(self):
        text = (
            "carrier_frequency = 28e9\n"
            "micro_power_irs = 2.5\n"
            "irs_gain_tx_db = 17.5\n"
            "irs_theta_t_deg = 30\n"
            "micro_bs_x = 0\nmicro_bs_y = 0\n"
            "objective = mean\n"
        )
        scenario = parse_scenario(text)
        assert parse_scenario(dump_scenario(scenario)) == scenario

    def test_geometric_scenario_round_trips(self):
        scenario = parse_scenario("irs_normal = 1, 2, -2\n")
        assert parse_scenario(dump_scenario(scenario)) == scenario

    def test_default_dump_text(self):
        assert dump_scenario(default_scenario()) == DEFAULT_DUMP

    def test_geometric_dump_text(self):
        expected = DEFAULT_DUMP.replace(
            "irs_theta_t_rad = 0.7853981633974483\nirs_theta_r_rad = 0.7853981633974483\n",
            "irs_normal = 0.3333333333333333,0.6666666666666666,-0.6666666666666666\n",
        )
        assert dump_scenario(parse_scenario("irs_normal = 1,2,-2\n")) == expected

    @pytest.mark.parametrize("geometric", [False, True], ids=["fixed", "geometric"])
    def test_distinct_values_reach_their_fields_and_round_trip(self, geometric):
        # every key has its own value, so a swap anywhere changes the result
        angles = "irs_normal = 0.6,0.0,-0.8\n" if geometric else ANGLE_LINES
        text = DISTINCT_TEXT.replace(ANGLE_LINES, angles)
        scenario = parse_scenario(text)
        mode = GeometricAngles((0.6, 0.0, -0.8)) if geometric else FixedAngles(0.3, 0.6)
        assert scenario == Scenario(
            env=RadioEnvironment(
                carrier_frequency=28e9,
                noise_power=2e-12,
                pathloss_exponent_micro=3.5,
                pathloss_exponent_macro=4.5,
            ),
            macro_extent=CellExtent(origin_x=-10.0, origin_y=-20.0, width=1100.0, depth=1200.0),
            micro_extent=CellExtent(origin_x=30.0, origin_y=40.0, width=150.0, depth=160.0),
            macro_bs=InterferenceSource(
                transmit_power=45.0,
                position=Position3D(400.0, 410.0, 12.0),
                pathloss_exponent=4.5,
            ),
            micro_bs_position=Position3D(90.0, 95.0, 7.0),
            micro_power_conventional=8.0,
            micro_power_irs=2.0,
            panel=IrsPanel(
                elements_m=64,
                elements_n=32,
                element_len_x=0.003,
                element_len_y=0.004,
                reflection_coefficient=0.8,
                gain_tx=60.0,
                gain_rx=25.0,
                position=Position3D(80.0, 85.0, 9.0),
                angle_mode=mode,
            ),
            user_height=1.7,
            grid_resolution=2.5,
            objective=Objective.EDGE_MEAN,
        )
        assert dump_scenario(scenario) == "# scenario written by irs-planner\n" + text
        assert parse_scenario(dump_scenario(scenario)) == scenario

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.conf"))


DEFAULT_DUMP = """\
# scenario written by irs-planner
carrier_frequency = 130000000000.0
noise_power = 1e-12
pathloss_exponent_micro = 3.0
pathloss_exponent_macro = 4.0
macro_origin_x = 0.0
macro_origin_y = 0.0
macro_width = 1000.0
macro_depth = 1000.0
micro_origin_x = 0.0
micro_origin_y = 0.0
micro_width = 200.0
micro_depth = 200.0
macro_bs_power = 50.0
macro_bs_x = 500.0
macro_bs_y = 500.0
macro_bs_z = 10.0
micro_bs_x = 100.0
micro_bs_y = 100.0
micro_bs_z = 5.0
micro_power_conventional = 10.0
micro_power_irs = 1.0
irs_x = 100.0
irs_y = 100.0
irs_z = 6.0
irs_elements_m = 128
irs_elements_n = 128
irs_element_len_x = 0.0011530479153846155
irs_element_len_y = 0.0011530479153846155
irs_reflection_coefficient = 0.9
irs_gain_tx = 100.0
irs_gain_rx = 31.622776601683793
irs_theta_t_rad = 0.7853981633974483
irs_theta_r_rad = 0.7853981633974483
user_height = 1.5
grid_resolution = 1.0
objective = min
"""

ANGLE_LINES = "irs_theta_t_rad = 0.3\nirs_theta_r_rad = 0.6\n"

# Every key in dump order with a value no other key shares, spelled as
# dump_scenario spells it.
DISTINCT_TEXT = f"""\
carrier_frequency = 28000000000.0
noise_power = 2e-12
pathloss_exponent_micro = 3.5
pathloss_exponent_macro = 4.5
macro_origin_x = -10.0
macro_origin_y = -20.0
macro_width = 1100.0
macro_depth = 1200.0
micro_origin_x = 30.0
micro_origin_y = 40.0
micro_width = 150.0
micro_depth = 160.0
macro_bs_power = 45.0
macro_bs_x = 400.0
macro_bs_y = 410.0
macro_bs_z = 12.0
micro_bs_x = 90.0
micro_bs_y = 95.0
micro_bs_z = 7.0
micro_power_conventional = 8.0
micro_power_irs = 2.0
irs_x = 80.0
irs_y = 85.0
irs_z = 9.0
irs_elements_m = 64
irs_elements_n = 32
irs_element_len_x = 0.003
irs_element_len_y = 0.004
irs_reflection_coefficient = 0.8
irs_gain_tx = 60.0
irs_gain_rx = 25.0
{ANGLE_LINES}user_height = 1.7
grid_resolution = 2.5
objective = mean
"""
