"""Unit tests for the direct and cascaded link budget relations."""

import math

import numpy as np
import pytest

from irs_planner import (
    BehindSurfaceError,
    ConventionalLink,
    FixedAngles,
    GeometricAngles,
    IrsPanel,
    Position3D,
    RadioEnvironment,
    conventional_rx_power,
    db_to_linear,
    distance,
    element_scatter_gain,
    incidence_angles,
    irs_rx_power,
    watts_to_dbm,
    wavelength,
)
from oracles import hp_conventional_rx_power, rel_error

ENV_130GHZ = RadioEnvironment(carrier_frequency=130e9)


def table1_panel(position=Position3D(100.0, 0.0, 0.0), angle_mode=None):
    wl = ENV_130GHZ.wavelength
    return IrsPanel(
        elements_m=128,
        elements_n=128,
        element_len_x=wl / 2.0,
        element_len_y=wl / 2.0,
        reflection_coefficient=0.9,
        gain_tx=db_to_linear(20.0),
        gain_rx=db_to_linear(15.0),
        position=position,
        angle_mode=angle_mode or FixedAngles(math.pi / 4, math.pi / 4),
    )


class TestWavelength:
    def test_one_hertz(self):
        assert wavelength(1.0) == 299792458.0

    def test_unit_wavelength(self):
        assert wavelength(299792458.0) == 1.0

    def test_130_ghz(self):
        # oracle: direct division of the exact speed-of-light constant
        assert wavelength(130e9) == 299792458.0 / 130e9

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            wavelength(bad)

    def test_environment_always_derives_wavelength(self):
        env = RadioEnvironment(carrier_frequency=2.4e9)
        assert env.wavelength == 299792458.0 / 2.4e9

    # wavelength**2 underflows to 0; the wavelength is inf; the square
    # overflows, where Python's ** raises OverflowError
    @pytest.mark.parametrize("frequency", [1e300, 1e-320, 3e-192])
    def test_environment_rejects_a_wavelength_square_outside_doubles(self, frequency):
        with pytest.raises(ValueError, match="^carrier_frequency "):
            RadioEnvironment(carrier_frequency=frequency)


class TestDistance:
    def test_zero(self):
        p = Position3D(1.0, 2.0, 3.0)
        assert distance(p, p) == 0.0

    def test_axis_aligned(self):
        assert distance(Position3D(0, 0, 0), Position3D(0, 0, 7.5)) == 7.5

    def test_three_dimensional(self):
        # frozen oracle: sqrt(100^2 + 100^2 + 1^2)
        got = distance(Position3D(0, 0, 5), Position3D(100, 100, 6))
        assert got == 141.42489172702236

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = Position3D(*rng.uniform(-1e3, 1e3, 3))
            b = Position3D(*rng.uniform(-1e3, 1e3, 3))
            assert distance(a, b) == distance(b, a)

    def test_rejects_non_finite_coordinates(self):
        with pytest.raises(ValueError):
            Position3D(math.nan, 0.0, 0.0)

    def test_a_square_that_overflows_makes_an_infinite_hop(self):
        assert distance(Position3D(0, 0, 0), Position3D(0, 1e200, 0)) == math.inf


class TestConventionalRxPower:
    def test_matches_high_precision_oracle(self):
        # frozen from the 50-digit factor-by-factor evaluation
        link = ConventionalLink(10.0, Position3D(0, 0, 0), Position3D(100, 0, 0), 3.0)
        got = conventional_rx_power(link, ENV_130GHZ)
        assert got == pytest.approx(3.367712223161805e-13, rel=1e-12)

    def test_friis_at_alpha_two(self):
        link = ConventionalLink(2.0, Position3D(0, 0, 0), Position3D(0, 50, 0), 2.0)
        wl = ENV_130GHZ.wavelength
        friis = 2.0 * (wl / (4.0 * math.pi * 50.0)) ** 2
        assert conventional_rx_power(link, ENV_130GHZ) == pytest.approx(friis, rel=1e-12)

    def test_doubling_distance_at_alpha_three(self):
        near = ConventionalLink(1.0, Position3D(0, 0, 0), Position3D(10, 0, 0), 3.0)
        far = ConventionalLink(1.0, Position3D(0, 0, 0), Position3D(20, 0, 0), 3.0)
        ratio = conventional_rx_power(near, ENV_130GHZ) / conventional_rx_power(far, ENV_130GHZ)
        assert ratio == pytest.approx(8.0, rel=1e-12)

    def test_zero_separation_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ConventionalLink(1.0, Position3D(1, 2, 3), Position3D(1, 2, 3), 2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConventionalLink(0.0, Position3D(0, 0, 0), Position3D(1, 0, 0), 2.0)
        with pytest.raises(ValueError):
            ConventionalLink(1.0, Position3D(0, 0, 0), Position3D(1, 0, 0), 1.5)

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            power = float(10.0 ** rng.uniform(-3, 3))
            freq = float(10.0 ** rng.uniform(8, 12))
            d = float(10.0 ** rng.uniform(-1, 4))
            alpha = float(rng.uniform(2.0, 5.0))
            env = RadioEnvironment(carrier_frequency=freq)
            link = ConventionalLink(power, Position3D(0, 0, 0), Position3D(d, 0, 0), alpha)
            got = conventional_rx_power(link, env)
            assert rel_error(got, hp_conventional_rx_power(power, freq, d, alpha)) < 1e-12


class TestElementScatterGain:
    def test_half_wavelength_square_element_gain_is_pi(self):
        wl = ENV_130GHZ.wavelength
        assert element_scatter_gain(wl / 2, wl / 2, wl) == pytest.approx(math.pi, rel=1e-12)

    def test_identity_holds_for_random_wavelengths(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            wl = float(10.0 ** rng.uniform(-4, 1))
            assert element_scatter_gain(wl / 2, wl / 2, wl) == pytest.approx(
                math.pi, rel=1e-12
            )

    def test_scales_with_element_area(self):
        assert element_scatter_gain(0.02, 0.01, 0.1) == pytest.approx(
            4.0 * math.pi * 0.02 * 0.01 / 0.01, rel=1e-12
        )

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ValueError):
            element_scatter_gain(0.0, 0.01, 0.1)
        with pytest.raises(ValueError):
            element_scatter_gain(0.01, 0.01, 0.0)


class TestIncidenceAngles:
    def test_fixed_mode_returns_stored_pair(self):
        panel = table1_panel()
        t, r = incidence_angles(Position3D(0, 0, 0), panel, Position3D(200, 0, 0))
        assert (t, r) == (math.pi / 4, math.pi / 4)

    def test_geometric_aligned_with_normal(self):
        panel = table1_panel(
            position=Position3D(0, 0, 0), angle_mode=GeometricAngles((0.0, 0.0, 1.0))
        )
        t, r = incidence_angles(Position3D(0, 0, 10), panel, Position3D(0, 0, 5))
        assert t == 0.0
        assert r == 0.0

    def test_geometric_in_plane_is_right_angle(self):
        panel = table1_panel(
            position=Position3D(0, 0, 0), angle_mode=GeometricAngles((0.0, 0.0, 1.0))
        )
        t, r = incidence_angles(Position3D(5, 0, 0), panel, Position3D(0, 0, 4))
        assert t == pytest.approx(math.pi / 2, abs=1e-12)
        assert r == 0.0

    def test_geometric_behind_surface(self):
        panel = table1_panel(
            position=Position3D(0, 0, 0), angle_mode=GeometricAngles((0.0, 0.0, 1.0))
        )
        with pytest.raises(BehindSurfaceError):
            incidence_angles(Position3D(0, 0, -3), panel, Position3D(0, 0, 4))

    def test_coincident_endpoint_rejected(self):
        panel = table1_panel(position=Position3D(1, 1, 1))
        with pytest.raises(ValueError):
            incidence_angles(Position3D(1, 1, 1), panel, Position3D(0, 0, 0))

    def test_fixed_angles_validated(self):
        with pytest.raises(ValueError):
            FixedAngles(-0.1, 0.2)
        with pytest.raises(ValueError):
            FixedAngles(0.1, math.pi / 2)

    def test_normal_must_be_unit(self):
        with pytest.raises(ValueError):
            GeometricAngles((0.0, 0.0, 2.0))


class TestIrsRxPower:
    def test_matches_high_precision_oracle(self):
        # frozen from the 50-digit factor-by-factor evaluation, R1 = R2 = 100
        panel = table1_panel()
        got = irs_rx_power(1.0, panel, Position3D(0, 0, 0), Position3D(200, 0, 0), ENV_130GHZ)
        assert got == pytest.approx(3.8482616569456789e-11, rel=1e-10)

    def test_zero_reflection_coefficient_kills_the_path(self):
        wl = ENV_130GHZ.wavelength
        panel = IrsPanel(
            elements_m=128,
            elements_n=128,
            element_len_x=wl / 2,
            element_len_y=wl / 2,
            reflection_coefficient=0.0,
            gain_tx=100.0,
            gain_rx=31.622776601683793,
            position=Position3D(100, 0, 0),
            angle_mode=FixedAngles(math.pi / 4, math.pi / 4),
        )
        assert irs_rx_power(1.0, panel, Position3D(0, 0, 0), Position3D(200, 0, 0), ENV_130GHZ) == 0.0

    def test_swap_symmetry_is_exact_for_equal_angles(self):
        rng = np.random.default_rng(17)
        panel = table1_panel(position=Position3D(10.0, -3.0, 7.0))
        for _ in range(100):
            a = Position3D(*rng.uniform(-100, 100, 3))
            b = Position3D(*rng.uniform(-100, 100, 3))
            forward = irs_rx_power(2.5, panel, a, b, ENV_130GHZ)
            backward = irs_rx_power(2.5, panel, b, a, ENV_130GHZ)
            assert forward == backward

    def test_behind_surface_maps_to_zero_power(self):
        panel = table1_panel(
            position=Position3D(0, 0, 5), angle_mode=GeometricAngles((0.0, 0.0, 1.0))
        )
        got = irs_rx_power(1.0, panel, Position3D(50, 0, 10), Position3D(20, 0, 1), ENV_130GHZ)
        assert got == 0.0

    def test_coincident_hop_rejected(self):
        panel = table1_panel(position=Position3D(5, 5, 5))
        with pytest.raises(ValueError):
            irs_rx_power(1.0, panel, Position3D(5, 5, 5), Position3D(0, 0, 0), ENV_130GHZ)

    def test_non_positive_power_rejected(self):
        panel = table1_panel()
        with pytest.raises(ValueError):
            irs_rx_power(0.0, panel, Position3D(0, 0, 0), Position3D(200, 0, 0), ENV_130GHZ)

    def test_monotone_in_hop_product(self):
        panel = table1_panel(position=Position3D(100, 0, 0))
        near = irs_rx_power(1.0, panel, Position3D(0, 0, 0), Position3D(150, 0, 0), ENV_130GHZ)
        far = irs_rx_power(1.0, panel, Position3D(0, 0, 0), Position3D(250, 0, 0), ENV_130GHZ)
        assert near > far


class TestPanelValidation:
    def test_rejects_bad_element_counts(self):
        wl = ENV_130GHZ.wavelength
        with pytest.raises(ValueError):
            IrsPanel(0, 128, wl / 2, wl / 2, 0.9, 100.0, 10.0, Position3D(0, 0, 0),
                     FixedAngles(0.1, 0.1))

    def test_rejects_reflection_out_of_range(self):
        wl = ENV_130GHZ.wavelength
        with pytest.raises(ValueError):
            IrsPanel(128, 128, wl / 2, wl / 2, 1.1, 100.0, 10.0, Position3D(0, 0, 0),
                     FixedAngles(0.1, 0.1))


class TestUnitConversions:
    def test_noise_floor_dbm(self):
        assert watts_to_dbm(1e-12) == pytest.approx(-90.0, abs=1e-12)

    def test_one_milliwatt(self):
        assert watts_to_dbm(1e-3) == 0.0

    def test_db_to_linear_15(self):
        assert db_to_linear(15.0) == 31.622776601683793

    def test_db_to_linear_zero(self):
        assert db_to_linear(0.0) == 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            dbm = float(rng.uniform(-120, 60))
            watts = db_to_linear(dbm) * 1e-3
            assert watts_to_dbm(watts) == pytest.approx(dbm, abs=1e-12)

    def test_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1e-3)

    def test_rejects_non_finite_gain(self):
        with pytest.raises(ValueError):
            db_to_linear(math.inf)


class TestScalingProperties:
    def test_doubling_transmit_power_doubles_conventional_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = float(10.0 ** rng.uniform(-3, 2))
            d = float(10.0 ** rng.uniform(0, 3))
            link = ConventionalLink(p, Position3D(0, 0, 0), Position3D(d, 0, 0), 3.0)
            double = ConventionalLink(2 * p, Position3D(0, 0, 0), Position3D(d, 0, 0), 3.0)
            assert conventional_rx_power(double, ENV_130GHZ) == 2.0 * conventional_rx_power(
                link, ENV_130GHZ
            )

    def test_doubling_transmit_power_doubles_cascade_exactly(self):
        rng = np.random.default_rng(29)
        panel = table1_panel(position=Position3D(40.0, 10.0, 3.0))
        for _ in range(200):
            p = float(10.0 ** rng.uniform(-3, 2))
            rx = Position3D(*rng.uniform(-50, 50, 3))
            assert irs_rx_power(2 * p, panel, Position3D(0, 0, 0), rx, ENV_130GHZ) == (
                2.0 * irs_rx_power(p, panel, Position3D(0, 0, 0), rx, ENV_130GHZ)
            )

    def test_conventional_power_strictly_decreases_with_distance(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d1, d2 = sorted(10.0 ** rng.uniform(-1, 4, 2))
            if d1 == d2:
                continue
            alpha = float(rng.uniform(2.0, 5.0))
            near = ConventionalLink(1.0, Position3D(0, 0, 0), Position3D(float(d1), 0, 0), alpha)
            far = ConventionalLink(1.0, Position3D(0, 0, 0), Position3D(float(d2), 0, 0), alpha)
            assert conventional_rx_power(near, ENV_130GHZ) > conventional_rx_power(far, ENV_130GHZ)
