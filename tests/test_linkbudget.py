"""Unit tests for the direct and cascaded link budget relations."""

import copy
import dataclasses
import math
import pickle

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
    default_scenario,
    distance,
    element_scatter_gain,
    incidence_angles,
    irs_rx_power,
    parse_scenario,
    watts_to_dbm,
    wavelength,
)
from irs_planner import coverage, linkbudget
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

    @pytest.mark.parametrize(
        "x, alpha", [(1e120, 3.0), (1e120, 4.0), (1e80, 4.0), (1e200, 3.0)]
    )
    def test_far_link_carries_zero_power_as_the_maps_do(self, x, alpha):
        # D ** alpha overflows (Python's ** raised OverflowError), or the
        # square already does (1e200); the kernel gives 0.0 at every point
        scenario = dataclasses.replace(
            default_scenario(),
            micro_bs_position=Position3D(x, 0.0, 5.0),
            env=dataclasses.replace(default_scenario().env, pathloss_exponent_micro=alpha),
            grid_resolution=50.0,
        )
        px, py = coverage._lattice(scenario.micro_extent, scenario.grid_resolution)
        kernel = coverage._Kernel(scenario, 1, px.size)
        power, dead = kernel.signal[0], kernel.dead[0]
        bs = scenario.micro_bs_position
        kernel.power_law(px, py, bs, scenario.micro_power_conventional, alpha, power, dead)
        for k, (ux, uy) in enumerate(zip(px.tolist(), py.tolist())):
            user = Position3D(ux, uy, scenario.user_height)
            link = ConventionalLink(scenario.micro_power_conventional, bs, user, alpha)
            got = conventional_rx_power(link, scenario.env)
            assert got.hex() == float(power[k]).hex() == (0.0).hex()
        assert (coverage.sinr_map_conventional(scenario).values == -math.inf).all()

    @pytest.mark.parametrize(
        "x, alpha", [(1e-120, 3.0), (1e-105, 3.0), (1e-90, 4.0), (1e-82, 4.0)]
    )
    def test_near_link_carries_infinite_power_as_the_maps_do(self, x, alpha):
        # D ** alpha underflows to 0.0 (Python's / raised ZeroDivisionError),
        # or the quotient overflows (1e-105 at 10 W); the kernel gives +inf
        # at the lattice point next to the station, the origin
        scenario = dataclasses.replace(
            default_scenario(),
            micro_bs_position=Position3D(x, 0.0, default_scenario().user_height),
            env=dataclasses.replace(default_scenario().env, pathloss_exponent_micro=alpha),
            grid_resolution=50.0,
        )
        px, py = coverage._lattice(scenario.micro_extent, scenario.grid_resolution)
        kernel = coverage._Kernel(scenario, 1, px.size)
        power, dead = kernel.signal[0], kernel.dead[0]
        bs = scenario.micro_bs_position
        kernel.power_law(px, py, bs, scenario.micro_power_conventional, alpha, power, dead)
        user = Position3D(float(px[0]), float(py[0]), scenario.user_height)
        link = ConventionalLink(scenario.micro_power_conventional, bs, user, alpha)
        got = conventional_rx_power(link, scenario.env)
        assert got.hex() == float(power[0]).hex() == math.inf.hex()
        assert not dead[0]
        assert coverage.sinr_map_conventional(scenario).values[0] == math.inf

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

    def test_zero_power_exactly_where_incidence_angles_raises(self):
        rng = np.random.default_rng(61)
        panel = table1_panel(
            position=Position3D(0, 0, 8), angle_mode=GeometricAngles((0.6, 0.0, -0.8))
        )
        behind = 0
        for _ in range(400):
            tx = Position3D(*rng.uniform(-50, 50, 3))
            rx = Position3D(*rng.uniform(-50, 50, 3))
            power = irs_rx_power(1.0, panel, tx, rx, ENV_130GHZ)
            try:
                incidence_angles(tx, panel, rx)
            except BehindSurfaceError:
                behind += 1
                assert power == 0.0
            else:
                assert power > 0.0
        assert 0 < behind < 400

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


# Each record with positional arguments, and what its generated methods
# must show for them, written out by hand.
RECORDS = {
    "Position3D": (
        Position3D,
        (1.0, 2.5, -3.0),
        "Position3D(x=1.0, y=2.5, z=-3.0)",
        {"x": 1.0, "y": 2.5, "z": -3.0},
    ),
    "ConventionalLink": (
        ConventionalLink,
        (10.0, Position3D(0.0, 0.0, 0.0), Position3D(3.0, 4.0, 0.0), 3.0),
        "ConventionalLink(transmit_power=10.0, transmitter=Position3D(x=0.0, y=0.0, z=0.0), "
        "receiver=Position3D(x=3.0, y=4.0, z=0.0), pathloss_exponent=3.0)",
        {
            "transmit_power": 10.0,
            "transmitter": {"x": 0.0, "y": 0.0, "z": 0.0},
            "receiver": {"x": 3.0, "y": 4.0, "z": 0.0},
            "pathloss_exponent": 3.0,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordContract:
    """The written constructors keep the generated dataclass contract."""

    def test_positional_and_keyword_construction(self, name):
        cls, args, _, expected = RECORDS[name]
        record = cls(*args)
        assert cls(**dict(zip(expected, args))) == record
        for field, arg in zip(expected, args):
            assert getattr(record, field) is arg

    def test_missing_or_extra_argument_raises_type_error(self, name):
        cls, args, _, expected = RECORDS[name]
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, 1.0)
        with pytest.raises(TypeError):
            cls(**dict(zip(expected, args)), _separation=5.0)

    def test_eq_and_hash(self, name):
        cls, args, _, _ = RECORDS[name]
        assert cls(*args) == cls(*args)
        assert hash(cls(*args)) == hash(cls(*args))
        assert cls(*args) != cls(*args[:-1], 7.0)

    def test_repr_fields_and_asdict(self, name):
        cls, args, text, expected = RECORDS[name]
        record = cls(*args)
        assert repr(record) == text
        assert [f.name for f in dataclasses.fields(record)] == list(expected)
        assert dataclasses.asdict(record) == expected

    def test_frozen(self, name):
        cls, args, _, expected = RECORDS[name]
        record = cls(*args)
        for field in expected:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field)

    @pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy])
    def test_pickle_and_deepcopy_round_trip(self, name, clone):
        cls, args, text, _ = RECORDS[name]
        record = cls(*args)
        copied = clone(record)
        assert copied == record and repr(copied) == text


class TestRecordReplace:
    def test_replace_checks_the_link(self):
        link = ConventionalLink(1.0, Position3D(0, 0, 0), Position3D(3, 4, 0), 2.0)
        with pytest.raises(ValueError, match="^transmitter and receiver must not coincide$"):
            dataclasses.replace(link, receiver=link.transmitter)

    def test_replace_checks_the_position(self):
        p = Position3D(1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="^Position3D.x must be finite$"):
            dataclasses.replace(p, x=math.nan)
        for field in ("y", "z"):
            with pytest.raises(ValueError, match=f"^Position3D.{field} must be finite$"):
                dataclasses.replace(p, **{field: math.inf})

    def test_copies_of_a_link_keep_their_own_separation(self):
        link = ConventionalLink(1.0, Position3D(0, 0, 0), Position3D(3, 4, 0), 2.0)
        moved = dataclasses.replace(link, receiver=Position3D(6, 8, 0))
        fresh = ConventionalLink(1.0, Position3D(0, 0, 0), Position3D(6, 8, 0), 2.0)
        assert conventional_rx_power(moved, ENV_130GHZ) == conventional_rx_power(fresh, ENV_130GHZ)
        for copied in (pickle.loads(pickle.dumps(link)), copy.deepcopy(link)):
            assert conventional_rx_power(copied, ENV_130GHZ).hex() == (
                conventional_rx_power(link, ENV_130GHZ).hex()
            )

    def test_a_link_pickled_before_it_kept_its_separation_loads(self):
        link = ConventionalLink(1.0, Position3D(0, 0, 0), Position3D(3, 4, 7), 3.5)
        before = copy.copy(link)
        del before.__dict__["_separation"]
        # a pickle holds the state without it, and loads through
        # copyreg.__newobj__ and __setstate__
        assert pickle.dumps(before).count(b"_separation") == 0
        old = pickle.loads(pickle.dumps(before))
        assert old == link and vars(old) == vars(link)
        assert conventional_rx_power(old, ENV_130GHZ).hex() == (
            conventional_rx_power(link, ENV_130GHZ).hex()
        )
        copied = pickle.loads(pickle.dumps(link))
        assert vars(copied) == vars(link)


class TestCascadeGainMemo:
    """A memoized gain gives what a fresh panel computes: the same bits and type."""

    TX = Position3D(0.0, 0.0, 0.0)
    RX = Position3D(200.0, 30.0, 1.5)

    def assert_uncached(self, power, panel, env=ENV_130GHZ):
        got = irs_rx_power(power, panel, self.TX, self.RX, env)
        want = irs_rx_power(power, dataclasses.replace(panel), self.TX, self.RX, env)
        assert type(got) is type(want)
        assert float(got).hex() == float(want).hex()

    def test_a_different_power(self):
        panel = table1_panel()
        for power in (1.0, 2.5, 1.0, 1e-3):
            self.assert_uncached(power, panel)

    def test_a_different_wavelength(self):
        # wl**2 cancels against G_sc, so the gain moves only in its last
        # bits; at 2.4 and 5.8 GHz they differ from 130 GHz's
        panel = table1_panel()
        for frequency in (130e9, 2.4e9, 5.8e9, 130e9):
            self.assert_uncached(1.0, panel, RadioEnvironment(carrier_frequency=frequency))

    def test_an_int_power_then_the_equal_float(self):
        panel = table1_panel()
        for power in (2, 2.0, 2):
            self.assert_uncached(power, panel)

    def test_a_numpy_power(self):
        panel = table1_panel()
        for power in (1.0, np.float64(1.0), 1.0):
            self.assert_uncached(power, panel)
        assert type(irs_rx_power(np.float64(1.0), panel, self.TX, self.RX, ENV_130GHZ)) is (
            np.float64
        )

    def test_a_replaced_panel(self):
        panel = table1_panel()
        self.assert_uncached(1.0, panel)
        self.assert_uncached(1.0, dataclasses.replace(panel, gain_tx=3.0))
        self.assert_uncached(1.0, dataclasses.replace(panel, elements_m=64))

    def test_an_overflowing_gain_stores_nothing(self, monkeypatch):
        panel = dataclasses.replace(table1_panel(), elements_m=10**200)
        cascade_gain = linkbudget._cascade_gain
        calls = []

        def counted(*args):
            calls.append(args)
            return cascade_gain(*args)

        monkeypatch.setattr(linkbudget, "_cascade_gain", counted)
        for _ in range(2):
            with pytest.raises(OverflowError):
                irs_rx_power(1.0, panel, self.TX, self.RX, ENV_130GHZ)
        assert len(calls) == 2

    def test_a_scenario_leaves_its_gain_memoized(self, monkeypatch):
        scenario = parse_scenario("micro_power_irs = 2.5\n")

        def uncalled(*args):
            raise AssertionError("the scenario's gain was not memoized")

        want = irs_rx_power(2.5, dataclasses.replace(scenario.panel), self.TX, self.RX, scenario.env)
        monkeypatch.setattr(linkbudget, "_cascade_gain", uncalled)
        got = irs_rx_power(2.5, scenario.panel, self.TX, self.RX, scenario.env)
        assert got.hex() == want.hex()
