"""Unit tests for interference aggregation and SINR samples."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from irs_planner import (
    ConventionalLink,
    InterferenceSource,
    Position3D,
    RadioEnvironment,
    SinrSample,
    conventional_rx_power,
    default_scenario,
    interference_power,
    parse_scenario,
    sinr,
    sinr_map_conventional,
)
from irs_planner import coverage
from oracles import hp_conventional_rx_power, rel_error

ENV = RadioEnvironment(carrier_frequency=130e9)
ORIGIN = Position3D(0.0, 0.0, 0.0)


class TestInterferencePower:
    def test_no_sources(self):
        assert interference_power(ORIGIN, [], ENV) == 0.0

    def test_single_macro_source_matches_oracle(self):
        # frozen from the 50-digit evaluation: 50 W, alpha 4, 500 m, 130 GHz
        source = InterferenceSource(50.0, Position3D(500.0, 0.0, 0.0), 4.0)
        got = interference_power(ORIGIN, [source], ENV)
        assert got == pytest.approx(2.694169778529444e-17, rel=1e-12)

    def test_two_identical_sources_double_exactly(self):
        source = InterferenceSource(50.0, Position3D(500.0, 0.0, 0.0), 4.0)
        one = interference_power(ORIGIN, [source], ENV)
        two = interference_power(ORIGIN, [source, source], ENV)
        assert two == 2.0 * one

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            first = [
                InterferenceSource(
                    float(10.0 ** rng.uniform(-2, 2)),
                    Position3D(*rng.uniform(100, 1000, 3)),
                    float(rng.uniform(2, 5)),
                )
                for _ in range(rng.integers(1, 4))
            ]
            second = [
                InterferenceSource(
                    float(10.0 ** rng.uniform(-2, 2)),
                    Position3D(*rng.uniform(100, 1000, 3)),
                    float(rng.uniform(2, 5)),
                )
                for _ in range(rng.integers(1, 4))
            ]
            combined = interference_power(ORIGIN, first + second, ENV)
            split = interference_power(ORIGIN, first, ENV) + interference_power(
                ORIGIN, second, ENV
            )
            assert combined == pytest.approx(split, rel=1e-12)

    def test_order_independent(self):
        sources = [
            InterferenceSource(50.0, Position3D(500, 0, 0), 4.0),
            InterferenceSource(1.0, Position3D(100, 100, 10), 3.0),
            InterferenceSource(10.0, Position3D(-300, 200, 25), 4.0),
        ]
        assert interference_power(ORIGIN, sources, ENV) == interference_power(
            ORIGIN, sources[::-1], ENV
        )

    def test_zero_power_source_contributes_nothing(self):
        silent = InterferenceSource(0.0, Position3D(10, 0, 0), 4.0)
        assert interference_power(ORIGIN, [silent], ENV) == 0.0

    @pytest.mark.parametrize("x", [1e120, 1e80, 1e200])
    def test_far_source_carries_zero_power_as_the_maps_do(self, x):
        # the default macro station's alpha is 4, so D ** 4 overflows from
        # about 3.7e77 m (Python's ** raised OverflowError), and the square
        # from 1.3e154 m; the kernel gives 0.0 at every point
        scenario = default_scenario()
        scenario = dataclasses.replace(
            scenario,
            macro_bs=dataclasses.replace(scenario.macro_bs, position=Position3D(x, 0.0, 10.0)),
            grid_resolution=50.0,
        )
        [source] = scenario.interference_sources()
        px, py = coverage._lattice(scenario.micro_extent, scenario.grid_resolution)
        kernel = coverage._Kernel(scenario, 1, px.size)
        power, dead = kernel.signal[0], kernel.dead[0]
        kernel.power_law(
            px, py, source.position, source.transmit_power, source.pathloss_exponent, power, dead
        )
        for k, (ux, uy) in enumerate(zip(px.tolist(), py.tolist())):
            user = Position3D(ux, uy, scenario.user_height)
            got = interference_power(user, [source], scenario.env)
            assert got.hex() == float(power[k]).hex() == (0.0).hex()

    @pytest.mark.parametrize("x", [1e-90, 1e-82])
    def test_near_source_carries_infinite_power_as_the_maps_do(self, x):
        # the default macro station's alpha is 4, so D ** 4 underflows to 0.0
        # below about 1e-81 m (Python's / raised ZeroDivisionError); the
        # kernel gives +inf at the lattice point next to the source, the origin
        scenario = default_scenario()
        scenario = dataclasses.replace(
            scenario,
            macro_bs=dataclasses.replace(
                scenario.macro_bs, position=Position3D(x, 0.0, scenario.user_height)
            ),
            grid_resolution=50.0,
        )
        [source] = scenario.interference_sources()
        px, py = coverage._lattice(scenario.micro_extent, scenario.grid_resolution)
        kernel = coverage._Kernel(scenario, 1, px.size)
        power, dead = kernel.signal[0], kernel.dead[0]
        kernel.power_law(
            px, py, source.position, source.transmit_power, source.pathloss_exponent, power, dead
        )
        user = Position3D(float(px[0]), float(py[0]), scenario.user_height)
        got = interference_power(user, [source], scenario.env)
        assert got.hex() == float(power[0]).hex() == math.inf.hex()
        assert not dead[0]

    def test_coincident_source_rejected(self):
        source = InterferenceSource(1.0, ORIGIN, 4.0)
        with pytest.raises(ValueError):
            interference_power(ORIGIN, [source], ENV)

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            power = float(10.0 ** rng.uniform(-2, 2))
            d = float(10.0 ** rng.uniform(1, 4))
            alpha = float(rng.uniform(2, 5))
            source = InterferenceSource(power, Position3D(d, 0.0, 0.0), alpha)
            got = interference_power(ORIGIN, [source], ENV)
            ref = hp_conventional_rx_power(power, 130e9, d, alpha)
            assert rel_error(got, ref) < 1e-12

    def test_equals_conventional_rx_power_bit_for_bit(self):
        rng = np.random.default_rng(59)
        for trial in range(400):
            user = Position3D(*rng.uniform(-200, 200, 3).tolist())
            position = Position3D(*rng.uniform(-1000, 1000, 3).tolist())
            if trial % 8 == 3:  # a hop whose square overflows
                position = Position3D(1e200, position.y, position.z)
            power = 0.0 if trial % 10 == 0 else float(10.0 ** rng.uniform(-2, 2))
            source = InterferenceSource(power, position, float(rng.uniform(2, 5)))
            got = interference_power(user, [source], ENV)
            if power == 0.0:  # a silent source, which no ConventionalLink carries
                assert got == 0.0
                continue
            link = ConventionalLink(power, position, user, source.pathloss_exponent)
            assert got.hex() == conventional_rx_power(link, ENV).hex()

    def test_source_validation(self):
        with pytest.raises(ValueError):
            InterferenceSource(-1.0, ORIGIN, 4.0)
        with pytest.raises(ValueError):
            InterferenceSource(1.0, ORIGIN, 1.0)


class TestSinr:
    def test_unit_ratio_is_zero_db(self):
        sample = sinr(2e-12, 1e-12, 1e-12)
        assert sample.sinr_linear == 1.0
        assert sample.sinr_db == 0.0

    def test_thousandfold_noise_margin(self):
        # 2**-10 and 2**-20 are exact, so the quotient is exactly 1024
        sample = sinr(2.0**-10, 0.0, 2.0**-20)
        assert sample.sinr_linear == 1024.0
        assert sample.sinr_db == pytest.approx(10.0 * math.log10(1024.0), abs=1e-12)

    def test_direct_arithmetic_example(self):
        # frozen oracle: 1e-9 / (1e-11 + 1e-12)
        sample = sinr(1e-9, 1e-11, 1e-12)
        assert sample.sinr_linear == pytest.approx(90.90909090909092, rel=1e-15)
        assert sample.sinr_db == pytest.approx(19.58607314841775, abs=1e-12)

    def test_zero_signal_sentinel(self):
        sample = sinr(0.0, 1e-11, 1e-12)
        assert sample.sinr_linear == 0.0
        assert sample.sinr_db == -math.inf

    def test_fields_echo_inputs(self):
        sample = sinr(3e-10, 2e-11, 1e-12)
        assert sample.signal_power == 3e-10
        assert sample.interference_power == 2e-11
        assert sample.noise_power == 1e-12
        assert sample.sinr_linear == 3e-10 / (2e-11 + 1e-12)

    @pytest.mark.parametrize(
        "signal,interference,noise",
        [(-1e-12, 0.0, 1e-12), (1e-12, -1e-13, 1e-12), (1e-12, 0.0, 0.0),
         (1e-12, 0.0, -1e-12), (-math.inf, 0.0, 1e-12), (math.nan, 0.0, 1e-12),
         (1e-12, math.nan, 1e-12), (1e-12, 0.0, math.nan), (1e-12, -math.inf, 1e-12),
         (1e-12, 0.0, math.inf)],
    )
    def test_domain_errors(self, signal, interference, noise):
        message = "must be (non-negative and not NaN|finite and positive)"
        with pytest.raises(ValueError, match=message):
            sinr(signal, interference, noise)

    @pytest.mark.parametrize(
        "signal, interference, linear, db",
        [(math.inf, 1e-11, math.inf, math.inf), (1e-9, math.inf, 0.0, -math.inf),
         (math.inf, math.inf, 0.0, -math.inf)],
    )
    def test_infinite_powers(self, signal, interference, linear, db):
        sample = sinr(signal, interference, 1e-12)
        assert (sample.sinr_linear, sample.sinr_db) == (linear, db)
        assert (sample.signal_power, sample.interference_power) == (signal, interference)

    # a link shorter than about 1e-108 m (alpha 3) or 1e-81 m (alpha 4)
    # carries +inf W; at the origin the map writes +inf dB for an infinite
    # signal and the -inf sentinel for an infinite floor
    @pytest.mark.parametrize(
        "config, expected",
        [("micro_bs_x = 1e-120\nmicro_bs_y = 0\nmicro_bs_z = 1.5\n", math.inf),
         ("macro_bs_x = 1e-90\nmacro_bs_y = 0\nmacro_bs_z = 1.5\n", -math.inf)],
        ids=["infinite signal", "infinite interference"],
    )
    def test_scalar_chain_matches_the_map_next_to_a_station(self, config, expected):
        scenario = parse_scenario(config + "grid_resolution = 50\n")
        user = Position3D(0.0, 0.0, scenario.user_height)
        env = scenario.env
        link = ConventionalLink(
            scenario.micro_power_conventional, scenario.micro_bs_position, user,
            env.pathloss_exponent_micro,
        )
        sample = sinr(
            conventional_rx_power(link, env),
            interference_power(user, scenario.interference_sources(), env),
            env.noise_power,
        )
        assert sample.sinr_db == sinr_map_conventional(scenario).value_at(0, 0) == expected

    def test_monotone_in_signal(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            s1, s2 = sorted(10.0 ** rng.uniform(-15, -6, 2))
            if s1 == s2:
                continue
            i = float(10.0 ** rng.uniform(-15, -9))
            assert sinr(float(s1), i, 1e-12).sinr_linear < sinr(float(s2), i, 1e-12).sinr_linear

    def test_monotone_in_interference_and_noise(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            i1, i2 = sorted(10.0 ** rng.uniform(-15, -8, 2))
            if i1 == i2:
                continue
            assert sinr(1e-9, float(i2), 1e-12).sinr_linear < sinr(1e-9, float(i1), 1e-12).sinr_linear
            n1, n2 = sorted(10.0 ** rng.uniform(-14, -9, 2))
            if n1 == n2:
                continue
            assert sinr(1e-9, 0.0, float(n2)).sinr_linear < sinr(1e-9, 0.0, float(n1)).sinr_linear

    def test_ratio_homogeneity(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            s = float(10.0 ** rng.uniform(-14, -7))
            i = float(10.0 ** rng.uniform(-16, -9))
            n = float(10.0 ** rng.uniform(-14, -10))
            k = float(10.0 ** rng.uniform(-3, 3))
            base = sinr(s, i, n).sinr_linear
            scaled = sinr(k * s, k * i, k * n).sinr_linear
            assert scaled == pytest.approx(base, rel=1e-12)


class TestSinrSampleContract:
    """The written constructor keeps the generated dataclass contract."""

    ARGS = (1.0, 0.25, 0.25, 2.0, 3.0102999566398121)
    FIELDS = ("signal_power", "interference_power", "noise_power", "sinr_linear", "sinr_db")
    REPR = (
        "SinrSample(signal_power=1.0, interference_power=0.25, noise_power=0.25, "
        "sinr_linear=2.0, sinr_db=3.010299956639812)"
    )

    def test_positional_and_keyword_construction(self):
        sample = SinrSample(*self.ARGS)
        assert SinrSample(**dict(zip(self.FIELDS, self.ARGS))) == sample
        for field, arg in zip(self.FIELDS, self.ARGS):
            assert getattr(sample, field) is arg
        assert sinr(1.0, 0.25, 0.25) == sample

    def test_missing_or_extra_argument_raises_type_error(self):
        with pytest.raises(TypeError):
            SinrSample(*self.ARGS[:-1])
        with pytest.raises(TypeError):
            SinrSample(*self.ARGS, 0.0)
        with pytest.raises(TypeError):
            SinrSample(**dict(zip(self.FIELDS, self.ARGS)), sinr=2.0)

    def test_eq_and_hash(self):
        assert SinrSample(*self.ARGS) == SinrSample(*self.ARGS)
        assert hash(SinrSample(*self.ARGS)) == hash(SinrSample(*self.ARGS))
        assert SinrSample(*self.ARGS) != SinrSample(*self.ARGS[:-1], 3.0)

    def test_repr_fields_and_asdict(self):
        sample = SinrSample(*self.ARGS)
        assert repr(sample) == self.REPR
        assert tuple(f.name for f in dataclasses.fields(sample)) == self.FIELDS
        assert dataclasses.asdict(sample) == dict(zip(self.FIELDS, self.ARGS))

    def test_frozen(self):
        sample = SinrSample(*self.ARGS)
        for field in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sample, field, 0.0)

    @pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
    def test_pickle_and_deepcopy_round_trip(self, clone):
        sample = SinrSample(*self.ARGS)
        copied = clone(sample)
        assert copied == sample and repr(copied) == self.REPR
