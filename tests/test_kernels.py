"""The map kernels against the 50-digit oracle and against the scalar API.

coverage's array kernels (`_direct_signal`, `_interference_grid`,
`_reflected_signal`) and the scalar API in linkbudget and sinr evaluate
the same equations, written once in linkbudget.  The kernels are checked
here factor by factor against the mpmath references in `oracles.py`, at
criterion 2's 1e-10 relative bound, and the scalar API is checked to
agree with them to a few ulp on whole lattices.
"""

import math
import random
import struct
from dataclasses import replace

import numpy as np
import pytest

from irs_planner import (
    ConventionalLink,
    FixedAngles,
    GeometricAngles,
    InterferenceSource,
    IrsPanel,
    Position3D,
    RadioEnvironment,
    conventional_rx_power,
    default_scenario,
    distance,
    interference_power,
    irs_rx_power,
)
from irs_planner import coverage

from oracles import (
    hp_conventional_rx_power,
    hp_distance,
    hp_irs_rx_power,
    hp_irs_rx_power_geometric,
    rel_error,
)

MODES = ("fixed", "down", "tilted")


def _normal(rng, mode):
    if mode == "down":
        return (0.0, 0.0, -1.0)
    tilt = math.radians(rng.uniform(20.0, 70.0))
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    return (
        math.sin(tilt) * math.cos(azimuth),
        math.sin(tilt) * math.sin(azimuth),
        -math.cos(tilt),
    )


def _position(rng, low, high):
    """A point over the default 200 m cell at a height in [low, high]."""
    return Position3D(rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0), rng.uniform(low, high))


def _scenario(seed, mode, resolution):
    """A seeded scenario over the default cell; every input is drawn at random.

    Panels sit above the base station, so a downward normal serves every
    point and a tilted one leaves some points behind the panel.
    """
    rng = random.Random(seed)
    env = RadioEnvironment(
        carrier_frequency=rng.uniform(1e9, 3e11),
        pathloss_exponent_micro=rng.uniform(2.0, 4.5),
        pathloss_exponent_macro=rng.uniform(2.0, 4.5),
    )
    wl = env.wavelength
    if mode == "fixed":
        angle_mode = FixedAngles(rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5))
    else:
        angle_mode = GeometricAngles(_normal(rng, mode))
    panel = IrsPanel(
        elements_m=rng.randint(1, 256),
        elements_n=rng.randint(1, 256),
        element_len_x=rng.uniform(0.1, 1.0) * wl,
        element_len_y=rng.uniform(0.1, 1.0) * wl,
        reflection_coefficient=rng.uniform(0.05, 1.0),
        gain_tx=10.0 ** rng.uniform(0.0, 3.0),
        gain_rx=10.0 ** rng.uniform(0.0, 3.0),
        position=_position(rng, 9.0, 15.0),
        angle_mode=angle_mode,
    )
    power = 10.0 ** rng.uniform(-1.0, 1.0)
    return replace(
        default_scenario(),
        env=env,
        macro_bs=InterferenceSource(
            transmit_power=10.0 ** rng.uniform(0.0, 2.0),
            position=Position3D(rng.uniform(-300.0, 500.0), rng.uniform(-300.0, 500.0), 25.0),
            pathloss_exponent=env.pathloss_exponent_macro,
        ),
        micro_bs_position=_position(rng, 2.0, 8.0),
        micro_power_conventional=power,
        micro_power_irs=power * rng.uniform(0.1, 1.0),
        panel=panel,
        grid_resolution=resolution,
    )


def _triple(p):
    return (p.x, p.y, p.z)


def _hp_reflected(scenario, position, user):
    panel = scenario.panel
    mode = panel.angle_mode
    common = (
        scenario.micro_power_irs,
        scenario.env.carrier_frequency,
        panel.reflection_coefficient,
        panel.gain_tx,
        panel.gain_rx,
        panel.element_len_x,
        panel.element_len_y,
        panel.elements_m,
        panel.elements_n,
    )
    bs = _triple(scenario.micro_bs_position)
    if isinstance(mode, FixedAngles):
        return hp_irs_rx_power(*common, mode.theta_t, mode.theta_r, bs, position, user)
    return hp_irs_rx_power_geometric(*common, mode.normal, bs, position, user)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(3))
def test_kernels_match_extended_precision_oracle(seed, mode):
    scenario = _scenario(seed, mode, resolution=25.0)
    rng = random.Random(1000 + seed)
    x, y = coverage._lattice(scenario.micro_extent, scenario.grid_resolution)
    users = [(px, py, scenario.user_height) for px, py in zip(x.tolist(), y.tolist())]
    bs = _triple(scenario.micro_bs_position)

    direct, dead = coverage._direct_signal(scenario, x, y)
    assert not dead.any()
    power, alpha = scenario.micro_power_conventional, scenario.env.pathloss_exponent_micro
    f = scenario.env.carrier_frequency
    for got, user in zip(direct.tolist(), users):
        ref = hp_conventional_rx_power(power, f, hp_distance(bs, user), alpha)
        assert rel_error(got, ref) <= 1e-10

    interference, dead = coverage._interference_grid(scenario, x, y)
    assert not dead.any()
    [source] = scenario.interference_sources()
    for got, user in zip(interference.tolist(), users):
        separation = hp_distance(_triple(source.position), user)
        ref = hp_conventional_rx_power(
            source.transmit_power, f, separation, source.pathloss_exponent
        )
        assert rel_error(got, ref) <= 1e-10

    positions = [scenario.panel.position, _position(rng, 9.0, 15.0), _position(rng, 9.0, 15.0)]
    r1 = [distance(scenario.micro_bs_position, p) for p in positions]
    reflected, dead = coverage._reflected_signal(scenario, positions, r1, x, y)
    assert reflected.shape == (3, len(users)) and not dead.any()
    served = 0
    for row, position in zip(reflected.tolist(), positions):
        for got, user in zip(row, users):
            ref = _hp_reflected(scenario, _triple(position), user)
            if ref == 0:
                assert got == 0.0  # behind the panel
            else:
                assert rel_error(got, ref) <= 1e-10
                served += 1
    # the float dot product loses relative accuracy as 1/cos at grazing
    # incidence; these seeded geometries stay far from it
    if mode != "fixed":
        n0, n1, n2 = scenario.panel.angle_mode.normal
        for p in positions:
            dz = scenario.user_height - p.z
            dot = (x - p.x) * n0 + (y - p.y) * n1 + dz * n2
            assert np.abs(dot / np.hypot(np.hypot(x - p.x, y - p.y), dz)).min() > 1e-4
    if mode == "tilted":
        assert 0 < served < reflected.size  # some points behind the panel
    else:
        assert served == reflected.size


def _ulps(a, b):
    """Units in the last place between two non-negative floats."""
    bits = [struct.unpack("<q", struct.pack("<d", float(v)))[0] for v in (a, b)]
    return abs(bits[0] - bits[1])


@pytest.mark.parametrize("mode", MODES)
def test_scalar_api_agrees_with_kernels_on_full_lattices(mode):
    """Each scalar value lies within a few ulp of the kernel's.

    Direct and interference power differ only through `d ** alpha`, which
    numpy's vectorized power and libm's pow round differently.  Reflected
    power also differs through R2: the scalar API takes both hops from
    `distance`, which squares with libm's pow so that swapping the endpoints
    stays exact, while the kernels square arrays as products.  Over 300
    seeded scenarios per mode the largest gaps were 3 ulp (direct), 4 ulp
    (interference) and 7 ulp (reflected).
    """
    worst = {"reflected": 0, "direct": 0, "interference": 0}
    zeros = 0
    for seed in range(10):
        scenario = _scenario(100 + seed, mode, resolution=10.0)
        env = scenario.env
        bs = scenario.micro_bs_position
        panel_position = scenario.panel.position
        x, y = coverage._lattice(scenario.micro_extent, scenario.grid_resolution)
        direct, _ = coverage._direct_signal(scenario, x, y)
        interference, _ = coverage._interference_grid(scenario, x, y)
        r1 = distance(bs, panel_position)
        [reflected], _ = coverage._reflected_signal(scenario, [panel_position], [r1], x, y)
        sources = scenario.interference_sources()
        for k, (px, py) in enumerate(zip(x.tolist(), y.tolist())):
            user = Position3D(px, py, scenario.user_height)
            link = ConventionalLink(
                scenario.micro_power_conventional, bs, user, env.pathloss_exponent_micro
            )
            scalar = {
                "direct": conventional_rx_power(link, env),
                "interference": interference_power(user, sources, env),
                "reflected": irs_rx_power(scenario.micro_power_irs, scenario.panel, bs, user, env),
            }
            array = {
                "direct": direct[k], "interference": interference[k], "reflected": reflected[k]
            }
            for key, value in scalar.items():
                worst[key] = max(worst[key], _ulps(value, array[key]))
            zeros += scalar["reflected"] == 0.0
    assert worst["reflected"] <= 8, worst
    assert worst["direct"] <= 4, worst
    assert worst["interference"] <= 8, worst
    if mode == "tilted":
        assert zeros > 0  # some points behind the panel compare as exact zeros
