"""The SINR kernel against the 50-digit oracle, the scalar API and its own past.

coverage's array kernel (`_Kernel.power_law`, `.floor`, `.reflected` and
`.sinr_db`, which write into the kernel's named buffers and which
`coverage._sinr_batches` drives for every map and scorer) and the scalar
API in linkbudget and sinr evaluate the same equations, in the same
order.  The kernel is checked here factor by factor against the mpmath
references in `oracles.py`, at criterion 2's 1e-10 relative bound, and
the scalar API is checked against it on whole lattices: bit for bit for
the reflected path, and to a few ulp where `d ** alpha` enters.  Its dB
values are also checked bit for bit against the unbuffered numpy
expressions it replaced, written out below, through every mask and at
every batch and block size.
"""

import math
import random
import struct
import warnings
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
from irs_planner import coverage, linkbudget, placement

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


def _power_law(scenario, x, y, tx, power, alpha):
    """The kernel's power from one transmitter over x, y, and the points on it."""
    kernel = coverage._Kernel(scenario, 1, x.size)
    kernel.power_law(x, y, tx, power, alpha, kernel.signal[0], kernel.dead[0])
    return kernel.signal[0], kernel.dead[0]


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

    # a kernel per call: each result is a view of its kernel's buffers
    power, alpha = scenario.micro_power_conventional, scenario.env.pathloss_exponent_micro
    direct, dead = _power_law(scenario, x, y, scenario.micro_bs_position, power, alpha)
    assert not dead.any()
    f = scenario.env.carrier_frequency
    for got, user in zip(direct.tolist(), users):
        ref = hp_conventional_rx_power(power, f, hp_distance(bs, user), alpha)
        assert rel_error(got, ref) <= 1e-10

    [source] = scenario.interference_sources()
    interference, dead = _power_law(
        scenario, x, y, source.position, source.transmit_power, source.pathloss_exponent
    )
    assert not dead.any()
    for got, user in zip(interference.tolist(), users):
        separation = hp_distance(_triple(source.position), user)
        ref = hp_conventional_rx_power(
            source.transmit_power, f, separation, source.pathloss_exponent
        )
        assert rel_error(got, ref) <= 1e-10
    # the floor is the one source's power plus the noise, bit for bit
    kernel = coverage._Kernel(scenario, 1, x.size)
    kernel.floor(x, y)
    assert not kernel.floor_dead.any()
    assert np.array_equal(kernel.floor_power, interference + scenario.env.noise_power)

    positions = [scenario.panel.position, _position(rng, 9.0, 15.0), _position(rng, 9.0, 15.0)]
    kernel = coverage._Kernel(scenario, len(positions), x.size)
    kernel.reflected(np.array([_triple(p) for p in positions]), x, y)
    reflected, dead = kernel.signal, kernel.dead
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
    """Reflected power is the kernel's to the bit; the rest within a few ulp.

    Both sides square every coordinate difference and hop length as a
    product, which IEEE arithmetic rounds correctly, in the same order, so
    the cascade has one set of bits.  Direct and interference power still
    differ through `d ** alpha`, which numpy's vectorized power and libm's
    pow round differently; over 60 seeded scenarios per mode the largest
    gaps were 3 ulp for both, so 4 leaves a margin.
    """
    worst = {"reflected": 0, "direct": 0, "interference": 0}
    zeros = 0
    for seed in range(10):
        scenario = _scenario(100 + seed, mode, resolution=10.0)
        env = scenario.env
        bs = scenario.micro_bs_position
        panel_position = scenario.panel.position
        x, y = coverage._lattice(scenario.micro_extent, scenario.grid_resolution)
        direct, _ = _power_law(
            scenario, x, y, bs, scenario.micro_power_conventional, env.pathloss_exponent_micro
        )
        sources = scenario.interference_sources()
        [source] = sources
        interference, _ = _power_law(
            scenario, x, y, source.position, source.transmit_power, source.pathloss_exponent
        )
        kernel = coverage._Kernel(scenario, 1, x.size)
        kernel.reflected(np.array([_triple(panel_position)]), x, y)
        [reflected] = kernel.signal
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
    assert worst["reflected"] == 0, worst
    assert worst["direct"] <= 4, worst
    assert worst["interference"] <= 4, worst
    if mode == "tilted":
        assert zeros > 0  # some points behind the panel compare as exact zeros


def _written_out_db(scenario, positions, x, y):
    """SINR in dB, one row per panel position (None: direct service).

    These are the expressions the kernel replaced, each step one numpy
    expression that allocates its result, so they pin the kernel's
    operation order bit for bit.
    """
    env, uh = scenario.env, scenario.user_height
    bs = scenario.micro_bs_position

    def power_law(tx, power, alpha):
        d = np.sqrt((x - tx.x) * (x - tx.x) + (y - tx.y) * (y - tx.y) + (uh - tx.z) * (uh - tx.z))
        with np.errstate(divide="ignore", invalid="ignore"):
            signal = power * env.wavelength ** 2 / (d ** alpha * 16.0 * math.pi ** 2)
        return np.where(d == 0.0, 0.0, signal), d == 0.0

    interference = np.zeros_like(x)
    dead_i = np.zeros(x.shape, dtype=bool)
    for s in scenario.interference_sources():
        power, on_source = power_law(s.position, s.transmit_power, s.pathloss_exponent)
        dead_i = dead_i | on_source
        interference = interference + power
    if positions is None:
        signal, dead = power_law(bs, scenario.micro_power_conventional,
                                 env.pathloss_exponent_micro)
        signal, dead = signal[None, :], dead[None, :]
    else:
        panel = scenario.panel
        dx = x - np.array([p.x for p in positions])[:, None]
        dy = y - np.array([p.y for p in positions])[:, None]
        dz = np.array([uh - p.z for p in positions])[:, None]
        r2 = np.sqrt(dx * dx + dy * dy + dz * dz)
        dead = r2 == 0.0
        mode = panel.angle_mode
        if isinstance(mode, FixedAngles):
            cos_t, cos_r = math.cos(mode.theta_t), math.cos(mode.theta_r)
        else:
            n0, n1, n2 = mode.normal
            cos_t = np.array([
                max((
                    (bs.x - p.x) * n0 + (bs.y - p.y) * n1 + (bs.z - p.z) * n2
                ) / distance(bs, p), 0.0)
                for p in positions
            ])[:, None]
            with np.errstate(invalid="ignore", divide="ignore"):
                cos_r = (dx * n0 + dy * n1 + dz * n2) / r2
            cos_r = np.where(dead | (cos_r < 0.0), 0.0, cos_r)
        r1 = np.array([distance(bs, p) for p in positions])[:, None]
        gain = linkbudget._cascade_gain(scenario.micro_power_irs, panel, env.wavelength)
        with np.errstate(divide="ignore", invalid="ignore"):
            signal = gain * cos_t * cos_r / ((r1 * r2) * (r1 * r2) * 64.0 * math.pi ** 3)
        signal = np.where(dead, 0.0, signal)
    with np.errstate(divide="ignore", over="ignore"):
        linear = signal / (interference + env.noise_power)
        db = np.where(linear > 0.0, 10.0 * np.log10(np.where(linear > 0.0, linear, 1.0)), -math.inf)
    return np.where(dead | dead_i, -math.inf, db)


def _hex(values):
    return [float.hex(v) for v in np.asarray(values).ravel().tolist()]


def _masked_scenario(mode):
    """A seeded scenario on a 17 x 17 lattice with the macro station on edge point 0."""
    scenario = _scenario(7, mode, resolution=12.5)
    x, y = coverage._perimeter(scenario.micro_extent, scenario.grid_resolution)
    on_edge = Position3D(float(x[0]), float(y[0]), scenario.user_height)
    return replace(scenario, macro_bs=replace(scenario.macro_bs, position=on_edge))


def _masked_positions(scenario):
    """Panel positions that reach each mask of the kernel, and some that reach none.

    In order: on edge point 5 (a point on the panel); just below the
    station (the station is behind a downward or tilted panel); below the
    user plane (every point behind a downward panel); six seeded ones.
    """
    rng = random.Random(11)
    bs = scenario.micro_bs_position
    x, y = coverage._perimeter(scenario.micro_extent, scenario.grid_resolution)
    return [
        Position3D(float(x[5]), float(y[5]), scenario.user_height),
        Position3D(bs.x, bs.y, bs.z - 0.5),
        Position3D(100.0, 100.0, scenario.user_height - 1.0),
    ] + [_position(rng, 9.0, 15.0) for _ in range(6)]


def _scored(call, monkeypatch):
    """What `call` returns, the dB rows its kernel summarized, and its warnings."""
    rows = []
    summarize = coverage._summarize

    def record(db, terms):
        rows.append(db.copy())
        return summarize(db, terms)

    monkeypatch.setattr(coverage, "_summarize", record)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, np.concatenate(rows), [str(w.message) for w in caught]


def test_floor_works_in_its_own_rows():
    # the macro station on edge point 0, so the floor has a point on a source
    scenario = _masked_scenario("tilted")
    x, y = coverage._perimeter(scenario.micro_extent, scenario.grid_resolution)
    kernel = coverage._Kernel(scenario, 2, x.size)
    kernel.signal.fill(-7.5)
    kernel.dead.fill(True)
    kernel.floor(x, y)
    assert (kernel.signal == -7.5).all() and kernel.dead.all()
    [source] = scenario.interference_sources()
    interference, on_source = _power_law(
        scenario, x, y, source.position, source.transmit_power, source.pathloss_exponent
    )
    assert _hex(kernel.floor_power) == _hex(interference + scenario.env.noise_power)
    assert kernel.floor_dead.tolist() == on_source.tolist() and on_source[0]


# 64 edge points: one position per batch, batches of 4, 4 and 1, one batch
CHUNKS = {"one element": 1, "partial last batch": 4 * 64, "default": 1 << 15}


@pytest.mark.parametrize("chunk", sorted(CHUNKS))
@pytest.mark.parametrize("mode", MODES)
def test_scorer_db_follows_the_written_out_operation_order(mode, chunk, monkeypatch):
    scenario = _masked_scenario(mode)
    positions = _masked_positions(scenario)
    x, y = coverage._perimeter(scenario.micro_extent, scenario.grid_resolution)
    expected = _written_out_db(scenario, positions, x, y)
    monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", CHUNKS[chunk])
    stats, got, messages = _scored(
        lambda: coverage.edge_stats_reflected(scenario, positions), monkeypatch
    )
    assert _hex(got) == _hex(expected)
    assert [s.min_db for s in stats] == got.min(axis=1).tolist()
    # one warning per call: the macro station in every row, the panel on point 5
    assert messages == [
        f"{len(positions) + 1} grid point(s) coincide with a transmitter; "
        "writing the -inf sentinel there"
    ]
    assert (got[:, 0] == -math.inf).all() and got[0, 5] == -math.inf
    served = (got > -math.inf).sum(axis=1).tolist()
    edge = len(x) - 1  # the macro station's point never is
    if mode == "fixed":
        assert served == [edge - 1] + [edge] * (len(positions) - 1)
    if mode == "down":
        # a panel at user height serves no point of the plane; the station
        # is behind the second panel, and every point behind the third
        assert served == [0, 0, 0] + [edge] * 6
    if mode == "tilted":
        assert served[1] == 0  # the station behind the panel
        assert any(0 < n < edge for n in served)  # some points behind the panel

    _, got, messages = _scored(lambda: coverage.edge_stats_direct(scenario), monkeypatch)
    assert _hex(got) == _hex(_written_out_db(scenario, None, x, y))
    assert len(messages) == 1 and messages[0].startswith("1 grid point(s)")


@pytest.mark.parametrize("chunk", sorted(CHUNKS))
@pytest.mark.parametrize("mode", MODES)
def test_compare_scores_both_models_in_one_pass(mode, chunk, monkeypatch):
    scenario = _masked_scenario(mode)
    x, y = coverage._perimeter(scenario.micro_extent, scenario.grid_resolution)
    direct = _written_out_db(scenario, None, x, y)
    monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", CHUNKS[chunk])
    summarized = []
    summarize = coverage._summarize

    def record(db, terms):
        summarized.append(db.copy())
        return summarize(db, terms)

    monkeypatch.setattr(coverage, "_summarize", record)
    for k, position in enumerate(_masked_positions(scenario)):
        summarized.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = placement.compare_models(scenario, position)
        got = np.concatenate(summarized)
        reflected = _written_out_db(scenario, [position], x, y)
        assert _hex(got) == _hex(np.concatenate([direct, reflected]))
        # the direct row first, then the reflected one, as one (2, n) array
        # unless a batch holds a single row
        shapes = [(1, len(x))] * 2 if chunk == "one element" else [(2, len(x))]
        assert [db.shape for db in summarized] == shapes
        for stats, row in zip((report.conventional_edge, report.irs_edge), got):
            assert (stats.min_db, stats.max_db) == (row.min(), row.max())
        # one warning per call: the macro station's edge point in both rows,
        # and edge point 5 in the reflected row when the panel is on it
        assert [str(w.message) for w in caught] == [
            f"{3 if k == 0 else 2} grid point(s) coincide with a transmitter; "
            "writing the -inf sentinel there"
        ]


@pytest.mark.filterwarnings("ignore:.*coincide with a transmitter:RuntimeWarning")
@pytest.mark.parametrize("mode", MODES)
def test_maps_in_one_row_blocks_equal_the_whole_map(mode, monkeypatch):
    # each block is a copy: views of the kernel's reused buffers would all
    # hold the last block's values once the map joins them
    scenario = _masked_scenario(mode)
    x, y = coverage._lattice(scenario.micro_extent, scenario.grid_resolution)
    maps = (coverage.sinr_map_irs, coverage.sinr_map_conventional)
    whole = [f(scenario).values for f in maps]
    assert _hex(whole[0]) == _hex(_written_out_db(scenario, [scenario.panel.position], x, y))
    assert _hex(whole[1]) == _hex(_written_out_db(scenario, None, x, y))
    monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", 1)
    for f, values in zip(maps, whole):
        assert f(scenario).values.tobytes() == values.tobytes()
