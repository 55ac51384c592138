"""Scenario assembly and the flat key = value configuration format.

A scenario bundles everything one planning run needs: the radio
environment, the two-tier cell geometry, both serving powers, the panel,
and the sampling settings.  Config files are plain ``key = value`` lines
with ``#`` comments; omitted keys fall back to the documented defaults,
unknown keys are hard errors.  Values use SI units (hertz, watts,
meters, radians); ``_db``/``_dbm``/``_deg`` key variants are converted
at load time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .coverage import CellExtent
from .linkbudget import (
    FixedAngles,
    GeometricAngles,
    IrsPanel,
    Position3D,
    RadioEnvironment,
    db_to_linear,
)
from .sinr import InterferenceSource

# Default radio parameters.
DEFAULT_CARRIER_FREQUENCY = 130e9  # Hz
DEFAULT_NOISE_POWER = 1e-12  # W, equals -90 dBm
DEFAULT_PATHLOSS_EXPONENT_MICRO = 3.0
DEFAULT_PATHLOSS_EXPONENT_MACRO = 4.0
DEFAULT_MACRO_BS_POWER = 50.0  # W
DEFAULT_MICRO_POWER_CONVENTIONAL = 10.0  # W
DEFAULT_MICRO_POWER_IRS = 1.0  # W
DEFAULT_IRS_ELEMENTS = 128  # per panel axis
DEFAULT_REFLECTION_COEFFICIENT = 0.9
DEFAULT_GAIN_TX_DB = 20.0
DEFAULT_GAIN_RX_DB = 15.0
DEFAULT_INCIDENCE_ANGLE = math.pi / 4  # rad

# Default layout: a 200 m micro cell in the corner of a 1000 m macro cell,
# the macro station at the macro-cell center, the micro station and panel
# at the micro-cell center.
DEFAULT_MACRO_EXTENT = CellExtent(0.0, 0.0, 1000.0, 1000.0)
DEFAULT_MICRO_EXTENT = CellExtent(0.0, 0.0, 200.0, 200.0)
DEFAULT_MACRO_BS_HEIGHT = 10.0  # m
DEFAULT_MICRO_BS_POSITION = Position3D(100.0, 100.0, 5.0)
DEFAULT_IRS_POSITION = Position3D(100.0, 100.0, 6.0)
DEFAULT_USER_HEIGHT = 1.5  # m
DEFAULT_GRID_RESOLUTION = 1.0  # m


class Objective(enum.Enum):
    """Cell-edge statistic a placement is ranked by."""

    EDGE_MIN = "min"
    EDGE_MEAN = "mean"


class ConfigError(ValueError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class Scenario:
    """A complete two-tier planning scenario.

    Every field is required: default_scenario, parse_scenario and
    load_scenario supply the defaults.
    """

    env: RadioEnvironment
    macro_extent: CellExtent
    micro_extent: CellExtent
    macro_bs: InterferenceSource
    micro_bs_position: Position3D
    micro_power_conventional: float
    micro_power_irs: float
    panel: IrsPanel
    user_height: float
    grid_resolution: float
    objective: Objective

    def __post_init__(self) -> None:
        if not self.macro_extent.contains(self.micro_extent):
            raise ValueError("micro_extent must lie inside macro_extent")
        for name in ("micro_power_conventional", "micro_power_irs"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.grid_resolution) and self.grid_resolution > 0):
            raise ValueError("grid_resolution must be positive")
        if not math.isfinite(self.user_height):
            raise ValueError("user_height must be finite")

    def interference_sources(self) -> list[InterferenceSource]:
        """Sources heard inside the micro cell; the macro station by default."""
        return [self.macro_bs]


def default_scenario() -> Scenario:
    """The all-defaults scenario: the config text with no keys."""
    return parse_scenario("")


# Configuration schema: key -> how to apply one parsed value.  Triples
# (positions, the panel normal) are spelled as comma-separated floats.
_FLOAT_KEYS = {
    "carrier_frequency",
    "noise_power",
    "noise_power_dbm",
    "pathloss_exponent_micro",
    "pathloss_exponent_macro",
    "macro_origin_x",
    "macro_origin_y",
    "macro_width",
    "macro_depth",
    "micro_origin_x",
    "micro_origin_y",
    "micro_width",
    "micro_depth",
    "macro_bs_power",
    "macro_bs_x",
    "macro_bs_y",
    "macro_bs_z",
    "micro_bs_x",
    "micro_bs_y",
    "micro_bs_z",
    "micro_power_conventional",
    "micro_power_irs",
    "irs_x",
    "irs_y",
    "irs_z",
    "irs_element_len_x",
    "irs_element_len_y",
    "irs_reflection_coefficient",
    "irs_gain_tx",
    "irs_gain_rx",
    "irs_gain_tx_db",
    "irs_gain_rx_db",
    "irs_theta_t_rad",
    "irs_theta_r_rad",
    "irs_theta_t_deg",
    "irs_theta_r_deg",
    "user_height",
    "grid_resolution",
}
_INT_KEYS = {"irs_elements_m", "irs_elements_n"}
_TRIPLE_KEYS = {"irs_normal"}
_CHOICE_KEYS = {"objective": ("min", "mean")}
_KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _TRIPLE_KEYS | set(_CHOICE_KEYS)

_EXCLUSIVE_PAIRS = [
    ("noise_power", "noise_power_dbm"),
    ("irs_gain_tx", "irs_gain_tx_db"),
    ("irs_gain_rx", "irs_gain_rx_db"),
    ("irs_theta_t_rad", "irs_theta_t_deg"),
    ("irs_theta_r_rad", "irs_theta_r_deg"),
]


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = (value, lineno)
    return entries


def _cast_float(key: str, value: str, lineno: int) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key}: not a number: '{value}'") from None
    if not math.isfinite(parsed):
        raise ConfigError(f"line {lineno}: {key}: value must be finite")
    return parsed


def _cast_int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key}: not an integer: '{value}'") from None


def _cast_triple(key: str, value: str, lineno: int) -> tuple[float, float, float]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"line {lineno}: {key}: expected three comma-separated values")
    x, y, z = (_cast_float(key, p, lineno) for p in parts)
    return (x, y, z)


def parse_scenario(text: str) -> Scenario:
    """Build a Scenario from config text, applying defaults for omitted keys."""
    entries = _parse_lines(text)
    for first, second in _EXCLUSIVE_PAIRS:
        if first in entries and second in entries:
            raise ConfigError(f"keys '{first}' and '{second}' are mutually exclusive")
    if "irs_normal" in entries:
        for key in ("irs_theta_t_rad", "irs_theta_r_rad", "irs_theta_t_deg", "irs_theta_r_deg"):
            if key in entries:
                raise ConfigError(f"keys '{key}' and 'irs_normal' are mutually exclusive")

    def take_float(key: str, default: float) -> float:
        if key not in entries:
            return default
        value, lineno = entries[key]
        return _cast_float(key, value, lineno)

    def take_int(key: str, default: int) -> int:
        if key not in entries:
            return default
        value, lineno = entries[key]
        return _cast_int(key, value, lineno)

    try:
        env = RadioEnvironment(
            carrier_frequency=take_float("carrier_frequency", DEFAULT_CARRIER_FREQUENCY),
            noise_power=(
                db_to_linear(take_float("noise_power_dbm", 0.0)) * 1e-3
                if "noise_power_dbm" in entries
                else take_float("noise_power", DEFAULT_NOISE_POWER)
            ),
            pathloss_exponent_micro=take_float(
                "pathloss_exponent_micro", DEFAULT_PATHLOSS_EXPONENT_MICRO
            ),
            pathloss_exponent_macro=take_float(
                "pathloss_exponent_macro", DEFAULT_PATHLOSS_EXPONENT_MACRO
            ),
        )
        macro_extent = CellExtent(
            take_float("macro_origin_x", DEFAULT_MACRO_EXTENT.origin_x),
            take_float("macro_origin_y", DEFAULT_MACRO_EXTENT.origin_y),
            take_float("macro_width", DEFAULT_MACRO_EXTENT.width),
            take_float("macro_depth", DEFAULT_MACRO_EXTENT.depth),
        )
        micro_extent = CellExtent(
            take_float("micro_origin_x", DEFAULT_MICRO_EXTENT.origin_x),
            take_float("micro_origin_y", DEFAULT_MICRO_EXTENT.origin_y),
            take_float("micro_width", DEFAULT_MICRO_EXTENT.width),
            take_float("micro_depth", DEFAULT_MICRO_EXTENT.depth),
        )
        default_macro_center = macro_extent.center()
        macro_bs = InterferenceSource(
            transmit_power=take_float("macro_bs_power", DEFAULT_MACRO_BS_POWER),
            position=Position3D(
                take_float("macro_bs_x", default_macro_center[0]),
                take_float("macro_bs_y", default_macro_center[1]),
                take_float("macro_bs_z", DEFAULT_MACRO_BS_HEIGHT),
            ),
            pathloss_exponent=env.pathloss_exponent_macro,
        )
        micro_bs_position = Position3D(
            take_float("micro_bs_x", DEFAULT_MICRO_BS_POSITION.x),
            take_float("micro_bs_y", DEFAULT_MICRO_BS_POSITION.y),
            take_float("micro_bs_z", DEFAULT_MICRO_BS_POSITION.z),
        )
        if "irs_gain_tx_db" in entries:
            gain_tx = db_to_linear(take_float("irs_gain_tx_db", DEFAULT_GAIN_TX_DB))
        else:
            gain_tx = take_float("irs_gain_tx", db_to_linear(DEFAULT_GAIN_TX_DB))
        if "irs_gain_rx_db" in entries:
            gain_rx = db_to_linear(take_float("irs_gain_rx_db", DEFAULT_GAIN_RX_DB))
        else:
            gain_rx = take_float("irs_gain_rx", db_to_linear(DEFAULT_GAIN_RX_DB))
        angle_mode: FixedAngles | GeometricAngles
        if "irs_normal" in entries:
            value, lineno = entries["irs_normal"]
            nx, ny, nz = _cast_triple("irs_normal", value, lineno)
            norm = math.sqrt(nx * nx + ny * ny + nz * nz)
            if norm == 0.0:
                raise ConfigError(f"line {lineno}: irs_normal: must be non-zero")
            # skip the division for unit input so reloading a dump is a no-op
            if abs(norm - 1.0) > 1e-12:
                nx, ny, nz = nx / norm, ny / norm, nz / norm
            angle_mode = GeometricAngles((nx, ny, nz))
        else:
            if "irs_theta_t_deg" in entries:
                theta_t = math.radians(take_float("irs_theta_t_deg", 45.0))
            else:
                theta_t = take_float("irs_theta_t_rad", DEFAULT_INCIDENCE_ANGLE)
            if "irs_theta_r_deg" in entries:
                theta_r = math.radians(take_float("irs_theta_r_deg", 45.0))
            else:
                theta_r = take_float("irs_theta_r_rad", DEFAULT_INCIDENCE_ANGLE)
            angle_mode = FixedAngles(theta_t, theta_r)
        half_wave = env.wavelength / 2.0
        panel = IrsPanel(
            elements_m=take_int("irs_elements_m", DEFAULT_IRS_ELEMENTS),
            elements_n=take_int("irs_elements_n", DEFAULT_IRS_ELEMENTS),
            element_len_x=take_float("irs_element_len_x", half_wave),
            element_len_y=take_float("irs_element_len_y", half_wave),
            reflection_coefficient=take_float(
                "irs_reflection_coefficient", DEFAULT_REFLECTION_COEFFICIENT
            ),
            gain_tx=gain_tx,
            gain_rx=gain_rx,
            position=Position3D(
                take_float("irs_x", DEFAULT_IRS_POSITION.x),
                take_float("irs_y", DEFAULT_IRS_POSITION.y),
                take_float("irs_z", DEFAULT_IRS_POSITION.z),
            ),
            angle_mode=angle_mode,
        )
        objective = Objective.EDGE_MIN
        if "objective" in entries:
            value, lineno = entries["objective"]
            if value not in _CHOICE_KEYS["objective"]:
                raise ConfigError(f"line {lineno}: objective: must be 'min' or 'mean'")
            objective = Objective(value)
        return Scenario(
            env=env,
            macro_extent=macro_extent,
            micro_extent=micro_extent,
            macro_bs=macro_bs,
            micro_bs_position=micro_bs_position,
            micro_power_conventional=take_float(
                "micro_power_conventional", DEFAULT_MICRO_POWER_CONVENTIONAL
            ),
            micro_power_irs=take_float("micro_power_irs", DEFAULT_MICRO_POWER_IRS),
            panel=panel,
            user_height=take_float("user_height", DEFAULT_USER_HEIGHT),
            grid_resolution=take_float("grid_resolution", DEFAULT_GRID_RESOLUTION),
            objective=objective,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario(path: str) -> Scenario:
    """Load a scenario from a config file; an empty file yields the defaults."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_scenario(text)


def dump_scenario(scenario: Scenario) -> str:
    """Render a scenario as config text that reloads to an equal scenario.

    Emits the linear/radian key variants so every float survives the
    round trip exactly.
    """
    panel = scenario.panel
    lines = [
        "# scenario written by irs-planner",
        f"carrier_frequency = {scenario.env.carrier_frequency!r}",
        f"noise_power = {scenario.env.noise_power!r}",
        f"pathloss_exponent_micro = {scenario.env.pathloss_exponent_micro!r}",
        f"pathloss_exponent_macro = {scenario.env.pathloss_exponent_macro!r}",
        f"macro_origin_x = {scenario.macro_extent.origin_x!r}",
        f"macro_origin_y = {scenario.macro_extent.origin_y!r}",
        f"macro_width = {scenario.macro_extent.width!r}",
        f"macro_depth = {scenario.macro_extent.depth!r}",
        f"micro_origin_x = {scenario.micro_extent.origin_x!r}",
        f"micro_origin_y = {scenario.micro_extent.origin_y!r}",
        f"micro_width = {scenario.micro_extent.width!r}",
        f"micro_depth = {scenario.micro_extent.depth!r}",
        f"macro_bs_power = {scenario.macro_bs.transmit_power!r}",
        f"macro_bs_x = {scenario.macro_bs.position.x!r}",
        f"macro_bs_y = {scenario.macro_bs.position.y!r}",
        f"macro_bs_z = {scenario.macro_bs.position.z!r}",
        f"micro_bs_x = {scenario.micro_bs_position.x!r}",
        f"micro_bs_y = {scenario.micro_bs_position.y!r}",
        f"micro_bs_z = {scenario.micro_bs_position.z!r}",
        f"micro_power_conventional = {scenario.micro_power_conventional!r}",
        f"micro_power_irs = {scenario.micro_power_irs!r}",
        f"irs_x = {panel.position.x!r}",
        f"irs_y = {panel.position.y!r}",
        f"irs_z = {panel.position.z!r}",
        f"irs_elements_m = {panel.elements_m!r}",
        f"irs_elements_n = {panel.elements_n!r}",
        f"irs_element_len_x = {panel.element_len_x!r}",
        f"irs_element_len_y = {panel.element_len_y!r}",
        f"irs_reflection_coefficient = {panel.reflection_coefficient!r}",
        f"irs_gain_tx = {panel.gain_tx!r}",
        f"irs_gain_rx = {panel.gain_rx!r}",
    ]
    if isinstance(panel.angle_mode, FixedAngles):
        lines.append(f"irs_theta_t_rad = {panel.angle_mode.theta_t!r}")
        lines.append(f"irs_theta_r_rad = {panel.angle_mode.theta_r!r}")
    else:
        nx, ny, nz = panel.angle_mode.normal
        lines.append(f"irs_normal = {nx!r},{ny!r},{nz!r}")
    lines.extend(
        [
            f"user_height = {scenario.user_height!r}",
            f"grid_resolution = {scenario.grid_resolution!r}",
            f"objective = {scenario.objective.value}",
        ]
    )
    return "\n".join(lines) + "\n"


def with_panel_position(scenario: Scenario, position: Position3D) -> Scenario:
    """A copy of the scenario with the panel moved to a new position."""
    return replace(scenario, panel=replace(scenario.panel, position=position))
