"""Scenario assembly and the flat key = value configuration format.

A scenario bundles everything one planning run needs: the radio
environment, the two-tier cell geometry, both serving powers, the panel,
and the sampling settings.  Config files are plain ``key = value`` lines
with ``#`` comments; omitted keys fall back to the defaults, unknown keys
are hard errors, and of several bad lines the first is reported.  Values
use SI units (hertz, watts, meters, radians).

The format is written once, as two tables: ``_DEFAULTS`` lists every key
with its default in dump order, and ``_VARIANTS`` maps each
``_db``/``_dbm``/``_deg`` key variant to the key it replaces and its
conversion.  Parsing, the defaults and ``dump_scenario`` all read them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass, replace
from typing import Callable

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


# Every key in dump order with its default.  None marks a derived default:
# the macro station at the macro-cell center, elements half a wavelength
# long, fixed angles unless irs_normal is given.  The micro cell (200 m) sits
# in a corner of the macro cell (1000 m), its station and panel at its center.
_DEFAULTS: dict[str, object] = {
    "carrier_frequency": 130e9,  # Hz
    "noise_power": 1e-12,  # W, equals -90 dBm
    "pathloss_exponent_micro": 3.0,
    "pathloss_exponent_macro": 4.0,
    "macro_origin_x": 0.0,
    "macro_origin_y": 0.0,
    "macro_width": 1000.0,
    "macro_depth": 1000.0,
    "micro_origin_x": 0.0,
    "micro_origin_y": 0.0,
    "micro_width": 200.0,
    "micro_depth": 200.0,
    "macro_bs_power": 50.0,  # W
    "macro_bs_x": None,
    "macro_bs_y": None,
    "macro_bs_z": 10.0,
    "micro_bs_x": 100.0,
    "micro_bs_y": 100.0,
    "micro_bs_z": 5.0,
    "micro_power_conventional": 10.0,  # W
    "micro_power_irs": 1.0,  # W
    "irs_x": 100.0,
    "irs_y": 100.0,
    "irs_z": 6.0,
    "irs_elements_m": 128,  # an int default makes an int key
    "irs_elements_n": 128,
    "irs_element_len_x": None,
    "irs_element_len_y": None,
    "irs_reflection_coefficient": 0.9,
    "irs_gain_tx": db_to_linear(20.0),
    "irs_gain_rx": db_to_linear(15.0),
    "irs_theta_t_rad": math.pi / 4,
    "irs_theta_r_rad": math.pi / 4,
    "irs_normal": None,  # x,y,z; selects per-endpoint angles
    "user_height": 1.5,
    "grid_resolution": 1.0,
    "objective": Objective.EDGE_MIN.value,
}

# Unit variants: key -> (the key it replaces, conversion to that key's unit).
_VARIANTS: dict[str, tuple[str, Callable[[float], float]]] = {
    "noise_power_dbm": ("noise_power", lambda dbm: db_to_linear(dbm) * 1e-3),
    "irs_gain_tx_db": ("irs_gain_tx", db_to_linear),
    "irs_gain_rx_db": ("irs_gain_rx", db_to_linear),
    "irs_theta_t_deg": ("irs_theta_t_rad", math.radians),
    "irs_theta_r_deg": ("irs_theta_r_rad", math.radians),
}


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
        if key not in _DEFAULTS and key not in _VARIANTS:
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


def _cast(key: str, value: str, lineno: int) -> object:
    """One value in the type its key takes, converted to the base unit."""
    if key == "objective":
        if value not in ("min", "mean"):
            raise ConfigError(f"line {lineno}: objective: must be 'min' or 'mean'")
        return value
    if isinstance(_DEFAULTS.get(key), int):
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key}: not an integer: '{value}'") from None
    if key == "irs_normal":
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"line {lineno}: {key}: expected three comma-separated values")
        nx, ny, nz = (_cast_float(key, p, lineno) for p in parts)
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if norm == 0.0:
            raise ConfigError(f"line {lineno}: {key}: must be non-zero")
        # skip the division for unit input so reloading a dump is a no-op
        return (nx, ny, nz) if abs(norm - 1.0) <= 1e-12 else (nx / norm, ny / norm, nz / norm)
    parsed = _cast_float(key, value, lineno)
    if key not in _VARIANTS:
        return parsed
    try:
        return _VARIANTS[key][1](parsed)
    except OverflowError:
        raise ConfigError(f"line {lineno}: {key}: value out of range") from None


def _build(v: dict[str, object]) -> Scenario:
    """The Scenario of a full flat key -> value map, derived defaults resolved."""
    env = RadioEnvironment(
        v["carrier_frequency"],
        v["noise_power"],
        v["pathloss_exponent_micro"],
        v["pathloss_exponent_macro"],
    )
    macro_extent = CellExtent(
        v["macro_origin_x"], v["macro_origin_y"], v["macro_width"], v["macro_depth"]
    )
    center_x, center_y = macro_extent.center()
    half_wave = env.wavelength / 2.0
    return Scenario(
        env=env,
        macro_extent=macro_extent,
        micro_extent=CellExtent(
            v["micro_origin_x"], v["micro_origin_y"], v["micro_width"], v["micro_depth"]
        ),
        macro_bs=InterferenceSource(
            transmit_power=v["macro_bs_power"],
            position=Position3D(
                center_x if v["macro_bs_x"] is None else v["macro_bs_x"],
                center_y if v["macro_bs_y"] is None else v["macro_bs_y"],
                v["macro_bs_z"],
            ),
            pathloss_exponent=env.pathloss_exponent_macro,
        ),
        micro_bs_position=Position3D(v["micro_bs_x"], v["micro_bs_y"], v["micro_bs_z"]),
        micro_power_conventional=v["micro_power_conventional"],
        micro_power_irs=v["micro_power_irs"],
        panel=IrsPanel(
            elements_m=v["irs_elements_m"],
            elements_n=v["irs_elements_n"],
            element_len_x=half_wave if v["irs_element_len_x"] is None else v["irs_element_len_x"],
            element_len_y=half_wave if v["irs_element_len_y"] is None else v["irs_element_len_y"],
            reflection_coefficient=v["irs_reflection_coefficient"],
            gain_tx=v["irs_gain_tx"],
            gain_rx=v["irs_gain_rx"],
            position=Position3D(v["irs_x"], v["irs_y"], v["irs_z"]),
            angle_mode=(
                FixedAngles(v["irs_theta_t_rad"], v["irs_theta_r_rad"])
                if v["irs_normal"] is None
                else GeometricAngles(v["irs_normal"])
            ),
        ),
        user_height=v["user_height"],
        grid_resolution=v["grid_resolution"],
        objective=Objective(v["objective"]),
    )


def parse_scenario(text: str) -> Scenario:
    """Build a Scenario from config text, applying defaults for omitted keys.

    Of several bad lines, the first in the file is reported.
    """
    entries = _parse_lines(text)
    for variant, (key, _) in _VARIANTS.items():
        if key in entries and variant in entries:
            raise ConfigError(f"keys '{key}' and '{variant}' are mutually exclusive")
    if "irs_normal" in entries:
        for key in ("irs_theta_t_rad", "irs_theta_r_rad", "irs_theta_t_deg", "irs_theta_r_deg"):
            if key in entries:
                raise ConfigError(f"keys '{key}' and 'irs_normal' are mutually exclusive")
    values = dict(_DEFAULTS)
    for key, (value, lineno) in entries.items():
        values[_VARIANTS[key][0] if key in _VARIANTS else key] = _cast(key, value, lineno)
    try:
        return _build(values)
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


def _values(scenario: Scenario) -> tuple:
    """The scenario's value of each _DEFAULTS key, in that order; None if unset."""
    panel, mode = scenario.panel, scenario.panel.angle_mode
    fixed = isinstance(mode, FixedAngles)
    return (
        *astuple(scenario.env),
        *astuple(scenario.macro_extent),
        *astuple(scenario.micro_extent),
        scenario.macro_bs.transmit_power,
        *astuple(scenario.macro_bs.position),
        *astuple(scenario.micro_bs_position),
        scenario.micro_power_conventional,
        scenario.micro_power_irs,
        *astuple(panel.position),
        *astuple(panel)[:7],  # elements_m through gain_rx
        *((mode.theta_t, mode.theta_r, None) if fixed else (None, None, mode.normal)),
        scenario.user_height,
        scenario.grid_resolution,
        scenario.objective.value,
    )


def _format(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def dump_scenario(scenario: Scenario) -> str:
    """Render a scenario as config text that reloads to an equal scenario.

    Emits the keys of _DEFAULTS, in that order, never the unit variants,
    so every float survives the round trip exactly.
    """
    lines = ["# scenario written by irs-planner"]
    for key, value in zip(_DEFAULTS, _values(scenario), strict=True):
        if value is not None:
            lines.append(f"{key} = {_format(value)}")
    return "\n".join(lines) + "\n"


def with_panel_position(scenario: Scenario, position: Position3D) -> Scenario:
    """A copy of the scenario with the panel moved to a new position."""
    return replace(scenario, panel=replace(scenario.panel, position=position))
