"""Closed-form link budgets for direct and surface-reflected radio paths.

The direct model is a free-space style power law with a configurable
attenuation exponent,

    P_rx = P_tx * wavelength**2 / (D**alpha * 16 * pi**2)

which reduces to the Friis equation at alpha = 2.  The reflected model
cascades two hops through a passive scattering panel of M x N elements,

    P_rx = P_tx * wavelength**2 * A**2 * G_sc * G_tx * G_rx
           * dx * dy * M**2 * N**2 * cos(theta_t) * cos(theta_r)
           / ((R1 * R2)**2 * 64 * pi**3)

where A is the panel reflection coefficient, dx and dy are the element
dimensions, R1 and R2 are the hop lengths, and the per-element scattering
gain is G_sc = 4 * pi * dx * dy / wavelength**2.

All internal arithmetic is linear (watts, meters, radians).  Decibel
quantities appear only in the conversion helpers at the bottom.

The scalar API below evaluates each equation on Python floats; the
kernel in coverage evaluates the same expressions on numpy arrays, in
place and in the same order.  Both square by products, so they agree
bit for bit but for D**alpha, which numpy and libm round apart by a few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0  # m/s, exact SI value
_PI_SQUARED = math.pi ** 2  # of the direct power law
_PI_CUBED = math.pi ** 3  # of the cascade


class BehindSurfaceError(ValueError):
    """An endpoint lies behind the reflecting panel (normal dot product < 0)."""


# Position3D, ConventionalLink and sinr.SinrSample have a written __init__
# with the checks of the generated one, which calls object.__setattr__ per
# field and costs more than the checks.  eq, hash, repr, fields(),
# frozenness and replace() stay as generated.  ConventionalLink and
# SinrSample, built per call and read once, fill self.__dict__, the
# quickest build.  Position3D is read far more than built (six reads a
# hop) and stores through object.__setattr__ bound once: touching
# __dict__ gives the instance a real dict, which makes every later
# attribute read about twice as slow in CPython 3.11.
_setattr = object.__setattr__


@dataclass(frozen=True, init=False)
class Position3D:
    """A point in meters in the shared scenario frame."""

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float) -> None:
        if not math.isfinite(x):
            raise ValueError("Position3D.x must be finite")
        if not math.isfinite(y):
            raise ValueError("Position3D.y must be finite")
        if not math.isfinite(z):
            raise ValueError("Position3D.z must be finite")
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "z", z)


@dataclass(frozen=True)
class RadioEnvironment:
    """Carrier and propagation constants shared by every link in a scenario."""

    carrier_frequency: float  # Hz
    noise_power: float = 1e-12  # W, equals -90 dBm
    pathloss_exponent_micro: float = 3.0
    pathloss_exponent_macro: float = 4.0

    def __post_init__(self) -> None:
        # both link budgets scale with wavelength**2, which must be a double
        try:
            square = wavelength(self.carrier_frequency) ** 2
        except OverflowError:  # Python's ** raises where a product gives inf
            square = math.inf
        if not 0.0 < square < math.inf:
            raise ValueError(
                f"carrier_frequency {self.carrier_frequency!r} gives a wavelength whose "
                "square is not a positive finite double"
            )
        if not (math.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError("noise_power must be positive and finite")
        for name in ("pathloss_exponent_micro", "pathloss_exponent_macro"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 2.0):
                raise ValueError(f"{name} must be at least 2")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in meters, always derived from the frequency."""
        return SPEED_OF_LIGHT / self.carrier_frequency


@dataclass(frozen=True, init=False)
class ConventionalLink:
    """A direct transmitter-to-receiver link evaluated with the power law.

    The separation the constructor checks is kept as `_separation`, not a
    field, for conventional_rx_power.
    """

    transmit_power: float  # W
    transmitter: Position3D
    receiver: Position3D
    pathloss_exponent: float

    def __init__(
        self,
        transmit_power: float,
        transmitter: Position3D,
        receiver: Position3D,
        pathloss_exponent: float,
    ) -> None:
        # chained comparisons: NaN and +-inf fail them as they fail isfinite
        if not 0.0 < transmit_power < math.inf:
            raise ValueError("transmit_power must be positive")
        if not 2.0 <= pathloss_exponent < math.inf:
            raise ValueError("pathloss_exponent must be at least 2")
        separation = distance(transmitter, receiver)
        if separation == 0.0:
            raise ValueError("transmitter and receiver must not coincide")
        state = self.__dict__
        state["transmit_power"] = transmit_power
        state["transmitter"] = transmitter
        state["receiver"] = receiver
        state["pathloss_exponent"] = pathloss_exponent
        state["_separation"] = separation


@dataclass(frozen=True)
class FixedAngles:
    """Constant transmit and receive incidence angles in radians."""

    theta_t: float
    theta_r: float

    def __post_init__(self) -> None:
        for name in ("theta_t", "theta_r"):
            value = getattr(self, name)
            if not (0.0 <= value < math.pi / 2):
                raise ValueError(f"{name} must lie in [0, pi/2)")


@dataclass(frozen=True)
class GeometricAngles:
    """Incidence angles derived per endpoint from the panel's unit normal."""

    normal: tuple[float, float, float]

    def __post_init__(self) -> None:
        nx, ny, nz = self.normal
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails it
            raise ValueError("normal must be a unit vector")


@dataclass(frozen=True)
class IrsPanel:
    """A passive reflecting panel of identical scattering elements."""

    elements_m: int  # element count along the first panel axis
    elements_n: int  # element count along the second panel axis
    element_len_x: float  # m
    element_len_y: float  # m
    reflection_coefficient: float  # dimensionless, in [0, 1]
    gain_tx: float  # linear gain toward the transmitter
    gain_rx: float  # linear gain toward the receiver
    position: Position3D
    angle_mode: FixedAngles | GeometricAngles

    def __post_init__(self) -> None:
        if not (self.elements_m >= 1 and self.elements_n >= 1):  # NaN fails it
            raise ValueError("element counts must be at least 1")
        if not (self.element_len_x > 0 and self.element_len_y > 0):
            raise ValueError("element dimensions must be positive")
        if not 0.0 <= self.reflection_coefficient <= 1.0:
            raise ValueError("reflection_coefficient must lie in [0, 1]")
        if not (self.gain_tx > 0 and self.gain_rx > 0):
            raise ValueError("panel gains must be positive")


def wavelength(carrier_frequency: float) -> float:
    """Free-space wavelength in meters for a carrier frequency in hertz."""
    if not (math.isfinite(carrier_frequency) and carrier_frequency > 0):
        raise ValueError("carrier_frequency must be positive and finite")
    return SPEED_OF_LIGHT / carrier_frequency


def distance(a: Position3D, b: Position3D) -> float:
    """Euclidean separation of two points in meters; inf if a square overflows."""
    dx, dy, dz = a.x - b.x, a.y - b.y, a.z - b.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def _power_law(power: float, separation: float, alpha: float, wl: float) -> float:
    """P * wl**2 / (D**alpha * 16 * pi**2) for a non-zero separation D.

    As in the maps, a D**alpha beyond the largest double is an infinite
    path loss, so the power is 0.0, where Python's ** raises OverflowError,
    and one that underflows to 0.0 is no loss, so the power is +inf, where
    Python's / raises ZeroDivisionError.
    """
    try:
        return power * wl ** 2 / (separation ** alpha * 16.0 * _PI_SQUARED)
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        return math.inf


def conventional_rx_power(link: ConventionalLink, env: RadioEnvironment) -> float:
    """Received power in watts over a direct link.

    Evaluates P_tx * wavelength**2 / (D**alpha * 16 * pi**2) with the link's
    own attenuation exponent, on the separation the link kept.  The link
    rejects zero separation, where the power law is singular.
    """
    return _power_law(
        link.transmit_power, link._separation, link.pathloss_exponent, env.wavelength
    )


def element_scatter_gain(element_len_x: float, element_len_y: float, wl: float) -> float:
    """Scattering gain 4 * pi * dx * dy / wavelength**2 of a single element."""
    if not (element_len_x > 0 and element_len_y > 0 and wl > 0):
        raise ValueError("element dimensions and wavelength must be positive")
    return 4.0 * math.pi * element_len_x * element_len_y / wl ** 2


def _incidence_cosine(normal, dx, dy, dz, length):
    """Cosine between a unit normal and an offset of the given length."""
    n0, n1, n2 = normal
    return (dx * n0 + dy * n1 + dz * n2) / length


def _cosines(transmitter, panel, receiver, d_t, d_r) -> tuple[float, float] | None:
    """cos(theta_t) and cos(theta_r); None for an endpoint behind a geometric panel."""
    mode = panel.angle_mode
    if isinstance(mode, FixedAngles):
        return math.cos(mode.theta_t), math.cos(mode.theta_r)
    n, p = mode.normal, panel.position
    cos_t = _incidence_cosine(n, transmitter.x - p.x, transmitter.y - p.y, transmitter.z - p.z, d_t)
    cos_r = _incidence_cosine(n, receiver.x - p.x, receiver.y - p.y, receiver.z - p.z, d_r)
    if cos_t < 0.0 or cos_r < 0.0:
        return None
    return cos_t, cos_r


def incidence_angles(
    transmitter: Position3D, panel: IrsPanel, receiver: Position3D
) -> tuple[float, float]:
    """Transmit and receive incidence angles in radians at the panel.

    Fixed mode returns the stored pair.  Geometric mode measures each angle
    between the panel normal and the unit vector toward the endpoint and
    raises BehindSurfaceError when an endpoint falls behind the panel
    (negative dot product); callers map that condition to zero received
    power.
    """
    d_t = distance(transmitter, panel.position)
    d_r = distance(panel.position, receiver)
    if d_t == 0.0 or d_r == 0.0:
        raise ValueError("endpoints must not coincide with the panel")
    mode = panel.angle_mode
    if isinstance(mode, FixedAngles):
        return mode.theta_t, mode.theta_r
    cosines = _cosines(transmitter, panel, receiver, d_t, d_r)
    if cosines is None:
        raise BehindSurfaceError("endpoint lies behind the panel surface")
    cos_t, cos_r = cosines
    return math.acos(min(cos_t, 1.0)), math.acos(min(cos_r, 1.0))


def _cascade_gain(power, panel: IrsPanel, wl: float) -> float:
    """P * wl**2 * A**2 * G_sc * G_tx * G_rx * dx * dy * M**2 * N**2, in that order."""
    g_sc = element_scatter_gain(panel.element_len_x, panel.element_len_y, wl)
    return (power * wl ** 2 * panel.reflection_coefficient ** 2 * g_sc * panel.gain_tx
            * panel.gain_rx * panel.element_len_x * panel.element_len_y
            * panel.elements_m ** 2 * panel.elements_n ** 2)


def _panel_gain(power, panel: IrsPanel, wl: float) -> float:
    """_cascade_gain(power, panel, wl), memoized on the panel as `_gain`.

    The gain depends on nothing else, and the panel is frozen.  The key
    holds type(power) because a power equal to a float but of another
    type, such as np.float64, gives a gain of its own type.  One entry per
    panel keeps the memo bounded; a replace()d panel starts without one,
    and a gain that raises stores nothing.
    """
    key = (type(power), power, wl)
    memo = getattr(panel, "_gain", None)
    if memo is not None and memo[0] == key:
        return memo[1]
    gain = _cascade_gain(power, panel, wl)
    _setattr(panel, "_gain", (key, gain))
    return gain


def irs_rx_power(
    transmit_power: float,
    panel: IrsPanel,
    transmitter: Position3D,
    receiver: Position3D,
    env: RadioEnvironment,
) -> float:
    """Received power in watts over the cascaded panel path.

    The direct transmitter-to-receiver component is not included; the
    returned power is the reflected path alone.  An endpoint behind a
    geometric-mode panel yields 0.0 rather than an error.
    """
    if not 0.0 < transmit_power < math.inf:
        raise ValueError("transmit_power must be positive")
    r1 = distance(transmitter, panel.position)
    r2 = distance(panel.position, receiver)
    if r1 == 0.0 or r2 == 0.0:
        raise ValueError("cascade hop distances must be positive")
    cosines = _cosines(transmitter, panel, receiver, r1, r2)
    if cosines is None:
        return 0.0
    cos_t, cos_r = cosines
    gain = _panel_gain(transmit_power, panel, env.wavelength)
    hops = r1 * r2
    return gain * cos_t * cos_r / (hops * hops * 64.0 * _PI_CUBED)


def watts_to_dbm(power: float) -> float:
    """Convert a positive power in watts to dBm."""
    if not (math.isfinite(power) and power > 0):
        raise ValueError("power must be positive and finite")
    return 10.0 * math.log10(power / 1e-3)


def db_to_linear(gain_db: float) -> float:
    """Convert a decibel gain to its linear ratio."""
    if not math.isfinite(gain_db):
        raise ValueError("gain_db must be finite")
    return 10.0 ** (gain_db / 10.0)
