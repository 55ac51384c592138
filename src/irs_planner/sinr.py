"""Interference aggregation and SINR evaluation.

SINR is formed in the linear domain as signal / (interference + noise),
with interference summed over the received power of each co-channel
source under the direct-link power law.  A zero signal maps to the
-infinity dB sentinel instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .linkbudget import Position3D, RadioEnvironment, _power_law, distance


@dataclass(frozen=True)
class InterferenceSource:
    """A co-channel downlink transmitter heard as interference."""

    transmit_power: float  # W, zero silences the source
    position: Position3D
    pathloss_exponent: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.transmit_power) and self.transmit_power >= 0):
            raise ValueError("transmit_power must be non-negative")
        if not (math.isfinite(self.pathloss_exponent) and self.pathloss_exponent >= 2.0):
            raise ValueError("pathloss_exponent must be at least 2")


@dataclass(frozen=True, init=False)
class SinrSample:
    """One SINR evaluation with its linear inputs kept for inspection."""

    signal_power: float  # W
    interference_power: float  # W
    noise_power: float  # W
    sinr_linear: float
    sinr_db: float  # -inf when the signal is zero

    # written as linkbudget.ConventionalLink's is (see the note above
    # Position3D): the generated __init__ took most of a sinr call
    def __init__(
        self,
        signal_power: float,
        interference_power: float,
        noise_power: float,
        sinr_linear: float,
        sinr_db: float,
    ) -> None:
        state = self.__dict__
        state["signal_power"] = signal_power
        state["interference_power"] = interference_power
        state["noise_power"] = noise_power
        state["sinr_linear"] = sinr_linear
        state["sinr_db"] = sinr_db


def interference_power(
    user: Position3D, sources: Sequence[InterferenceSource], env: RadioEnvironment
) -> float:
    """Total interference power in watts at the user position.

    Each source contributes its direct-link received power with its own
    attenuation exponent.  The sum uses exact compensated summation so the
    result does not depend on source ordering.  The maps take the
    scenario's one source.  A source coincident with the user is a domain
    error.
    """
    contributions = []
    wl = env.wavelength
    for source in sources:
        separation = distance(user, source.position)
        if separation == 0.0:
            raise ValueError("user position coincides with an interference source")
        if source.transmit_power == 0.0:
            continue
        # conventional_rx_power's power law; InterferenceSource has already
        # checked what a ConventionalLink would
        contributions.append(
            _power_law(source.transmit_power, separation, source.pathloss_exponent, wl)
        )
    return math.fsum(contributions)


def sinr(signal_power: float, interference: float, noise_power: float) -> SinrSample:
    """Form a SINR sample from linear powers in watts.

    Signal and interference must be non-negative and not NaN, and noise
    finite and positive.  sinr_db is the dB image of sinr_linear, with zero
    signal mapped to -inf.  A link too short for its path loss to be a
    double carries +inf W, and the maps write what this gives there: an
    infinite signal +inf dB, an infinite interference (which drowns any
    signal, sinr_linear 0.0) the -inf sentinel.
    """
    # NaN fails every comparison; the chained one also rejects +inf noise
    if not signal_power >= 0.0:
        raise ValueError("signal_power must be non-negative and not NaN")
    if not interference >= 0.0:
        raise ValueError("interference power must be non-negative and not NaN")
    if not 0.0 < noise_power < math.inf:
        raise ValueError("noise_power must be finite and positive")
    linear = signal_power / (interference + noise_power) if interference < math.inf else 0.0
    db = 10.0 * math.log10(linear) if linear > 0.0 else -math.inf
    return SinrSample(signal_power, interference, noise_power, linear, db)
