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

from .linkbudget import (
    ConventionalLink,
    Position3D,
    RadioEnvironment,
    conventional_rx_power,
    distance,
)


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


@dataclass(frozen=True)
class SinrSample:
    """One SINR evaluation with its linear inputs kept for inspection."""

    signal_power: float  # W
    interference_power: float  # W
    noise_power: float  # W
    sinr_linear: float
    sinr_db: float  # -inf when the signal is zero


def interference_power(
    user: Position3D, sources: Sequence[InterferenceSource], env: RadioEnvironment
) -> float:
    """Total interference power in watts at the user position.

    Each source contributes its direct-link received power with its own
    attenuation exponent.  The sum uses exact compensated summation so the
    result does not depend on source ordering; the maps add sources with
    `+`, which differs only with more than one source, and scenarios have
    exactly one.  A source coincident with the user is a domain error.
    """
    contributions = []
    for source in sources:
        if distance(user, source.position) == 0.0:
            raise ValueError("user position coincides with an interference source")
        if source.transmit_power == 0.0:
            continue
        link = ConventionalLink(
            transmit_power=source.transmit_power,
            transmitter=source.position,
            receiver=user,
            pathloss_exponent=source.pathloss_exponent,
        )
        contributions.append(conventional_rx_power(link, env))
    return math.fsum(contributions)


def sinr(signal_power: float, interference: float, noise_power: float) -> SinrSample:
    """Form a SINR sample from linear powers in watts.

    Signal and interference must be non-negative and noise strictly
    positive, which keeps the ratio finite.  sinr_db is the dB image of
    sinr_linear, with zero signal mapped to -inf.
    """
    if not (math.isfinite(signal_power) and signal_power >= 0):
        raise ValueError("signal_power must be non-negative")
    if not (math.isfinite(interference) and interference >= 0):
        raise ValueError("interference power must be non-negative")
    if not (math.isfinite(noise_power) and noise_power > 0):
        raise ValueError("noise_power must be positive")
    linear = signal_power / (interference + noise_power)
    db = 10.0 * math.log10(linear) if linear > 0.0 else -math.inf
    return SinrSample(
        signal_power=signal_power,
        interference_power=interference,
        noise_power=noise_power,
        sinr_linear=linear,
        sinr_db=db,
    )
