"""Independent high-precision reference computations for the tests.

These evaluate the same physical relations as the package but in 50-digit
arithmetic with mpmath, factor by factor, so agreement is evidence rather
than tautology.  Inputs are converted from their exact float64 values.
"""

import mpmath as mp

mp.mp.dps = 50

SPEED_OF_LIGHT = mp.mpf(299792458)


def hp_distance(a, b):
    return mp.sqrt(
        (mp.mpf(a[0]) - mp.mpf(b[0])) ** 2
        + (mp.mpf(a[1]) - mp.mpf(b[1])) ** 2
        + (mp.mpf(a[2]) - mp.mpf(b[2])) ** 2
    )


def hp_conventional_rx_power(transmit_power, carrier_frequency, separation, exponent):
    lam = SPEED_OF_LIGHT / mp.mpf(carrier_frequency)
    return (
        mp.mpf(transmit_power)
        * lam ** 2
        / (mp.mpf(separation) ** mp.mpf(exponent) * 16 * mp.pi ** 2)
    )


def hp_irs_rx_power(
    transmit_power,
    carrier_frequency,
    reflection_coefficient,
    gain_tx,
    gain_rx,
    element_len_x,
    element_len_y,
    elements_m,
    elements_n,
    theta_t,
    theta_r,
    transmitter,
    panel_position,
    receiver,
):
    lam = SPEED_OF_LIGHT / mp.mpf(carrier_frequency)
    dx = mp.mpf(element_len_x)
    dy = mp.mpf(element_len_y)
    scatter_gain = 4 * mp.pi * dx * dy / lam ** 2
    r1 = hp_distance(transmitter, panel_position)
    r2 = hp_distance(panel_position, receiver)
    numerator = (
        mp.mpf(transmit_power)
        * lam ** 2
        * mp.mpf(reflection_coefficient) ** 2
        * scatter_gain
        * mp.mpf(gain_tx)
        * mp.mpf(gain_rx)
        * dx
        * dy
        * mp.mpf(elements_m) ** 2
        * mp.mpf(elements_n) ** 2
        * mp.cos(mp.mpf(theta_t))
        * mp.cos(mp.mpf(theta_r))
    )
    return numerator / ((r1 * r2) ** 2 * 64 * mp.pi ** 3)


def rel_error(value, reference):
    reference = mp.mpf(reference)
    if reference == 0:
        return mp.mpf(abs(mp.mpf(value)))
    return abs((mp.mpf(value) - reference) / reference)


def hp_irs_rx_power_geometric(
    transmit_power,
    carrier_frequency,
    reflection_coefficient,
    gain_tx,
    gain_rx,
    element_len_x,
    element_len_y,
    elements_m,
    elements_n,
    normal,
    transmitter,
    panel_position,
    receiver,
):
    """The cascade with incidence cosines taken from the geometry in 50 digits.

    Each cosine is the normal's dot product with the offset from the panel
    to the endpoint, over that offset's length; an endpoint behind the
    panel (negative cosine) gives zero power.  The angles then go through
    the factor-by-factor reference above.
    """
    n = [mp.mpf(c) for c in normal]

    def cosine(endpoint):
        offset = [mp.mpf(e) - mp.mpf(p) for e, p in zip(endpoint, panel_position)]
        return mp.fsum(a * b for a, b in zip(n, offset)) / hp_distance(endpoint, panel_position)

    cos_t, cos_r = cosine(transmitter), cosine(receiver)
    if cos_t < 0 or cos_r < 0:
        return mp.mpf(0)
    return hp_irs_rx_power(
        transmit_power,
        carrier_frequency,
        reflection_coefficient,
        gain_tx,
        gain_rx,
        element_len_x,
        element_len_y,
        elements_m,
        elements_n,
        mp.acos(cos_t),
        mp.acos(cos_r),
        transmitter,
        panel_position,
        receiver,
    )
