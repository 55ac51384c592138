"""The map formatter writes exactly format_value's text.

`coverage._format_values` writes the digits of most map values from exact
integers and hands the rest to `format_value` (repr).  Its text must equal
`format_value`'s for every float: the edges of its range and their
neighbours, powers of two, ties broken to the even digit, digits that end
in 9s, short decimals, and about a million seeded SINR values.  The two
cases its stop rule leaves out, a candidate on the margin and a raised 9,
are shown not to arise with Python's exact integers.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irs_planner import coverage
from irs_planner.coverage import format_value

UNTOUCHED = 0xAA  # a byte the formatter must leave past the width it returns


def _formatted(values):
    """The formatter's text of each value, one per line."""
    values = np.asarray(values, dtype=np.float64)
    chars = np.full((len(values), coverage._VALUE_COLUMNS + 1), UNTOUCHED, dtype=np.uint8)
    width = coverage._format_values(values, chars)
    assert (chars[:, width:] == UNTOUCHED).all()
    chars[:, width] = ord("\n")
    chars[:, width + 1 :] = coverage._PAD
    return chars.tobytes().translate(None, bytes([coverage._PAD])).decode("ascii")


def _check(values, chunk=coverage._TEXT_ELEMENTS):
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), chunk):
        part = values[start : start + chunk].tolist()
        got = _formatted(part)
        if got != "\n".join(map(format_value, part)) + "\n":
            wrong = [(v.hex(), g, format_value(v)) for v, g in zip(part, got.splitlines())]
            assert [w for w in wrong if w[1] != w[2]][:5] == []
            assert len(got.splitlines()) == len(part)


def _with_neighbours(values, ulps=3):
    """Each value and the floats up to `ulps` steps either side of it, both signs."""
    out = []
    for v in values:
        down = up = v
        out.append(v)
        for _ in range(ulps):
            down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
            out += [down, up]
    return out + [-v for v in out]


def test_only_values_outside_the_range_reach_format_value(monkeypatch):
    inside = [math.nextafter(2.0**-4, 1.0), math.nextafter(2.0**50, 0.0), 1.5, -123.456, 0.1]
    outside = [2.0**-4, math.nextafter(2.0**-4, 0.0), 2.0**50, 1.0, -8.0, 0.0, 1e-300, math.nan]
    calls = []
    monkeypatch.setattr(coverage, "format_value", lambda v: calls.append(v) or format_value(v))
    inside += [-v for v in inside]
    outside += [-v for v in outside]
    assert _formatted(inside + outside + [-math.inf] * 3).splitlines() == [
        format_value(v) for v in inside + outside + [-math.inf] * 3
    ]
    # the sentinels share one call
    assert sorted(map(repr, calls)) == sorted(map(repr, outside + [-math.inf]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats(values):
    _check(values)


# v = M * 2**(e - 53) with 2**-4 <= v < 2**50 and M not a power of two.
# Besides uniform draws, M lies next to its own ends, even and odd; with
# e = -3 and e = 50 those are the range's ends and their neighbours.
_RANGE_ENDS = [2**52 + 1, 2**52 + 2, 2**52 + 3, 2**53 - 3, 2**53 - 2, 2**53 - 1]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-3, 50),
    st.one_of(st.integers(2**52 + 1, 2**53 - 1), st.sampled_from(_RANGE_ENDS)),
)
@example(-3, 2**52 + 1)
@example(-3, 2**52 + 2)
@example(50, 2**53 - 2)
@example(50, 2**53 - 1)
def test_the_stop_rule_meets_no_tie_and_carries_no_nine(e, mantissa):
    """Steele & White in Python ints, with R, S and the margin of _format_values.

    No step up to the stop has min(R, S - R) equal to the margin, so the
    parity of M never decides a stop, and no stop raises a 9; the digits
    are format_value's.
    """
    size = 1 << (55 - e)  # S
    fraction = 4 * mantissa % size  # R
    margin = 2  # half an ulp
    digits = []
    while True:
        digit, fraction = divmod(10 * fraction, size)
        margin *= 10
        digits.append(digit)
        gap = min(fraction, size - fraction)
        assert gap != margin
        if gap < margin:
            break
    up = 2 * fraction > size or (2 * fraction == size and digit % 2 == 1)
    assert not (up and digit == 9)
    digits[-1] += up
    text = f"{mantissa >> (53 - e)}." + "".join(map(str, digits))
    assert text == format_value(math.ldexp(mantissa, e - 53))


def test_special_values():
    _check([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e-5, 1e16, 1.5, -1.5])


def test_edges_of_the_range():
    # 2**-4 and 2**50 are powers of two themselves; their neighbours lie on both sides
    _check(_with_neighbours([2.0**-4, 2.0**50], ulps=5))


def test_powers_of_two_and_their_neighbours():
    _check(_with_neighbours([2.0**k for k in range(-6, 53)], ulps=2))


def test_ties_round_to_the_even_digit():
    # v = I + q/8 with 2**47 <= I < 2**48 lies halfway between two 2-digit
    # fractions, both within half an ulp (1/64); v = I + q/4 with
    # 2**49 <= I < 2**50 lies halfway between two 1-digit ones (1/16)
    assert format_value(141446826988040.375) == "141446826988040.38"
    assert format_value(141446826988040.125) == "141446826988040.12"
    rng = np.random.default_rng(15)
    eighths = rng.integers(2**47, 2**48, 400) + rng.choice([0.125, 0.375, 0.625, 0.875], 400)
    quarters = rng.integers(2**49, 2**50, 400) + rng.choice([0.25, 0.75], 400)
    values = np.concatenate([eighths, quarters])
    _check(np.concatenate([values, -values]))


def test_digits_that_end_in_nines_or_round_up():
    # neighbours of short decimals and of integers: their shortest digits
    # end in runs of 9s or 0s, or are the short decimal itself once raised
    decimals = [0.1, 0.3, 0.7, 0.9, 1.0, 9.0, 9.9, 9.99, 99.99, 0.0999, 12345.6789, 1e15 - 1]
    integers = [float(10**k) for k in range(0, 15)] + [float(10**k - 1) for k in range(1, 15)]
    _check(_with_neighbours(decimals + integers, ulps=6))


@pytest.mark.parametrize("digits", range(1, 16))
def test_short_decimals(digits):
    rng = np.random.default_rng(digits)
    mantissas = rng.integers(10 ** (digits - 1), 10**digits, 2_000)
    exponents = rng.integers(-digits - 2, 3, 2_000)
    _check([float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())])


def test_a_million_seeded_sinr_values():
    rng = np.random.default_rng(20261019)
    values = rng.uniform(-300.0, 300.0, 1_000_000)
    values[::7] = np.round(values[::7], 2)  # some short ones, as maps at whole dB steps give
    _check(values, chunk=1 << 16)
