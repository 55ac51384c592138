"""The pieces of the exact edge mean: libm pow terms and the numpy row sum.

`coverage._summarize` takes each linear term from `np.float_power` and
sums each row with `coverage._exact_row_sums`.  Its output is byte-stable
only if the terms equal libm's pow, as `math.pow` computes them, and the
sums equal `math.fsum` of the same terms bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_planner.coverage import _exact_row_sums


def test_float_power_is_libm_pow():
    """np.float_power(10.0, t) equals math.pow(10.0, t) bit for bit.

    Checked on x86-64 with AVX-512F and numpy 2.4.6, whose float64
    float_power loop calls libm's pow.  np.power is vectorized (SVML) on
    that host and differs from libm in the last bit on about 5% of these
    inputs.  A numpy build that vectorizes float_power as well fails here,
    and the edge statistics, sweep rankings and compare output would no
    longer match their pinned bytes (tests/test_golden.py).
    """
    rng = np.random.default_rng(20250801)
    # t = SINR / 10: dense over realistic SINR, then the whole range math.pow
    # returns a finite value on (10 ** 308.25 is still finite)
    t = np.concatenate([
        rng.uniform(-20.0, 20.0, 100_000),
        rng.uniform(-330.0, 308.25, 150_000),
        [-math.inf, 0.0, -0.0, 308.25, -323.3, -324.0],
    ])
    got = np.float_power(10.0, t)
    want = np.array([math.pow(10.0, v) for v in t.tolist()])
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, (
        f"np.float_power(10, t) differs from libm pow on {differ.size} of {t.size} inputs, "
        f"first at t = {t[differ[0]]!r}: this numpy build does not call libm's pow, so the "
        "edge mean would change bits"
    )


def _fsum_rows(v):
    try:
        return [math.fsum(r) for r in v.tolist()]
    except OverflowError:
        return None


def _check(v):
    want = _fsum_rows(v)
    if want is None:
        with pytest.raises(OverflowError):
            _exact_row_sums(v.copy())
        return
    got = _exact_row_sums(v.copy())
    assert [float.hex(x) for x in got] == [float.hex(x) for x in want]


@st.composite
def _term_arrays(draw):
    """K x n non-negative doubles from a seeded generator.

    The exponents span a drawn window of the whole double range, from the
    subnormals (-1074) up to 1023; some terms or whole rows are zero, and
    some rows repeat one value.
    """
    n = draw(st.sampled_from([1, 2, 800, 1024, 3200, 20_000]) | st.integers(1, 20_000))
    k = min(draw(st.integers(1, 50)), max(1, 400_000 // n))
    low = draw(st.integers(-1074, 1023))
    high = draw(st.integers(low, 1023))
    zero_share = draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mantissa = rng.integers(2**52, 2**53, size=(k, n)).astype(np.float64)
    exponent = rng.integers(low, high, size=(k, n), endpoint=True)
    # ldexp rounds the terms below 2 ** -1022 to subnormals
    v = np.ldexp(mantissa, (exponent - 52).astype(np.int32))
    v[rng.random((k, n)) < zero_share] = 0.0
    v[rng.random(k) < 0.2] = 0.0
    repeat = rng.random(k) < 0.2
    v[repeat] = v[repeat, :1]
    return v


@settings(max_examples=150, deadline=None)
@given(_term_arrays())
def test_exact_row_sums_equal_fsum(v):
    _check(v)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 50).flatmap(
        lambda n: st.lists(
            st.lists(
                st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            ),
            min_size=1,
            max_size=8,
        )
    )
)
def test_exact_row_sums_equal_fsum_on_drawn_floats(rows):
    _check(np.array(rows, dtype=np.float64))


def test_exact_row_sums_of_one_repeated_value_at_each_length():
    # width = 53 - n.bit_length() shrinks at every power of two
    for n in [1, 2, 3, 4, 7, 8, 800, 1023, 1024, 3200, 20_000]:
        for value in [1.0, math.nextafter(1.0, 2.0), 0.1, 5e-324, 2.0**-1022, 1.7e308 / n]:
            _check(np.full((2, n), value))


def test_exact_row_sums_round_ties_on_the_whole_sum():
    # 1 + 2 ** -53 is a tie that the far smaller last term breaks upward
    _check(np.array([[1.0, 2.0**-53, 2.0**-110]]))
    _check(np.array([[2.0**-1074, 1.0, 2.0**-53]]))
    _check(np.array([[1.0 + 2.0**-52, 2.0**-53, 0.0]]))


def test_exact_row_sums_raise_on_a_sum_beyond_the_largest_double():
    with pytest.raises(OverflowError):
        _exact_row_sums(np.full((1, 3), 1e308))
    with pytest.raises(OverflowError):
        _exact_row_sums(np.array([[math.inf, 1.0]]))
