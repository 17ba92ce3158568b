"""The time text of trajectory exports against float.__repr__, byte for byte.

pytest turns every RuntimeWarning into a failure (pyproject.toml), so the
cases below also check that no input, NaN, infinities and subnormals
included, makes the formatter warn (log10 of 0, say).
"""

import tracemalloc

import numpy as np
import pytest
from _oracles import assert_same_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from sisq import _shortrepr
from sisq.chain import ModelParams
from sisq.sim import SeedSpec, simulate_restarted

_NEWLINE = _shortrepr.byte_table(["\n"])


def _text(values) -> str:
    x = np.asarray(values, dtype=float)
    return _shortrepr.time_text(x, np.zeros(x.size, np.intp), _NEWLINE)


def _reference(values) -> str:
    return "".join(float.__repr__(v) + "\n" for v in np.asarray(values, dtype=float).tolist())


def _decided(values) -> np.ndarray:
    """Rows whose text the integer search decides, not repr."""
    return _shortrepr._shortest(np.asarray(values, dtype=float))[0]


def _bit_patterns(seed, lo, hi):
    """16 chunks of 2**16 doubles drawn uniformly by bit pattern from
    [lo, hi), so every binary exponent there is about equally represented."""
    rng = np.random.default_rng(seed)
    lo = int(np.float64(lo).view(np.uint64))
    hi = int(np.float64(hi).view(np.uint64))
    for _ in range(16):
        yield rng.integers(lo, hi, 1 << 16, dtype=np.uint64).view(np.float64)


def test_random_bit_patterns_across_the_computed_range():
    # The seed draws no power of two, so the search decides every row.
    for x in _bit_patterns(20181, 1e-4, 2.0 ** 53):
        assert_same_rows(_text(x), _reference(x))
        assert _decided(x).all()


def test_random_bit_patterns_where_ties_are_common():
    # Above 2**45, x * 10**j often lies halfway between two integers that
    # both fit (11.7% of this draw); repr rounds such a tie to even.
    for x in _bit_patterns(53, 2.0 ** 45, 2.0 ** 53):
        assert_same_rows(_text(x), _reference(x))
        assert _decided(x).all()


def test_doubles_below_powers_of_ten_are_decided():
    # Just below 10**e, where a search start taken from log10 would round
    # up to e, every double is still decided.
    x = [np.nextafter(10.0 ** e, 0.0) for e in range(-3, 16)]
    assert_same_rows(_text(x), _reference(x))
    assert _decided(x).all()


def _binade_cases():
    """(s, x) over every binade x = m * 2**(1 - s) of [1e-4, 2**53): the
    least, the greatest and one random mantissa m that is not a power of
    two, with their neighbours one ulp away, and, for s >= 2, the first m
    down from the top for which one digit fewer than the start leaves no
    decimal inside x's interval.  Powers of two and values below 1e-4 are
    dropped."""
    rng = np.random.default_rng(31)
    for s in range(1, 68):
        mantissas = [k for m in (2 ** 52 + 1, int(rng.integers(2 ** 52 + 2, 2 ** 53 - 2)),
                                 2 ** 53 - 1) for k in (m - 1, m, m + 1)]
        if s >= 2:
            # (d - 1)-digit decimals, with d the digit count of 2**(s - 1),
            # are no finer than the interval: some 2m * 10**j lies 10**j or
            # more from every multiple of 2**s.
            j = len(str(2 ** (s - 1))) - 1
            m = next(m for m in range(2 ** 53 - 1, 2 ** 52, -1)
                     if 10 ** j < 2 * m * 10 ** j % 2 ** s < 2 ** s - 10 ** j)
            x = float(np.ldexp(float(m), 1 - s))
            assert float(f"{x:.{j}f}") != x, (s, x, j)
            mantissas.append(m)
        for k in mantissas:
            x = float(np.ldexp(float(k), 1 - s))
            if k not in (2 ** 52, 2 ** 53) and x >= 1e-4:
                yield s, x


def test_search_start_of_every_binade_is_inside_the_interval():
    # The search starts at _START[s] fraction digits, the digit count of
    # 2**(s - 1) (0 for s = 1): a decimal that long reads back as x in every
    # binade, and one digit fewer does not for some x of each.
    cases = list(_binade_cases())
    assert sorted({s for s, _ in cases}) == list(range(1, 68))
    x = [v for _, v in cases]
    assert _decided(x).all()
    assert_same_rows(_text(x), _reference(x))
    for s, v in cases:
        j0 = int(_shortrepr._START[s])
        assert float(f"{v:.{j0}f}") == v, (s, v, j0)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_doubles(values):
    assert_same_rows(_text(values), _reference(values))


_POWERS_OF_TEN = [10.0 ** e for e in range(-8, 23)]

_CASES = {
    "signed_zero": [0.0, -0.0, 0.0],
    "subnormal": [5e-324, 1e-320, 2.225073858507201e-308, 4.9406564584124654e-322],
    "normal_below_1e-4": [2.2250738585072014e-308, 1e-300, 3e-05, 1e-05,
                          np.nextafter(1e-4, 0.0)],
    "from_2**53": [2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 60, 1e16, 1.7976931348623157e308],
    "not_finite_or_negative": [np.inf, -np.inf, np.nan, -1.5, -1e-4],
    "powers_of_two": [2.0 ** e for e in range(-1074, 1024)],
    "below_powers_of_ten": [np.nextafter(np.nextafter(p, 0.0), 0.0) for p in _POWERS_OF_TEN]
                           + [np.nextafter(p, 0.0) for p in _POWERS_OF_TEN],
    "powers_of_ten": _POWERS_OF_TEN,
    "above_powers_of_ten": [np.nextafter(p, np.inf) for p in _POWERS_OF_TEN]
                           + [np.nextafter(np.nextafter(p, np.inf), np.inf)
                              for p in _POWERS_OF_TEN],
    "k_times_10**e": [float(f"{k}e{e}") for k in range(1, 1000, 7) for e in range(-7, 17)],
    # x * 10 halfway between two integers that both lie in x's interval.
    "exact_tie": [1886111395783780.25, 2.0 ** 50 + 0.75, 1234567890123456.25],
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_edge_values_match_repr(case):
    values = _CASES[case]
    assert_same_rows(_text(values), _reference(values))
    # One row at a time, so that each value is alone in its chunk.
    assert_same_rows("".join(_text([v]) for v in values), _reference(values))


def test_rows_left_to_repr():
    left = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.nextafter(1e-4, 0.0), 2.0 ** 53,
            2.0 ** 60, np.inf, np.nan, -1.5, 0.5, 2.0 ** 20]
    assert not _decided(left).any()
    computed = [1e-4, 0.1, 0.3, 1000.123, 2.0 ** 53 - 1, 3.0, 123456.789,
                np.nextafter(2.0 ** 53, 0.0) - 1, *_CASES["exact_tie"]]
    assert _decided(computed).all()


def test_table_entries_follow_each_row():
    table = _shortrepr.byte_table([",0\n", ",12\n", ""])
    x = np.array([0.0, 2.0 ** 60, 0.1, 1e-5, 7.25])
    keys = np.array([1, 0, 2, 1, 0])
    want = "0.0,12\n1.152921504606847e+18,0\n0.11e-05,12\n7.25,0\n"
    assert _shortrepr.time_text(x, keys, table) == want
    assert _shortrepr.keyed_text(keys, table) == ",12\n,0\n,12\n,0\n"


def test_chunk_memory_per_row():
    # Peak allocation of one 16,384-row chunk: the first rows of a
    # restarted run, whose times run from below 1e-3 to about 180.  The
    # digit search and the text are worked on in place, so it peaks at
    # 69.2 B a row, while the digits are written (a quotient buffer and
    # its product by ten beside the columns); it was 65.1 B a row, on the
    # digit-search side, when np.divmod wrote them, and 137 B a row with
    # a fresh array for every step.
    tr = simulate_restarted(ModelParams(100, 2.0), 200.0, SeedSpec(1))
    rows = 1 << 14
    times = tr.times[:rows]
    keys = tr.states[:rows].astype(np.intp)
    table = _shortrepr.byte_table([f",{state}\n" for state in range(101)])
    tracemalloc.start()
    try:
        text = _shortrepr.time_text(times, keys, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "".join(f"{t!r},{s}\n" for t, s in zip(times.tolist(), keys.tolist()))
    assert peak / rows <= 72, peak
