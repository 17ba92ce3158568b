"""Text of trajectory export columns, a chunk of rows at a time.

Each time is written exactly as float.__repr__ writes it: the shortest
decimal that reads back as the same double, nearest to it among those,
an exact tie to the even one.  For a time in [1e-4, 2**53) that is not a
power of two, that decimal is found with uint64 integer arithmetic over
the whole chunk (the exact integer test that Ryu rests on: Adams, PLDI
2018); every other time goes through float.__repr__.  The search starts
at a digit count read from a table by the binary exponent, and the
digits are written with floor division by ten, for which numpy has a
multiply-and-shift path (Granlund & Montgomery, PLDI 1994) that divmod
lacks.

Each row's text is followed by an entry of a byte table chosen by the
row's key: ",state,flag\\n" in CSV, the JSON separator, or a state or flag
of a JSON column.  Every integer array and constant in the digit search
is uint64, so numpy 1.x value-based casting and numpy 2 (NEP 50) give
the same dtypes.  Each step writes over an array the chunk already holds
where it can, and each array is dropped once used, so a chunk peaks at
about 69 B a row (tracemalloc), not the 137 B of a fresh array per step.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64

# The fraction length the search starts at, by s = 1 - q for x = m * 2**q
# (1 <= s <= 67 on [1e-4, 2**53)): the digit count of 2**(s-1), or s - 1
# if fewer.  _shortest says why a decimal that long fits.  Entry 0 is
# never read.
_START = np.array([0] + [min(len(str(2 ** (s - 1))), s - 1) for s in range(1, 68)],
                  dtype=np.uint64)
# 5**j for every fraction length j the search tries: at most 20, the
# digits of 2**66; 5**20 < 2**47 keeps 2m * 5**j within 106 bits.
_POW5 = np.array([5 ** j for j in range(21)], dtype=np.uint64)
# 10**k up to the 16 digits of an integer part below 2**53.
_POW10 = np.array([10 ** k for k in range(17)], dtype=np.uint64)

_FRAC_BITS = _U((1 << 52) - 1)
_HIDDEN_BIT = _U(1 << 52)
_LO32 = _U(0xFFFF_FFFF)
_ONES = _U(0xFFFF_FFFF_FFFF_FFFF)
_ZERO = _U(0)
_ONE = _U(1)
_TEN = _U(10)


def _pow5(j: np.ndarray) -> np.ndarray:
    """5**j of each row.  take casts uint64 indices to a new intp array;
    the int64 view of j (every j is below 21) is read as it is."""
    return _POW5.take(j.view(np.int64))


def byte_table(strings: list) -> np.ndarray:
    """Row k holds ASCII strings[k] as uint8 codes, NUL-padded to the
    longest of `strings`."""
    raw = [s.encode("ascii") for s in strings]
    width = max(map(len, raw))
    chars = np.frombuffer(b"".join(b.ljust(width, b"\0") for b in raw), np.uint8)
    return chars.reshape(len(raw), width)


def keyed_text(keys: np.ndarray, table: np.ndarray) -> str:
    """Table entry keys[i] of each row, one after another."""
    # Most entries of a state table carry padding, where translate beats
    # replace; time_text leaves few NULs, where replace wins.
    return table.take(keys, axis=0).tobytes().translate(None, b"\0").decode("ascii")


def time_text(times: np.ndarray, keys: np.ndarray, table: np.ndarray) -> str:
    """repr(times[i]) followed by table entry keys[i], for each row i.

    Each digit row takes one np.floor_divide of the column by ten and one
    multiply and subtract for the remainder, q - 10 * (q // 10), and the
    quotient's buffer swaps with q's for the next digit.  By a constant,
    floor_divide multiplies and shifts where np.divmod divides: on 8,192
    uint64 values it took 4.6 us against 33 us, and the whole digit 11 us
    (numpy 2.4, x86-64).
    """
    exact, frac, j = _shortest(times)
    # frac holds c, which has j fraction digits; x.0 is written for j = 0.
    # Below 2**53 the integer part of c * 10**-j is that of x: an integer
    # between the two would be a shorter decimal inside x's rounding
    # interval.  whole * 10**j, as whole * 5**j << j, fits: it is at most
    # c.
    whole = np.where(exact, times, 0.0)
    whole = np.floor(whole, out=whole).astype(np.uint64)
    scaled = _pow5(j)
    scaled *= whole
    scaled <<= j
    frac -= scaled
    del scaled
    # From here j is the length of each fraction: at least one digit, and
    # none on a row left to repr.
    np.maximum(j, _ONE, out=j)
    j *= exact
    wi = len(str(int(whole.max())))
    wf = int(j.max())
    head = wi + 1 + wf
    left = np.flatnonzero(~exact).tolist()
    reprs = [float.__repr__(x).encode("ascii") for x in times[left].tolist()]
    width = max([head, *map(len, reprs)])
    # Row k of `char` holds character k of every row's text: the integer
    # part and the fraction right-aligned in their fields, or the repr of
    # a row left to it, then the table entry.  NUL marks a place the row
    # leaves empty; the transposed bytes, NULs deleted, are the text.
    char = np.zeros((width + table.shape[1], times.size), np.uint8)
    lead = whole >= _POW10[wi - 1:0:-1, None]  # taken before the digits use whole up
    quot = np.empty_like(whole)
    for q, last, digits in ((whole, wi - 1, wi), (frac, head - 1, wf)):
        for k in range(last, last - digits, -1):
            # The remainder, a digit, goes into its uint8 row.
            np.floor_divide(q, _TEN, out=quot)
            q -= quot * _TEN
            char[k] = q
            q, quot = quot, q
    del whole, frac, q, quot
    char[:head] += np.uint8(ord("0"))
    char[wi] = np.uint8(ord("."))
    char[:wi - 1] *= lead
    # Fraction place k from the right is written where j >= k.
    char[head - wf:head] *= j >= np.arange(wf, 0, -1, dtype=np.uint64)[:, None]
    del lead, j
    char[:head] *= exact
    for row, text in zip(left, reprs):
        char[:len(text), row] = np.frombuffer(text, np.uint8)
    np.ascontiguousarray(table.T).take(keys, axis=1, out=char[width:])
    text = char.T.tobytes()
    del char
    text = text.replace(b"\0", b"")
    return text.decode("ascii")


def _shortest(x: np.ndarray) -> tuple:
    """(exact, c, j): where exact, repr(x) is c * 10**-j with j >= 0
    fraction digits, the least j for which a decimal lies strictly inside
    x's rounding interval, and c = round(x * 10**j).

    exact is False outside [1e-4, 2**53) and at powers of two (whose
    interval is lopsided).  The search starts where a decimal always
    fits and steps down while one still does.  The start, _START[s], is
    read by the binary exponent alone: d, the digit count of 2**(s-1),
    has 10**-d < 2**q, so d-digit decimals are spaced closer than x's
    interval is wide and one lies strictly inside it; with one digit
    fewer, some x of the binade has none.  It is clamped to s - 1, the
    fraction digits of x itself, so r >= 1 below.  Any start where a
    decimal fits ends at the same (exact, c, j): each decimal of j - 1
    digits is one of j digits, so the first j at which none fits does
    not depend on where the search began.
    """
    exact = (x >= 1e-4) & (x < 2.0 ** 53) & (x.view(np.uint64) & _FRAC_BITS != _ZERO)
    x = np.where(exact, x, 1.5)
    bits = x.view(np.uint64)
    # x = m * 2**q with 2**52 <= m < 2**53 and q = biased exponent - 1075.
    m2 = bits & _FRAC_BITS
    m2 |= _HIDDEN_BIT
    m2 <<= _ONE
    s = bits >> _U(52)
    s = np.subtract(_U(1076), s, out=s)
    del x, bits
    j = _START.take(s.view(np.int64))
    # A decimal on the interval's edge would need r = 0, so d == p cannot
    # hold at these j; it is refused rather than assumed.
    rows = np.flatnonzero(exact & (j > _ZERO))
    while rows.size:
        d, p = _gap(m2[rows], s[rows], j[rows] - _ONE)
        exact[rows[d == p]] = False
        rows = rows[d < p]
        del d, p
        j[rows] -= _ONE
        rows = rows[j[rows] > _ZERO]
    return exact, _round(m2, s, j), j


# x * 10**j = N / 2**r with N = 2m * 5**j and r = s - j, s = 1 - q.  A
# decimal c * 10**-j lies strictly inside x's rounding interval
# (x - 2**(q-1), x + 2**(q-1)) iff |c * 2**r - N| < 5**j, and the nearest
# c is round(N / 2**r).  N has up to 106 bits; its low 64 bits are the
# wrapped uint64 product.  r lies in 1..64 at every j the search tries on
# [1e-4, 2**53), so N mod 2**r comes from the low word alone.


def _gap(m2: np.ndarray, s: np.ndarray, j: np.ndarray) -> tuple:
    """(|round(N / 2**r) * 2**r - N|, 5**j) of each row, the first
    written over m2 and s."""
    p = _pow5(j)
    mask = np.subtract(s, j, out=s)  # r
    mask = np.subtract(_U(64), mask, out=mask)
    mask = np.right_shift(_ONES, mask, out=mask)
    rem = np.multiply(m2, p, out=m2)
    rem &= mask
    mask -= rem
    mask += _ONE
    return np.minimum(rem, mask, out=rem), p


def _round(m2: np.ndarray, s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """round(N / 2**r) of each row, an exact tie to the even integer as
    repr rounds it, written over m2 and s and returned in m2's place."""
    p = _pow5(j)
    r = np.subtract(s, j, out=s)
    # The high word of N: mh * ph + ((ml * ph + mh * pl + (ml * pl >> 32))
    # >> 32) for the 32-bit halves of m2 and p, built up in two arrays.
    t = m2 & _LO32
    t *= p & _LO32
    t >>= _U(32)
    u = m2 & _LO32
    u *= p >> _U(32)
    t += u
    u = np.right_shift(m2, _U(32), out=u)
    u *= p & _LO32
    t += u
    t >>= _U(32)
    u = np.right_shift(m2, _U(32), out=u)
    u *= p >> _U(32)
    hi = np.add(u, t, out=u)
    lo = np.multiply(m2, p, out=m2)  # the low word, N mod 2**64
    del p
    # c = (hi << (64 - r)) | (lo >> (r - 1) >> 1), and rem = N mod 2**r.
    shift = np.subtract(_U(64), r, out=t)
    c_hi = np.left_shift(hi, shift, out=hi)
    rem = np.right_shift(_ONES, shift, out=shift)
    rem &= lo
    r -= _ONE
    c = np.right_shift(lo, r, out=lo)
    c >>= _ONE
    c |= c_hi
    half = np.left_shift(_ONE, r, out=c_hi)
    c += (rem > half) | ((rem == half) & (c & _ONE == _ONE))
    return c
