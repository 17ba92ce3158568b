"""Text of trajectory export columns, a chunk of rows at a time.

Each time is written exactly as float.__repr__ writes it: the shortest
decimal that reads back as the same double, nearest to it among those,
an exact tie to the even one.  For a time in [1e-4, 2**53) that is not a
power of two, that decimal is found with uint64 integer arithmetic over
the whole chunk (the exact integer test that Ryu rests on: Adams, PLDI
2018); every other time goes through float.__repr__.

Each row's text is followed by an entry of a byte table chosen by the
row's key: ",state,flag\\n" in CSV, the JSON separator, or a state or flag
of a JSON column.  Every integer array and constant in the digit search
is uint64, so numpy 1.x value-based casting and numpy 2 (NEP 50) give
the same dtypes.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64

# 5**j for every fraction length j the search tries.  On [1e-4, 2**53)
# it starts at 17 significant digits, so j is at most 20, or 21 where
# log10 rounds down; 5**21 < 2**52 keeps 2m * 5**j within 106 bits.
_POW5 = np.array([5 ** j for j in range(22)], dtype=np.uint64)
# 10**k up to the 16 digits of an integer part below 2**53.
_POW10 = np.array([10 ** k for k in range(17)], dtype=np.uint64)

_FRAC_BITS = _U((1 << 52) - 1)
_HIDDEN_BIT = _U(1 << 52)
_LO32 = _U(0xFFFF_FFFF)
_ONES = _U(0xFFFF_FFFF_FFFF_FFFF)
_ZERO = _U(0)
_ONE = _U(1)
_TEN = _U(10)


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
    """repr(times[i]) followed by table entry keys[i], for each row i."""
    exact, c, j = _shortest(times)
    # c has j fraction digits, and x.0 is written for j = 0.  Below 2**53
    # the integer part of c * 10**-j is that of x: an integer between the
    # two would be a shorter decimal inside x's rounding interval.
    # whole * 10**j, as whole * 5**j << j, fits: it is at most c.
    whole = np.floor(np.where(exact, times, 0.0)).astype(np.uint64)
    frac = c - ((whole * _POW5.take(j)) << j)
    frac_len = np.where(exact, np.maximum(j, _ONE), _ZERO)
    wi = len(str(int(whole.max())))
    wf = int(frac_len.max())
    head = wi + 1 + wf
    left = np.flatnonzero(~exact).tolist()
    reprs = [float.__repr__(x).encode("ascii") for x in times[left].tolist()]
    width = max([head, *map(len, reprs)])
    # Row k of `char` holds character k of every row's text: the integer
    # part and the fraction right-aligned in their fields, or the repr of
    # a row left to it, then the table entry.  NUL marks a place the row
    # leaves empty; the transposed bytes, NULs deleted, are the text.
    char = np.zeros((width + table.shape[1], times.size), np.uint8)
    for q, last, digits in ((whole, wi - 1, wi), (frac, head - 1, wf)):
        for k in range(last, last - digits, -1):
            div = q // _TEN
            char[k] = q - div * _TEN
            q = div
    char[:head] += np.uint8(ord("0"))
    char[wi] = np.uint8(ord("."))
    char[:wi - 1] *= whole >= _POW10[wi - 1:0:-1, None]
    char[wi + 1:head] *= np.arange(wf, dtype=np.uint64)[:, None] >= _U(wf) - frac_len
    char[:head] *= exact
    for row, text in zip(left, reprs):
        char[:len(text), row] = np.frombuffer(text, np.uint8)
    np.ascontiguousarray(table.T).take(keys, axis=1, out=char[width:])
    return char.T.tobytes().replace(b"\0", b"").decode("ascii")


def _shortest(x: np.ndarray) -> tuple:
    """(exact, c, j): where exact, repr(x) is c * 10**-j with j >= 0
    fraction digits, the least j for which a decimal lies strictly inside
    x's rounding interval, and c = round(x * 10**j).

    exact is False outside [1e-4, 2**53) and at powers of two (whose
    interval is lopsided).  The search starts where a decimal always
    fits and steps down while one still does.  It starts at 17
    significant digits, j = 16 - floor(log10(x)): their spacing is below
    x's interval, since 10**-16 < 2**-53.  Where log10 rounds x up to the
    next power of ten, x > 9.007 * 10**e and 16 digits fit too; where it
    rounds down, j gives 18.  The start is clamped to s - 1, the fraction
    digits of x itself, so r >= 1 below.
    """
    exact = (x >= 1e-4) & (x < 2.0 ** 53) & (x.view(np.uint64) & _FRAC_BITS != _ZERO)
    x = np.where(exact, x, 1.5)
    bits = x.view(np.uint64)
    # x = m * 2**q with 2**52 <= m < 2**53 and q = biased exponent - 1075.
    m2 = ((bits & _FRAC_BITS) | _HIDDEN_BIT) << _ONE
    s = _U(1076) - (bits >> _U(52))
    j = np.minimum((16.0 - np.floor(np.log10(x))).astype(np.uint64), s - _ONE)
    # A decimal on the interval's edge would need r = 0, so d == p cannot
    # hold at these j; it is refused rather than assumed.
    rows = np.flatnonzero(exact & (j > _ZERO))
    while rows.size:
        d, p = _gap(m2[rows], s[rows], j[rows] - _ONE)
        exact[rows[d == p]] = False
        rows = rows[d < p]
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
    """(|round(N / 2**r) * 2**r - N|, 5**j) of each row."""
    p = _POW5.take(j)
    r = s - j
    mask = _ONES >> (_U(64) - r)
    rem = (m2 * p) & mask
    return np.minimum(rem, mask - rem + _ONE), p


def _round(m2: np.ndarray, s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """round(N / 2**r) of each row, an exact tie to the even integer as
    repr rounds it."""
    p = _POW5.take(j)
    r = s - j
    mh, ml = m2 >> _U(32), m2 & _LO32
    ph, pl = p >> _U(32), p & _LO32
    hi = mh * ph + ((ml * ph + mh * pl + ((ml * pl) >> _U(32))) >> _U(32))
    lo = m2 * p
    rem = lo & (_ONES >> (_U(64) - r))
    half = _ONE << (r - _ONE)
    c = (hi << (_U(64) - r)) | ((lo >> (r - _ONE)) >> _ONE)
    c += (rem > half) | ((rem == half) & (c & _ONE == _ONE))
    return c
