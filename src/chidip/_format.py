"""Exact ``'%.15g' % x`` and ``repr(x)`` spellings of a float64 array.

``g15(v)`` and ``shortest(v)`` return, as one ASCII ``bytes`` per element,
what CPython's ``'%.15g' %`` and ``repr`` give, by array arithmetic.

Digits.  For 1e-280 <= |v| < 1e280, e = floor(log10 |v|) comes from
``np.log10``, corrected by comparing |v| with the least doubles >= 10^e
and 10^(e+1).  X = |v|·10^(P−1−e), in [10^(P−1), 10^P), is a double-double:
10^k is hi + lo from exact integers, and Dekker's two-product gives |v|·hi
exactly.  X splits into an integer I and a fraction t within 1e-13 of the
exact one (relative error below 2^-103, X < 10^17).  ``g15`` takes P = 15
and the integer nearest X, as C's correctly rounded ``%.15g`` does.
``shortest`` takes P = 17 and the round-trip interval [X − h_dn, X + h_up]
of half the gaps to the neighbouring doubles, the lower one halved at a
power of two.  Its answer, that of dtoa mode 0 (Steele & White, Gay), is
the multiple of the largest 10^j inside, and of several the one nearest X.
The interval is under 23 wide, so j >= 2 exactly when b mod 100 fits
inside, for b the largest integer inside, and then b − (b mod 100) is the
only such multiple.  For j <= 1 it is the nearer multiple around X, or the
other where the nearer lies outside, as it can below X at a power of two.

Proof.  Every decision compares a computed fraction with a fixed point: t
with ½, the fractions of X − h_dn and X + h_up with 0, and the distance of
X from the multiple of 10 below it with 5.  The fractions are within 1e-13
of the exact ones, so a decision at a margin of at least ``_MARGIN`` = 1e-6
is exact.  An end of the interval is open or closed by the parity of v's
mantissa, which matters only where the end is an integer: within the
margin.

Fallback.  An element decided within the margin, one outside the range
(subnormals included) that is not zero, and one not finite, is spelled by
Python's own ``%``.

Layout.  A spelling is three uint64 words, 24 bytes with byte 0 first
(little-endian): the 17 digits by SWAR division, a one-byte shift that
opens the point's byte, masks that clear the stripped zeros, the exponent
at its byte offset, and a shift for the sign and the ``0.000`` prefix;
repr's ``.0`` is the zero digit after the point.  ``view('S24').tolist()``
drops the padding.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MARGIN = 1e-6
_SMALL, _LARGE = 1e-280, 1e280   # |v| range of the arithmetic path
_K = 300                         # the tables hold 10^k and e for |k| <= _K
_WIDTH = 24                      # bytes of "-1.2345678901234567e-280"


def g15(v) -> list:
    """``('%.15g' % x).encode()`` for each x of the float64 array v."""
    return _spell(v, 15)


def shortest(v) -> list:
    """``repr(x).encode()`` for each x of the float64 array v."""
    return _spell(v, 17)


def _spell(v, p):
    """The spellings of v with p = 15 ('%.15g') or 17 (repr) digits; zero
    takes the arithmetic path as D = 0, e = 0."""
    a = np.abs(v)
    fast = (a >= _SMALL) & (a < _LARGE)
    zero = a == 0
    digits, e, close = _digits(np.where(fast, a, 1.0), p)
    np.copyto(digits, 0, where=zero)
    np.copyto(e, 0, where=zero)
    words = _words(digits, e, np.signbit(v), p)
    out = words.view(f"S{_WIDTH}").ravel().tolist()
    spelling = "%.15g" if p == 15 else "%r"
    for i in np.flatnonzero(close | ~(fast | zero)).tolist():
        out[i] = (spelling % float(v[i])).encode()
    return out


@cache
def _powers():
    """hi, lo, Veltkamp's split (hh, hl) of hi, and the least double
    >= 10^k, for k = -_K.._K; hi + lo is 10^k to within 2^-106 of it."""
    hi, lo = [], []
    for k in range(-_K, _K + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den                            # int / int rounds correctly
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    c = hi * 134217729.0
    hh = c - (c - hi)
    return hi, lo, hh, hi - hh, np.where(lo > 0, np.nextafter(hi, np.inf), hi)


def _digits(a, p):
    """(D, e, close) for positive a in range: the p-digit integer D and the
    exponent e of the digits to spell, D·10^(e+1-p), and where a decision
    fell within the margin."""
    hi, lo, hh, hl, ceil = _powers()
    e = np.floor(np.log10(a)).astype(np.intp)
    e += a >= ceil[e + (_K + 1)]
    e -= a < ceil[e + _K]
    s = (p - 1 + _K) - e
    h = hi[s]
    x = a * h
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    g, gl = hh[s], hl[s]
    xl = ((ah * g - x) + ah * gl + al * g) + al * gl + a * lo[s]
    fh = np.floor(x)
    f = (x - fh) + xl
    fl = np.floor(f)
    t = f - fl
    i = fh.astype(np.int64) + fl.astype(np.int64)
    tie = np.abs(t - 0.5) < _MARGIN
    nearest = i + (t > 0.5)
    if p == 15:
        d, close = nearest, tie
    else:
        m, exp2 = np.frexp(a)
        up = np.ldexp(h, exp2 - 54)                  # h_up = ulp/2 · 10^s
        down = np.ldexp(h, exp2 - 54 - (m == 0.5))
        ta, tb = t - down, t + up
        fa, fb = np.floor(ta), np.floor(tb)
        first = i + fa.astype(np.int64) + 1          # integers inside
        last = i + fb.astype(np.int64)
        width = last - first
        r100 = last - last // 100 * 100
        below = i // 10 * 10
        off = (i - below) + t - 5.0                  # X − (below + 5)
        nearer = below + 10 * (off > 0)
        inside = (nearer >= first) & (nearer <= last)
        ten = np.where(inside, nearer, 2 * below + 10 - nearer)
        hundred = r100 <= width
        by_ten = ~hundred & (r100 - r100 // 10 * 10 <= width)
        d = np.where(hundred, last - r100, np.where(by_ten, ten, nearest))
        close = ((np.abs(ta - fa - 0.5) > 0.5 - _MARGIN)  # near an integer
                 | (np.abs(tb - fb - 0.5) > 0.5 - _MARGIN)
                 | by_ten & (np.abs(off) < _MARGIN)
                 | ~(hundred | by_ten) & tie)
    carry = d >= 10**p
    np.copyto(d, 10 ** (p - 1), where=carry)
    e += carry
    return d, e, close


@cache
def _layout(p):
    """Per exponent e (index e + _K) for P = p digits: the point's byte (24:
    none), the rule for the body's length (n + dot where the n significant
    digits exceed k1, else k2) and the exponent suffix; per (e, sign),
    index 2 (e + _K) + negative, the prefix and its length in bits."""
    rows = []
    for e in range(-_K, _K + 1):
        if not -4 <= e < (15 if p == 15 else 16):        # d.ddde+XX
            rows.append((1, 1, 1, 1, b"e%+03d" % e, b""))
        elif e < 0:                                      # 0.000ddd
            rows.append((_WIDTH, 0, 0, 0, b"", b"0.000"[:1 - e]))
        else:                                            # ddd.ddd, repr ddd.0
            rows.append((e + 1, e + 1, 1, e + 1 + 2 * (p == 17), b"", b""))
    point, k1, dot, k2, suffix, zeros = zip(*rows)
    prefixes = [sign + z for z in zeros for sign in (b"", b"-")]
    return (*map(np.array, (point, k1, dot, k2)), _words_of(suffix),
            _words_of(prefixes),
            np.array([8 * len(s) for s in prefixes], np.uint64))


def _words_of(strings):
    return np.array([int.from_bytes(s, "little") for s in strings], np.uint64)


def _per_word(table):
    """A (25, 24) table of bytes as three per-word tables of uint64."""
    return [np.ascontiguousarray(w)
            for w in table.astype(np.uint8).view(np.uint64).T]


# per byte position i = 0..24: the bytes below i, those above i, '.' at i
_I, _BYTE = np.arange(_WIDTH + 1)[:, None], np.arange(_WIDTH)
_BELOW = _per_word(np.where(_BYTE < _I, 0xFF, 0))
_ABOVE = _per_word(np.where(_BYTE > _I, 0xFF, 0))
_POINT = _per_word(np.where(_BYTE == _I, 0x2E, 0))
_ASCII = np.uint64(0x3030303030303030)


def _swar8(c):
    """The 8 decimal digits of each c < 10^8 as bytes 0-9, the first digit
    in the lowest byte: split into 4-digit, 2-digit and 1-digit lanes."""
    hi = c // np.uint64(10000)
    c = hi | (c - hi * np.uint64(10000)) << np.uint64(32)
    hi = (c * np.uint64(5243)) >> np.uint64(19) & np.uint64(0x7F0000007F)
    c = hi | (c - hi * np.uint64(100)) << np.uint64(16)
    hi = (c * np.uint64(103)) >> np.uint64(10) & np.uint64(0xF000F000F000F)
    return hi | (c - hi * np.uint64(10)) << np.uint64(8)


def _words(d, e, negative, p):
    """The spellings of D·10^(e+1-p), signed, as an (n, 3) uint64 array."""
    n = d.size
    d = d.view(np.uint64) * np.uint64(10 ** (17 - p))      # 17 digits
    tens = d // np.uint64(10)
    chunks = np.empty(2 * n, np.uint64)
    chunks[:n] = d // np.uint64(10**9)
    chunks[n:] = tens - chunks[:n] * np.uint64(10**8)
    last = d - tens * np.uint64(10)
    chunks = _swar8(chunks)
    length = (np.frexp(chunks.astype(np.float64))[1] + 7) >> 3
    sig = np.where(last != 0, 17,
                   np.where(chunks[n:] != 0, 8 + length[n:], length[:n]))
    w = (chunks[:n] + _ASCII, chunks[n:] + _ASCII, last + np.uint64(48))
    eight, top = np.uint64(8), np.uint64(56)
    shifted = (w[0] << eight, w[1] << eight | w[0] >> top,
               w[2] << eight | w[1] >> top)

    point, k1, dot, k2, suffix, prefix, pbits = _layout(p)
    ei = e + _K
    at = point[ei]
    body = np.where(sig > k1[ei], sig + dot[ei], k2[ei])
    sh = (8 * body).astype(np.uint64)
    sfx = suffix[ei]
    # the suffix at byte `body`: shifts by a wrapped negative count give 0
    words = [(w[j] & _BELOW[j][at] | shifted[j] & _ABOVE[j][at]
              | _POINT[j][at]) & _BELOW[j][body]
             | sfx << (sh - off) | sfx >> (off - sh)
             for j, off in enumerate(np.uint64([0, 64, 128]))]
    pi = 2 * ei + negative
    b = pbits[pi]
    out = np.empty((n, 3), np.uint64)
    out[:, 0] = words[0] << b | prefix[pi]
    out[:, 1] = words[1] << b | words[0] >> (np.uint64(64) - b)
    out[:, 2] = words[2] << b | words[1] >> (np.uint64(64) - b)
    return out
