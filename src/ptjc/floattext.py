"""Python's float ``repr`` of whole float64 arrays, laid out as CSV lines.

``float_text(values)`` gives per value a row of WORDS little-endian 8-byte
words whose nonzero bytes, in order, are ``"," + repr(value)``;
``csv_lines(text, slots, suffix)`` lays such rows side by side into the
bytes of CSV lines.  No value is formatted on its own: every step is a
NumPy operation on the whole array, in 64-bit integer arithmetic, and the
constants are uint64 arrays, so a call on a few values costs a fixed,
small number of NumPy calls.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal in the value's rounding interval,
and of two such, the closer to the value, as ``repr`` prints them.  Per
value that is three products of a 60-bit integer with g, 10^-k rounded
up to 126 bits (``_G1``, ``_G0``: one entry per k = K_MIN..K_MAX), done in
32-bit halves, then a few comparisons.  Java's ``Double.toString`` gives
the two smallest subnormals two digits (4.9e-324); that step is left out,
so 5e-324 reads as ``repr`` prints it.  The layout is ``repr``'s:
positional for -4 < decpt <= 16, with ``.0`` on integral values, else
``d.ddde+XX``; and ``-0.0``, ``inf``, ``-inf``, ``nan``.  The 56 bytes of a
row are

    0 ","  1-7 the prefix: "-", then "0." and a fraction's leading zeros, or
        "0.0", "inf", "nan"; right-aligned  8-23 digits 1-16 (the
    integer part)  31 "."  32-48 digits 1-17 (the fraction is their tail)
    49-53 "e+ddd"  24-30, 54, 55 never shown

A value's code, from the point's place and the digit count, picks its
prefix, its point and the other bytes it shows (``_SHOWN``).
"""
from __future__ import annotations

import numpy as np

K_MIN, K_MAX = -324, 292
WORDS = 7  # 8-byte words per row
WORD = np.dtype("<u8")  # the rows' byte order, whatever the host's


def _u64(x) -> np.ndarray:
    """x as a uint64 array: an operand NumPy need not inspect, as it must a Python int."""
    return np.array(x, dtype=np.uint64)


_0, _1, _2, _7, _10, _17, _32, _53, _63 = map(_u64, (0, 1, 2, 7, 10, 17, 32, 53, 63))
_100, _2048, _M32 = _u64(100), _u64(2048), _u64(0xFFFFFFFF)
_SIGNIFICAND = _u64((1 << 52) - 1)


def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """(g1, g0) per k: g = g1 2^63 + g0 = floor(beta) + 1, where 10^-k = beta 2^r and
    2^125 <= beta < 2^126."""
    g = []
    for k in range(K_MIN, K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            r = p.bit_length() - 126
            beta = p >> r if r >= 0 else p << -r
        else:
            p = 10 ** k
            beta = (1 << (125 + p.bit_length())) // p  # r = -125 - bits of 10^k
        g.append(beta + 1)
    return (np.array([x >> 63 for x in g], dtype=np.uint64),
            np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64))


_G1, _G0 = _pow10_table()

# A layout is the shape of a value's text: (decpt + 3) 17 + nsig - 1 for positional
# text, 340 + 2 (nsig - 1) + (three exponent digits) for exponent text, 374 inf, 375
# nan, 376 zero, where decpt is the point's place after the first digit and nsig the
# digits shown.  A code is twice the layout, plus 1 if the value's sign bit is set.
_POSITIONAL = 340
_INF, _NAN, _ZERO = 374, 375, 376
_DECPT_MIN, _DECPT_MAX = -323, 309  # of nonzero doubles


def _column_table() -> np.ndarray:
    """Per column be + 2048 s, the rows float_text gathers (``_C_*`` name them).

    be is the biased exponent and s = 1 where the significand field is 0:
    for be > 1 the value is then the lower end of a binade, where the
    spacing below it is half that above.  Rows: the hidden bit; 2 + h; the
    lower half-spacing negated and the upper half-spacing, both times 2^h;
    the 32-bit halves of g0 and g1, low halves first; g1; k - _DECPT_MIN, for
    k = floor(log10) of the spacing (of 3/4 of it for s = 1); and the fixed
    code of the columns of nan, inf and zero, else 0.
    """
    be = np.tile(np.arange(2048, dtype=np.int64), 2)
    irregular = (be > 1) & (np.arange(4096) >= 2048)
    q = np.maximum(be, 1) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = q + ((-k * 913124641741) >> 38) + 2  # q + floor(log2(10^-k)) + 2, in 2..5
    g1, g0 = _G1[k - K_MIN], _G0[k - K_MIN]
    table = np.zeros((11, 4096), dtype=np.uint64)  # negatives wrap mod 2^64
    table[:4] = (be > 0) << 52, 2 + h, -((2 - irregular) << h), 2 << h
    table[4:9] = g0 & 0xFFFFFFFF, g1 & 0xFFFFFFFF, g0 >> 32, g1 >> 32, g1
    table[9] = k - _DECPT_MIN
    table[10, [2047, 4095, 2048]] = 2 * np.array([_NAN, _INF, _ZERO])
    return table


_COLUMNS = _column_table()
_C_HIDDEN, _C_SHIFT, _C_OFFSETS, _C_LO, _C_HI, _C_G1, _C_DECPT = (
    0, 1, slice(2, 4), slice(4, 6), slice(6, 8), 8, 9)  # then the fixed codes

# 10^(17 - nd), which scales a value's nd digits to 17
_SCALE = _u64([10 ** max(17 - nd, 0) for nd in range(19)])
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
# 17 digits as four groups of four and the last: divisors, then each group's carry
_DIVISORS = _u64([[10 ** 13], [10 ** 9], [10 ** 5], [10], [1]])
_CARRIES = _u64([[10 ** 4]] * 3 + [[10]])
# where each group's rows start in _ASCII and in _PLACE
_ASCII_AT = _u64([[0], [10000], [0], [10000], [20000]])
_PLACE_AT = _u64([[0], [0], [20000], [20000], [20000]])  # added to _ASCII_AT


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0..9999 as the low half of a word, first digit lowest, then as
    its high half, then of 0..9 in its low byte; and per (group, value), the place in
    1..17 of the group's last nonzero digit, 0 for none (the fifth group is the 17th
    digit alone)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # of 0..9999, first first
    ascii = np.empty(20010, dtype=np.uint64)
    four = ascii[:10000]
    four[:] = 0x30303030
    for i, digit in enumerate(digits):
        four |= digit.astype(np.uint64) << 8 * i
    np.left_shift(four, 32, out=ascii[10000:20000])
    ascii[20000:] = 0x30 + np.arange(10)
    value = np.arange(10000)
    last = 4 - (value % 10 == 0) - (value % 100 == 0) - (value % 1000 == 0)  # for value > 0
    place = np.zeros((5, 10000), dtype=np.uint8)
    place[:4] = np.where(value > 0, last.astype(np.uint8) + np.uint8(4) * np.arange(
        4, dtype=np.uint8)[:, None], 0)
    place[4, 1:10] = 17
    return ascii, place.ravel()


_ASCII, _PLACE = _digit_tables()


def _code_table() -> np.ndarray:
    """The code of a value without its sign, at (decpt - _DECPT_MIN) 17 + nsig."""
    decpt = np.arange(_DECPT_MIN, _DECPT_MAX + 1, dtype=np.int16).repeat(17)
    nsig = np.tile(np.arange(1, 18, dtype=np.int16), _DECPT_MAX - _DECPT_MIN + 1)
    wide = (decpt > 100) | (decpt < -98)  # |decpt - 1| >= 100
    code = 2 * np.where((decpt >= -3) & (decpt <= 16), (decpt + 3) * 17 + nsig - 1,
                        _POSITIONAL + 2 * nsig - 2 + wide)
    return np.concatenate([[0], code]).astype(np.uint16)


def _shown_table() -> np.ndarray:
    """Per code, a row's words ANDed with it: its prefix (word 0), its point (word 3), and
    0xFF at the other bytes it shows, 0 at the rest."""
    layout = np.arange(2 * (_ZERO + 1)) // 2
    negative = np.arange(len(layout)) % 2 == 1
    decpt, nsig = layout // 17 - 3, layout % 17 + 1
    expo = (layout >= _POSITIONAL) & (layout < _INF)
    nsig[expo] = (layout[expo] - _POSITIONAL) // 2 + 1
    wide = expo & (layout % 2 == 1)
    special = layout >= _INF
    a = np.where(expo, 1, np.maximum(decpt, 0))  # digits before the point
    b = np.where(expo, nsig, np.maximum(nsig, decpt + 1))  # digits shown in all
    a[special], b[special] = 0, 0
    prefix = []
    for lay, neg, zeros, point in zip(layout.tolist(), negative.tolist(), (-decpt).tolist(),
                                      (a == 0).tolist()):
        text = b"-" if neg and lay != _NAN else b""
        if lay >= _INF:
            text += {_INF: b"inf", _NAN: b"nan", _ZERO: b"0.0"}[lay]
        elif point:
            text += b"0." + b"0" * zeros
        prefix.append(b"," + text.rjust(7, b"\0"))
    shown = np.zeros((len(layout), 8 * WORDS), dtype=np.uint8)
    shown[:, :8] = np.frombuffer(b"".join(prefix), dtype=np.uint8).reshape(-1, 8)
    digit = np.arange(1, 18)
    shown[:, 8:24] = 255 * (digit[:16] <= a[:, None])
    shown[:, 31] = ord(".") * ((a > 0) & (b > a))
    shown[:, 32:49] = 255 * ((digit > a[:, None]) & (digit <= b[:, None]))
    shown[:, [49, 50, 52, 53]] = 255 * expo[:, None]
    shown[:, 51] = 255 * wide
    return shown.view(WORD)


_CODE = _code_table()
_SHOWN = _shown_table()
_FARTHER = np.array([0, 0, 0, 1, 0, 0, 1, 1], dtype=bool)  # see _shortest
_STEPS = _u64([[10], [1]])
_ENDS = _STEPS << _2
_ONES = _u64(2 ** 64 - 1)


def _exponent_table() -> np.ndarray:
    """'e', the sign and three digits of each exponent decpt - 1, from bit 8, at
    decpt - _DECPT_MIN."""
    x = np.arange(_DECPT_MIN - 1, _DECPT_MAX)
    text = [ord("e") + 0 * x, np.where(x < 0, ord("-"), ord("+"))]
    text += [0x30 + np.abs(x) // 10 ** i % 10 for i in (2, 1, 0)]
    return sum(byte.astype(np.uint64) << 8 * (i + 1) for i, byte in enumerate(text))


_EXPONENT = _exponent_table()


def _scaled(cp: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(vbl, vb, vbr): each cp g / 2^127 rounded to odd, so 4 v 10^-k and the interval's ends.

    As Schubfach's rop: z = (g1 cp mod 2^64) // 2 + hi(g0 cp); the result is
    hi(g1 cp) + floor(z / 2^63), its last bit set unless z is a multiple of 2^63.
    Both hi products are taken at once from 32-bit halves: g < 2^63 and cp < 2^60
    keep each partial sum below 2^64.  cp is overwritten.
    """
    a_lo, a_hi = columns[_C_LO, None], columns[_C_HI, None]  # (g0, g1) halves
    z = columns[_C_G1] * cp
    z >>= _1
    hi = cp >> _32
    lo = np.bitwise_and(cp, _M32, out=cp)
    x, tmp = a_lo * lo, np.empty((2,) + cp.shape, dtype=np.uint64)
    x >>= _32
    x += np.multiply(a_lo, hi, out=tmp)
    x += np.multiply(a_hi, lo, out=tmp)
    x >>= _32
    x += np.multiply(a_hi, hi, out=tmp)
    z += x[0]
    vb = x[1]
    vb += np.right_shift(z, _63, out=tmp[0])
    z <<= _1
    np.bitwise_or(vb, z != _0, out=vb)
    return vb


def _shortest(bits: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """f with f 10^k the shortest decimal in the rounding interval: of the two multiples
    of 10^(k+1) around v, the one in the interval if only one is; else of the two multiples
    of 10^k, the one in it if only one is, else the closer to v (the even one on a tie).

    Row 0 holds the multiples of 10, row 1 those of 1.  vb = 4 v 10^-k, so v lies
    below s + 1/2 when vb & 3 < 2, at it when vb & 3 == 2, and s is even when bit 2 of
    vb is 0: ``_FARTHER[vb & 7]`` says whether s + 1 is the closer.
    """
    vbl, vb, vbr = scaled
    odd = bits & _1  # an odd significand's interval is open
    low = np.empty((2, len(bits)), dtype=np.uint64)
    s = np.right_shift(vb, _2, out=low[1])
    np.floor_divide(s, _10, out=low[0])
    low[0] *= _10
    ends = low << _2
    in_low = ends >= vbl + odd
    ends += _ENDS
    ends += odd
    in_high = ends <= vbr
    pick_high = in_low == in_high
    pick_high &= _FARTHER.take(vb & _7)
    pick_high |= in_low < in_high
    np.add(low, _STEPS, out=low, where=pick_high)
    return np.where((in_low[0] != in_high[0]) & (s >= _100), low[0], low[1])


def float_text(values: np.ndarray) -> np.ndarray:
    """Rows (*values.shape, WORDS) of dtype WORD for a float64 array: the nonzero bytes
    of each row, in order, are ``"," + repr(value)``."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.uint64).ravel()
    column = bits << _1
    column >>= _53  # the biased exponent
    c = bits & _SIGNIFICAND
    np.add(column, _2048, out=column, where=c == _0)
    columns = _COLUMNS[:_C_DECPT].take(column, axis=1)  # the rest after these are freed
    cp = np.empty((3, len(bits)), dtype=np.uint64)  # 4 c 2^h and the interval's ends
    c |= columns[_C_HIDDEN]
    np.left_shift(c, columns[_C_SHIFT], out=cp[1])
    np.add(cp[1], columns[_C_OFFSETS], out=cp[::2])
    del c
    f = _shortest(bits, _scaled(cp, columns))
    del cp, columns

    nd = _POW10.searchsorted(f, side="right")
    f *= _SCALE.take(nd)
    groups = f // _DIVISORS
    groups[1:] -= groups[:-1] * _CARRIES
    groups += _ASCII_AT
    digits = _ASCII.take(groups)
    groups += _PLACE_AT
    nsig = _PLACE.take(groups).max(axis=0)
    del groups
    decpt, fixed = _COLUMNS[_C_DECPT:].take(column, axis=1)
    decpt += nd.view(np.uint64)  # less _DECPT_MIN
    code = np.maximum(_CODE.take(decpt * _17 + nsig, mode="clip"), fixed)
    code |= bits >> _63

    rows = np.empty((len(bits), WORDS), dtype=WORD)
    rows[:, 0:4:3] = _ONES  # the prefix and the point come from _SHOWN
    head, tail = digits[0:4:2] | digits[1:4:2]  # digits 1-8 and 9-16
    rows[:, 1] = rows[:, 4] = head
    rows[:, 2] = rows[:, 5] = tail
    np.bitwise_or(digits[4], _EXPONENT.take(decpt, mode="clip"), out=rows[:, 6])
    rows &= _SHOWN.take(code, axis=0)
    return rows.reshape(values.shape + (WORDS,))


def csv_lines(text: np.ndarray, slots, suffix: bytes) -> np.ndarray:
    """The bytes of one CSV line per row of ``text`` (rows, columns, WORDS), as
    ``float_text`` gives it: the fields of columns ``slots`` joined by commas, then
    ``suffix``, which may not hold a NUL."""
    if b"\0" in suffix:
        raise ValueError(f"CSV row suffix {suffix!r} holds a NUL")
    tail = np.frombuffer(suffix + bytes(-len(suffix) % 8), dtype=WORD)
    rows, fields = len(text), WORDS * len(slots)
    line = np.empty((rows, fields + len(tail)), dtype=WORD)
    np.take(text, slots, axis=1, out=line[:, :fields].reshape(rows, len(slots), WORDS))
    line[:, fields:] = tail
    data = line.view(np.uint8)
    data[:, 0] = 0  # no comma before the first field
    return data[data != 0]
