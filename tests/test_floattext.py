"""The tables behind ``ptjc.floattext``, checked against Python integers.

The byte-level checks of the text itself (against ``repr``, row by row)
live with the CSV writer in test_dynamics.
"""

from fractions import Fraction

import numpy as np

from ptjc import floattext


def test_every_power_of_ten_entry():
    # 10^-k = beta 2^r with 2^125 <= beta < 2^126; the entry is g = floor(beta) + 1
    for i, k in enumerate(range(floattext.K_MIN, floattext.K_MAX + 1)):
        x = Fraction(10) ** -k
        r = x.numerator.bit_length() - x.denominator.bit_length() - 125
        while x / Fraction(2) ** r >= 2**126:
            r += 1
        while x / Fraction(2) ** r < 2**125:
            r -= 1
        g = int(floattext._G1[i]) << 63 | int(floattext._G0[i])
        assert g == int(x / Fraction(2) ** r) + 1, k
    assert i == 616


def test_column_rows_meet_the_products_bounds():
    # per (spacing, biased exponent): 10^k <= 2^q (3/4 2^q at a binade's lower end,
    # be >= 2) < 10^(k+1), and h = q + floor(log2(10^-k)) + 2 lies in 2..5, so every
    # significand times 4 2^h, plus the upper half-spacing 2^(h+1), stays below 2^60
    rows = [row.astype(object) for row in floattext._COLUMNS.view(np.int64)]  # signed
    hidden, shift, below, above = rows[0], rows[1], -rows[2], rows[3]
    g0_lo, g1_lo, g0_hi, g1_hi, g1, decpt, fixed = rows[4:]
    for column in range(4096):
        be, lower_end = column % 2048, column >= 2048 and column % 2048 > 1
        q = max(be, 1) - 1075
        k = int(decpt[column]) + floattext._DECPT_MIN
        spacing = Fraction(2) ** q * (Fraction(3, 4) if lower_end else 1)
        assert Fraction(10) ** k <= spacing < Fraction(10) ** (k + 1), column
        h = shift[column] - 2
        assert 2 <= h <= 5 and 2**h <= Fraction(10) ** -k * Fraction(2) ** (q + 2) < 2 ** (h + 1)
        assert hidden[column] == (1 << 52 if be else 0)
        assert (below[column], above[column]) == ((1 if lower_end else 2) << h, 2 << h)
        assert ((1 << 53) - 1 << shift[column]) + above[column] < 2**60
        g = int(floattext._G1[k - floattext.K_MIN]) << 63 | int(floattext._G0[k - floattext.K_MIN])
        assert (g1[column], g1_hi[column] << 32 | g1_lo[column]) == (g >> 63, g >> 63)
        assert g0_hi[column] << 32 | g0_lo[column] == g % 2**63
        assert g0_hi[column] < 2**31 and g1_hi[column] < 2**31
    # nan, inf and zero take their code from the table, every other column from its digits
    specials = {2047: floattext._NAN, 4095: floattext._INF, 2048: floattext._ZERO}
    assert {i: v // 2 for i, v in enumerate(fixed) if v} == specials


def test_shown_bytes_spell_each_layout():
    # per code, the bytes ANDed into a row; the digits 1..17 are the placeholders 'a'..'q'.
    # Digits past the last significant one are zeros, so 'b' of "a.b" shows the 0 of 1.0
    digits = np.frombuffer(b"abcdefghijklmnopq", dtype=np.uint8)
    row = np.zeros(8 * floattext.WORDS, dtype=np.uint8)
    row[8:24], row[32:49], row[49:54] = digits[:16], digits, np.frombuffer(b"e+123", np.uint8)
    row[:8] = row[31] = 255

    def text(layout, negative=False):
        got = row & floattext._SHOWN[2 * layout + negative].view(np.uint8)
        return bytes(got[got != 0]).decode()

    positional = [(-3, 1, ",0.000a"), (0, 2, ",0.ab"), (1, 1, ",a.b"), (1, 3, ",a.bc"),
                  (3, 2, ",abc.d"), (16, 17, ",abcdefghijklmnop.q"), (16, 1, ",abcdefghijklmnop.q")]
    for decpt, nsig, want in positional:
        assert text((decpt + 3) * 17 + nsig - 1) == want
        assert text((decpt + 3) * 17 + nsig - 1, negative=True) == ",-" + want[1:]
    assert text(floattext._POSITIONAL) == ",ae+23"
    assert text(floattext._POSITIONAL + 1, negative=True) == ",-ae+123"
    assert text(floattext._POSITIONAL + 2 * 16 + 1) == ",a.bcdefghijklmnopqe+123"
    assert [text(lay, neg) for lay in (floattext._INF, floattext._NAN, floattext._ZERO)
            for neg in (False, True)] == [",inf", ",-inf", ",nan", ",nan", ",0.0", ",-0.0"]
