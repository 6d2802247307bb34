"""Scalar special functions the state constructors read.

Everything here works on scalars, no arrays.  The terminating
hypergeometric sum is evaluated exactly, in Python integers, one step of
Gauss's contiguous relation per order, because its alternating terms cancel
catastrophically in floating point already for modest orders.  The values that
may pass the float range, the exact sum's and the Bessel series', travel as
logarithms."""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__: list[str] = []

_LN2 = math.log(2.0)


def _hyp2f1_rows(hi: int, c: float, z: float):
    """Yield 2F1(-lo, -hi; c; z), lo = 0, 1, ..., as the unreduced integer ratios that nesting
    from the inside out, 1 + a_0 (1 + a_1 (...)), a_i = (lo - i)(hi - i) z / ((i + 1)(c + i)),
    gives at c and z's exact ratios, den(lo) = prod_{i<lo} (i + 1) z_den (c_num + i c_den) > 0;
    each from the two before, without a division, by Gauss's contiguous relation (A & S 15.2.10)
    (c + n) F(n + 1) = (2n + c - (n - hi) z) F(n) + n (z - 1) F(n - 1) times den(n + 1)."""
    c_num, c_den = c.as_integer_ratio()
    z_num, z_den = z.as_integer_ratio()
    # each denominator is odd 2^shift, a float's odd part 1: shift by e and f, do not multiply
    e, f = (c_den & -c_den).bit_length() - 1, (z_den & -z_den).bit_length() - 1
    # at step n, a = (2n + c - (n - hi) z) c_den z_den and s = c_num + n c_den
    a, a1 = c_num * z_den + hi * z_num * c_den, (2 * z_den - z_num) * c_den
    b0, z_odd = (z_num - z_den) * (z_den >> f) * (c_den >> e), z_den >> f
    prev, num, den, s = 0, 1, 1, c_num
    for j in itertools.count(1):  # j = n + 1
        yield num, den
        prev, num = num, j * a * num + (j * (j - 1) ** 2 * b0 * (s - c_den) * prev << (e + f))
        den = j * z_odd * s * den << f
        a += a1
        s += c_den


def _ln_ratio(num: int, den: int) -> tuple[float, float]:
    """(sign, ln|num/den|), den > 0, sign 0.0 where num = 0.  Past 2^1000 the ratio is shifted
    back by floor(log2|num/den|) - 1000 bits, from the bit lengths and one compare: equal
    rationals give equal bits, and no `gcd` is taken."""
    if num == 0:
        return 0.0, 0.0
    size = abs(num)
    shift = max(0, size.bit_length() - den.bit_length() - 1000)
    if shift and size < den << (shift + 1000):  # floor(log2) is one below the bit lengths' gap
        shift -= 1
    return (1.0 if num > 0 else -1.0), math.log(size / (den << shift)) + shift * _LN2


def _hyp2f1_row(m: int, n: int, c: float, z: float) -> tuple[int, int]:
    """2F1(-m, -n; c; z) as its exact ratio (num, den): row min(m, n) of column max(m, n)."""
    return next(itertools.islice(_hyp2f1_rows(max(m, n), c, z), min(m, n), None))


def _bessel_i_series(c: float, x: float) -> np.longdouble:
    """ln sum_q x^{2q} / (q! (c)_q): ln of I_{c-1}(2x) over its first term x^{c-1} / Gamma(c),
    each term the one before times x / (q + 1) and x / (c + q), so no float x^2 is rounded;
    Kahan-summed until a term falls below 1e-17 of the total, in units of 2^500 wherever the
    total passes 2^500 or c < 2^-500, so that the next term, at most 2^500 x^2 / c, stays
    finite; inf where a term is inf (x^2 past the float range).  The terms grow up to
    q = min(x, x^2 / c) or so, and the sum takes about that many steps.  The units are
    added in np.longdouble, whose step at ln S ~ 6e5 is 6e-14, not a float's 1.2e-10; where
    np.longdouble is a float64, as on some platforms, the log is only as good as a float's."""
    total, term, comp, units = 1.0, 1.0, 0.0, 0
    for q in itertools.count():
        if total > 2.0**500 or c + q < 2.0**-500:  # a power of two: no bit is lost
            total, term, comp, units = total / 2**500, term / 2**500, comp / 2**500, units + 1
        term = term * x / (q + 1) * x / (c + q)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term < 1e-17 * total or total == math.inf:
            return math.log(total) + units * 500 * np.log(np.longdouble(2))

