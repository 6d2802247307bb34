"""Scalar special functions used by the state constructors.

Everything here works on scalars, no arrays.  The terminating
hypergeometric sum is evaluated exactly, in Python integers, one step of
Gauss's contiguous relation per order, because its alternating terms cancel
catastrophically in floating point already for modest orders; the Laguerre
polynomial avoids the same cancellation with its upward recurrence.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers

import numpy as np

from .algebra import check_level

__all__ = ["pochhammer", "hyp2f1_terminating", "bessel_i", "laguerre"]

_LN2 = math.log(2.0)
_LN_MAX = math.log(np.finfo(np.float64).max)
_LN_LONG_MAX = float(np.log(np.finfo(np.longdouble).max))


def _finite(value, name: str, kind=numbers.Real):
    """value as a float, or a complex for kind numbers.Complex, refused unless it is a finite
    number of that kind: not None, a str, nan or inf, nor a complex where a real is asked."""
    if not (isinstance(value, kind) and cmath.isfinite(value)):
        raise ValueError(f"{name} must be a finite {kind.__name__.lower()}, got {value!r}")
    return complex(value) if kind is numbers.Complex else float(value)


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x(x+1)...(x+n-1), with the empty product equal to 1; 0 where a factor
    is 0, however far the others overflow."""
    n, x = check_level(n, "order"), _finite(x, "argument")
    if x.is_integer() and -n < x <= 0.0:
        return 0.0
    acc = 1.0
    for i in range(n):
        acc *= x + i
    return acc


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


def hyp2f1_terminating(m: int, n: int, c: float, z: float) -> float:
    """2F1(-m, -n; c; z) for integers m, n >= 0, whose min(m, n) + 1 terms alternate in sign:
    summed exactly by `_hyp2f1_row` and rounded once, since integer true division rounds
    correctly; +-inf past the float range."""
    m, n = check_level(m, "m"), check_level(n, "n")
    c, z = _finite(c, "lower parameter"), _finite(z, "argument")
    if c <= 0.0:
        raise ValueError(f"lower parameter must be positive, got {c}")
    num, den = _hyp2f1_row(m, n, c, z)
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, order nu > -1, x >= 0, as
    e^{ln first term + ln series}; inf past the float range.  Refused where the series' terms
    peak past q = 10,000 and its term 10,000 is not past the float range."""
    if not (isinstance(nu, numbers.Real) and nu > -1.0):
        raise ValueError(f"order must exceed -1, got {nu}")
    if not (isinstance(x, numbers.Real) and x >= 0.0):
        raise ValueError(f"argument must be >= 0, got {x}")
    if not nu < 1e305:  # lgamma(nu + 1) overflows past 2.5e305
        raise ValueError(f"order must be below 1e305, got {nu}")
    if x == 0.0:  # I_0(0) = 1, and I_nu(0) is 0 above order 0, infinite below
        if nu < 0.0:
            raise ValueError("bessel_i diverges at x = 0 for negative order")
        return float(nu == 0.0)
    if x == math.inf:
        return math.inf
    half = 0.5 * x
    ln_half = math.log(half) if half else math.log(x) - _LN2  # 0.5 x is 0 at x = 5e-324
    # the terms (x/2)^{nu + 2q} / (q! Gamma(nu + q + 1)) grow while q (nu + q) <= (x/2)^2, up
    # to q = peak, and I is at least each of them
    peak = half * x / (math.hypot(nu, x) + max(nu, 0.0))
    q = math.floor(min(peak, 10_000.0))
    if (nu + 2 * q) * ln_half - math.lgamma(q + 1.0) - math.lgamma(nu + q + 1.0) > _LN_MAX:
        return math.inf
    if peak > 10_000.0:
        raise ValueError(f"Bessel series peaks past 10,000 terms at (x/2)^2 = {half * half}")
    ln_i = nu * ln_half - math.lgamma(nu + 1.0) + _bessel_i_series(nu + 1.0, half * half)
    return math.exp(ln_i) if ln_i <= _LN_MAX else math.inf


def _bessel_i_series(c: float, hh: float) -> float:
    """ln sum_q hh^q / (q! (c)_q): ln of I_{c-1}(2 sqrt(hh)) over its first term
    hh^{(c-1)/2} / Gamma(c), Kahan-summed until a term falls below 1e-17 of the total, in units
    of 2^500 wherever the total passes 2^500 or c < 2^-500, so that the next term, at most
    2^500 hh / c, stays finite; inf where a term is inf (hh = inf).  The terms grow up to
    q = min(sqrt(hh), hh / c) or so, and the sum takes about that many steps."""
    total, term, comp, units = 1.0, 1.0, 0.0, 0
    for q in itertools.count():
        if total > 2.0**500 or c + q < 2.0**-500:  # a power of two: no bit is lost
            total, term, comp, units = total / 2**500, term / 2**500, comp / 2**500, units + 1
        term = term / ((q + 1) * (c + q)) * hh
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term < 1e-17 * total or total == math.inf:
            return math.log(total) + units * 500 * _LN2


def laguerre(order: int, x: complex) -> complex:
    """Laguerre polynomial L_order(x) for complex argument, by the upward three-term recurrence
    in extended precision: it tracks the dominant solution where the explicit alternating sum
    cancels catastrophically, past order ~25 for moderate real x.  Tests cross-check it against
    the exact rational value of the sum."""
    order, x = check_level(order, "order"), _finite(x, "argument", numbers.Complex)
    # |L_j(x)| <= (1 + |x|)^j, and no product or sum in a step passes (3 order + 3 + |x|) times it
    if order * math.log1p(abs(x)) + math.log(3.0 * order + 3.0 + abs(x)) > _LN_LONG_MAX:
        raise ValueError(f"L_{order}({x}) may leave the extended range")
    xc = np.clongdouble(x)
    if order == 0:
        return complex(np.clongdouble(1.0))
    prev = np.clongdouble(1.0)
    cur = np.clongdouble(1.0) - xc
    for j in range(1, order):
        prev, cur = cur, ((2 * j + 1 - xc) * cur - j * prev) / (j + 1)
    return complex(cur)
