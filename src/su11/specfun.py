"""Scalar special functions used by the state constructors.

Everything here works on scalars, no arrays.  The terminating
hypergeometric sum is evaluated exactly, in Python integers, one step of
Gauss's contiguous relation per order, because its alternating terms cancel
catastrophically in floating point already for modest orders; the Laguerre
polynomial avoids the same cancellation with its upward recurrence.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["pochhammer", "hyp2f1_terminating", "bessel_i", "laguerre"]

_LN_MAX = math.log(np.finfo(np.float64).max)
_LN_TINY = math.log(np.finfo(np.float64).tiny)  # below this e^x is subnormal or 0


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x(x+1)...(x+n-1), with the empty product equal to 1."""
    if n < 0:
        raise ValueError(f"pochhammer order must be >= 0, got {n}")
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


def hyp2f1_terminating(m: int, n: int, c: float, z: float) -> float:
    """2F1(-m, -n; c; z) for integers m, n >= 0, whose min(m, n) + 1 terms alternate in sign:
    summed exactly, by `_hyp2f1_rows` down column max(m, n) to row min(m, n), and rounded once,
    since integer true division rounds correctly."""
    if m < 0 or n < 0:
        raise ValueError(f"orders must be >= 0, got ({m}, {n})")
    if c <= 0.0:
        raise ValueError(f"lower parameter must be positive, got {c}")
    num, den = next(itertools.islice(_hyp2f1_rows(max(m, n), c, z), min(m, n), None))
    return num / den


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, order nu > -1, x >= 0; inf past the
    float range."""
    if not nu > -1.0:
        raise ValueError(f"order must exceed -1, got {nu}")
    if not x >= 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0:
            return 0.0
        raise ValueError("bessel_i diverges at x = 0 for negative order")
    half = 0.5 * x
    ln_term = nu * math.log(half) - math.lgamma(nu + 1.0)
    if ln_term > _LN_MAX:
        return math.inf
    if ln_term < _LN_TINY:  # the first term underflows where I may not: add the logs
        return math.exp(ln_term + _bessel_i_series(nu + 1.0, half * half, log=True))
    return math.exp(ln_term) * _bessel_i_series(nu + 1.0, half * half)


def _bessel_i_series(c: float, hh: float, log: bool = False) -> float:
    """sum_q hh^q / (q! (c)_q): I_{c-1}(2 sqrt(hh)) over its first term hh^{(c-1)/2} / Gamma(c),
    Kahan-summed; inf past the float range, or with log, its log, summed in units of 2^1000.
    Refused where 10,001 terms do not reach its tail."""
    total, term, comp, units = 1.0, 1.0, 0.0, 0
    for q in range(10_001):
        if log and total > 2.0**1000:  # on in units of 2^1000, a power of two: no bit is lost
            total, term, comp, units = total / 2**1000, term / 2**1000, comp / 2**1000, units + 1
        term *= hh / ((q + 1) * (c + q))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term < 1e-17 * total or total == math.inf:
            return math.log(total) + units * 1000 * math.log(2.0) if log else total
    raise ValueError(f"Bessel series has not converged after 10,001 terms at (x/2)^2 = {hh}")


def laguerre(order: int, x: complex) -> complex:
    """Laguerre polynomial L_order(x) for complex argument.

    Evaluated by the upward three-term recurrence in extended precision.
    The explicit alternating sum cancels catastrophically past order ~25
    for moderate real x; the recurrence tracks the dominant solution
    there and stays accurate.  Tests cross-check it against the exact
    rational value of the sum.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    xc = np.clongdouble(complex(x))
    if order == 0:
        return complex(np.clongdouble(1.0))
    prev = np.clongdouble(1.0)
    cur = np.clongdouble(1.0) - xc
    for j in range(1, order):
        prev, cur = cur, ((2 * j + 1 - xc) * cur - j * prev) / (j + 1)
    return complex(cur)
