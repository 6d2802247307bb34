"""Matrix elements of the su(1,1) displacement operator S = exp(xi K+ - conj(xi) K-).

Three independent evaluation routes are provided on purpose:

* the recurrence walk behind `matrix_element_sum` and `matrix_columns`.
  Column m of S is the eigenvector of
  S K0 S^+ = cosh 2r K0 - sinh 2r (e^{i theta} K+ + e^{-i theta} K-) / 2
  with eigenvalue m + k, so <n|S|m> = e^{i(n-m) theta} y_n with y real and
      s_{n+1} y_{n+1} = 2[(n + k) coth 2r - (m + k) csch 2r] y_n - s_n y_{n-1},
  s_n = sqrt(n (n - 1 + 2k)), walked from the exact single term <0|S|m>.
  Walking forward is stable up to the upper turning point (m + k) e^{2r} - k
  >= m (Gautschi, SIAM Rev. 9 (1967) 24), so (n, m) is read at row
  min(n, m) of column max(n, m): as (-1)^{n-m} <m|S|n> for n > m, since
  S(xi)^+ = S(-xi).  Nothing cancels.  A block walks many columns at once,
  an element one; both share every step, so their values agree bit for bit.
* `matrix_element_hyp`: closed form through a terminating Gauss hypergeometric
  function in exact integers, once per symmetric pair (n, m), (m, n), each of its
  columns walked by Gauss's contiguous relation, not by the walk above.
* `displacement_oracle`: exponential of the truncated generator from one SVD
  of its half-size even-to-odd block, no knowledge of the closed forms or the walk.

Both element routes read through one cache, `_column`: the last 512 columns of
either route, each walked once to its diagonal and kept as its finished rows, 8 bytes
each, read by `_element`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .algebra import (StateVector, _ladder, _ln_binomials, _number, check_bargmann, check_dim,
                      check_level, raising_factors)
from .specfun import _LN2, _hyp2f1_rows, _ln_ratio

__all__ = [
    "DisplacementParams", "MatrixElementTable", "matrix_element_sum", "matrix_element_hyp",
    "matrix_columns", "column_norm_deficits", "displacement_oracle", "decomposed_apply",
]

# A walk moves the size of its values into their log scale outside [1/_BIG, _BIG], so
# e^{log scale} underflows only for elements below about 1e-289.
_BIG = 2.0**64


def _ln_cosh(r: float) -> float:
    # cosh overflows near r ~ 710; switch well before that
    if r > 20.0:
        return r + math.log1p(math.exp(-2.0 * r)) - _LN2
    # cosh r = 1 + 2 sinh(r/2)^2: log(cosh r) loses the digits below the epsilon near r = 0
    return math.log1p(2.0 * math.sinh(0.5 * r) ** 2)


@dataclass(frozen=True)
class DisplacementParams:
    """Polar data (r, theta) of the displacement amplitude.

    The operator argument is xi = r e^{i theta}; the associated disc
    coordinate is alpha = tanh(r) e^{i theta}.  theta is stored reduced to
    (-pi, pi]: kept as given there, and beyond it read as atan2(sin, cos),
    whose sine and cosine reduce their argument exactly.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        r = _number(self.r, real=True)
        if r is None or r < 0.0:
            raise ValueError(f"radial argument must be finite and >= 0, got {self.r}")
        th = _number(self.theta, real=True)
        if th is None:
            raise ValueError(f"theta must be finite, got {self.theta}")
        if abs(th) > math.pi:  # remainder(th, tau) is off by about th 3.9e-17: tau is not 2 pi
            th = math.atan2(math.sin(th), math.cos(th))
        if th <= -math.pi:
            th = math.pi
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", th)

    @property
    def alpha(self) -> complex:
        return math.tanh(self.r) * complex(math.cos(self.theta), math.sin(self.theta))


def _phases(d, theta: float):
    """e^{i d theta} for an offset d or an array of them."""
    return np.exp(1j * (d * theta))


def _parity(d):
    """(-1)^d for an integer d or an array of them."""
    return 1.0 - 2.0 * (d % 2)


def _walk(c, k: float, r: float, ln_binomial):
    """Yield (v_j, l_j) for j = 0, 1, ... with <j|S|c> = e^{i(j-c) theta} v_j e^{l_j}.

    c is a level or an array of levels, ln_binomial its `_ln_binomials` entry.
    The walk starts from <0|S|c> in log scale.  After each step, where the larger of |v| and
    |v_prev| is nonzero and outside [1/_BIG, _BIG], both are divided by it and its log is
    added to l, so the start cannot underflow and no step can overflow or underflow (a huge
    k at a tiny r shrinks v by 2^64 or more a step).  Above _BIG the larger is |v|.  Only
    arithmetic operators act on c and v, so a single level runs on plain floats.
    """
    tanh = math.tanh(r)
    # v_j = y_j rho^j; rho < 1 only where one step of y could pass the float range
    rho = min(1.0, _BIG * tanh)
    ln_rho = math.log(rho)
    # rho csch 2r: (j + k) coth 2r - (c + k) csch 2r is (j - c) csch 2r + (j + k) tanh r
    csch = rho * 2.0 * math.exp(-2.0 * r) / -math.expm1(-4.0 * r)
    shift = 2.0 * c * csch
    ln_v = 0.5 * ln_binomial + c * math.log(tanh / rho) - 2.0 * k * _ln_cosh(r)
    tanh *= rho
    v_prev, v, s = 0.0, _parity(c), 0.0
    larger, any_of = (np.maximum, np.any) if isinstance(c, np.ndarray) else (max, bool)
    for j in itertools.count():
        yield v, ln_v + (c - j) * ln_rho
        s_next = math.sqrt((j + 1) * (j + 2.0 * k))
        a = 2.0 * (j * csch + (j + k) * tanh) - shift
        v_prev, v = v, (a * v - s * v_prev) / s_next
        s = s_next * rho * rho
        size = larger(abs(v), abs(v_prev))
        out = (size > _BIG) | (size < 1.0 / _BIG) & (size > 0.0)
        if any_of(out):
            size = np.where(out, size, 1.0)
            v_prev, v = v_prev / size, v / size
            ln_v = ln_v + np.log(size)


def _column_rows(c: int, k: float, r: float):
    """Yield column c's rows v_j e^{l_j}, one np.exp per log scale: l_j moves only where
    the walk rescales, since rho = 1 above r ~ 5e-20 and (c - j) ln rho adds 0."""
    ln_binomial = float(_ln_binomials(c + 1, k)[c])
    ln_scale = None
    for v, ln_v in _walk(c, k, r, ln_binomial):
        if ln_v != ln_scale:
            ln_scale, scale = ln_v, np.exp(ln_v)
        yield v * scale  # times sign = +-1: (sign v) e^l bit for bit


@functools.lru_cache(maxsize=512)
def _column(rows, col: int, k: float, r: float) -> array:
    """Column col's rows(col, k, r), walked once to its diagonal, 8 bytes each: the last 512
    columns of either route, keyed on the route's rows, made only for a k that
    `check_bargmann` passes, so a cached column vouches for its k."""
    return array("d", itertools.islice(rows(col, check_bargmann(k), r), col + 1))


def _element(rows, n: int, m: int, k: float, params: DisplacementParams) -> complex:
    """<n|S|m> read at row min(n, m) of the cached column max(n, m) of rows(col, k, r), which
    yields e^{-i(j-col) theta} <j|S|col>: below the diagonal as (-1)^{n-m} <m|S|n>, since
    S(xi)^+ = S(-xi)."""
    col, row, sign = (m, n, 1.0) if n <= m else (n, m, -1.0 if (n - m) & 1 else 1.0)
    return sign * _column(rows, col, k, params.r)[row] * cmath.exp(1j * ((n - m) * params.theta))


def matrix_element_sum(n: int, m: int, k: float, params: DisplacementParams) -> complex:
    """<n| S |m> from the recurrence walk, read at row min(n, m) of column max(n, m).

    Each column is walked once to its diagonal, where the walk stays stable, and cached by
    `_element`.
    """
    n = n if type(n) is int and n >= 0 else check_level(n, "n")
    m = m if type(m) is int and m >= 0 else check_level(m, "m")
    if params.r == 0.0:
        check_bargmann(k)
        return complex(1.0 if n == m else 0.0)
    return _element(_column_rows, n, m, k, params)


def _closed_form(k: float, r: float) -> tuple:
    """(c = 2k, z = 1 - 1/tanh(r)^2, ln Gamma(2k), 2k ln cosh r, ln tanh r): (k, r)'s closed
    form, made once per column walked, after `check_bargmann` passes k.  Refused below
    r = 1e-150 and where lgamma(2k + n) - lgamma(2k) rounds by 2^-52 |ln Gamma(2k)| > 1e-9,
    a tenth of the 1e-8 element bound: above k ~ 1.7e5."""
    check_bargmann(k)
    if r < 1e-150:
        raise ValueError(f"closed form needs r >= 1e-150, got {r}; use matrix_element_sum")
    ln_gamma_2k = math.lgamma(2.0 * k)
    if (lost := abs(ln_gamma_2k) * 2.0**-52) > 1e-9:
        raise ValueError(f"closed form loses precision at k = {k}: its lgamma prefactor is off "
                         f"by about {lost:.1e}; use matrix_element_sum")
    t, c = math.tanh(r), 2.0 * k
    return c, 1.0 - 1.0 / (t * t), ln_gamma_2k, c * _ln_cosh(r), math.log(t)


def _closed_form_rows(hi: int, k: float, r: float):
    """Yield column hi's rows e^{-i(lo-hi) theta} <lo|S|hi>, lo = 0, 1, ...: sign (-1)^hi
    e^{ln prefactor + ln|2F1(-lo, -hi; c; z)|}, the prefactor summed once per row."""
    c, z, ln_gamma_2k, ln_cosh, ln_t = _closed_form(k, r)
    lg_hi, lf_hi, parity = math.lgamma(c + hi), math.lgamma(hi + 1.0), -1.0 if hi & 1 else 1.0
    for lo, (sign, ln_f) in enumerate(itertools.starmap(_ln_ratio, _hyp2f1_rows(hi, c, z))):
        ln_pref = 0.5 * (math.lgamma(c + lo) + lg_hi - math.lgamma(lo + 1.0) - lf_hi) - ln_gamma_2k
        yield sign and parity * sign * math.exp(ln_pref - ln_cosh + (lo + hi) * ln_t + ln_f)


def matrix_element_hyp(n: int, m: int, k: float, params: DisplacementParams) -> complex:
    """<n| S |m> through the terminating hypergeometric closed form.

    2F1 is symmetric in n and m, so (n, m) and (m, n) read one row of column max(n, m), cached
    by `_element` as the sum's are.  Undefined at r = 0, where the argument 1 - 1/tanh(r)^2
    diverges; refused below r = 1e-150, where it leaves the float range, and above k ~ 1.7e5,
    where its lgamma prefactor loses precision; the sum route covers those.
    """
    n = n if type(n) is int and n >= 0 else check_level(n, "n")
    m = m if type(m) is int and m >= 0 else check_level(m, "m")
    return _element(_closed_form_rows, n, m, k, params)


def matrix_columns(levels, k: float, params: DisplacementParams, dim: int) -> np.ndarray:
    """Columns `levels` of the displacement matrix, as a dim x len(levels) block.

    levels must be increasing.  One walk over the columns from levels[0] up,
    levels[-1] + 1 rows deep: entry (n, m) is read at row min(n, m) of column
    max(n, m), as in `matrix_element_sum`, and equals its value bit for bit.
    Each requested column is filled in as the walk passes its rows, so no row
    past a column's diagonal is ever read.  No entry depends on dim, so a
    column's norm deficit measures truncation alone.
    """
    k = check_bargmann(k)
    levels, dim = [check_level(m, "m") for m in levels], check_dim(dim)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"column levels must be increasing, got {levels}")
    first, top = levels[0], levels[-1]
    if not top < dim:
        raise ValueError(f"column index {top} outside dimension {dim}")
    out = np.zeros((dim, len(levels)), dtype=np.complex128)
    if params.r == 0.0:
        out[levels, range(len(levels))] = 1.0
        return out
    at = np.array(levels)
    cols, offsets = at - first, top - at  # place in the walk, phase index of row 0
    signs = _parity(np.arange(dim - first))
    phases = _phases(np.arange(-top, dim), params.theta)  # offset d at d + top
    walk = _walk(np.arange(first, dim), k, params.r, _ln_binomials(dim, k)[first:])
    i = 0  # levels[i:] are the columns m >= j
    for j, (v, ln_v) in zip(range(top + 1), walk):
        # at or above the diagonal: row j of column m
        c = cols[i:]
        out[j, i:] = v[c] * np.exp(ln_v[c]) * phases[offsets[i:] + j]
        if levels[i] == j:
            # below it: (-1)^{n-j} times row j of column n
            c = slice(j + 1 - first, None)
            lower = signs[1 : dim - j] * v[c] * np.exp(ln_v[c])
            out[j + 1 :, i] = lower * phases[top + 1 : top + dim - j]
            i += 1
    return out


def column_norm_deficits(columns: np.ndarray) -> np.ndarray:
    """|1 - ||column||^2| for every column of a block: zero for exact unitarity.

    No entry depends on the dimension, so the deficit measures the weight a
    column has past the truncation, plus rounding near 1e-15.
    """
    return np.abs(1.0 - np.sum(np.abs(columns) ** 2, axis=0))


@dataclass(frozen=True)
class MatrixElementTable:
    """Dense displacement matrix with its defining parameters attached."""

    k: float
    params: DisplacementParams
    entries: np.ndarray

    def __post_init__(self):
        e = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be a square matrix")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def displacement_oracle(k: float, params: DisplacementParams, dim: int) -> MatrixElementTable:
    """Exponential of the truncated generator xi K+ - conj(xi) K-.

    Deliberately ignorant of every closed form above: the generator is P (-i r T) P^-1,
    T = K+ + K- real symmetric, P = diag(e^{in theta} i^n).  T links even levels to odd
    ones only, [[0, B], [B^T, 0]] in parity order, so one SVD B = U S W^T gives exp(-irT)
    (Golub & Kahan 1965): U cos(rS) U^T on even levels, W cos(rS) W^T on odd ones and
    -i U sin(rS) W^T between; for odd dim, U's extra column (kernel of B^T) has cos 0 = 1.
    Edge entries feel the truncation, so compare only well below the top level (n, m up
    to about dim/4).  Refused when r times T's largest |eigenvalue|, sigma_max, is not finite.
    """
    k, dim = check_bargmann(k), check_dim(dim)
    if dim < 8:
        raise ValueError(f"oracle needs dim >= 8, got {dim}")
    if params.r == 0.0:
        return MatrixElementTable(k, params, np.eye(dim))
    n = np.arange(dim - 1)
    b = np.zeros(((dim + 1) // 2, dim // 2))
    b[(n + 1) // 2, n // 2] = raising_factors(dim, k)  # T[n, n + 1] = T[n + 1, n]
    u, sigma, wt = np.linalg.svd(b)
    if not math.isfinite(params.r * float(sigma[0])):
        raise ValueError(f"oracle generator leaves the float range at r = {params.r}")
    cos = np.append(np.cos(params.r * sigma), 1.0)
    out = np.empty((dim, dim), dtype=np.complex128)
    out[0::2, 0::2] = (u * cos[: len(u)]) @ u.T
    out[1::2, 1::2] = (wt.T * cos[:-1]) @ wt
    out[0::2, 1::2] = -1j * ((u[:, : len(sigma)] * np.sin(params.r * sigma)) @ wt)
    out[1::2, 0::2] = out[0::2, 1::2].T
    n = np.arange(dim)
    p = _phases(n, params.theta) * np.array([1, 1j, -1, -1j])[n % 4]  # i^n exactly
    out *= p[:, None]
    out *= p.conj()
    return MatrixElementTable(k, params, out)


def decomposed_apply(k: float, params: DisplacementParams, state: StateVector) -> StateVector:
    """Displace a state via the normal-ordered factorization.

    exp(xi K+ - conj(xi) K-) = exp(z K+) exp(-2 ln cosh(r) K0) exp(-conj(z) K-)
    with z = tanh(r) e^{i theta}, applied right to left.  The two ladder
    exponentials terminate exactly on the truncation; the raising factor
    drops weight past the top level, so feed this converged states only.
    """
    if k != state.k:
        raise ValueError(f"Bargmann index mismatch: {k} vs state's {state.k}")
    z = params.alpha
    dim = state.dim

    def ladder_exp(amps: np.ndarray, coeff: complex, lower: bool) -> np.ndarray:
        # sum_j (coeff K)^j / j! on plain arrays, K = K- if lower else K+
        acc, term = amps.copy(), amps
        for j in range(1, dim + 1):
            term = _ladder(term, k)[lower] * (coeff / j)
            if not np.any(term):
                break
            acc += term
        return acc

    out = ladder_exp(state.amplitudes, -np.conjugate(z), True)
    out = out * np.exp(-2.0 * _ln_cosh(params.r) * (np.arange(dim) + state.k))
    return StateVector(ladder_exp(out, z, False), state.k)
