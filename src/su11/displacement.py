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
  The elements cache each column's walk, so a corner walks each column once.
* `matrix_element_hyp`: closed form through a terminating Gauss
  hypergeometric function evaluated in exact rational arithmetic, once
  per symmetric pair (n, m), (m, n).
* `displacement_oracle`: exponential of the truncated generator from one SVD
  of its half-size even-to-odd block, no knowledge of the closed forms or the walk.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import threading
from array import array
from dataclasses import dataclass

import numpy as np

from .algebra import StateVector, check_bargmann, raising_factors
from .specfun import _hyp2f1_ratio

__all__ = [
    "DisplacementParams",
    "MatrixElementTable",
    "matrix_element_sum",
    "matrix_element_hyp",
    "matrix_columns",
    "column_norm_deficits",
    "displacement_oracle",
    "decomposed_apply",
]

_LN2 = math.log(2.0)
# A walk moves the size of its values into their log scale past this, so
# e^{log scale} underflows only for elements below about 1e-289.
_BIG = 2.0**64
_COLUMN_LOCK = threading.Lock()  # one thread at a time extends a cached walk


def _ln_cosh(r: float) -> float:
    # cosh overflows near r ~ 710; switch well before that
    if r > 20.0:
        return r + math.log1p(math.exp(-2.0 * r)) - _LN2
    return math.log(math.cosh(r))


@dataclass(frozen=True)
class DisplacementParams:
    """Polar data (r, theta) of the displacement amplitude.

    The operator argument is xi = r e^{i theta}; the associated disc
    coordinate is alpha = tanh(r) e^{i theta}.  theta is stored reduced to
    (-pi, pi].
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        r = float(self.r)
        if not math.isfinite(r) or r < 0.0:
            raise ValueError(f"radial argument must be finite and >= 0, got {self.r}")
        th = float(self.theta)
        if not math.isfinite(th):
            raise ValueError(f"theta must be finite, got {self.theta}")
        th = math.remainder(th, math.tau)
        if th <= -math.pi:
            th = math.pi
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", th)

    @property
    def alpha(self) -> complex:
        return math.tanh(self.r) * complex(math.cos(self.theta), math.sin(self.theta))


def _check_level(n: int, name: str) -> int:
    if int(n) != n or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n}")
    return int(n)


def _phases(d, theta: float):
    """e^{i d theta} for an offset d or an array of them."""
    return np.exp(1j * (d * theta))


def _parity(d):
    """(-1)^d for an integer d or an array of them."""
    return 1.0 - 2.0 * (d % 2)


def _ln_binomials(count: int, k: float) -> np.ndarray:
    """ln[Gamma(2k + c) / (c! Gamma(2k))] for c < count, as a running sum of
    ln(1 + (2k - 1) / c): more accurate than lgamma, and no prefix depends on count.
    Step c = 1 is ln 2k exactly, which 1 + (2k - 1) loses for 2k below the epsilon."""
    steps = np.empty(count - 1)
    steps[:1] = math.log(2.0 * k)
    steps[1:] = np.log1p((2.0 * k - 1.0) / np.arange(2.0, count))
    out = np.zeros(count)
    np.cumsum(steps, out=out[1:])
    return out


def _walk(c, k: float, r: float, ln_binomial):
    """Yield (v_j, l_j) for j = 0, 1, ... with <j|S|c> = e^{i(j-c) theta} v_j e^{l_j}.

    c is a level or an array of levels, ln_binomial its `_ln_binomials` entry.
    The walk starts from <0|S|c> in log scale and moves the size of v into
    l once |v| passes _BIG, so its start cannot underflow and no step can
    overflow.  Only arithmetic operators act on c and v, so a single level
    runs on plain floats.
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
    any_over = np.any if isinstance(c, np.ndarray) else bool
    for j in itertools.count():
        yield v, ln_v + (c - j) * ln_rho
        s_next = math.sqrt((j + 1) * (j + 2.0 * k))
        a = 2.0 * (j * csch + (j + k) * tanh) - shift
        v_prev, v = v, (a * v - s * v_prev) / s_next
        s = s_next * rho * rho
        over = abs(v) > _BIG
        if any_over(over):
            size = np.where(over, abs(v), 1.0)
            v_prev, v = v_prev / size, v / size
            ln_v = ln_v + np.log(size)


@functools.lru_cache(maxsize=256)
def _walked_column(c: int, k: float, r: float) -> tuple[array, object]:
    """Column c's rows v_j e^{l_j} = e^{-i(j-c) theta} <j|S|c> read so far, 8 bytes
    each, and the live walk that extends them."""
    return array("d"), _walk(c, k, r, float(_ln_binomials(c + 1, k)[c]))


def matrix_element_sum(n: int, m: int, k: float, params: DisplacementParams) -> complex:
    """<n| S |m> from the recurrence walk, read at row min(n, m) of column max(n, m).

    A column's walk is cached with the rows it has passed (256 columns), and
    extended only to the deepest row asked, so a corner walks each column once.
    """
    n = _check_level(n, "n")
    m = _check_level(m, "m")
    check_bargmann(k)
    if params.r == 0.0:
        return complex(1.0 if n == m else 0.0)
    # below the diagonal, read (-1)^{n-m} <m|S|n> instead: S(xi)^+ = S(-xi)
    col, row, sign = (m, n, 1.0) if n <= m else (n, m, _parity(n - m))
    with _COLUMN_LOCK:
        rows, walk = _walked_column(col, k, params.r)
        for v, ln_v in itertools.islice(walk, max(0, row + 1 - len(rows))):
            rows.append(v * np.exp(ln_v))  # times sign = +-1: (sign v) e^l bit for bit
        y = rows[row]
    return sign * y * cmath.exp(1j * ((n - m) * params.theta))


@functools.lru_cache(maxsize=1024)
def _ln_hyp2f1(lo: int, hi: int, c: float, z: float) -> tuple[float, float]:
    """(sign, ln|2F1(-lo, -hi; c; z)|), sign 0.0 where it vanishes.

    The exact integers are symmetric in lo and hi, so a pair (n, m), (m, n) sums once.
    """
    num, den = _hyp2f1_ratio(lo, hi, c, z)
    if num == 0:
        return 0.0, 0.0
    # |2F1| may pass the float range, no element does: shift it back as the reduced ratio
    if abs(num).bit_length() - den.bit_length() >= 1000:  # reducing lowers this by <= 1
        g = math.gcd(num, den)
        num, den = num // g, den // g
    shift = max(0, abs(num).bit_length() - den.bit_length() - 1000)
    return (1.0 if num > 0 else -1.0), math.log(abs(num) / (den << shift)) + shift * _LN2


def matrix_element_hyp(n: int, m: int, k: float, params: DisplacementParams) -> complex:
    """<n| S |m> through the terminating hypergeometric closed form.

    ln|2F1| is cached per symmetric pair (1,024 pairs); the prefactor is formed
    per element.  Undefined at r = 0, where the hypergeometric argument
    1 - 1/tanh(r)^2 diverges, and refused below r = 1e-150, where it leaves
    the float range; the sum route covers those.
    """
    n = _check_level(n, "n")
    m = _check_level(m, "m")
    check_bargmann(k)
    if params.r < 1e-150:
        raise ValueError(f"closed form needs r >= 1e-150, got {params.r}; use matrix_element_sum")

    t = math.tanh(params.r)
    sign, ln_f = _ln_hyp2f1(min(m, n), max(m, n), 2.0 * k, 1.0 - 1.0 / (t * t))
    if sign == 0.0:
        return 0j
    ln_pref = (
        0.5
        * (
            math.lgamma(2.0 * k + n)
            + math.lgamma(2.0 * k + m)
            - math.lgamma(n + 1.0)
            - math.lgamma(m + 1.0)
        )
        - math.lgamma(2.0 * k)
        - 2.0 * k * _ln_cosh(params.r)
        + (n + m) * math.log(t)
    )
    mag = math.exp(ln_pref + ln_f)
    sign *= 1.0 if m % 2 == 0 else -1.0
    return mag * sign * cmath.exp(1j * ((n - m) * params.theta))


def matrix_columns(levels, k: float, params: DisplacementParams, dim: int) -> np.ndarray:
    """Columns `levels` of the displacement matrix, as a dim x len(levels) block.

    levels must be increasing.  One walk over the columns from levels[0] up,
    levels[-1] + 1 rows deep: entry (n, m) is read at row min(n, m) of column
    max(n, m), as in `matrix_element_sum`, and equals its value bit for bit.
    Each requested column is filled in as the walk passes its rows, so no row
    past a column's diagonal is ever read.  No entry depends on dim, so a
    column's norm deficit measures truncation alone.
    """
    check_bargmann(k)
    levels = [_check_level(m, "m") for m in levels]
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
    check_bargmann(k)
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
    f = raising_factors(dim, k)
    low, high = slice(None, -1), slice(1, None)  # levels 0 .. dim-2 and 1 .. dim-1

    def ladder_exp(amps: np.ndarray, coeff: complex, src: slice, dst: slice) -> np.ndarray:
        # sum_j (coeff K)^j / j! on plain arrays, K moving each level src to dst
        acc, term = amps.copy(), amps
        for j in range(1, dim + 1):
            moved = np.zeros_like(term)
            moved[dst] = f * term[src]
            term = moved * (coeff / j)
            if not np.any(term):
                break
            acc += term
        return acc

    out = ladder_exp(state.amplitudes, -np.conjugate(z), high, low)
    out = out * np.exp(-2.0 * _ln_cosh(params.r) * (np.arange(dim) + state.k))
    return StateVector(ladder_exp(out, z, low, high), state.k)
