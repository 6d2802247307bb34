"""Matrix elements of the su(1,1) displacement operator exp(xi K+ - conj(xi) K-).

Three independent evaluation routes are provided on purpose:

* `matrix_element_sum`: the terminating q-sum, one scalar at a time, summed
  in extended precision with compensation.
* `matrix_element_hyp`: closed form through a terminating Gauss
  hypergeometric function evaluated in exact rational arithmetic.
* `displacement_oracle`: brute-force exponential of the truncated
  generator, no knowledge of the closed forms at all.

plus vectorized table/column builders that share the q-sum term algebra but
organize it as rank-1 updates.

The alternating q-sum cancels catastrophically once min(n, m) grows past a
few tens at moderate r; every route here is accurate in the regimes the
package promises (small min(n, m), any n, or modest dimensions), and the
verify layer only certifies unitarity on blocks where the sum is stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    StateVector,
    apply_kminus,
    apply_kplus,
    check_bargmann,
    kplus_matrix,
)
from .specfun import hyp2f1_terminating

__all__ = [
    "DisplacementParams",
    "MatrixElementTable",
    "xi_from_alpha",
    "matrix_element_sum",
    "matrix_element_hyp",
    "matrix_column",
    "matrix_table",
    "displacement_oracle",
    "decomposed_apply",
]

_LN2 = math.log(2.0)


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
        th = math.remainder(float(self.theta), math.tau)
        if th <= -math.pi:
            th = math.pi
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", th)

    @property
    def xi(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))

    @property
    def alpha(self) -> complex:
        return math.tanh(self.r) * complex(math.cos(self.theta), math.sin(self.theta))


def xi_from_alpha(alpha: complex) -> DisplacementParams:
    """Displacement whose disc coordinate is alpha; requires |alpha| < 1."""
    alpha = complex(alpha)
    mag = abs(alpha)
    if mag >= 1.0:
        raise ValueError(f"disc coordinate must satisfy |alpha| < 1, got |alpha| = {mag}")
    if mag == 0.0:
        return DisplacementParams(0.0, 0.0)
    return DisplacementParams(math.atanh(mag), math.atan2(alpha.imag, alpha.real))


def _check_level(n: int, name: str) -> int:
    if int(n) != n or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n}")
    return int(n)


def _phase(n: int, m: int, theta: float) -> complex:
    a = (n - m) * theta
    return complex(math.cos(a), math.sin(a))


def matrix_element_sum(n: int, m: int, k: float, params: DisplacementParams) -> complex:
    """<n| S |m> by the terminating q-sum, compensated in longdouble."""
    n = _check_level(n, "n")
    m = _check_level(m, "m")
    check_bargmann(k)
    if params.r == 0.0:
        return complex(1.0 if n == m else 0.0)

    rl = np.longdouble(params.r)
    tl = np.tanh(rl)
    inv_ch = 1.0 / np.cosh(rl)
    sech2 = inv_ch * inv_ch
    t2 = tl * tl

    ln0 = np.longdouble(
        0.5
        * (
            math.lgamma(2.0 * k + n)
            + math.lgamma(2.0 * k + m)
            - math.lgamma(n + 1.0)
            - math.lgamma(m + 1.0)
        )
        - math.lgamma(2.0 * k)
        - 2.0 * k * _ln_cosh(params.r)
    ) + (n + m) * np.log(tl)
    term = np.exp(ln0)
    total = term
    comp = np.longdouble(0.0)
    for q in range(min(n, m)):
        term = term * (-(sech2) * (n - q) * (m - q)) / (t2 * (q + 1) * (2.0 * k + q))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    sign = 1.0 if m % 2 == 0 else -1.0
    return complex(float(total) * sign) * _phase(n, m, params.theta)


def matrix_element_hyp(n: int, m: int, k: float, params: DisplacementParams) -> complex:
    """<n| S |m> through the terminating hypergeometric closed form.

    Undefined at r = 0 (the hypergeometric argument diverges there); the
    identity limit is handled by the sum route instead.
    """
    n = _check_level(n, "n")
    m = _check_level(m, "m")
    check_bargmann(k)
    if params.r == 0.0:
        raise ValueError("closed form is singular at r = 0; use matrix_element_sum")

    t = math.tanh(params.r)
    z = 1.0 - 1.0 / (t * t)
    f = hyp2f1_terminating(m, n, 2.0 * k, z)
    if f == 0.0:
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
    mag = math.copysign(math.exp(ln_pref + math.log(abs(f))), f)
    sign = 1.0 if m % 2 == 0 else -1.0
    return complex(mag * sign) * _phase(n, m, params.theta)


def _log_tables(dim: int, k: float):
    lgf = np.array([math.lgamma(i + 1.0) for i in range(dim)])
    lgg = np.array([math.lgamma(2.0 * k + i) for i in range(dim)])
    return lgf, lgg


def matrix_column(m: int, k: float, params: DisplacementParams, dim: int) -> np.ndarray:
    """Column m of the displacement matrix, i.e. S acting on basis state |m>.

    The same term-ratio recurrence as `matrix_element_sum`, run for every n
    at once: the q=0 term is a smooth per-entry scale (log tables, no
    cancellation), and the alternating q-sum is accumulated relative to it
    in longdouble.  The (n-q) factor in the ratio retires row n exactly at
    q = n, so short rows terminate on their own.
    """
    m = _check_level(m, "m")
    check_bargmann(k)
    if not m < dim:
        raise ValueError(f"column index {m} outside dimension {dim}")
    out = np.zeros(dim, dtype=np.complex128)
    if params.r == 0.0:
        out[m] = 1.0
        return out

    rl = np.longdouble(params.r)
    tl = np.tanh(rl)
    inv_ch = np.longdouble(1.0) / np.cosh(rl)
    sech2 = inv_ch * inv_ch
    t2 = tl * tl

    lt = math.log(math.tanh(params.r))
    lgf, lgg = _log_tables(dim, k)
    narr = np.arange(dim)
    ln0 = (
        0.5 * (lgg - lgg[0])
        - 0.5 * lgf
        + narr * lt
        + 0.5 * (lgg[m] - lgg[0])
        - 0.5 * lgf[m]
        + m * lt
        - 2.0 * k * _ln_cosh(params.r)
    )

    nl = narr.astype(np.longdouble)
    u = np.ones(dim, dtype=np.longdouble)
    acc = np.ones(dim, dtype=np.longdouble)
    comp = np.zeros(dim, dtype=np.longdouble)
    for q in range(m):
        u = u * (-(sech2) * (nl - q) * (m - q)) / (t2 * (q + 1) * (2.0 * k + q))
        y = u - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t

    mag = np.exp(ln0.astype(np.longdouble)) * acc
    sign = 1.0 if m % 2 == 0 else -1.0
    phases = np.exp(1j * params.theta * (narr - m))
    return (sign * mag).astype(np.float64) * phases


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

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def column_norm_deficits(self) -> np.ndarray:
        """|1 - ||column||^2| for every column.

        Zero for exact unitarity; grows toward the truncation edge, and in
        regimes where the alternating q-sum loses precision it measures
        that loss too.
        """
        return np.abs(1.0 - np.sum(np.abs(self.entries) ** 2, axis=0))


def matrix_table(k: float, params: DisplacementParams, dim: int) -> MatrixElementTable:
    """Full dim x dim table of displacement matrix elements.

    Entry by entry through `matrix_element_sum`; O(dim^3) scalar work, meant
    for verification at modest dimensions.  Displaced states use the
    vectorized `matrix_column` instead.
    """
    check_bargmann(k)
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    if params.r == 0.0:
        return MatrixElementTable(k, params, np.eye(dim, dtype=np.complex128))
    entries = np.empty((dim, dim), dtype=np.complex128)
    for n in range(dim):
        for m in range(dim):
            entries[n, m] = matrix_element_sum(n, m, k, params)
    return MatrixElementTable(k, params, entries)


def displacement_oracle(k: float, params: DisplacementParams, dim: int) -> MatrixElementTable:
    """Exponential of the truncated generator xi K+ - conj(xi) K-.

    Deliberately ignorant of every closed form above: scaling and squaring
    with a 25-term Taylor core.  Edge entries feel the truncation, so
    compare against it only well below the top level (n, m up to about
    dim/4).
    """
    check_bargmann(k)
    if dim < 8:
        raise ValueError(f"oracle needs dim >= 8, got {dim}")
    xi = params.xi
    kp = kplus_matrix(dim, k, dtype=np.complex128)
    gen = xi * kp - np.conjugate(xi) * kp.T
    norm1 = float(np.max(np.sum(np.abs(gen), axis=0)))
    s = max(0, math.ceil(math.log2(norm1 / 0.5))) if norm1 > 0.5 else 0
    t = gen / (2.0**s)
    out = np.eye(dim, dtype=np.complex128)
    term = np.eye(dim, dtype=np.complex128)
    for j in range(1, 26):
        term = term @ t / j
        out += term
    for _ in range(s):
        out = out @ out
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

    def ladder_exp(vec: StateVector, coeff: complex, raising: bool) -> StateVector:
        acc = np.array(vec.amplitudes)
        term = vec
        for j in range(1, dim + 1):
            term = apply_kplus(term) if raising else apply_kminus(term)
            term = StateVector(term.amplitudes * (coeff / j), vec.k)
            if not np.any(term.amplitudes):
                break
            acc += term.amplitudes
        return StateVector(acc, vec.k)

    out = ladder_exp(state, -np.conjugate(z), raising=False)
    n = np.arange(dim)
    out = StateVector(
        out.amplitudes * np.exp(-2.0 * _ln_cosh(params.r) * (n + state.k)), state.k
    )
    return ladder_exp(out, z, raising=True)
