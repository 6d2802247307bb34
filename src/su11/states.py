"""Constructors for the coherent-state families over the discrete series.

Every constructor returns a normalized `StateVector` and ends in the gate
of `algebra`: `converged` (the truncation holds the state) and
`require_within` (its certificate residual is within bound), both raising
`ConvergenceError`.  Amplitude magnitudes are assembled in log space
throughout, so large quantum numbers do not overflow intermediate factorials.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    NonlinearFunction,
    StateVector,
    _ln_binomials,
    _nonlinearity,
    basis_state,
    check_alpha,
    check_bargmann,
    check_level,
    mus_expectation,
    mus_residual,
    raising_factors,
    require_within,
)
from .displacement import DisplacementParams, column_norm_deficits, matrix_columns
from .specfun import _bessel_i_series

__all__ = [
    "pcs",
    "bgcs",
    "nlcs",
    "nlcs_exponential",
    "dns",
    "LpsParams",
    "laguerre_prestate",
    "lps",
]


# residual tolerances for the constructor self-checks
_BESSEL_TOL = 1e-10
_EIGEN_TOL = 1e-9
_ROUTE_TOL = 1e-10
_DEFICIT_TOL = 1e-8
_MUS_TOL = 1e-8


def _from_peak(ln_ratios, units) -> tuple[np.ndarray, np.longdouble]:
    """c_n over the largest |c_n|, and ln of the largest, unrounded, for c_0 = 1 and c_{n+1}/c_n
    = exp(ln_ratios[n]) units[n], |units[n]| = 1.  The logs are summed in np.longdouble out from
    the largest, so each is rounded at its own size (80 bits round a sum near 1e6 by 5e-14, not
    1e-10), and the units are multiplied: n arg(alpha) in floats rounds by 1e-11 at level 1e5."""
    lnmag = np.cumsum(np.concatenate(([0.0], ln_ratios)), dtype=np.longdouble)
    peak = int(lnmag.argmax())
    anchor = np.sum(ln_ratios[:peak], dtype=np.longdouble)  # pairwise: cumsum drifts by 1e-10
    lnmag[peak:] = np.cumsum(np.concatenate(([0.0], ln_ratios[peak:])), dtype=np.longdouble)
    lnmag[:peak] = -np.cumsum(ln_ratios[:peak][::-1], dtype=np.longdouble)[::-1]
    phases = np.cumprod(np.concatenate(([1.0], units)))
    return np.exp(lnmag.astype(np.float64)) * (phases / np.abs(phases)), anchor


def _lowering_gate(state: StateVector, f: np.ndarray, alpha: complex, what: str) -> StateVector:
    """state, refused as what unless f(N) K- psi = alpha psi on levels 0 .. dim-2 within
    _EIGEN_TOL, f[n] the factor on the lowering out of level n+1."""
    amp = state.amplitudes
    resid = float(np.linalg.norm(f * amp[1:] - alpha * amp[:-1]))
    require_within(resid, _EIGEN_TOL, what, "eigen residual")
    return state


def pcs(alpha: complex, k: float, dim: int) -> StateVector:
    """Coherent state of the exponential-displacement kind.

    Amplitudes (1-|a|^2)^k sqrt(Gamma(2k+n)/(Gamma(2k) n!)) a^n on the
    unit disc |alpha| < 1.
    """
    return _pcs(alpha, k, dim, f"pcs(alpha={complex(alpha)}, k={k}, dim={dim})")


def _pcs(alpha: complex, k: float, dim: int, what: str) -> StateVector:
    """The normalized amplitudes of `pcs`, refused as what unless the truncation holds them
    and, by the paper's theorem, they solve (N+2k)^{-1} K- psi = alpha psi on levels
    0 .. dim-2 within _EIGEN_TOL."""
    check_bargmann(k)
    alpha = check_alpha(alpha, disc=True)
    mag = abs(alpha)
    if mag == 0.0:
        return basis_state(0, dim, k)
    lnmag = k * math.log1p(-mag * mag) + 0.5 * _ln_binomials(dim, k)
    lnmag += np.arange(dim) * math.log(mag)
    phases = np.exp(1j * math.atan2(alpha.imag, alpha.real) * np.arange(dim))
    state = StateVector(np.exp(lnmag) * phases, k).converged(what)
    # the factor is formed before it meets psi, so 1/(2k) at k 5e-324 keeps its digits
    return _lowering_gate(state, raising_factors(dim, k) / (np.arange(dim - 1.0) + 2.0 * k),
                          alpha, what)


def bgcs(alpha: complex, k: float, dim: int) -> StateVector:
    """Eigenvector of the lowering operator with eigenvalue alpha.

    Amplitudes a^n / sqrt(n! Gamma(2k+n)), less the common factor 1/sqrt(Gamma(2k)), from the
    ratios a / sqrt((n+1)(2k+n)); defined for every finite alpha.  The numerically summed
    normalization is cross-checked against the log of its modified-Bessel series, and the
    normalized state against K- psi = alpha psi.
    """
    check_bargmann(k)
    alpha = check_alpha(alpha)
    mag = abs(alpha)
    if mag == 0.0:
        return basis_state(0, dim, k)
    n = np.arange(dim - 1, dtype=np.longdouble)
    ln_ratios = np.log(np.longdouble(mag)) - 0.5 * np.log((n + 1) * (2.0 * k + n))
    amp, shift = _from_peak(ln_ratios, np.full(dim - 1, alpha / mag))
    what = f"bgcs(alpha={alpha}, k={k}, dim={dim})"
    state = StateVector(amp, k)
    # the series takes about |alpha| steps: where that passes dim and 10^4, a vector too short
    # for the state is refused by its top level before they are taken
    if mag > max(dim, 10_000):
        state.converged(what)
    # ln of the squared norm in the same units: Gamma(2k) |alpha|^{1-2k} I_{2k-1}(2|alpha|); the
    # two logs near 2|alpha| cancel in np.longdouble, where a float's step at 6e5 is 1.2e-10
    ln_ssq = 2.0 * math.log(state.norm)
    mismatch = abs(math.expm1(ln_ssq + (2.0 * shift - _bessel_i_series(2.0 * k, mag))))
    require_within(mismatch, _BESSEL_TOL, what, "Bessel normalization gap", state)
    return _lowering_gate(state.converged(what), raising_factors(dim, k), alpha, what)


def nlcs(alpha: complex, k: float, func: NonlinearFunction, dim: int) -> StateVector:
    """Nonlinear coherent state: eigenvector of func(N) K- with eigenvalue alpha.

    Built by the amplitude recursion
        c_{n+1} = alpha c_n / (func(n) sqrt((n+1)(2k+n))),
    magnitudes in log space, phases accumulated separately.  func(n) = 1 reproduces `bgcs`,
    func(n) = 1/(n+2k) `pcs`; each func(n) is read once, and certifies through their gate.
    """
    check_bargmann(k)
    alpha = check_alpha(alpha)
    if abs(alpha) == 0.0:
        return basis_state(0, dim, k)
    ln_ratios, units = np.full(dim - 1, -np.inf), np.ones(dim - 1, dtype=np.complex128)
    read = []  # func(n) below the first ratio that underflowed: nothing above it is occupied
    for n in range(dim - 1):
        value = _nonlinearity(func, n)
        den = value * math.sqrt((n + 1) * (2.0 * k + n))
        rho = alpha / den if den else math.inf
        mag = abs(rho)
        if not math.isfinite(mag):
            raise ValueError(f"amplitude ratio not finite at level {n}")
        if mag == 0.0:
            break
        read.append(value)
        ln_ratios[n], units[n] = math.log(mag), rho / mag
    what = f"nlcs(alpha={alpha}, k={k}, dim={dim})"
    state = StateVector(_from_peak(ln_ratios, units)[0], k).converged(what)
    g = np.array(read + [0.0] * (dim - 1 - len(read)), dtype=np.complex128)
    return _lowering_gate(state, raising_factors(dim, k) * g, alpha, what)


def _bottom_series(k: float, dim: int, steps: int, step, what: str) -> StateVector:
    """Unnormalized sum, to term `steps` or the first negligible term, of a series whose
    term j, on level j alone, is term j - 1 raised by K+ times step(j - 1, d) / j.

    Step 1 grows by ~1/sqrt(2k): amplitudes are kept in units of s ~ sqrt(2k), a power
    of 2, so d is (j - 1) + 2k, or 2k/s at j = 1.  Past 2^500 the walk goes on in units
    of 2^600, keeping every |amplitude|^2 finite; a term past the float range is refused.
    """
    rise = raising_factors(steps + 1, k).tolist()
    s = 2.0 ** min(0, math.frexp(2.0 * k)[1] // 2)
    acc = np.zeros(dim, dtype=np.complex128)
    acc[0], term = s, 1.0
    for j in range(1, steps + 1):
        d = (j - 1) + 2.0 * k if j > 1 else 2.0 * k / s
        acc[j] = term = rise[j - 1] * term * step(j - 1, d) * (1.0 / j)
        if not cmath.isfinite(term):
            raise ValueError(f"{what}: term {j} leaves the float range")
        if abs(term) > 2.0**500:
            acc[: j + 1] *= 2.0**-600
            term *= 2.0**-600
        size = math.sqrt(term.real * term.real + term.imag * term.imag)
        if not size > 1e-16 * float(np.linalg.norm(acc[: j + 1])):  # vanished or negligible
            break
    return StateVector(acc, k)


def nlcs_exponential(alpha: complex, k: float, func: NonlinearFunction, dim: int) -> StateVector:
    """Same state as `nlcs`, built the other way: as an exponential of a
    deformed raising operator acting on the bottom level.

    Term j of the series sum_j (f(N) K+)^j / j! |0>, f(n) = alpha /
    (func(n-1) ((n - 1) + 2k)), lives on level j alone and is walked by
    `_bottom_series` to the truncation or to the first negligible term.
    The result is compared against the recursion route; disagreement raises.
    """
    check_bargmann(k)
    alpha = check_alpha(alpha)
    if abs(alpha) == 0.0:
        return basis_state(0, dim, k)

    def step(n: int, d: float) -> complex:
        den = _nonlinearity(func, n) * d
        f = alpha / den if den else math.inf
        if not cmath.isfinite(f):
            raise ValueError(f"diagonal function not finite at level {n + 1}")
        return f

    what = f"nlcs_exponential(alpha={alpha}, k={k}, dim={dim})"
    state = _bottom_series(k, dim, dim - 1, step, what).converged(what)
    gap = float(np.max(np.abs(state.amplitudes - nlcs(alpha, k, func, dim).amplitudes)))
    require_within(gap, _ROUTE_TOL, what, "gap to the recursion route")
    return state


def dns(params: DisplacementParams, m: int, k: float, dim: int) -> StateVector:
    """Displaced number state: the displacement operator applied to |m>.

    The check here is the column unitarity deficit rather than a tail test;
    the displacement matrix column is exactly normalized in the untruncated
    algebra, so the gate reads the deficit's cause from the column itself.
    """
    what = f"dns(m={m}, k={k}, r={params.r}, dim={dim})"
    col = matrix_columns([m], k, params, dim)
    state = StateVector(col[:, 0], k)
    require_within(column_norm_deficits(col)[0], _DEFICIT_TOL, what, "column norm deficit", state)
    return state.normalized()


@dataclass(frozen=True)
class LpsParams:
    """Defining data of a Laguerre polynomial state.

    order is the polynomial degree, (r, theta) the squeeze amplitude in
    polar form, k the Bargmann index.
    """

    order: int
    r: float
    theta: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "order", check_level(self.order, "order"))
        polar = DisplacementParams(self.r, self.theta)
        check_bargmann(self.k)
        object.__setattr__(self, "r", polar.r)
        object.__setattr__(self, "theta", polar.theta)
        object.__setattr__(self, "k", float(self.k))

    @property
    def displacement(self) -> DisplacementParams:
        return DisplacementParams(self.r, self.theta)

    @property
    def xi(self) -> complex:
        """Argument scale of the Laguerre polynomial: -e^{i theta} tanh(2r)."""
        return -math.tanh(2.0 * self.r) * complex(math.cos(self.theta), math.sin(self.theta))

    @property
    def mu(self) -> complex:
        """Raising coefficient of the mixed ladder eigenproblem (mu K+ + K-) psi = lambda psi."""
        t2 = math.tanh(self.r) ** 2
        return -t2 * complex(math.cos(2.0 * self.theta), math.sin(2.0 * self.theta))


def laguerre_prestate(p: LpsParams, dim: int) -> StateVector:
    """The undisplaced half of a Laguerre polynomial state.

    Applies the Laguerre polynomial of the deformed raising operator
    xi (N/(N+2k-1)) K+ to the bottom level.  Term j lives on level j alone
    and carries its coefficient (-1)^j C(order, j)/j!, so each step of
    `_bottom_series` is -xi (order - n)/(n + 2k) and every term stays in
    range; support is levels 0 .. order, less a negligible tail.
    """
    if p.order >= dim:
        raise ValueError(f"order {p.order} needs dimension > {p.order}")
    xi = p.xi
    if xi == 0:
        return basis_state(0, dim, p.k)
    what = f"laguerre_prestate(order={p.order}, k={p.k}, dim={dim})"
    terms = _bottom_series(p.k, dim, p.order, lambda n, d: -xi * (p.order - n) / d, what)
    return terms.normalized()


def lps(p: LpsParams, dim: int) -> StateVector:
    """Laguerre polynomial state: displaced Laguerre-deformed bottom level.

    Displacement is applied by mixing exact matrix columns of the
    displacement operator over the prestate's finite support.  The result
    is certified as an eigenvector of mu K+ + K- (eigenvalue recovered
    from the state itself, not assumed).
    """
    pre = laguerre_prestate(p, dim)
    if p.r == 0.0:
        return pre
    block = matrix_columns(range(p.order + 1), p.k, p.displacement, dim)
    what = f"lps(order={p.order}, r={p.r}, k={p.k}, dim={dim})"
    state = StateVector(block @ pre.amplitudes[: p.order + 1], p.k).converged(what)
    alpha = mus_expectation(state, p.mu)
    require_within(mus_residual(state, p.mu, alpha), _MUS_TOL, what, "mixed-ladder residual")
    return state
