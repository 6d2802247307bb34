"""Constructors for the coherent-state families over the discrete series.

Every constructor returns a normalized `StateVector` and raises
`ConvergenceError` when the requested truncation dimension cannot hold the
state (too much weight in the top levels).  Amplitude magnitudes are
assembled in log space throughout, so large quantum numbers do not overflow
intermediate factorials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    TAIL_TOL,
    ConvergenceError,
    NonlinearFunction,
    StateVector,
    apply_diag,
    apply_kplus,
    basis_state,
    check_bargmann,
    eigen_residual_lowering,
    mus_expectation,
    mus_residual,
)
from .displacement import DisplacementParams, matrix_column
from .specfun import bessel_i

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


def _finalize(amp: np.ndarray, k: float, what: str) -> StateVector:
    state = StateVector(amp, k)
    if state.norm == 0.0:
        raise ConvergenceError(f"{what}: all amplitudes vanished")
    tail = state.tail_fraction
    if tail > TAIL_TOL:
        raise ConvergenceError(
            f"{what}: tail fraction {tail:.3e} exceeds {TAIL_TOL:.1e}; "
            f"increase the truncation dimension"
        )
    return state.normalized()


def _power_phases(alpha: complex, dim: int) -> np.ndarray:
    """Unit phases of alpha^n for n = 0 .. dim-1."""
    arg = math.atan2(alpha.imag, alpha.real)
    return np.exp(1j * arg * np.arange(dim))


def pcs(alpha: complex, k: float, dim: int) -> StateVector:
    """Coherent state of the exponential-displacement kind.

    Amplitudes (1-|a|^2)^k sqrt(Gamma(2k+n)/(Gamma(2k) n!)) a^n on the
    unit disc |alpha| < 1.
    """
    check_bargmann(k)
    alpha = complex(alpha)
    mag = abs(alpha)
    if mag >= 1.0:
        raise ValueError(f"requires |alpha| < 1, got |alpha| = {mag}")
    if mag == 0.0:
        return basis_state(0, dim, k)
    lg2k = math.lgamma(2.0 * k)
    lnmag = np.array(
        [
            k * math.log1p(-mag * mag)
            + 0.5 * (math.lgamma(2.0 * k + n) - lg2k - math.lgamma(n + 1.0))
            + n * math.log(mag)
            for n in range(dim)
        ]
    )
    amp = np.exp(lnmag) * _power_phases(alpha, dim)
    return _finalize(amp, k, f"pcs(alpha={alpha}, k={k}, dim={dim})")


def bgcs(alpha: complex, k: float, dim: int) -> StateVector:
    """Eigenvector of the lowering operator with eigenvalue alpha.

    Amplitudes proportional to a^n / sqrt(n! Gamma(2k+n)); defined for
    every finite alpha.  The numerically summed normalization is
    cross-checked against its modified-Bessel closed form when that value
    is representable.
    """
    check_bargmann(k)
    alpha = complex(alpha)
    mag = abs(alpha)
    if not np.isfinite(mag):
        raise ValueError("alpha must be finite")
    if mag == 0.0:
        return basis_state(0, dim, k)
    lnmag = np.array(
        [
            n * math.log(mag)
            - 0.5 * (math.lgamma(n + 1.0) + math.lgamma(2.0 * k + n))
            for n in range(dim)
        ]
    )
    # common offset keeps exp() in range; it cancels in the normalization
    shift = lnmag.max()
    scaled = np.exp(lnmag - shift)
    ssq = float(np.sum(scaled * scaled))

    ln_ana = -(2.0 * k - 1.0) * math.log(mag) + math.log(bessel_i(2.0 * k - 1.0, 2.0 * mag))
    ln_num = math.log(ssq) + 2.0 * shift
    if np.isfinite(ln_ana) and np.isfinite(ln_num):
        mismatch = abs(math.expm1(ln_num - ln_ana))
        if mismatch > 1e-10:
            raise ConvergenceError(
                f"bgcs(alpha={alpha}, k={k}, dim={dim}): normalization sum is "
                f"{mismatch:.2e} away from its Bessel value; truncation too small"
            )
    amp = scaled * _power_phases(alpha, dim)
    return _finalize(amp, k, f"bgcs(alpha={alpha}, k={k}, dim={dim})")


# residual tolerances for the constructor self-checks
_EIGEN_TOL = 1e-9
_ROUTE_TOL = 1e-10
_DEFICIT_TOL = 1e-8
_MUS_TOL = 1e-8


def nlcs(alpha: complex, k: float, func: NonlinearFunction, dim: int) -> StateVector:
    """Nonlinear coherent state: eigenvector of func(N) K- with eigenvalue alpha.

    Built by the amplitude recursion
        c_{n+1} = alpha c_n / (func(n) sqrt((n+1)(2k+n))),
    magnitudes in log space, phases accumulated separately.  func(n) = 1
    reproduces `bgcs`; func(n) = 1/(n+2k) reproduces `pcs`.
    """
    check_bargmann(k)
    alpha = complex(alpha)
    if abs(alpha) == 0.0:
        return basis_state(0, dim, k)
    lnmag = np.full(dim, -np.inf)
    phase = np.ones(dim, dtype=np.complex128)
    lnmag[0] = 0.0
    for n in range(dim - 1):
        g = complex(func(n))
        if g == 0:
            raise ZeroDivisionError(f"nonlinearity vanishes at level {n}")
        rho = alpha / (g * math.sqrt((n + 1) * (2.0 * k + n)))
        mag = abs(rho)
        if mag == 0.0:
            break
        lnmag[n + 1] = lnmag[n] + math.log(mag)
        phase[n + 1] = phase[n] * (rho / mag)
    shift = float(np.max(lnmag))
    amp = np.exp(lnmag - shift) * phase
    state = _finalize(amp, k, f"nlcs(alpha={alpha}, k={k}, dim={dim})")
    resid = eigen_residual_lowering(state, func, alpha)
    if resid > _EIGEN_TOL:
        raise ConvergenceError(
            f"nlcs(alpha={alpha}, k={k}, dim={dim}): eigen residual {resid:.3e}"
        )
    return state


def _exponential_factor(
    func: NonlinearFunction, k: float, alpha: complex
) -> NonlinearFunction:
    """Diagonal factor whose repeated-raising exponential rebuilds the
    nonlinear coherent state: f(n) = alpha / (func(n-1) (n + 2k - 1))."""

    def f(n: int) -> complex:
        g = complex(func(n - 1))
        if g == 0:
            raise ZeroDivisionError(f"nonlinearity vanishes at level {n - 1}")
        return alpha / (g * (n + 2.0 * k - 1.0))

    return f


def nlcs_exponential(
    alpha: complex, k: float, func: NonlinearFunction, dim: int
) -> StateVector:
    """Same state as `nlcs`, built the other way: as an exponential of a
    deformed raising operator acting on the bottom level.

    The series sum_j (f(N) K+)^j / j! |0> terminates on the truncation
    because repeated raising eventually leaves it.  The result is compared
    against the recursion route; disagreement raises.
    """
    check_bargmann(k)
    alpha = complex(alpha)
    if abs(alpha) == 0.0:
        return basis_state(0, dim, k)
    f = _exponential_factor(func, k, alpha)
    term = basis_state(0, dim, k)
    acc = np.array(term.amplitudes)
    for j in range(1, 4 * dim + 1):
        raised = apply_diag(apply_kplus(term), f)
        term = StateVector(raised.amplitudes / j, k)
        tn = term.norm
        acc += term.amplitudes
        if tn == 0.0 or tn <= 1e-16 * float(np.linalg.norm(acc)):
            break
    else:
        raise ConvergenceError(
            f"nlcs_exponential(alpha={alpha}, k={k}, dim={dim}): series did not settle"
        )
    state = _finalize(acc, k, f"nlcs_exponential(alpha={alpha}, k={k}, dim={dim})")
    other = nlcs(alpha, k, func, dim)
    gap = float(np.max(np.abs(state.amplitudes - other.amplitudes)))
    if gap > _ROUTE_TOL:
        raise ConvergenceError(
            f"nlcs_exponential(alpha={alpha}, k={k}, dim={dim}): "
            f"recursion and exponential routes differ by {gap:.3e}"
        )
    return state


def dns(params: DisplacementParams, m: int, k: float, dim: int) -> StateVector:
    """Displaced number state: the displacement operator applied to |m>.

    The truncation check here is the column unitarity deficit rather than a
    tail test; the displacement matrix column is exactly normalized in the
    untruncated algebra.
    """
    if params.r == 0.0:
        return basis_state(m, dim, k)
    col = matrix_column(m, k, params, dim)
    deficit = abs(1.0 - float(np.sum(np.abs(col) ** 2)))
    if deficit > _DEFICIT_TOL:
        raise ConvergenceError(
            f"dns(m={m}, k={k}, r={params.r}, dim={dim}): "
            f"column norm deficit {deficit:.3e}"
        )
    return StateVector(col, k).normalized()


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
        if int(self.order) != self.order or self.order < 0:
            raise ValueError(f"order must be a nonnegative integer, got {self.order}")
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"r must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        check_bargmann(self.k)
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "k", float(self.k))

    @property
    def displacement(self) -> DisplacementParams:
        return DisplacementParams(self.r, self.theta)

    @property
    def xi(self) -> complex:
        """Argument scale of the Laguerre polynomial: -e^{i theta} tanh(2r)."""
        return -math.tanh(2.0 * self.r) * complex(
            math.cos(self.theta), math.sin(self.theta)
        )

    @property
    def mu(self) -> complex:
        """Raising coefficient of the mixed ladder eigenproblem the state solves."""
        t2 = math.tanh(self.r) ** 2
        return -t2 * complex(math.cos(2.0 * self.theta), math.sin(2.0 * self.theta))

    @property
    def nu(self) -> complex:
        return 1.0 + 0j


def laguerre_prestate(p: LpsParams, dim: int) -> StateVector:
    """The undisplaced half of a Laguerre polynomial state.

    Applies the Laguerre polynomial of the deformed raising operator
    xi (N/(N+2k-1)) K+ to the bottom level, term by term through the
    polynomial coefficient recurrence.  Support is exactly levels
    0 .. order.
    """
    if p.order >= dim:
        raise ValueError(f"order {p.order} needs dimension > {p.order}")
    xi = p.xi
    k = p.k
    if xi == 0:
        return basis_state(0, dim, k)

    def g(n: int) -> float:
        return n / (n + 2.0 * k - 1.0)

    term = basis_state(0, dim, k)
    acc = np.array(term.amplitudes)
    coeff = 1.0
    for j in range(1, p.order + 1):
        raised = apply_diag(apply_kplus(term), g)
        term = StateVector(xi * raised.amplitudes, k)
        coeff *= -(p.order - j + 1) / (j * j)
        acc += coeff * term.amplitudes
    return StateVector(acc, k).normalized()


def lps(p: LpsParams, dim: int) -> StateVector:
    """Laguerre polynomial state: displaced Laguerre-deformed bottom level.

    Displacement is applied by mixing exact matrix columns of the
    displacement operator over the prestate's finite support.  The result
    is certified as an eigenvector of mu K+ + nu K- (eigenvalue recovered
    from the state itself, not assumed).
    """
    pre = laguerre_prestate(p, dim)
    if p.r == 0.0:
        return pre
    amp = np.zeros(dim, dtype=np.complex128)
    disp = p.displacement
    for m in range(p.order + 1):
        phi = pre.amplitudes[m]
        if phi != 0.0:
            amp += phi * matrix_column(m, p.k, disp, dim)
    state = _finalize(amp, p.k, f"lps(order={p.order}, r={p.r}, k={p.k}, dim={dim})")
    alpha = mus_expectation(state, p.mu, p.nu)
    resid = mus_residual(state, p.mu, p.nu, alpha)
    if resid > _MUS_TOL:
        raise ConvergenceError(
            f"lps(order={p.order}, r={p.r}, k={p.k}, dim={dim}): "
            f"mixed-ladder residual {resid:.3e}"
        )
    return state
