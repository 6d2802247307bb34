"""Bosonic realizations of the ladder algebra and the photon states they induce.

Three ways to embed the abstract representation into photon-number space:

* single-mode (raise = a† sqrt(N+2k)): level n is Fock level n; the
  exponential-family coherent state becomes the negative binomial state.
* two-photon (raise = a†²/2): level n is Fock level 2n+parity, with
  Bargmann index 1/4 (even sector) or 3/4 (odd); coherent states become
  the squeezed vacuum and squeezed one-photon states.
* two-mode (raise = a†b†): level n is the pair (n, n+excess) on one
  diagonal of the two-mode lattice; coherent states become the two-mode
  squeezed vacuum and the pair coherent state.

Operator builders here compose the literal photon-space factors (separate
square roots per mode and per factor) rather than reusing the abstract
transition amplitudes, so faithfulness tests compare two honest routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .algebra import TAIL_TOL, AmplitudeVector, ConvergenceError, StateVector, check_bargmann
from .displacement import DisplacementParams
from .specfun import hyp2f1_terminating
from .states import pcs

__all__ = [
    "HolsteinPrimakoff",
    "AmplitudeSquared",
    "TwoMode",
    "RealizationTag",
    "FockVector",
    "TwoModeFockVector",
    "map_to_fock",
    "nbs",
    "nbs_ladder_residual",
    "squeezed_vacuum",
    "squeezed_first",
    "parity_sector_element",
    "two_mode_squeezed_vacuum",
    "pair_coherent",
    "two_photon_nlcs_residual",
    "two_mode_nlcs_residual",
    "photon_distribution",
    "distribution_mean",
    "distribution_variance",
    "mandel_q",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class HolsteinPrimakoff:
    """Single-mode realization; one Fock quantum per abstract level."""

    k: float

    def __post_init__(self):
        object.__setattr__(self, "k", check_bargmann(self.k))

    def embed(self, amplitudes: np.ndarray) -> "FockVector":
        return FockVector(amplitudes)

    def kplus(self, dim: int) -> np.ndarray:
        """Raising operator a† sqrt(N+2k) on photon levels 0 .. dim-1."""
        out = np.zeros((dim, dim))
        for n in range(dim - 1):
            out[n + 1, n] = math.sqrt(n + 1.0) * math.sqrt(n + 2.0 * self.k)
        return out

    def kminus(self, dim: int) -> np.ndarray:
        out = np.zeros((dim, dim))
        for n in range(1, dim):
            out[n - 1, n] = math.sqrt(n) * math.sqrt(n - 1.0 + 2.0 * self.k)
        return out

    def k0(self, dim: int) -> np.ndarray:
        return np.diag(np.arange(dim, dtype=np.float64) + self.k)


@dataclass(frozen=True)
class AmplitudeSquared:
    """Two-photon realization on the even (parity 0) or odd (parity 1) sector."""

    parity: int

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity}")

    @property
    def k(self) -> float:
        return 0.25 + 0.5 * self.parity

    def embed(self, amplitudes: np.ndarray) -> "FockVector":
        """Level n goes to photon number 2n+parity; the other parity stays empty."""
        out = np.zeros(2 * amplitudes.size - 1 + self.parity, dtype=np.complex128)
        out[2 * np.arange(amplitudes.size) + self.parity] = amplitudes
        return FockVector(out)

    def kplus(self, dim: int) -> np.ndarray:
        """Raising operator a†²/2 on photon levels 0 .. dim-1 (both parities)."""
        out = np.zeros((dim, dim))
        for n in range(dim - 2):
            out[n + 2, n] = 0.5 * math.sqrt(n + 1.0) * math.sqrt(n + 2.0)
        return out

    def kminus(self, dim: int) -> np.ndarray:
        out = np.zeros((dim, dim))
        for n in range(2, dim):
            out[n - 2, n] = 0.5 * math.sqrt(n) * math.sqrt(n - 1.0)
        return out

    def k0(self, dim: int) -> np.ndarray:
        return np.diag(0.5 * (np.arange(dim, dtype=np.float64) + 0.5))


@dataclass(frozen=True)
class TwoMode:
    """Two-boson realization on the diagonal with fixed occupation difference.

    sign +1 puts the excess photons in the second mode ((n, n+excess)),
    sign -1 in the first.
    """

    excess: int
    sign: int = 1

    def __post_init__(self):
        if int(self.excess) != self.excess or self.excess < 0:
            raise ValueError(f"excess must be a nonnegative integer, got {self.excess}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "excess", int(self.excess))

    @property
    def k(self) -> float:
        return 0.5 * (self.excess + 1)

    def occupations(self, level):
        """Occupation pair of a diagonal level (an int or an integer array)."""
        if self.sign > 0:
            return (level, level + self.excess)
        return (level + self.excess, level)

    def embed(self, amplitudes: np.ndarray) -> "TwoModeFockVector":
        return TwoModeFockVector(amplitudes, self)

    def kplus(self, dim: int) -> np.ndarray:
        """Raising operator a†b† on diagonal levels 0 .. dim-1."""
        out = np.zeros((dim, dim))
        for level in range(dim - 1):
            n1, n2 = self.occupations(level + 1)
            out[level + 1, level] = math.sqrt(n1) * math.sqrt(n2)
        return out

    def kminus(self, dim: int) -> np.ndarray:
        out = np.zeros((dim, dim))
        for level in range(1, dim):
            n1, n2 = self.occupations(level)
            out[level - 1, level] = math.sqrt(n1) * math.sqrt(n2)
        return out

    def k0(self, dim: int) -> np.ndarray:
        n1, n2 = self.occupations(np.arange(dim))
        return np.diag(0.5 * (n1 + n2 + 1.0))


RealizationTag = Union[HolsteinPrimakoff, AmplitudeSquared, TwoMode]


@dataclass(frozen=True, repr=False)
class FockVector(AmplitudeVector):
    """Photon-number amplitudes of a single-mode state."""


@dataclass(frozen=True, repr=False)
class TwoModeFockVector(AmplitudeVector):
    """Two-mode state supported on the single occupation diagonal of its tag.

    amplitudes[level] belongs to the occupation pair tag.occupations(level).
    """

    tag: TwoMode

    def diagonal_amplitudes(self) -> np.ndarray:
        """Amplitudes ordered by diagonal level (the lesser occupation)."""
        return self.amplitudes

    def inner(self, other: "TwoModeFockVector") -> complex:
        """Zero between different diagonals; excess 0 is one diagonal for either sign."""
        if other.tag.occupations(1) != self.tag.occupations(1):
            return 0j
        return super().inner(other)


def map_to_fock(state: StateVector, tag: RealizationTag) -> FockVector | TwoModeFockVector:
    """Re-index an abstract state into photon-number amplitudes.

    Amplitude-preserving, so norms and inner products are unchanged.  The
    tag's Bargmann index must match the state's.
    """
    if tag.k != state.k:
        raise ValueError(f"Bargmann index mismatch: tag has {tag.k}, state {state.k}")
    return tag.embed(state.amplitudes)


def nbs(alpha: complex, shape: float, dim: int) -> FockVector:
    """Negative binomial state, built directly from the binomial law.

    shape is the negative-binomial shape parameter (twice the Bargmann
    index of the single-mode realization); |alpha| < 1.  Photon statistics
    P(n) = C(shape+n-1, n) (1-|a|^2)^shape |a|^{2n}.
    """
    if not 0 < shape < math.inf:
        raise ValueError(f"shape parameter must be finite and > 0, got {shape}")
    alpha = complex(alpha)
    mag = abs(alpha)
    if not math.isfinite(mag):
        raise ValueError("alpha must be finite")
    if mag >= 1.0:
        raise ValueError(f"requires |alpha| < 1, got |alpha| = {mag}")
    out = np.zeros(dim, dtype=np.complex128)
    out[0] = 1.0
    if mag > 0.0:
        lg = math.lgamma(shape)
        lnmag = np.array(
            [
                0.5 * shape * math.log1p(-mag * mag)
                + 0.5 * (math.lgamma(shape + n) - lg - math.lgamma(n + 1.0))
                + n * math.log(mag)
                for n in range(dim)
            ]
        )
        arg = math.atan2(alpha.imag, alpha.real)
        out = np.exp(lnmag) * np.exp(1j * arg * np.arange(dim))
    total = float(np.linalg.norm(out))
    if total == 0.0:
        raise ConvergenceError(f"nbs(alpha={alpha}, shape={shape}): all amplitudes vanished")
    tail = abs(out[-1]) ** 2 / total**2
    if tail > TAIL_TOL:
        raise ConvergenceError(
            f"nbs(alpha={alpha}, shape={shape}, dim={dim}): tail fraction {tail:.3e}"
        )
    return FockVector(out / total)


def nbs_ladder_residual(fock: FockVector, alpha: complex, shape: float) -> float:
    """Residual of the lowering identity (N+shape)^{-1/2} a acting as alpha.

    The annihilation factor sqrt(n) and the inverse-square-root diagonal
    are composed literally on the photon lattice.
    """
    if not shape > 0:
        raise ValueError(f"shape parameter must be > 0, got {shape}")
    c = fock.amplitudes
    length = fock.dim
    if length < 2:
        return 0.0
    n = np.arange(length - 1, dtype=np.float64)
    lowered = np.sqrt(n + 1.0) * c[1:]
    scaled = lowered / np.sqrt(n + shape)
    resid = scaled - complex(alpha) * c[:-1]
    return float(np.linalg.norm(resid))


def squeezed_vacuum(params: DisplacementParams, dim: int) -> FockVector:
    """Squeezed vacuum: the k=1/4 coherent state pushed onto even Fock levels.

    dim counts abstract levels; the photon vector spans 0 .. 2(dim-1).
    """
    return map_to_fock(pcs(params.alpha, 0.25, dim), AmplitudeSquared(0))


def squeezed_first(params: DisplacementParams, dim: int) -> FockVector:
    """Squeezed one-photon state: k=3/4 coherent state on odd Fock levels."""
    return map_to_fock(pcs(params.alpha, 0.75, dim), AmplitudeSquared(1))


def parity_sector_element(
    n: int, m: int, parity: int, params: DisplacementParams
) -> complex:
    """Squeeze-operator matrix element on one parity sector of Fock space.

    <2n+parity| S |2m+parity> in the half-integer closed form: double
    factorials over single ones, (tanh(r)/2) powers, and a terminating
    hypergeometric at argument -1/sinh^2(r).  Agrees with the general
    matrix element at Bargmann index 1/4 (even) or 3/4 (odd); needs r > 0.
    """
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    if n < 0 or m < 0:
        raise ValueError(f"levels must be >= 0, got ({n}, {m})")
    if params.r == 0.0:
        raise ValueError("closed form is singular at r = 0")
    t = math.tanh(params.r)
    z = -1.0 / math.sinh(params.r) ** 2
    f = hyp2f1_terminating(m, n, 0.5 + parity, z)
    if f == 0.0:
        return 0j
    ln_mag = (
        0.5 * (math.lgamma(2 * n + parity + 1.0) + math.lgamma(2 * m + parity + 1.0))
        - math.lgamma(n + 1.0)
        - math.lgamma(m + 1.0)
        + (n + m) * (math.log(t) - _LN2)
        - (0.5 + parity) * math.log(math.cosh(params.r))
        + math.log(abs(f))
    )
    mag = math.copysign(math.exp(ln_mag), f)
    if m % 2:
        mag = -mag
    angle = (n - m) * params.theta
    return mag * complex(math.cos(angle), math.sin(angle))


def two_mode_squeezed_vacuum(
    params: DisplacementParams, excess: int, sign: int, dim: int
) -> TwoModeFockVector:
    """Two-mode squeezed state over the excess-photon diagonal.

    The k=(excess+1)/2 coherent state mapped onto pairs; excess=0 is the
    usual two-mode squeezed vacuum with amp(n,n) = e^{in theta} tanh^n r / cosh r.
    """
    tag = TwoMode(excess, sign)
    return map_to_fock(pcs(params.alpha, tag.k, dim), tag)


def pair_coherent(
    alpha: complex, excess: int, sign: int, dim: int
) -> TwoModeFockVector:
    """Joint eigenstate of the pair annihilator ab and the occupation difference.

    Built by its own two-mode recursion
        c_{level+1} = alpha c_level / sqrt((n1)(n2) at level+1),
    independent of the abstract lowering-eigenvector constructor; tests tie
    the two together.
    """
    tag = TwoMode(excess, sign)
    alpha = complex(alpha)
    if not math.isfinite(abs(alpha)):
        raise ValueError("alpha must be finite")
    diag = np.zeros(dim, dtype=np.complex128)
    diag[0] = 1.0
    if abs(alpha) > 0.0:
        lnmag = np.full(dim, -np.inf)
        phase = np.ones(dim, dtype=np.complex128)
        lnmag[0] = 0.0
        unit = alpha / abs(alpha)
        for level in range(dim - 1):
            n1, n2 = tag.occupations(level + 1)
            rho = abs(alpha) / math.sqrt(n1 * n2)
            lnmag[level + 1] = lnmag[level] + math.log(rho)
            phase[level + 1] = phase[level] * unit
        diag = np.exp(lnmag - float(np.max(lnmag))) * phase
    total = float(np.linalg.norm(diag))
    tail = abs(diag[-1]) ** 2 / total**2
    if tail > TAIL_TOL:
        raise ConvergenceError(
            f"pair_coherent(alpha={alpha}, excess={excess}, dim={dim}): "
            f"tail fraction {tail:.3e}"
        )
    state = TwoModeFockVector(diag / total, tag)
    resid = two_mode_nlcs_residual(state, lambda n1, n2: 1.0, alpha)
    if resid > 1e-9:
        raise ConvergenceError(
            f"pair_coherent(alpha={alpha}, excess={excess}, dim={dim}): "
            f"pair-annihilator residual {resid:.3e}"
        )
    return state


def two_photon_nlcs_residual(fock: FockVector, func, alpha: complex) -> float:
    """Residual of func(N) a a acting as multiplication by alpha.

    func is evaluated at the photon level the two-photon lowering lands on,
    and only where that landing amplitude is nonzero (structural parity
    zeros never probe func).  Norm over photon levels 0 .. dim-3.
    """
    c = fock.amplitudes
    length = fock.dim
    if length < 3:
        return 0.0
    idx = np.arange(length - 2, dtype=np.float64)
    lowered = np.sqrt((idx + 1.0) * (idx + 2.0)) * c[2:]
    dressed = np.zeros_like(lowered)
    for i in range(length - 2):
        if lowered[i] != 0:
            dressed[i] = complex(func(i)) * lowered[i]
    resid = dressed - complex(alpha) * c[: length - 2]
    return float(np.linalg.norm(resid))


def two_mode_nlcs_residual(state: TwoModeFockVector, func2, alpha: complex) -> float:
    """Residual of func2(N1, N2) a b acting as multiplication by alpha.

    func2 takes the occupation pair of the diagonal level the pair
    annihilator lands on.  Norm over diagonal levels 0 .. dim-2.
    """
    diag, tag = state.amplitudes, state.tag
    if diag.size < 2:
        return 0.0
    n1_up, n2_up = tag.occupations(np.arange(1, diag.size))
    lowered = np.sqrt(n1_up * n2_up) * diag[1:]
    for level in np.flatnonzero(lowered).tolist():
        lowered[level] *= complex(func2(*tag.occupations(level)))
    # alpha * c in real arithmetic, each product rounded on its own: numpy's
    # vectorized complex product may fuse multiply-adds, which would move the
    # residual that `su11 verify` prints
    alpha, c = complex(alpha), diag[:-1]
    target = np.empty_like(c)
    target.real = alpha.real * c.real - alpha.imag * c.imag
    target.imag = alpha.real * c.imag + alpha.imag * c.real
    return float(np.linalg.norm(lowered - target))


def photon_distribution(state) -> np.ndarray:
    """Probability over photon number (total photons for two-mode states).

    Abstract StateVector inputs give the level-number distribution.
    """
    amp = state.amplitudes
    if isinstance(state, TwoModeFockVector):
        excess = state.tag.excess
        out = np.zeros(2 * state.dim - 1 + excess)
        # hypot rounds as the scalar abs() does; np.abs on a complex array can
        # differ in the last bit, and these statistics are reported by the CLI
        out[2 * np.arange(state.dim) + excess] = np.hypot(amp.real, amp.imag) ** 2
        return out
    return np.abs(amp) ** 2


def distribution_mean(dist: np.ndarray) -> float:
    dist = np.asarray(dist, dtype=np.float64)
    total = float(np.sum(dist))
    if total <= 0.0:
        raise ValueError("distribution has no weight")
    return float(np.sum(np.arange(dist.size) * dist) / total)


def distribution_variance(dist: np.ndarray) -> float:
    dist = np.asarray(dist, dtype=np.float64)
    total = float(np.sum(dist))
    if total <= 0.0:
        raise ValueError("distribution has no weight")
    n = np.arange(dist.size)
    mean = float(np.sum(n * dist) / total)
    return float(np.sum((n - mean) ** 2 * dist) / total)


def mandel_q(dist: np.ndarray):
    """Photon-number dispersion diagnostic (variance/mean - 1); None at mean 0."""
    mean = distribution_mean(dist)
    if mean == 0.0:
        return None
    return distribution_variance(dist) / mean - 1.0
