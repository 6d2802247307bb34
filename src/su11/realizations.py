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

from .algebra import (AmplitudeVector, StateVector, _complex_product, _number, check_alpha,
                      check_bargmann, check_dim, check_level, require_within, scale_occupied)
from .displacement import DisplacementParams
from .specfun import _LN2, _hyp2f1_row, _ln_ratio
from .states import _pcs

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
    "photon_moments",
]


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
        return _band(dim, 1, lambda n: math.sqrt(n + 1.0) * math.sqrt(n + 2.0 * self.k))

    def kminus(self, dim: int) -> np.ndarray:
        return _band(dim, -1, lambda n: math.sqrt(n) * math.sqrt(n - 1.0 + 2.0 * self.k))

    def k0(self, dim: int) -> np.ndarray:
        return np.diag(np.arange(check_dim(dim), dtype=np.float64) + self.k)


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
        return _band(dim, 2, lambda n: 0.5 * math.sqrt(n + 1.0) * math.sqrt(n + 2.0))

    def kminus(self, dim: int) -> np.ndarray:
        return _band(dim, -2, lambda n: 0.5 * math.sqrt(n) * math.sqrt(n - 1.0))

    def k0(self, dim: int) -> np.ndarray:
        return np.diag(0.5 * (np.arange(check_dim(dim), dtype=np.float64) + 0.5))


@dataclass(frozen=True)
class TwoMode:
    """Two-boson realization on the diagonal with fixed occupation difference.

    sign +1 puts the excess photons in the second mode ((n, n+excess)),
    sign -1 in the first.
    """

    excess: int
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "excess", check_level(self.excess, "excess"))
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

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
        return _band(dim, 1, lambda n: math.prod(map(math.sqrt, self.occupations(n + 1))))

    def kminus(self, dim: int) -> np.ndarray:
        return _band(dim, -1, lambda n: math.prod(map(math.sqrt, self.occupations(n))))

    def k0(self, dim: int) -> np.ndarray:
        n1, n2 = self.occupations(np.arange(check_dim(dim)))
        return np.diag(0.5 * (n1 + n2 + 1.0))


RealizationTag = Union[HolsteinPrimakoff, AmplitudeSquared, TwoMode]


def _band(dim: int, offset: int, entry) -> np.ndarray:
    """The dim x dim matrix of a tag's ladder operator: out[n + offset, n] = entry(n) for every
    n that keeps both indices in range, zero elsewhere."""
    dim = check_dim(dim)
    out = np.zeros((dim, dim))
    for n in range(max(0, -offset), min(dim, dim - offset)):
        out[n + offset, n] = entry(n)
    return out


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
    value = _number(shape, real=True)
    if value is None or value <= 0.0:
        raise ValueError(f"shape parameter must be finite and > 0, got {shape}")
    shape, k = value, check_bargmann(0.5 * value)
    alpha, dim = check_alpha(alpha, disc=True), check_dim(dim)
    mag = abs(alpha)
    out = np.zeros(dim, dtype=np.complex128)
    out[0] = 1.0
    if mag > 0.0:
        # ln C(shape + n - 1, n) = sum_{i<n} ln((shape + i) / (i + 1)), summed directly
        i = np.arange(dim - 1.0)
        ln_binomial = np.concatenate(([0.0], np.cumsum(np.log((shape + i) / (i + 1.0)))))
        lnmag = k * math.log1p(-mag * mag) + 0.5 * ln_binomial
        lnmag += np.arange(dim) * math.log(mag)
        arg = math.atan2(alpha.imag, alpha.real)
        out = np.exp(lnmag) * np.exp(1j * arg * np.arange(dim))
    what = f"nbs(alpha={alpha}, shape={shape}, dim={dim})"
    fock = FockVector(out).converged(what)
    require_within(nbs_ladder_residual(fock, alpha, shape), 1e-9, what, "ladder residual")
    return fock


def nbs_ladder_residual(fock: FockVector, alpha: complex, shape: float) -> float:
    """Residual of the lowering identity (N+shape)^{-1/2} a acting as alpha.

    The annihilation factor sqrt(n) and the inverse-square-root diagonal
    are composed literally on the photon lattice.
    """
    if not shape > 0:
        raise ValueError(f"shape parameter must be > 0, got {shape}")
    c = fock.amplitudes
    n = np.arange(fock.dim - 1, dtype=np.float64)
    lowered = np.sqrt(n + 1.0) * c[1:]
    scaled = lowered / np.sqrt(n + shape)
    resid = scaled - complex(alpha) * c[:-1]
    return float(np.linalg.norm(resid))


def _squeezed(name: str, params: DisplacementParams, tag: RealizationTag, dim: int, args=""):
    """The squeeze's disc coherent state mapped by the tag, refused as name(r, theta, args, dim)."""
    if abs(params.alpha) >= 1.0:
        raise ValueError(f"squeeze r = {params.r} is too large: tanh r rounds to 1")
    call = f"{name}(r={params.r}, theta={params.theta}{args}, dim={{dim}})"
    return map_to_fock(_pcs(params.alpha, tag.k, dim, call), tag)


def squeezed_vacuum(params: DisplacementParams, dim: int) -> FockVector:
    """Squeezed vacuum: the k=1/4 coherent state pushed onto even Fock levels.

    dim counts abstract levels; the photon vector spans 0 .. 2(dim-1).
    """
    return _squeezed("squeezed_vacuum", params, AmplitudeSquared(0), dim)


def squeezed_first(params: DisplacementParams, dim: int) -> FockVector:
    """Squeezed one-photon state: k=3/4 coherent state on odd Fock levels."""
    return _squeezed("squeezed_first", params, AmplitudeSquared(1), dim)


def parity_sector_element(
    n: int, m: int, parity: int, params: DisplacementParams
) -> complex:
    """Squeeze-operator matrix element on one parity sector of Fock space.

    <2n+parity| S |2m+parity> in the half-integer closed form: double
    factorials over single ones, (tanh(r)/2) powers, and a terminating
    hypergeometric at argument -1/sinh^2(r).  Agrees with the general
    matrix element at Bargmann index 1/4 (even) or 3/4 (odd); needs r >= 1e-150.
    """
    n, m = check_level(n, "n"), check_level(m, "m")
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    if params.r < 1e-150:
        raise ValueError(f"closed form needs r >= 1e-150, got {params.r}")
    t = math.tanh(params.r)
    try:
        z = -1.0 / math.sinh(params.r) ** 2
        ln_cosh = math.log(math.cosh(params.r))
    except OverflowError:  # past r ~ 355: the same two quantities in forms that cannot overflow
        z = -4.0 * math.exp(-2.0 * params.r) / math.expm1(-2.0 * params.r) ** 2
        ln_cosh = params.r - _LN2
    sign, ln_f = _ln_ratio(*_hyp2f1_row(m, n, 0.5 + parity, z))
    if sign == 0.0:
        return 0j
    ln_mag = (
        0.5 * (math.lgamma(2 * n + parity + 1.0) + math.lgamma(2 * m + parity + 1.0))
        - math.lgamma(n + 1.0)
        - math.lgamma(m + 1.0)
        + (n + m) * (math.log(t) - _LN2)
        - (0.5 + parity) * ln_cosh
        + ln_f
    )
    mag = sign * math.exp(ln_mag)
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
    args = f", excess={tag.excess}, sign={tag.sign}"
    return _squeezed("two_mode_squeezed_vacuum", params, tag, dim, args)


def pair_coherent(alpha: complex, excess: int, sign: int, dim: int) -> TwoModeFockVector:
    """Joint eigenstate of the pair annihilator ab and the occupation difference.

    Built by its own two-mode recursion
        c_{level+1} = alpha c_level / sqrt((n1)(n2) at level+1),
    independent of the abstract lowering-eigenvector constructor; tests tie the two together.
    The logs of the ratios' sizes are summed, and exponentiated, in np.longdouble out from the
    largest level, where the falling ratios pass 1; the unit ratios are multiplied.
    """
    tag, alpha, dim = TwoMode(excess, sign), check_alpha(alpha), check_dim(dim)
    diag = np.zeros(dim, dtype=np.complex128)
    diag[0] = 1.0
    if mag := abs(alpha):
        n1, n2 = tag.occupations(np.arange(1, dim, dtype=np.longdouble))
        ln_ratios = np.log(np.longdouble(mag)) - 0.5 * np.log(n1 * n2)
        peak = np.count_nonzero(ln_ratios > 0.0)
        lnmag = np.concatenate((-np.cumsum(ln_ratios[:peak][::-1])[::-1],
                                np.cumsum(np.concatenate(([0.0], ln_ratios[peak:])))))
        phase = np.cumprod(np.concatenate(([1.0], np.full(dim - 1, alpha / mag))))
        diag = np.exp(lnmag).astype(np.float64) * (phase / np.abs(phase))
    what = f"pair_coherent(alpha={alpha}, excess={tag.excess}, dim={dim})"
    state = TwoModeFockVector(diag, tag).converged(what)
    resid = two_mode_nlcs_residual(state, lambda n1, n2: 1.0, alpha)
    require_within(resid, 1e-9, what, "pair-annihilator residual")
    return state


def two_photon_nlcs_residual(fock: FockVector, func, alpha: complex) -> float:
    """Residual of func(N) a a acting as multiplication by alpha.

    func is evaluated at the photon level the two-photon lowering lands on,
    and only where that landing amplitude is nonzero (structural parity
    zeros never probe func).  Norm over photon levels 0 .. dim-3.
    """
    c = fock.amplitudes
    idx = np.arange(c.size - 2, dtype=np.float64)
    lowered = np.sqrt((idx + 1.0) * (idx + 2.0)) * c[2:]
    return float(np.linalg.norm(scale_occupied(lowered, func) - complex(alpha) * c[:-2]))


def two_mode_nlcs_residual(state: TwoModeFockVector, func2, alpha: complex) -> float:
    """Residual of func2(N1, N2) a b acting as multiplication by alpha.

    func2 takes the occupation pair of the diagonal level the pair
    annihilator lands on.  Norm over diagonal levels 0 .. dim-2.
    """
    diag, tag = state.amplitudes, state.tag
    n1_up, n2_up = tag.occupations(np.arange(1, diag.size))
    lowered = np.sqrt(n1_up * n2_up) * diag[1:]
    dressed = scale_occupied(lowered, lambda level: func2(*tag.occupations(level)))
    return float(np.linalg.norm(dressed - _complex_product(diag[:-1], complex(alpha))))


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


def photon_moments(dist: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the photon number over a weight that need not sum to 1."""
    dist = np.asarray(dist, dtype=np.float64)
    total = float(np.sum(dist))
    if total <= 0.0:
        raise ValueError("distribution has no weight")
    n = np.arange(dist.size)
    mean = float(np.sum(n * dist) / total)
    return mean, float(np.sum((n - mean) ** 2 * dist) / total)
