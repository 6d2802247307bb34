"""Truncated number-basis representation of the su(1,1) ladder algebra.

A state is a finite vector of amplitudes c[0..dim-1] over the lowest-weight
basis |n> of the discrete series labelled by the Bargmann index k > 0.  The
ladder operators act as

    raise:  |n> -> sqrt((n+1)(2k+n)) |n+1>
    lower:  |n> -> sqrt(n(2k+n-1))   |n-1>
    level:  |n> -> (n+k) |n>

The identity checks (`commutator_residuals`, `casimir_residual`,
`gdo_residuals`) are evaluated in extended precision (longdouble) on the
banded structure so that the reported defect measures the identity, not
float64 round-off of the band entries themselves.  The state residuals
(`ladder_residual_general`, `eigen_residual_lowering`, `mus_residual`,
`mus_expectation`) run in float64 on the state's amplitudes.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

__all__ = [
    "TAIL_TOL",
    "ConvergenceError",
    "require_within",
    "NonlinearFunction",
    "AmplitudeVector",
    "StateVector",
    "basis_state",
    "check_bargmann",
    "raising_factors",
    "apply_kplus",
    "apply_kminus",
    "apply_diag",
    "ladder_function_from_state",
    "ladder_residual_general",
    "eigen_residual_lowering",
    "mus_residual",
    "mus_expectation",
    "gdo_residuals",
    "commutator_residuals",
    "casimir_residual",
    "kplus_matrix",
    "kminus_matrix",
    "k0_matrix",
]

TAIL_TOL = 1e-12
# every ln Gamma(2k + n), n < 8192, stays in the float range up to this index
_K_MAX = 1e300

# Map from a level index to the value of a diagonal operator function there.
NonlinearFunction = Callable[[int], float]


class ConvergenceError(RuntimeError):
    """A built state failed its truncation test or its certificate (see `require_within`)."""


def require_within(measured: float, bound: float, what: str, label: str, truncation=False):
    """The one refusal of every builder: unless measured <= bound (nan fails),
    raise "<what>: <label> <measured> exceeds <bound>", what being the builder
    call, ending in the remedy when the truncation is the cause."""
    if not measured <= bound:
        remedy = "; increase the truncation dimension" if truncation else ""
        raise ConvergenceError(f"{what}: {label} {measured:.3e} exceeds {bound:.1e}{remedy}")


def check_bargmann(k: float) -> float:
    k = float(k)
    if not math.isfinite(k) or k <= 0.0:
        raise ValueError(f"Bargmann index must be a positive real, got {k}")
    if k > _K_MAX:
        raise ValueError(f"Bargmann index too large: ln Gamma(2k) overflows, 2k = {2 * k}")
    return k


@dataclass(frozen=True)
class AmplitudeVector:
    """Immutable, finite, 1-d complex amplitude vector.

    The shared base of abstract states and their photon-space images.
    """

    amplitudes: np.ndarray

    _MIN_LEVELS = 1

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amp.ndim != 1 or amp.size < self._MIN_LEVELS:
            raise ValueError(f"amplitudes must be a 1-d vector of length >= {self._MIN_LEVELS}")
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def tail_fraction(self) -> float:
        """|c_top|^2 / ||c||^2, the weight share of the top level; 0.0 for the zero vector."""
        total = self.norm**2
        return float(abs(self.amplitudes[-1]) ** 2 / total) if total else 0.0

    def normalized(self):
        """Unit-norm copy of the same type and labels."""
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return replace(self, amplitudes=self.amplitudes / n)

    def converged(self, what: str):
        """The normalized copy, refused when more than TAIL_TOL of the weight sits on
        the top level or the vector vanished (its tail fraction 0/0 reads nan)."""
        tail = self.tail_fraction if self.norm else math.nan
        require_within(tail, TAIL_TOL, what, "tail fraction", truncation=True)
        return self.normalized()

    def inner(self, other: "AmplitudeVector") -> complex:
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        labels = "".join(f", {f.name}={getattr(self, f.name)!r}" for f in fields(self)[1:])
        return f"{type(self).__name__}(dim={self.dim}{labels}, norm={self.norm:.6g})"


@dataclass(frozen=True, repr=False)
class StateVector(AmplitudeVector):
    """Amplitude vector over the lowest-weight basis of Bargmann index k.

    Not necessarily normalized; `normalized()` returns a unit-norm copy.
    """

    k: float

    _MIN_LEVELS = 2

    def __post_init__(self):
        check_bargmann(self.k)
        super().__post_init__()
        object.__setattr__(self, "k", float(self.k))

    def inner(self, other: "StateVector") -> complex:
        if other.k != self.k:
            raise ValueError(f"Bargmann index mismatch: {self.k} vs {other.k}")
        return super().inner(other)


def basis_state(n: int, dim: int, k: float) -> StateVector:
    """The basis vector |n> in a dim-level truncation."""
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside truncation of dimension {dim}")
    amp = np.zeros(dim, dtype=np.complex128)
    amp[n] = 1.0
    return StateVector(amp, k)


def raising_factors(dim: int, k: float) -> np.ndarray:
    """Transition factors sqrt((n+1)(2k+n)) for n = 0 .. dim-2.

    Entry n is both the raising amplitude n -> n+1 and the lowering
    amplitude n+1 -> n.
    """
    check_bargmann(k)
    n = np.arange(dim - 1, dtype=np.float64)
    return np.sqrt((n + 1.0) * (2.0 * k + n))


def apply_kplus(state: StateVector) -> StateVector:
    """Raising operator.  The amplitude leaving the top level is dropped."""
    f = raising_factors(state.dim, state.k)
    out = np.zeros_like(state.amplitudes)
    out[1:] = f * state.amplitudes[:-1]
    return StateVector(out, state.k)


def apply_kminus(state: StateVector) -> StateVector:
    f = raising_factors(state.dim, state.k)
    out = np.zeros_like(state.amplitudes)
    out[:-1] = f * state.amplitudes[1:]
    return StateVector(out, state.k)


def apply_diag(state: StateVector, func: NonlinearFunction) -> StateVector:
    """Apply a diagonal operator func(N) levelwise.

    func is only evaluated at occupied levels, so poles of func at levels
    carrying exactly zero amplitude are harmless.
    """
    out = np.array(state.amplitudes, dtype=np.complex128)
    levels = np.flatnonzero(out).tolist()
    g = np.empty(len(levels), dtype=np.complex128)
    for i, n in enumerate(levels):
        g[i] = value = complex(func(n))
        if not cmath.isfinite(value):
            raise ValueError(f"diagonal function not finite at level {n}")
    # in real arithmetic: a vectorized complex product may fuse and round otherwise
    a, b = out.real[levels], out.imag[levels]
    out.real[levels] = a * g.real - b * g.imag
    out.imag[levels] = a * g.imag + b * g.real
    return StateVector(out, state.k)


def ladder_function_from_state(state: StateVector) -> Callable[[int], complex]:
    """The diagonal raising factor a state defines through its own amplitudes.

    f(n) = C(n) sqrt(n) / (C(n-1) sqrt(n + 2k - 1)) for n >= 1 (and 0 at
    n = 0, where it is never reached by raising); with this f the state is
    annihilated by N - f(N) K+, see `ladder_residual_general`.
    """
    c = state.amplitudes
    k = state.k

    def f(n: int) -> complex:
        if n == 0:
            return 0j
        if not 1 <= n < state.dim:
            raise ValueError(f"level {n} outside truncation of dimension {state.dim}")
        below = c[n - 1]
        if below == 0:
            raise ZeroDivisionError(f"amplitude at level {n - 1} is zero")
        return complex(c[n] / below) * math.sqrt(n / (n + 2.0 * k - 1.0))

    return f


def ladder_residual_general(state: StateVector, func: Callable[[int], complex]) -> float:
    """Norm of (N - func(N) K+) applied to the state, over levels 0..dim-2.

    func is evaluated on the level the raising lands on.  A state paired
    with its own `ladder_function_from_state` factor gives zero up to
    round-off.
    """
    raised = apply_diag(apply_kplus(state), func)
    n = np.arange(state.dim)
    resid = n * state.amplitudes - raised.amplitudes
    return float(np.linalg.norm(resid[: state.dim - 1]))


def eigen_residual_lowering(
    state: StateVector, func: NonlinearFunction, alpha: complex
) -> float:
    """Norm of (func(N) K- - alpha) applied to the state, truncation-safe.

    func(n) = 1/(n+2k) tests the exponential-family coherence property,
    func = 1 the plain lowering-eigenvector property.  The top component
    of the residual only reflects the missing level dim and is excluded.
    """
    lowered = apply_diag(apply_kminus(state), func)
    resid = lowered.amplitudes - complex(alpha) * state.amplitudes
    return float(np.linalg.norm(resid[: state.dim - 1]))


def mus_residual(
    state: StateVector, mu: complex, nu: complex, alpha: complex
) -> float:
    """Norm of (mu K+ + nu K- - alpha) applied to the state.

    Normalizable solutions need |mu| < |nu|; outside that region the check
    still runs but a warning is issued.  The top residual component is
    contaminated by truncation and excluded.
    """
    if nu == 0 or abs(mu) >= abs(nu):
        warnings.warn(
            f"mixed ladder eigenproblem with |mu|={abs(mu):.3g} >= |nu|={abs(nu):.3g} "
            "has no normalizable solutions",
            stacklevel=2,
        )
    raised = apply_kplus(state).amplitudes
    lowered = apply_kminus(state).amplitudes
    resid = mu * raised + nu * lowered - complex(alpha) * state.amplitudes
    return float(np.linalg.norm(resid[: state.dim - 1]))


def mus_expectation(state: StateVector, mu: complex, nu: complex) -> complex:
    """Expectation value of mu K+ + nu K- in the (normalized) state."""
    total = state.norm**2
    if total == 0.0:
        raise ValueError("expectation value of the zero vector")
    raised = apply_kplus(state).amplitudes
    lowered = apply_kminus(state).amplitudes
    val = np.vdot(state.amplitudes, mu * raised + nu * lowered)
    return complex(val / total)


def gdo_residuals(state: StateVector) -> float:
    """Worst defect of the generalized ladder pair attached to a state.

    For amplitudes C(n) the deformed raising operator A+ has the single band
    entry n-1 -> n equal to n C(n)/C(n-1), its adjoint A- lowers, and the two
    ordered products must be diagonal with values S(N) and S(N+1) where
    S(n) = n^2 |C(n)|^2/|C(n-1)|^2; also [N, A+] = A+ and [N, A-] = -A-.
    The band entries are formed by complex division, S by the magnitude
    ratio, so the comparison exercises two genuinely different arithmetic
    routes; everything runs in extended precision.  Returns the largest
    max-abs entrywise defect over interior levels 1..dim-2.  Requires every
    amplitude below the top level to be nonzero.
    """
    c = state.amplitudes
    dim = state.dim
    if dim < 4:
        raise ValueError("need at least 4 levels for an interior")
    zero = np.flatnonzero(c[:-1] == 0.0)
    if zero.size:
        raise ValueError(f"amplitude at level {zero[0]} is zero")

    ch = c.astype(np.clongdouble)
    t = np.arange(1, dim, dtype=np.longdouble)  # transition t-1 -> t
    band = t.astype(np.clongdouble) * ch[1:] / ch[:-1]
    prod = (band * np.conjugate(band)).real

    mag = ch.real * ch.real + ch.imag * ch.imag
    s = t * t * mag[1:] / mag[:-1]

    # A+A- = S(N) at level L uses transition L; A-A+ = S(N+1) at level L
    # uses transition L+1; so the interior levels 1..dim-2 use them all.
    products = np.max(np.abs(prod - s))

    # [N, A+] on the band entry t-1 -> t is (t - (t-1)) a_t, so the defect
    # against A+ itself; same with the sign flipped for the adjoint.
    up = t * band - (t - 1.0) * band - band
    down = (t - 1.0) * np.conjugate(band) - t * np.conjugate(band) + np.conjugate(band)
    inner = slice(1, dim - 2)  # transitions with both endpoints interior
    return float(max(products, np.max(np.abs(up[inner])), np.max(np.abs(down[inner]))))


def commutator_residuals(k: float, dim: int) -> float:
    """Worst max-abs entrywise defect of [K+, K-] + 2 K0, [K0, K+] - K+ and
    [K0, K-] + K- on the truncated basis, over the entries the truncation
    leaves intact."""
    check_bargmann(k)
    kl = np.longdouble(k)
    n = np.arange(dim, dtype=np.longdouble)
    f = np.sqrt((n[:-1] + 1.0) * (2.0 * kl + n[:-1]))  # transition n -> n+1

    # [K+,K-] is diagonal: f(n-1)^2 - f(n)^2; the top entry misses the
    # raise-then-lower excursion through level dim and is skipped.
    up_down = np.zeros(dim, dtype=np.longdouble)
    up_down[1:] = f * f
    down_up = np.zeros(dim, dtype=np.longdouble)
    down_up[:-1] = f * f
    comm = up_down - down_up
    target = -2.0 * (n + kl)
    pm = np.max(np.abs(comm[:-1] - target[:-1]))

    # [K0, K+-] live on the single band; no truncation issue there.
    zp = np.max(np.abs((n[1:] + kl) * f - f * (n[:-1] + kl) - f))
    zm = np.max(np.abs((n[:-1] + kl) * f - f * (n[1:] + kl) + f))
    return float(max(pm, zp, zm))


def casimir_residual(k: float, dim: int) -> float:
    """Defect of K0^2 - (K+K- + K-K+)/2 against its scalar value k(k-1)."""
    check_bargmann(k)
    kl = np.longdouble(k)
    n = np.arange(dim, dtype=np.longdouble)
    f2 = (n[:-1] + 1.0) * (2.0 * kl + n[:-1])
    up_down = np.zeros(dim, dtype=np.longdouble)
    up_down[1:] = f2
    down_up = np.zeros(dim, dtype=np.longdouble)
    down_up[:-1] = f2
    diag = (n + kl) ** 2 - 0.5 * (up_down + down_up)
    return float(np.max(np.abs(diag[:-1] - kl * (kl - 1.0))))


def kplus_matrix(dim: int, k: float) -> np.ndarray:
    m = np.zeros((dim, dim))
    f = raising_factors(dim, k)
    m[np.arange(1, dim), np.arange(dim - 1)] = f
    return m


def kminus_matrix(dim: int, k: float) -> np.ndarray:
    return kplus_matrix(dim, k).T.copy()


def k0_matrix(dim: int, k: float) -> np.ndarray:
    check_bargmann(k)
    return np.diag(np.arange(dim, dtype=np.float64) + k)
