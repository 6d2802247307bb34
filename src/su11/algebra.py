"""Truncated number-basis representation of the su(1,1) ladder algebra.

A state is a finite vector of amplitudes c[0..dim-1] over the lowest-weight
basis |n> of the discrete series labelled by the Bargmann index k > 0.  The
ladder operators act as

    raise:  |n> -> sqrt((n+1)(2k+n)) |n+1>
    lower:  |n> -> sqrt(n(2k+n-1))   |n-1>
    level:  |n> -> (n+k) |n>

on amplitude arrays in one place, `_ladder`, which the state residuals and the factorized
displacement read; a diagonal function func(N) acts through `scale_occupied`.  The identity
checks (`commutator_residuals`, `casimir_residual`, `gdo_residuals`) are evaluated in extended
precision (longdouble) on the banded structure so that the reported defect measures the
identity, not float64 round-off of the band entries themselves.  The state residuals
(`ladder_residual_general`, `eigen_residual_lowering`, `mus_residual`, `mus_expectation`) run
in float64 on the state's amplitudes.
"""

from __future__ import annotations

import math
import numbers
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
    "check_alpha",
    "check_level",
    "check_dim",
    "raising_factors",
    "scale_occupied",
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


def require_within(measured: float, bound: float, what: str, label: str, vector=None):
    """The one refusal of every builder: unless measured <= bound (nan fails), raise
    "<what>: <label> <measured> exceeds <bound>", what being the builder call, ending in
    the remedy only where the refused vector's top level holds more than TAIL_TOL of its
    weight, the one sign that the truncation is the cause."""
    if not measured <= bound:
        truncated = vector is not None and vector.tail_fraction > TAIL_TOL
        remedy = "; increase the truncation dimension" if truncated else ""
        raise ConvergenceError(f"{what}: {label} {measured:.3e} exceeds {bound:.1e}{remedy}")


def _number(value, real=False) -> float | complex | None:
    """value as a float, or unless real as a complex, where it is a finite number (of finite
    modulus), else None: nan, inf, None, a str, an int past the float range and, where a real is
    wanted, a complex are not.  The one reader of every scalar argument."""
    complex_only = isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real)
    if not isinstance(value, numbers.Number) or real and complex_only:
        return None
    try:
        x = float(value) if real else complex(value)
    except OverflowError:
        return None
    return x if math.isfinite(abs(x)) else None


def _positive(value, refusal: str) -> float:
    """value as a float, refused as "<refusal>, got ..." unless a finite real (`_number`) > 0."""
    x = _number(value, real=True)
    if x is None or x <= 0.0:
        raise ValueError(f"{refusal}, got {value if x is None else x}")
    return x


def check_bargmann(k: float) -> float:
    x = _positive(k, "Bargmann index must be a positive real")
    if x > _K_MAX:
        raise ValueError(f"Bargmann index too large: ln Gamma(2k) overflows, 2k = {2 * x}")
    return x


def check_alpha(alpha: complex, disc=False, name="alpha") -> complex:
    """alpha (or mu, by name) as a complex, refused unless finite and, with disc, inside |z| < 1."""
    value = _number(alpha)
    if value is None:
        raise ValueError(f"{name} must be finite")
    if disc and abs(value) >= 1.0:
        raise ValueError(f"requires |alpha| < 1, got |alpha| = {abs(value)}")
    return value


def check_level(n, name: str, least=0) -> int:
    """n as an int, refused unless it is an integer no less than least (1 for a count): an int
    or a finite real equal to one (`_number`), not a str or a complex."""
    x = _number(n, real=True)
    level = int(n) if x is not None and x.is_integer() else -1
    if level < least or level != n:
        kind = "must be a positive integer" if least else "must be a nonnegative integer"
        raise ValueError(f"{name} {kind}, got {n}")
    return level


def check_dim(dim: int) -> int:
    """dim, the levels a truncation keeps, as an int, refused unless it is a positive integer."""
    return check_level(dim, "dim", 1)


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
        """The normalized copy, refused when the weight of every level underflowed to 0, or
        when more than TAIL_TOL of the weight sits on the top level."""
        if not self.norm:
            require_within(1.0, 0.0, what, "amplitudes underflowed, share of the weight lost")
        require_within(self.tail_fraction, TAIL_TOL, what, "tail fraction", self)
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
        object.__setattr__(self, "k", check_bargmann(self.k))
        super().__post_init__()

    def inner(self, other: "StateVector") -> complex:
        if other.k != self.k:
            raise ValueError(f"Bargmann index mismatch: {self.k} vs {other.k}")
        return super().inner(other)


def basis_state(n: int, dim: int, k: float) -> StateVector:
    """The basis vector |n> in a dim-level truncation."""
    n, dim = check_level(n, "level"), check_dim(dim)
    if not n < dim:
        raise ValueError(f"level {n} outside truncation of dimension {dim}")
    amp = np.zeros(dim, dtype=np.complex128)
    amp[n] = 1.0
    return StateVector(amp, k)


def raising_factors(dim: int, k: float) -> np.ndarray:
    """Transition factors sqrt((n+1)(2k+n)) for n = 0 .. dim-2.

    Entry n is both the raising amplitude n -> n+1 and the lowering
    amplitude n+1 -> n.
    """
    k = check_bargmann(k)
    n = np.arange(check_dim(dim) - 1, dtype=np.float64)
    return np.sqrt((n + 1.0) * (2.0 * k + n))


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


def _ladder(amp: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """(K+ psi, K- psi) for the amplitude array psi at Bargmann index k; the amplitude
    raised out of the top level is dropped."""
    f = raising_factors(amp.size, k)
    raised, lowered = np.zeros_like(amp), np.zeros_like(amp)
    raised[1:] = f * amp[:-1]
    lowered[:-1] = f * amp[1:]
    return raised, lowered


def scale_occupied(values: np.ndarray, func: NonlinearFunction) -> np.ndarray:
    """A complex copy of values with each nonzero entry n times func(n), read once per such
    level in order by `_nonlinearity`: poles of func at levels of exactly zero amplitude are
    harmless, and a value that is not a finite number is refused with the level that gave it."""
    out = np.array(values, dtype=np.complex128)
    levels = np.flatnonzero(out).tolist()
    g = [_nonlinearity(func, n, "diagonal function", nonzero=False) for n in levels]
    out[levels] = _complex_product(out[levels], np.array(g, dtype=np.complex128))
    return out


def _nonlinearity(func: NonlinearFunction, n: int, name="nonlinearity", nonzero=True) -> complex:
    """func(n) as a float or a complex, refused as "<name> not finite at level n" unless a finite
    number (`_number`), and if nonzero as "<name> vanishes ..." where 0."""
    g = func(n)  # a finite float (nlcs's usual g, so tested first) or complex is read as it is
    if not (math.isfinite(g) if type(g) is float else type(g) is complex and math.isfinite(abs(g))):
        g = _number(g)
    if g is None:
        raise ValueError(f"{name} not finite at level {n}")
    if g == 0 and nonzero:
        raise ZeroDivisionError(f"{name} vanishes at level {n}")
    return g


def _complex_product(x: np.ndarray, y) -> np.ndarray:
    """x * y in real arithmetic, each product rounded on its own: numpy's vectorized
    complex product may fuse multiply-adds, which would move the residuals verify prints."""
    out = np.empty_like(x)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


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
    raised = scale_occupied(_ladder(state.amplitudes, state.k)[0], func)
    resid = np.arange(state.dim) * state.amplitudes - raised
    return float(np.linalg.norm(resid[: state.dim - 1]))


def eigen_residual_lowering(state: StateVector, func: NonlinearFunction, alpha: complex) -> float:
    """Norm of (func(N) K- - alpha) applied to the state, truncation-safe.

    func(n) = 1/(n+2k) tests the exponential-family coherence property,
    func = 1 the plain lowering-eigenvector property.  The top component
    of the residual only reflects the missing level dim and is excluded.
    """
    lowered = scale_occupied(_ladder(state.amplitudes, state.k)[1], func)
    resid = lowered - check_alpha(alpha) * state.amplitudes
    return float(np.linalg.norm(resid[: state.dim - 1]))


def mus_residual(state: StateVector, mu: complex, alpha: complex) -> float:
    """Norm of (mu K+ + K- - alpha) applied to the state.

    Any mu K+ + nu K-, nu != 0, is nu times this one at mu/nu.  Normalizable
    solutions need |mu| < 1; outside that region the check still runs but a
    warning is issued.  The top residual component is contaminated by
    truncation and excluded.
    """
    mu, alpha = check_alpha(mu, name="mu"), check_alpha(alpha)
    if abs(mu) >= 1.0:
        warnings.warn(
            f"mixed ladder eigenproblem with |mu|={abs(mu):.3g} >= 1 has no normalizable solutions",
            stacklevel=2,
        )
    raised, lowered = _ladder(state.amplitudes, state.k)
    resid = mu * raised + lowered - alpha * state.amplitudes
    return float(np.linalg.norm(resid[: state.dim - 1]))


def mus_expectation(state: StateVector, mu: complex) -> complex:
    """Expectation value of mu K+ + K- in the (normalized) state."""
    total = state.norm**2
    if total == 0.0:
        raise ValueError("expectation value of the zero vector")
    raised, lowered = _ladder(state.amplitudes, state.k)
    val = np.vdot(state.amplitudes, check_alpha(mu, name="mu") * raised + lowered)
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

    # [N, A+] on the band entry t-1 -> t is (t - (t-1)) a_t, so the defect against A+ itself;
    # the adjoint's defect is its conjugate negated, the same magnitude bit for bit.
    up = t * band - (t - 1.0) * band - band
    inner = slice(1, dim - 2)  # transitions with both endpoints interior
    return float(max(products, np.max(np.abs(up[inner]))))


def _squared_band(k: float, dim: int):
    """(n, k, f(n)^2 = (n+1)(2k+n) for the transition n -> n+1, and the diagonals of K+K- and
    K-K+), in long double over levels n < dim, for the identity checks."""
    kl = np.longdouble(check_bargmann(k))
    n = np.arange(check_dim(dim), dtype=np.longdouble)
    f2 = (n[:-1] + 1.0) * (2.0 * kl + n[:-1])
    up_down, down_up = np.zeros_like(n), np.zeros_like(n)
    up_down[1:], down_up[:-1] = f2, f2
    return n, kl, f2, up_down, down_up


def commutator_residuals(k: float, dim: int) -> float:
    """Worst max-abs entrywise defect of [K+, K-] + 2 K0, [K0, K+] - K+ and
    [K0, K-] + K- on the truncated basis, over the entries the truncation
    leaves intact."""
    n, kl, f2, up_down, down_up = _squared_band(k, dim)
    # [K+,K-] is diagonal: f(n-1)^2 - f(n)^2; the top entry misses the
    # raise-then-lower excursion through level dim and is skipped.
    pm = np.max(np.abs((up_down - down_up + 2.0 * (n + kl))[:-1]))
    # [K0, K+-] live on the single band; no truncation issue there.
    f = np.sqrt(f2)
    zp = np.max(np.abs((n[1:] + kl) * f - f * (n[:-1] + kl) - f))
    zm = np.max(np.abs((n[:-1] + kl) * f - f * (n[1:] + kl) + f))
    return float(max(pm, zp, zm))


def casimir_residual(k: float, dim: int) -> float:
    """Defect of K0^2 - (K+K- + K-K+)/2 against its scalar value k(k-1)."""
    n, kl, f2, up_down, down_up = _squared_band(k, dim)
    diag = (n + kl) ** 2 - 0.5 * (up_down + down_up)
    return float(np.max(np.abs(diag[:-1] - kl * (kl - 1.0))))


def kplus_matrix(dim: int, k: float) -> np.ndarray:
    return np.diag(raising_factors(dim, k), -1)


def kminus_matrix(dim: int, k: float) -> np.ndarray:
    return np.diag(raising_factors(dim, k), 1)


def k0_matrix(dim: int, k: float) -> np.ndarray:
    k = check_bargmann(k)
    return np.diag(np.arange(check_dim(dim), dtype=np.float64) + k)
