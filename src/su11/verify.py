"""Numerical self-checks across the package, backing `su11 verify`.

The checks form one table.  `_GROUP_RUNNERS` names each group once; a
group's runner builds its shared inputs at a configurable truncation and
squeeze strength, then yields one (name, value, threshold) row per
identity: a worst-case residual and the bound the test suite enforces.
`run_checks` is the one place that turns rows into `CheckResult`s: it
attaches the group name and passes a row whose value is finite and at
most its threshold.  Groups never raise: an exception inside one becomes
a single failed row naming the exception, so a deliberately out-of-range
configuration (tiny dim, large r) shows up as reported failures and a
nonzero exit code rather than a traceback.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from . import algebra, displacement, realizations, specfun, states

_K_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)

_Rows = Iterator[tuple[str, float, float]]


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    value: float
    threshold: float
    passed: bool


def _gap(a, b):
    """The largest entrywise distance between two arrays."""
    return np.max(np.abs(a - b))


def _check_specfun(dim: int, r: float) -> _Rows:
    # the builders' routes, each against an exact or closed value it does not compute
    gap = 0.0
    for k in (0.25, 0.35, 2.75):
        # C(2k + c - 1, c) = prod_{i<c} (2k + i) / (i + 1), exactly, at 2k = p/q
        p, q = (2.0 * k).as_integer_ratio()
        num = den = 1
        for c, ln_binomial in enumerate(algebra._ln_binomials(151, k).tolist()):
            gap = max(gap, abs(ln_binomial - specfun._ln_ratio(num, den)[1]))
            num, den = num * (p + c * q), den * q * (c + 1)
    yield "gamma ratio: binomial logs vs exact product", gap, 1e-12
    gap, c, z = 0.0, Fraction(1.5), Fraction(-2.3)
    for m, n in itertools.product(range(8), (7, 12)):
        term = total = Fraction(1)
        for q in range(min(m, n)):
            term *= Fraction((m - q) * (n - q), q + 1) * z / (c + q)
            total += term
        walk = Fraction(*specfun._hyp2f1_row(m, n, 1.5, -2.3))
        gap = max(gap, abs(float(walk / total - 1)))
    yield "terminating 2F1: Gauss walk vs per-term sum", gap, 1e-14
    # S_c = S_{c+1} + x^2 S_{c+2} / (c (c + 1)) cannot see a scale common to every S; the closed
    # forms S_{1/2} = cosh 2x and S_{3/2} = sinh(2x) / (2x) can
    gap, series = 0.0, specfun._bessel_i_series
    for x in (1.0, 2.0, 10.0):
        for c in (0.5, 1.0, 2.0, 4.0):
            s0, s1, s2 = (series(c + i, x) for i in range(3))
            gap = max(gap, abs(s0 - s1 - math.log1p(math.exp(s2 - s1) * x * x / (c * (c + 1)))))
        y = 2.0 * x
        gap = max(gap, abs(series(0.5, x) - math.log(math.cosh(y))),
                  abs(series(1.5, x) - math.log(math.sinh(y) / y)))
    yield "Bessel series: contiguous relation, closed forms", gap, 1e-12
    # the prestate's term j is (-xi)^j order! / ((order - j)! sqrt(j! (2k)_j)): reweighted, its
    # terms are L_order(x)'s, all positive at x < 0, so the sum does not cancel
    p, x = states.LpsParams(12, 0.3, 0.9, 0.5), -3.7
    pre = states.laguerre_prestate(p, 16).amplitudes.tolist()
    total = sum(
        pre[j] / pre[0] * math.sqrt(math.prod((2.0 * p.k + i) / (i + 1) for i in range(j)))
        * (x / p.xi) ** j / math.factorial(j)
        for j in range(p.order + 1)
    )
    exact = float(sum((-Fraction(x)) ** j * math.comb(p.order, j) / math.factorial(j)
                      for j in range(p.order + 1)))
    yield "Laguerre: prestate weights sum to L_12(-3.7)", abs(total / exact - 1.0), 1e-13


def _check_commutator(dim: int, r: float) -> _Rows:
    d = min(dim, 128)
    worst = max(algebra.commutator_residuals(k, d) for k in _K_GRID)
    yield f"ladder commutators, interior of dim={d}", worst, 1e-12


def _check_casimir(dim: int, r: float) -> _Rows:
    d = min(dim, 128)
    worst = max(algebra.casimir_residual(k, d) for k in _K_GRID)
    yield f"quadratic invariant, dim={d}", worst, 1e-12


def _coherent_pair(k: float, d: int):
    sample = states.pcs(0.5 * complex(math.cos(0.4), math.sin(0.4)), k, d)
    spread = states.bgcs(1.0 * complex(math.cos(-0.7), math.sin(-0.7)), k, d)
    return sample, spread


def _check_gdo(dim: int, r: float) -> _Rows:
    d = min(dim, 128)
    worst = max(algebra.gdo_residuals(state) for k in _K_GRID for state in _coherent_pair(k, d))
    yield f"state-specific ladder relations, dim={d}", worst, 1e-12


def _check_ladder(dim: int, r: float) -> _Rows:
    d = min(dim, 128)
    pairs = (state for k in _K_GRID for state in _coherent_pair(k, d))
    worst = max(algebra.ladder_residual_general(s, algebra.ladder_function_from_state(s))
                for s in pairs)
    yield "number vs dressed-raising reconstruction", worst, 1e-10


def _check_eigen(dim: int, r: float) -> _Rows:
    worst = 0.0
    for k in _K_GRID:
        state = states.pcs(0.8, k, dim)
        g = lambda n, k=k: 1.0 / (n + 2.0 * k)
        worst = max(worst, algebra.eigen_residual_lowering(state, g, 0.8))
    yield "scaled-lowering eigenstate, |alpha|=0.8", worst, 1e-9
    worst = 0.0
    for k in _K_GRID:
        state = states.bgcs(2.0, k, dim)
        worst = max(
            worst, algebra.eigen_residual_lowering(state, lambda n: 1.0, 2.0)
        )
    yield "plain-lowering eigenstate, |alpha|=2", worst, 1e-9


def _check_nlcs(dim: int, r: float) -> _Rows:
    k = 0.5
    alpha = 0.6 * complex(math.cos(0.3), math.sin(0.3))
    via_nl = states.nlcs(alpha, k, lambda n: 1.0 / (n + 2.0 * k), dim)
    direct = states.pcs(alpha, k, dim)
    yield (
        "G = 1/(n+2k) reduction to the exponential family",
        _gap(via_nl.amplitudes, direct.amplitudes),
        1e-12,
    )
    beta = 1.3 * complex(math.cos(-0.2), math.sin(-0.2))
    via_nl = states.nlcs(beta, k, lambda n: 1.0, dim)
    direct = states.bgcs(beta, k, dim)
    yield (
        "G = 1 reduction to the eigenvector family",
        _gap(via_nl.amplitudes, direct.amplitudes),
        1e-12,
    )
    g = lambda n: (n + 1.5) / (n + 0.75)
    rec = states.nlcs(alpha, k, g, dim)
    exp_form = states.nlcs_exponential(alpha, k, g, dim)
    yield (
        "recursion vs operator-exponential route",
        _gap(rec.amplitudes, exp_form.amplitudes),
        1e-10,
    )


def _check_matel(dim: int, r: float) -> _Rows:
    k = 0.5
    params = displacement.DisplacementParams(r, 0.7)
    tdim = max(8, min(dim, 48))
    corner = min(tdim, 12)
    # tall enough that truncation loss is negligible at moderate r; no entry depends on it
    cols = displacement.matrix_columns(range(corner), k, params, max(tdim, min(dim, 192)))
    if params.r > 0.0:
        exact = [
            [displacement.matrix_element_hyp(n, m, k, params) for m in range(corner)]
            for n in range(corner)
        ]
        yield "recurrence vs closed hypergeometric", _gap(cols[:corner], np.array(exact)), 1e-8
    oracle = displacement.displacement_oracle(k, params, max(8, min(dim, 128)))
    diff = _gap(oracle.entries[:corner, :corner], cols[:corner])
    yield "matrix-exponential oracle agreement", diff, 1e-8
    yield "column unitarity deficit", np.max(displacement.column_norm_deficits(cols)), 1e-8
    psi = algebra.basis_state(1, tdim, k)
    via_factor = displacement.decomposed_apply(k, params, psi)
    yield (
        "factorized application vs direct column",
        _gap(via_factor.amplitudes, cols[:tdim, 1]),
        1e-9,
    )


def _check_dns(dim: int, r: float) -> _Rows:
    k = 1.0
    params = displacement.DisplacementParams(r, 0.4)
    tdim = max(8, min(dim, 192))
    cols = displacement.matrix_columns([0, 3, 8], k, params, tdim)
    worst = np.max(displacement.column_norm_deficits(cols))
    yield "displaced-level column norm deficit", worst, 1e-8
    if params.r > 0.0:
        moved = states.dns(params, 0, k, tdim)
        plain = states.pcs(params.alpha, k, tdim)
        gap = _gap(moved.amplitudes, plain.amplitudes)
        yield "m=0 reduction to the exponential family", gap, 1e-10
    still = states.dns(displacement.DisplacementParams(0.0), 5, k, tdim)
    bare = algebra.basis_state(5, tdim, k)
    yield "zero displacement returns the bare level", _gap(still.amplitudes, bare.amplitudes), 0.0


def _check_lps(dim: int, r: float) -> _Rows:
    p = states.LpsParams(order=2, r=r, theta=0.9, k=0.5)
    tdim = max(8, min(dim, 256))
    state = states.lps(p, tdim)
    alpha = algebra.mus_expectation(state, p.mu)
    yield "minimum-uncertainty eigen-equation", algebra.mus_residual(state, p.mu, alpha), 1e-8
    pre = states.laguerre_prestate(p, tdim)
    tk = 2.0 * p.k
    phi = np.zeros(tdim, dtype=np.complex128)
    for m in range(p.order + 1):
        mag = math.exp(
            math.lgamma(p.order + 1.0)
            - math.lgamma(p.order - m + 1.0)
            - 0.5 * (math.lgamma(m + 1.0) + math.log(math.prod(tk + i for i in range(m))))
        )
        phi[m] = mag * (-p.xi) ** m
    phi /= np.linalg.norm(phi)
    yield "pre-displacement polynomial coefficients", _gap(pre.amplitudes, phi), 1e-12


def _check_nbs(dim: int, r: float) -> _Rows:
    alpha, shape = 0.5, 2.0
    fock = realizations.nbs(alpha, shape, max(8, min(dim, 128)))
    dist = realizations.photon_distribution(fock)
    top = min(dist.size, 41)
    law = np.array(
        [
            math.exp(
                math.lgamma(shape + n)
                - math.lgamma(shape)
                - math.lgamma(n + 1.0)
                + shape * math.log1p(-alpha * alpha)
                + 2.0 * n * math.log(alpha)
            )
            for n in range(top)
        ]
    )
    yield "photon statistics match the negative binomial law", _gap(dist[:top], law), 1e-12
    yield (
        "weighted-lowering eigen relation",
        realizations.nbs_ladder_residual(fock, alpha, shape),
        1e-9,
    )


def _check_squeeze(dim: int, r: float) -> _Rows:
    params = displacement.DisplacementParams(r if r > 0 else 0.5, 0.3)
    tdim = max(8, min(dim, 192))
    even = realizations.squeezed_vacuum(params, tdim)
    yield (
        "squeezed vacuum two-photon eigen relation",
        realizations.two_photon_nlcs_residual(even, lambda i: 1.0 / (i + 1.0), params.alpha),
        1e-9,
    )
    yield "squeezed vacuum odd levels exactly empty", np.max(np.abs(even.amplitudes[1::2])), 0.0
    odd = realizations.squeezed_first(params, tdim)
    yield (
        "squeezed one-photon eigen relation",
        realizations.two_photon_nlcs_residual(odd, lambda i: 1.0 / (i + 2.0), params.alpha),
        1e-9,
    )
    yield (
        "squeezed one-photon even levels exactly empty",
        np.max(np.abs(odd.amplitudes[0::2])),
        0.0,
    )


def _check_parity(dim: int, r: float) -> _Rows:
    worst = 0.0
    for parity in (0, 1):
        k = 0.25 + 0.5 * parity
        for rr in (max(0.1, 0.5 * r), max(0.1, r)):
            params = displacement.DisplacementParams(rr, 0.6)
            special, general = np.array([
                (realizations.parity_sector_element(n, m, parity, params),
                 displacement.matrix_element_hyp(n, m, k, params))
                for n in range(7) for m in range(7)
            ]).T
            # relative to the corner's largest element: one near a zero in r sets no scale;
            # a corner that underflowed to zero throughout is compared absolutely
            worst = max(worst, _gap(special, general) / (np.max(np.abs(general)) or 1.0))
    yield "parity-sector closed form vs general element", worst, 1e-9


def _check_twomode(dim: int, r: float) -> _Rows:
    excess = 1
    params = displacement.DisplacementParams(r if r > 0 else 0.5, 0.2)
    tdim = max(8, min(dim, 192))
    tmsv = realizations.two_mode_squeezed_vacuum(params, excess, 1, tdim)
    fn2 = lambda n1, n2: 2.0 / (n1 + n2 + excess + 2.0)
    yield (
        "two-mode squeezed state scaled pair-lowering relation",
        realizations.two_mode_nlcs_residual(tmsv, fn2, params.alpha),
        1e-9,
    )
    pdim = max(8, min(dim, 128))
    pair = realizations.pair_coherent(1.0, excess, 1, pdim)
    yield (
        "pair state is a pair-annihilator eigenvector",
        realizations.two_mode_nlcs_residual(pair, lambda a, b: 1.0, 1.0),
        1e-9,
    )
    spread = states.bgcs(1.0, 0.5 * (excess + 1), pdim)
    mapped = realizations.map_to_fock(spread, realizations.TwoMode(excess, 1))
    yield (
        "pair state matches the mapped eigenvector family",
        _gap(pair.diagonal_amplitudes(), mapped.diagonal_amplitudes()),
        1e-12,
    )


def _check_faithful(dim: int, r: float) -> _Rows:
    d = max(8, min(dim, 64))
    tags = (
        realizations.HolsteinPrimakoff(0.5),
        realizations.HolsteinPrimakoff(1.25),
        realizations.AmplitudeSquared(0),
        realizations.AmplitudeSquared(1),
        realizations.TwoMode(2, 1),
        realizations.TwoMode(1, -1),
    )
    worst = 0.0
    for tag in tags:
        # the realization's own levels that carry abstract levels 0 .. d-1
        levels = np.flatnonzero(tag.embed(np.ones(d)).amplitudes)
        sub = np.ix_(levels, levels)
        size = int(levels[-1]) + 1
        for direct, target in (
            (tag.kplus, algebra.kplus_matrix),
            (tag.kminus, algebra.kminus_matrix),
            (tag.k0, algebra.k0_matrix),
        ):
            worst = max(worst, _gap(direct(size)[sub], target(d, tag.k)))
    yield "photon-space operators match abstract bands", worst, 1e-12


_GROUP_RUNNERS: dict[str, Callable[[int, float], _Rows]] = {
    "specfun": _check_specfun,
    "commutator": _check_commutator,
    "casimir": _check_casimir,
    "gdo": _check_gdo,
    "ladder": _check_ladder,
    "eigen": _check_eigen,
    "nlcs": _check_nlcs,
    "matel": _check_matel,
    "dns": _check_dns,
    "lps": _check_lps,
    "nbs": _check_nbs,
    "squeeze": _check_squeeze,
    "parity": _check_parity,
    "twomode": _check_twomode,
    "faithful": _check_faithful,
}

GROUPS: tuple[str, ...] = tuple(_GROUP_RUNNERS)


def run_checks(
    dim: int = 256, r: float = 0.5, only: str | Sequence[str] | None = None
) -> list[CheckResult]:
    """Run the named check groups (all by default, each once, in the order
    asked) and collect their rows.

    A group that raises contributes a single failed row carrying the
    exception text instead of propagating.  A non-finite or negative r is
    refused up front: the squeeze, parity and twomode groups would otherwise
    run at a stand-in r and report it as passed.  So are an unknown group
    and an empty selection.
    """
    displacement.DisplacementParams(r)
    wanted = GROUPS if only is None else [only] if isinstance(only, str) else list(only)
    unknown = [name for name in wanted if name not in _GROUP_RUNNERS]
    if unknown or not wanted:
        cause = f"unknown check group {unknown[0]!r}" if unknown else "no check group selected"
        raise ValueError(f"{cause}; choose from {', '.join(GROUPS)}")
    results: list[CheckResult] = []
    for group in dict.fromkeys(wanted):
        runner = _GROUP_RUNNERS[group]
        try:
            rows = [(name, float(value), limit) for name, value, limit in runner(dim, r)]
        except Exception as exc:  # degrade to a reported failure
            rows = [(f"raised {type(exc).__name__}: {exc}", math.nan, 0.0)]
        results.extend(
            CheckResult(group, name, value, limit, math.isfinite(value) and value <= limit)
            for name, value, limit in rows
        )
    return results
