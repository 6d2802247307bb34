"""Numerical self-checks across the package, backing `su11 verify`.

Each named group evaluates a handful of identities at a configurable
truncation and squeeze strength, reporting worst-case residuals against
the same thresholds the test suite enforces.  Groups never raise: an
exception inside one becomes a failed row naming the exception, so a
deliberately out-of-range configuration (tiny dim, large r) shows up as
reported failures and a nonzero exit code rather than a traceback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import algebra, displacement, realizations, specfun, states

_K_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    value: float
    threshold: float
    passed: bool


def _row(group: str, name: str, value: float, threshold: float) -> CheckResult:
    value = float(value)
    passed = math.isfinite(value) and value <= threshold
    return CheckResult(group, name, value, threshold, passed)


def _check_specfun(dim: int, r: float) -> list[CheckResult]:
    rows = []
    direct = specfun.pochhammer(0.7, 30)
    via_log = math.exp(math.lgamma(30.7) - math.lgamma(0.7))
    rows.append(
        _row(
            "specfun",
            "gamma ratio, product vs log route",
            abs(direct / via_log - 1.0),
            1e-12,
        )
    )
    sym = abs(
        specfun.hyp2f1_terminating(5, 7, 1.5, -2.3)
        - specfun.hyp2f1_terminating(7, 5, 1.5, -2.3)
    )
    rows.append(_row("specfun", "terminating 2F1 symmetric in (m, n)", sym, 1e-14))
    x = 2.0
    bess = abs(
        specfun.bessel_i(0.0, x)
        - specfun.bessel_i(2.0, x)
        - (2.0 / x) * specfun.bessel_i(1.0, x)
    ) / specfun.bessel_i(0.0, x)
    rows.append(_row("specfun", "Bessel-I three-term recurrence", bess, 1e-12))
    order, xl = 12, 3.7
    exact = Fraction(0)
    xf = Fraction(xl)
    for q in range(order + 1):
        exact += (-xf) ** q * math.comb(order, q) / Fraction(math.factorial(q))
    lag = abs(complex(specfun.laguerre(order, xl)) - float(exact)) / abs(float(exact))
    rows.append(_row("specfun", "Laguerre vs exact rational sum", lag, 1e-13))
    return rows


def _check_commutator(dim: int, r: float) -> list[CheckResult]:
    d = min(dim, 128)
    worst = 0.0
    for k in _K_GRID:
        worst = max(worst, algebra.commutator_residuals(k, d))
    return [_row("commutator", f"ladder commutators, interior of dim={d}", worst, 1e-12)]


def _check_casimir(dim: int, r: float) -> list[CheckResult]:
    d = min(dim, 128)
    worst = max(algebra.casimir_residual(k, d) for k in _K_GRID)
    return [_row("casimir", f"quadratic invariant, dim={d}", worst, 1e-12)]


def _coherent_pair(k: float, d: int):
    sample = states.pcs(0.5 * complex(math.cos(0.4), math.sin(0.4)), k, d)
    spread = states.bgcs(1.0 * complex(math.cos(-0.7), math.sin(-0.7)), k, d)
    return sample, spread


def _check_gdo(dim: int, r: float) -> list[CheckResult]:
    d = min(dim, 128)
    worst = 0.0
    for k in _K_GRID:
        for state in _coherent_pair(k, d):
            worst = max(worst, algebra.gdo_residuals(state))
    return [_row("gdo", f"state-specific ladder relations, dim={d}", worst, 1e-12)]


def _check_ladder(dim: int, r: float) -> list[CheckResult]:
    d = min(dim, 128)
    worst = 0.0
    for k in _K_GRID:
        for state in _coherent_pair(k, d):
            f = algebra.ladder_function_from_state(state)
            worst = max(worst, algebra.ladder_residual_general(state, f))
    return [_row("ladder", "number vs dressed-raising reconstruction", worst, 1e-10)]


def _check_eigen(dim: int, r: float) -> list[CheckResult]:
    rows = []
    worst = 0.0
    for k in _K_GRID:
        state = states.pcs(0.8, k, dim)
        g = lambda n, k=k: 1.0 / (n + 2.0 * k)
        worst = max(worst, algebra.eigen_residual_lowering(state, g, 0.8))
    rows.append(_row("eigen", "scaled-lowering eigenstate, |alpha|=0.8", worst, 1e-9))
    worst = 0.0
    for k in _K_GRID:
        state = states.bgcs(2.0, k, dim)
        worst = max(
            worst, algebra.eigen_residual_lowering(state, lambda n: 1.0, 2.0)
        )
    rows.append(_row("eigen", "plain-lowering eigenstate, |alpha|=2", worst, 1e-9))
    return rows


def _check_nlcs(dim: int, r: float) -> list[CheckResult]:
    rows = []
    k = 0.5
    alpha = 0.6 * complex(math.cos(0.3), math.sin(0.3))
    via_nl = states.nlcs(alpha, k, lambda n: 1.0 / (n + 2.0 * k), dim)
    direct = states.pcs(alpha, k, dim)
    rows.append(
        _row(
            "nlcs",
            "G = 1/(n+2k) reduction to the exponential family",
            float(np.max(np.abs(via_nl.amplitudes - direct.amplitudes))),
            1e-12,
        )
    )
    beta = 1.3 * complex(math.cos(-0.2), math.sin(-0.2))
    via_nl = states.nlcs(beta, k, lambda n: 1.0, dim)
    direct = states.bgcs(beta, k, dim)
    rows.append(
        _row(
            "nlcs",
            "G = 1 reduction to the eigenvector family",
            float(np.max(np.abs(via_nl.amplitudes - direct.amplitudes))),
            1e-12,
        )
    )
    g = lambda n: (n + 1.5) / (n + 0.75)
    rec = states.nlcs(alpha, k, g, dim)
    exp_form = states.nlcs_exponential(alpha, k, g, dim)
    rows.append(
        _row(
            "nlcs",
            "recursion vs operator-exponential route",
            float(np.max(np.abs(rec.amplitudes - exp_form.amplitudes))),
            1e-10,
        )
    )
    return rows


def _check_matel(dim: int, r: float) -> list[CheckResult]:
    rows = []
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
        worst = float(np.max(np.abs(cols[:corner] - np.array(exact))))
        rows.append(_row("matel", "recurrence vs closed hypergeometric", worst, 1e-8))
    oracle = displacement.displacement_oracle(k, params, max(8, min(dim, 128)))
    diff = np.max(np.abs(oracle.entries[:corner, :corner] - cols[:corner]))
    rows.append(_row("matel", "matrix-exponential oracle agreement", float(diff), 1e-8))
    worst = float(np.max(displacement.column_norm_deficits(cols)))
    rows.append(_row("matel", "column unitarity deficit", worst, 1e-8))
    psi = algebra.basis_state(1, tdim, k)
    via_factor = displacement.decomposed_apply(k, params, psi)
    rows.append(
        _row(
            "matel",
            "factorized application vs direct column",
            float(np.max(np.abs(via_factor.amplitudes - cols[:tdim, 1]))),
            1e-9,
        )
    )
    return rows


def _check_dns(dim: int, r: float) -> list[CheckResult]:
    rows = []
    k = 1.0
    params = displacement.DisplacementParams(r, 0.4)
    tdim = max(8, min(dim, 192))
    cols = displacement.matrix_columns([0, 3, 8], k, params, tdim)
    worst = float(np.max(displacement.column_norm_deficits(cols)))
    rows.append(_row("dns", "displaced-level column norm deficit", worst, 1e-8))
    if params.r > 0.0:
        moved = states.dns(params, 0, k, tdim)
        plain = states.pcs(params.alpha, k, tdim)
        rows.append(
            _row(
                "dns",
                "m=0 reduction to the exponential family",
                float(np.max(np.abs(moved.amplitudes - plain.amplitudes))),
                1e-10,
            )
        )
    still = states.dns(displacement.DisplacementParams(0.0), 5, k, tdim)
    rows.append(
        _row(
            "dns",
            "zero displacement returns the bare level",
            float(np.max(np.abs(still.amplitudes - algebra.basis_state(5, tdim, k).amplitudes))),
            0.0,
        )
    )
    return rows


def _check_lps(dim: int, r: float) -> list[CheckResult]:
    rows = []
    p = states.LpsParams(order=2, r=r, theta=0.9, k=0.5)
    tdim = max(8, min(dim, 256))
    state = states.lps(p, tdim)
    alpha = algebra.mus_expectation(state, p.mu, p.nu)
    rows.append(
        _row(
            "lps",
            "minimum-uncertainty eigen-equation",
            algebra.mus_residual(state, p.mu, p.nu, alpha),
            1e-8,
        )
    )
    pre = states.laguerre_prestate(p, tdim)
    tk = 2.0 * p.k
    phi = np.zeros(tdim, dtype=np.complex128)
    for m in range(p.order + 1):
        mag = math.exp(
            math.lgamma(p.order + 1.0)
            - math.lgamma(p.order - m + 1.0)
            - 0.5 * (math.lgamma(m + 1.0) + math.log(specfun.pochhammer(tk, m)))
        )
        phi[m] = mag * (-p.xi) ** m
    phi /= np.linalg.norm(phi)
    rows.append(
        _row(
            "lps",
            "pre-displacement polynomial coefficients",
            float(np.max(np.abs(pre.amplitudes - phi))),
            1e-12,
        )
    )
    return rows


def _check_nbs(dim: int, r: float) -> list[CheckResult]:
    rows = []
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
    rows.append(
        _row(
            "nbs",
            "photon statistics match the negative binomial law",
            float(np.max(np.abs(dist[:top] - law))),
            1e-12,
        )
    )
    rows.append(
        _row(
            "nbs",
            "weighted-lowering eigen relation",
            realizations.nbs_ladder_residual(fock, alpha, shape),
            1e-9,
        )
    )
    return rows


def _check_squeeze(dim: int, r: float) -> list[CheckResult]:
    rows = []
    params = displacement.DisplacementParams(r if r > 0 else 0.5, 0.3)
    tdim = max(8, min(dim, 192))
    even = realizations.squeezed_vacuum(params, tdim)
    rows.append(
        _row(
            "squeeze",
            "squeezed vacuum two-photon eigen relation",
            realizations.two_photon_nlcs_residual(
                even, lambda i: 1.0 / (i + 1.0), params.alpha
            ),
            1e-9,
        )
    )
    rows.append(
        _row(
            "squeeze",
            "squeezed vacuum odd levels exactly empty",
            float(np.max(np.abs(even.amplitudes[1::2]))),
            0.0,
        )
    )
    odd = realizations.squeezed_first(params, tdim)
    rows.append(
        _row(
            "squeeze",
            "squeezed one-photon eigen relation",
            realizations.two_photon_nlcs_residual(
                odd, lambda i: 1.0 / (i + 2.0), params.alpha
            ),
            1e-9,
        )
    )
    rows.append(
        _row(
            "squeeze",
            "squeezed one-photon even levels exactly empty",
            float(np.max(np.abs(odd.amplitudes[0::2]))),
            0.0,
        )
    )
    return rows


def _check_parity(dim: int, r: float) -> list[CheckResult]:
    worst = 0.0
    for parity in (0, 1):
        k = 0.25 + 0.5 * parity
        for rr in (max(0.1, 0.5 * r), max(0.1, r)):
            params = displacement.DisplacementParams(rr, 0.6)
            for n in range(7):
                for m in range(7):
                    special = realizations.parity_sector_element(n, m, parity, params)
                    general = displacement.matrix_element_hyp(n, m, k, params)
                    denom = max(abs(general), 1e-250)
                    worst = max(worst, abs(special - general) / denom)
    return [
        _row("parity", "parity-sector closed form vs general element", worst, 1e-9)
    ]


def _check_twomode(dim: int, r: float) -> list[CheckResult]:
    rows = []
    excess = 1
    params = displacement.DisplacementParams(r if r > 0 else 0.5, 0.2)
    tdim = max(8, min(dim, 192))
    tmsv = realizations.two_mode_squeezed_vacuum(params, excess, 1, tdim)
    fn2 = lambda n1, n2: 2.0 / (n1 + n2 + excess + 2.0)
    rows.append(
        _row(
            "twomode",
            "two-mode squeezed state scaled pair-lowering relation",
            realizations.two_mode_nlcs_residual(tmsv, fn2, params.alpha),
            1e-9,
        )
    )
    pdim = max(8, min(dim, 128))
    pair = realizations.pair_coherent(1.0, excess, 1, pdim)
    rows.append(
        _row(
            "twomode",
            "pair state is a pair-annihilator eigenvector",
            realizations.two_mode_nlcs_residual(pair, lambda a, b: 1.0, 1.0),
            1e-9,
        )
    )
    spread = states.bgcs(1.0, 0.5 * (excess + 1), pdim)
    mapped = realizations.map_to_fock(spread, realizations.TwoMode(excess, 1))
    rows.append(
        _row(
            "twomode",
            "pair state matches the mapped eigenvector family",
            float(
                np.max(
                    np.abs(
                        pair.diagonal_amplitudes() - mapped.diagonal_amplitudes()
                    )
                )
            ),
            1e-12,
        )
    )
    return rows


def _check_faithful(dim: int, r: float) -> list[CheckResult]:
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
            worst = max(worst, float(np.max(np.abs(direct(size)[sub] - target(d, tag.k)))))
    return [
        _row("faithful", "photon-space operators match abstract bands", worst, 1e-12)
    ]


_GROUP_RUNNERS: dict[str, Callable[[int, float], list[CheckResult]]] = {
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
    """Run the named check groups (all by default) and collect their rows.

    A group that raises contributes a single failed row carrying the
    exception text instead of propagating.  A non-finite or negative r is
    refused up front: the squeeze, parity and twomode groups would otherwise
    run at a stand-in r and report it as passed.
    """
    displacement.DisplacementParams(r)
    if isinstance(only, str):
        wanted: Iterable[str] = (only,)
    elif only is None:
        wanted = GROUPS
    else:
        wanted = tuple(only)
    selected = []
    for name in wanted:
        if name not in _GROUP_RUNNERS:
            raise ValueError(
                f"unknown check group {name!r}; choose from {', '.join(GROUPS)}"
            )
        if name not in selected:
            selected.append(name)
    results: list[CheckResult] = []
    for name in selected:
        try:
            results.extend(_GROUP_RUNNERS[name](dim, r))
        except Exception as exc:  # degrade to a reported failure
            results.append(
                CheckResult(
                    name,
                    f"raised {type(exc).__name__}: {exc}",
                    math.nan,
                    0.0,
                    False,
                )
            )
    return results
