"""Acceptance gate: ten end-to-end checks at pinned tolerances.

Each test prints one summary line (bypassing capture, so it shows up in
plain pytest output) and then asserts.  Tolerances here are contractual;
do not loosen them to make a failure go away.
"""

import cmath
import json
import math
import pathlib
import sys
import time

import numpy as np
import pytest

from su11.algebra import (
    basis_state,
    casimir_residual,
    commutator_residuals,
    eigen_residual_lowering,
    gdo_residuals,
    k0_matrix,
    kminus_matrix,
    kplus_matrix,
    mus_expectation,
    mus_residual,
)
from su11.cli import main
from su11.displacement import (
    DisplacementParams,
    displacement_oracle,
    matrix_columns,
    matrix_element_hyp,
    matrix_element_sum,
)
from su11.realizations import (
    AmplitudeSquared,
    HolsteinPrimakoff,
    TwoMode,
    parity_sector_element,
    nbs,
    nbs_ladder_residual,
    pair_coherent,
    photon_distribution,
    squeezed_first,
    squeezed_vacuum,
    two_mode_nlcs_residual,
    two_mode_squeezed_vacuum,
    two_photon_nlcs_residual,
)
from su11.states import LpsParams, bgcs, dns, laguerre_prestate, lps, nlcs, nlcs_exponential, pcs

K_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "goldens"


@pytest.fixture
def report(capsys):
    """Reporter that bypasses capture so the verdict line always prints."""

    def emit(num: int, label: str, detail: str, ok: bool) -> None:
        line = f"ACCEPTANCE {num:02d} {label}: {detail} -> {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line, flush=True)

    return emit


def test_01_algebra_identities(report):
    dim = 128
    worst = 0.0
    for k in K_GRID:
        worst = max(worst, commutator_residuals(k, dim))
        worst = max(worst, casimir_residual(k, dim))
        for state in (
            pcs(0.5 * cmath.exp(0.4j), k, dim),
            bgcs(1.0 * cmath.exp(-0.7j), k, dim),
        ):
            worst = max(worst, gdo_residuals(state))
    ok = worst < 1e-12
    report(1, "algebra-identities", f"max residual {worst:.3e} (bound 1e-12)", ok)
    assert ok


def test_02_eigen_identities(report):
    dim = 256
    worst = 0.0
    for k in K_GRID:
        for mag in (0.3, 0.8):
            alpha = mag * cmath.exp(0.4j)
            s = pcs(alpha, k, dim)
            worst = max(
                worst,
                eigen_residual_lowering(s, lambda n, k=k: 1.0 / (n + 2.0 * k), alpha),
            )
        for mag in (1.0, 2.0):
            beta = mag * cmath.exp(-0.7j)
            s = bgcs(beta, k, dim)
            worst = max(worst, eigen_residual_lowering(s, lambda n: 1.0, beta))
    ok = worst < 1e-9
    report(2, "eigen-identities", f"max residual {worst:.3e} (bound 1e-9)", ok)
    assert ok


def test_03_nonlinear_unification(report):
    dim = 96
    worst_elem = 0.0
    for k in K_GRID:
        alpha = 0.55 * cmath.exp(0.7j)
        a = nlcs(alpha, k, lambda n, k=k: 1.0 / (n + 2.0 * k), dim)
        b = pcs(alpha, k, dim)
        worst_elem = max(worst_elem, float(np.max(np.abs(a.amplitudes - b.amplitudes))))
        beta = 1.2 * cmath.exp(-0.3j)
        c = nlcs(beta, k, lambda n: 1.0, dim)
        d = bgcs(beta, k, dim)
        worst_elem = max(worst_elem, float(np.max(np.abs(c.amplitudes - d.amplitudes))))
    rng = np.random.default_rng(20240817)
    worst_route = 0.0
    for _ in range(5):
        a_, b_ = rng.uniform(0.5, 3.0, size=2)
        g = lambda n, a_=a_, b_=b_: (n + a_) / (n + b_)
        alpha = 0.7 * cmath.exp(0.4j)
        via_exp = nlcs_exponential(alpha, 0.5, g, dim)
        via_rec = nlcs(alpha, 0.5, g, dim)
        worst_route = max(
            worst_route, float(np.max(np.abs(via_exp.amplitudes - via_rec.amplitudes)))
        )
    ok = worst_elem < 1e-12 and worst_route < 1e-10
    report(
        3,
        "nonlinear-unification",
        f"reduction {worst_elem:.3e} (1e-12), route split {worst_route:.3e} (1e-10)",
        ok,
    )
    assert ok


def test_04_matrix_element_triple_agreement(report):
    start = time.perf_counter()
    cap = 21
    worst = 0.0
    for k in K_GRID:
        for r in (0.1, 0.5, 1.0):
            for theta in (0.0, 1.3):
                params = DisplacementParams(r, theta)
                oracle = displacement_oracle(k, params, 256).entries[:cap, :cap]
                by_sum = np.empty((cap, cap), dtype=complex)
                by_hyp = np.empty((cap, cap), dtype=complex)
                for n in range(cap):
                    for m in range(cap):
                        by_sum[n, m] = matrix_element_sum(n, m, k, params)
                        by_hyp[n, m] = matrix_element_hyp(n, m, k, params)
                worst = max(
                    worst,
                    float(np.max(np.abs(by_sum - by_hyp))),
                    float(np.max(np.abs(by_sum - oracle))),
                    float(np.max(np.abs(by_hyp - oracle))),
                )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    report(
        4,
        "matrix-element-triple",
        f"max pairwise split {worst:.3e} (bound 1e-8), {elapsed:.1f}s (budget 60s)",
        ok,
    )
    assert ok


def test_05_displaced_level_columns(report):
    dim = 256
    worst_deficit = 0.0
    worst_bottom = 0.0
    for k in K_GRID:
        for r in (0.4, 0.8):
            params = DisplacementParams(r, 0.9)
            for m in (0, 1, 2, 3, 5, 8, 13, 20):
                col = matrix_columns([m], k, params, dim)
                worst_deficit = max(
                    worst_deficit, abs(1.0 - float(np.sum(np.abs(col) ** 2)))
                )
            got = dns(params, 0, k, dim)
            want = pcs(params.alpha, k, dim)
            worst_bottom = max(
                worst_bottom, float(np.max(np.abs(got.amplitudes - want.amplitudes)))
            )
    exact = all(
        np.array_equal(
            dns(DisplacementParams(0.0), m, 0.75, 32).amplitudes,
            basis_state(m, 32, 0.75).amplitudes,
        )
        for m in (0, 4, 11)
    )
    ok = worst_deficit < 1e-8 and worst_bottom < 1e-10 and exact
    report(
        5,
        "displaced-levels",
        f"unitarity deficit {worst_deficit:.3e} (1e-8), bottom-level split "
        f"{worst_bottom:.3e} (1e-10), zero-squeeze exact {exact}",
        ok,
    )
    assert ok


def test_06_laguerre_states(report):
    dim = 192
    worst_eigen = 0.0
    worst_pre = 0.0
    for order in (0, 1, 2, 4):
        for r in (0.2, 0.5):
            for k in (0.5, 1.0):
                for theta in (0.0, 0.9):
                    p = LpsParams(order=order, r=r, theta=theta, k=k)
                    s = lps(p, dim)
                    lam = mus_expectation(s, p.mu)
                    worst_eigen = max(worst_eigen, mus_residual(s, p.mu, lam))
                    pre = laguerre_prestate(p, dim)
                    raw = np.zeros(dim, dtype=complex)
                    for j in range(order + 1):
                        raw[j] = (
                            (-p.xi) ** j
                            * math.factorial(order)
                            / math.factorial(order - j)
                            / math.sqrt(
                                math.factorial(j) * math.prod(2.0 * k + i for i in range(j))
                            )
                        )
                    raw /= np.linalg.norm(raw)
                    worst_pre = max(
                        worst_pre, float(np.max(np.abs(pre.amplitudes - raw)))
                    )
    ok = worst_eigen < 1e-8 and worst_pre < 1e-12
    report(
        6,
        "laguerre-states",
        f"mixed-ladder residual {worst_eigen:.3e} (1e-8), "
        f"prestate split {worst_pre:.3e} (1e-12)",
        ok,
    )
    assert ok


def test_07_closed_form_specialization(report):
    worst = 0.0
    for parity in (0, 1):
        k = 0.25 + 0.5 * parity
        for r in (0.1, 0.4, 0.8, 1.2, 1.5):
            for theta in (0.0, 0.35):
                params = DisplacementParams(r, theta)
                for n in range(11):
                    for m in range(11):
                        general = matrix_element_sum(n, m, k, params)
                        closed = parity_sector_element(n, m, parity, params)
                        denom = max(abs(general), 1e-250)
                        worst = max(worst, abs(closed - general) / denom)
    ok = worst < 1e-9
    report(
        7,
        "closed-form-specialization",
        f"max relative split {worst:.3e} (bound 1e-9)",
        ok,
    )
    assert ok


def test_08_realization_families(report):
    worst = 0.0
    # negative-binomial family: distribution law and ladder relation
    f = nbs(0.5, 2.0, 128)
    dist = photon_distribution(f)
    law_split = 0.0
    for n in range(41):
        want = (n + 1) * (1.0 - 0.25) ** 2 * 0.25**n
        law_split = max(law_split, abs(dist[n] - want) / want)
    worst = max(worst, law_split, nbs_ladder_residual(f, 0.5, 2.0))

    # single-mode squeezed states: two-photon ladder plus exact parity
    params = DisplacementParams(0.5, 0.3)
    ev = squeezed_vacuum(params, 128)
    od = squeezed_first(params, 128)
    worst = max(
        worst,
        two_photon_nlcs_residual(ev, lambda i: 1.0 / (i + 1.0), params.alpha),
        two_photon_nlcs_residual(od, lambda i: 1.0 / (i + 2.0), params.alpha),
    )
    parity_exact = bool(
        np.all(ev.amplitudes[1::2] == 0.0) and np.all(od.amplitudes[::2] == 0.0)
    )

    # two-mode squeezed vacuum and the pair eigenvector
    excess = 1
    tm = two_mode_squeezed_vacuum(params, excess, 1, 96)
    fn2 = lambda n1, n2: 2.0 / (n1 + n2 + excess + 2.0)
    worst = max(worst, two_mode_nlcs_residual(tm, fn2, params.alpha))
    pair = pair_coherent(1.0, 0, 1, 128)
    d = pair.diagonal_amplitudes()
    idx = np.arange(1, d.size)
    worst = max(
        worst, float(np.linalg.norm(np.sqrt(idx * idx) * d[1:] - 1.0 * d[:-1]))
    )

    ok = worst < 1e-9 and parity_exact
    report(
        8,
        "realization-families",
        f"max residual {worst:.3e} (bound 1e-9), parity exact {parity_exact}",
        ok,
    )
    assert ok


def test_09_realization_faithfulness(report):
    dim = 48
    worst = 0.0
    for k in (0.5, 1.25):
        tag = HolsteinPrimakoff(k)
        worst = max(
            worst,
            float(np.max(np.abs(tag.kplus(dim) - kplus_matrix(dim, k)))),
            float(np.max(np.abs(tag.kminus(dim) - kminus_matrix(dim, k)))),
            float(np.max(np.abs(tag.k0(dim) - k0_matrix(dim, k)))),
        )
    for parity in (0, 1):
        tag = AmplitudeSquared(parity)
        k = tag.k
        fdim = 2 * dim + 2
        sub = np.ix_(2 * np.arange(dim) + parity, 2 * np.arange(dim) + parity)
        worst = max(
            worst,
            float(np.max(np.abs(tag.kplus(fdim)[sub] - kplus_matrix(dim, k)))),
            float(np.max(np.abs(tag.kminus(fdim)[sub] - kminus_matrix(dim, k)))),
            float(np.max(np.abs(tag.k0(fdim)[sub] - k0_matrix(dim, k)))),
        )
    for excess in (0, 2):
        tag = TwoMode(excess)
        k = tag.k
        worst = max(
            worst,
            float(np.max(np.abs(tag.kplus(dim) - kplus_matrix(dim, k)))),
            float(np.max(np.abs(tag.kminus(dim) - kminus_matrix(dim, k)))),
            float(np.max(np.abs(tag.k0(dim) - k0_matrix(dim, k)))),
        )
    ok = worst < 1e-12
    report(
        9,
        "realization-faithfulness",
        f"max operator split {worst:.3e} (bound 1e-12)",
        ok,
    )
    assert ok


def test_10_cli_round_trip(tmp_path, capsys, monkeypatch, report):
    monkeypatch.delenv("SU11_DEFAULT_DIM", raising=False)
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    stale = []
    for name, argv in manifest.items():
        first = tmp_path / f"a_{name}"
        second = tmp_path / f"b_{name}"
        assert main(list(argv) + ["--out", str(first)]) == 0
        assert main(list(argv) + ["--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            stale.append(f"{name} (nondeterministic)")
        elif first.read_bytes() != (GOLDEN_DIR / name).read_bytes():
            stale.append(f"{name} (differs from committed golden)")
    verify_code = main(["verify"])
    capsys.readouterr()
    ok = not stale and verify_code == 0
    detail = (
        f"{len(manifest)} goldens byte-stable, verify exit {verify_code}"
        if not stale
        else f"mismatches: {', '.join(stale)}; verify exit {verify_code}"
    )
    report(10, "cli-round-trip", detail, ok)
    assert ok


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
