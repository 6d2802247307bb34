"""Planted faults: one route at a time is made wrong by a relative 1e-6 at level or term 3,
and each builder that reads the route must refuse, naming the measure that caught it and
offering no truncation remedy, since the truncation holds every state here.

The fixtures were fixed before the results were seen: verify's own where it has one.
- `_bessel_i_series` returns ln S, the log of the series' sum, so its fault adds
  log1p(1e-6), the same relative fault on S.  Five fixtures sit where S passes the float
  range (|alpha| 400 at k 0.5, |alpha| 1000 at k 2), where its terms peak past q = 10,000
  (|alpha| 1e4), or where its first term 1/(2k) is 1e301 or more (k 5e-302, 5e-324).
- `_ln_binomials`: entry 3 gains log1p(1e-6), a relative 1e-6 on C(2k + 2, 3), under `dns`
  (verify's m = 3 column), `pcs` and `squeezed_vacuum` (verify's eigen fixtures), which all
  refuse; so verify's `squeeze` group fails.  `bgcs` no longer reads it.
- `_from_peak`, the one amplitude rule of `bgcs` and `nlcs`: entry 3 of its log ratios gains
  log1p(1e-6), a relative 1e-6 on every amplitude from level 4 up, or its unit ratio 3 turns
  by 1e-6 rad, a phase fault on the same levels.  `bgcs` must refuse the first by its Bessel
  gap and the second by its eigen residual, `nlcs` both by its eigen residual, at the fixtures
  of the `bgcs` rows above and of the `_bottom_series` row below.
- `nbs`'s own binomial law: level 3 of its running sum of logs gains log1p(1e-6), at verify's
  `nbs` fixture.  Only `realizations` sees the planted sum.
- `_bottom_series`: level 3 of the summed terms.  The order-2 `lps` prestate ends at level 2,
  its third term, so the fault goes there.
- `pair_coherent`: entry 3 of its own running sum of log ratios, ln|c_3|.  As for `nbs`, only
  `realizations` sees the planted sum, so the residual stays honest.
- `_walk` feeds `dns`.  Its planted rows 1 and 20, at m 2 and 40, are tier-1 tests in
  test_states.py (`test_walk_residual_refused_without_the_truncation_remedy`).
- `_closed_form_rows`: row 3 of every column, read by `matrix_element_hyp`.  Its consumers
  hold no builder: verify's `matel` and `parity` rows must fail, at verify's default dim and
  r, and `su11 matel --method hyp` must refuse with exit 2.
- `specfun._hyp2f1_rows`: row 3 of every column, a relative 1e-6 in exact integers, read by
  `_hyp2f1_row`, through which the parity element reads its 2F1.
- verify's `specfun` group has one row per route: under the `_ln_binomials`,
  `_bessel_i_series`, `_hyp2f1_rows` and `_bottom_series` (level 3) faults, that route's row
  fails at `run_checks(256, 0.5)` and the other three pass.
"""

import cmath
import math

import numpy as np
import pytest

from su11 import algebra, displacement, realizations, specfun, states
from su11.algebra import ConvergenceError, StateVector
from su11.cli import main
from su11.displacement import DisplacementParams
from su11.realizations import nbs, pair_coherent, squeezed_vacuum
from su11.states import LpsParams, bgcs, dns, lps, nlcs, nlcs_exponential, pcs
from su11.verify import run_checks

FAULT = 1.0 + 1e-6
REMEDY = "; increase the truncation dimension"


def refusal(build) -> str:
    with pytest.raises(ConvergenceError) as info:
        build()
    message = str(info.value)
    assert "\n" not in message
    assert not message.endswith(REMEDY)
    return message


BESSEL_FIXTURES = [(1.0, 0.5, 64), (3.0, 1.0, 128), (0.3, 2.0, 32),
                   (400.0, 0.5, 1024), (1000.0, 2.0, 2048), (1.0, 5e-324, 64),
                   (1e4, 0.5, 16384), (5000.0, 5e-302, 8192)]


def plant_bessel_series(monkeypatch):
    series = specfun._bessel_i_series
    planted = lambda c, x: series(c, x) + math.log1p(1e-6)
    monkeypatch.setattr(states, "_bessel_i_series", planted)
    monkeypatch.setattr(specfun, "_bessel_i_series", planted)


@pytest.mark.parametrize("alpha, k, dim", BESSEL_FIXTURES)
def test_bessel_series_fault_refused_by_bgcs(monkeypatch, alpha, k, dim):
    plant_bessel_series(monkeypatch)
    assert refusal(lambda: bgcs(alpha, k, dim)) == (
        f"bgcs(alpha={complex(alpha)}, k={k}, dim={dim}): "
        "Bessel normalization gap 1.000e-06 exceeds 1.0e-10"
    )


def plant_ln_binomials(monkeypatch):
    ln_binomials = algebra._ln_binomials

    def planted(count, k):
        out = ln_binomials(count, k).copy()
        out[3:4] += math.log1p(1e-6)
        return out

    for module in (algebra, states, displacement):
        monkeypatch.setattr(module, "_ln_binomials", planted)


@pytest.fixture
def planted_ln_binomials(monkeypatch):
    plant_ln_binomials(monkeypatch)


@pytest.mark.parametrize("build, message, bound", [
    (lambda: dns(DisplacementParams(0.5, 0.4), 3, 1.0, 192),
     "dns(m=3, k=1.0, r=0.5, dim=192): column norm deficit ", "1.0e-08"),
    (lambda: pcs(0.8, 0.75, 256), "pcs(alpha=(0.8+0j), k=0.75, dim=256): eigen residual ",
     "1.0e-09"),
    (lambda: squeezed_vacuum(DisplacementParams(0.5, 0.3), 192),
     "squeezed_vacuum(r=0.5, theta=0.3, dim=192): eigen residual ", "1.0e-09"),
], ids=["dns", "pcs", "squeezed_vacuum"])
def test_ln_binomials_fault_refused(planted_ln_binomials, build, message, bound):
    got = refusal(build)
    assert got.startswith(message)
    assert got.endswith(f" exceeds {bound}")


def test_ln_binomials_fault_fails_the_squeeze_rows(planted_ln_binomials):
    # the group's first builder refuses, so the group reports that one failed row
    results = run_checks(256, 0.5, only="squeeze")
    assert [c.passed for c in results] == [False]
    assert results[0].name.startswith("raised ConvergenceError: squeezed_vacuum(r=0.5, "
                                      "theta=0.3, dim=192): eigen residual ")


NLCS_ALPHA = 0.6 * cmath.exp(0.3j)


def nlcs_fixture(n):
    return (n + 1.5) / (n + 0.75)


AMPLITUDE_RULE_FIXTURES = pytest.mark.parametrize("build, steps, message", [
    (lambda: bgcs(1.0, 0.5, 64), 63, "bgcs(alpha=(1+0j), k=0.5, dim=64): "),
    (lambda: nlcs(NLCS_ALPHA, 0.5, nlcs_fixture, 256), 255,
     f"nlcs(alpha={NLCS_ALPHA}, k=0.5, dim=256): "),
], ids=["bgcs", "nlcs"])


def amplitude_rule_refusal(monkeypatch, build, steps, part: str) -> str:
    """The refusal of build with `_from_peak`'s log ratio or unit ratio 3 planted."""
    from_peak = states._from_peak
    planted_sizes = []

    def planted(ln_ratios, units):
        ratios, turns = np.array(ln_ratios), np.array(units)  # copies, in the caller's precision
        if part == "log_ratio":
            ratios[3] += math.log1p(1e-6)
        else:
            turns[3] *= cmath.exp(1e-6j)
        planted_sizes.append((ratios.size, turns.size))
        return from_peak(ratios, turns)

    monkeypatch.setattr(states, "_from_peak", planted)
    got = refusal(build)
    assert planted_sizes == [(steps, steps)]
    return got


@AMPLITUDE_RULE_FIXTURES
def test_log_ratio_sum_fault_refused(monkeypatch, build, steps, message):
    got = amplitude_rule_refusal(monkeypatch, build, steps, "log_ratio")
    label, bound = (("Bessel normalization gap", "1.0e-10") if message.startswith("bgcs")
                    else ("eigen residual", "1.0e-09"))
    assert got.startswith(f"{message}{label} ")
    assert got.endswith(f" exceeds {bound}")


@AMPLITUDE_RULE_FIXTURES
def test_phase_fault_refused(monkeypatch, build, steps, message):
    # the Bessel gate reads only magnitudes: the eigen relation is what sees a phase
    got = amplitude_rule_refusal(monkeypatch, build, steps, "phase")
    assert got.startswith(f"{message}eigen residual ")
    assert got.endswith(" exceeds 1.0e-09")


def plant_running_sum(monkeypatch, entry) -> list:
    """numpy as `realizations` sees it, but for entry of each running sum that reaches it,
    raised by log1p(1e-6); returns the sizes of the sums taken."""
    planted_sums = []

    class PlantedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def cumsum(self, steps):
            out = np.cumsum(steps)
            out[entry: entry + 1] += math.log1p(1e-6)
            planted_sums.append(out.size)
            return out

    monkeypatch.setattr(realizations, "np", PlantedNumpy())
    return planted_sums


def test_nbs_binomial_law_fault_refused_by_nbs(monkeypatch):
    planted_sums = plant_running_sum(monkeypatch, 2)  # the sum into level 3: ln C(shape + 2, 3)
    message = refusal(lambda: nbs(0.5, 2.0, 128))
    assert planted_sums == [127]
    assert message.startswith("nbs(alpha=(0.5+0j), shape=2.0, dim=128): ladder residual ")
    assert message.endswith(" exceeds 1.0e-09")


def plant_bottom_series(monkeypatch, level):
    walk = states._bottom_series

    def planted(*args):
        terms = walk(*args)
        amp = terms.amplitudes.copy()
        assert amp[level] != 0.0
        amp[level] *= FAULT
        return StateVector(amp, terms.k)

    monkeypatch.setattr(states, "_bottom_series", planted)


def test_bottom_series_fault_refused_by_nlcs_exponential(monkeypatch):
    plant_bottom_series(monkeypatch, 3)
    message = refusal(lambda: nlcs_exponential(NLCS_ALPHA, 0.5, nlcs_fixture, 256))
    assert message.startswith(f"nlcs_exponential(alpha={NLCS_ALPHA}, k=0.5, dim=256): gap to "
                              "the recursion route ")
    assert message.endswith(" exceeds 1.0e-10")


def test_bottom_series_fault_refused_by_lps(monkeypatch):
    plant_bottom_series(monkeypatch, 2)
    message = refusal(lambda: lps(LpsParams(2, 0.5, 0.9, 0.5), 256))
    assert message.startswith("lps(order=2, r=0.5, k=0.5, dim=256): mixed-ladder residual ")
    assert message.endswith(" exceeds 1.0e-08")


def test_pair_recursion_fault_refused_by_its_residual(monkeypatch):
    # at |alpha| 1 every ratio is below 1: the sum below the peak is empty, and the one above
    # it runs from level 0, so its entry 3 is ln|c_3|
    planted_sums = plant_running_sum(monkeypatch, 3)
    message = refusal(lambda: pair_coherent(1.0, 1, 1, 128))
    assert planted_sums == [0, 128]
    assert message.startswith("pair_coherent(alpha=(1+0j), excess=1, dim=128): "
                              "pair-annihilator residual ")
    assert message.endswith(" exceeds 1.0e-09")


@pytest.fixture
def planted_closed_form(monkeypatch):
    rows = displacement._closed_form_rows

    def planted(hi, k, r):
        for lo, value in enumerate(rows(hi, k, r)):
            yield value * FAULT if lo == 3 else value

    monkeypatch.setattr(displacement, "_closed_form_rows", planted)


@pytest.mark.parametrize("group, row", [
    ("matel", "recurrence vs closed hypergeometric"),
    ("parity", "parity-sector closed form vs general element"),
])
def test_closed_form_fault_fails_its_verify_rows(planted_closed_form, group, row):
    results = {c.name: c for c in run_checks(256, 0.5, only=group)}
    assert not results[row].passed
    assert [name for name, c in results.items() if not c.passed] == [row]


def test_closed_form_fault_refused_by_matel(planted_closed_form, capsys, monkeypatch):
    monkeypatch.delenv("SU11_DEFAULT_DIM", raising=False)
    code = main(["matel", "--method", "hyp", "--k", "0.5", "--r", "0.5", "--cap", "8"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    message, = captured.err.splitlines()
    assert message.startswith("error: matrix_element_hyp(k=0.5, r=0.5, theta=0.0, cap=8): gap "
                              "to the summed columns ")
    assert message.endswith(" exceeds 1.0e-08")


def plant_hyp2f1_rows(monkeypatch):
    rows = specfun._hyp2f1_rows

    def planted(hi, c, z):
        for lo, (num, den) in enumerate(rows(hi, c, z)):
            yield (num * 1_000_001, den * 1_000_000) if lo == 3 else (num, den)

    monkeypatch.setattr(specfun, "_hyp2f1_rows", planted)


@pytest.mark.parametrize("plant, row", [
    (plant_ln_binomials, "gamma ratio: binomial logs vs exact product"),
    (plant_hyp2f1_rows, "terminating 2F1: Gauss walk vs per-term sum"),
    (plant_bessel_series, "Bessel series: contiguous relation, closed forms"),
    (lambda monkeypatch: plant_bottom_series(monkeypatch, 3),
     "Laguerre: prestate weights sum to L_12(-3.7)"),
], ids=["ln_binomials", "hyp2f1_rows", "bessel_series", "bottom_series"])
def test_specfun_fault_fails_its_one_row(monkeypatch, plant, row):
    plant(monkeypatch)
    results = run_checks(256, 0.5, only="specfun")
    assert len(results) == 4
    assert [c.name for c in results if not c.passed] == [row]


def test_unplanted_fixtures_build(monkeypatch):
    # the same fixtures without a fault: each refusal above is the fault's, not the fixture's
    for alpha, k, dim in BESSEL_FIXTURES:
        bgcs(alpha, k, dim)
    dns(DisplacementParams(0.5, 0.4), 3, 1.0, 192)
    pcs(0.8, 0.75, 256)
    squeezed_vacuum(DisplacementParams(0.5, 0.3), 192)
    assert all(c.passed for c in run_checks(256, 0.5, only="squeeze"))
    nbs(0.5, 2.0, 128)
    nlcs(NLCS_ALPHA, 0.5, nlcs_fixture, 256)
    nlcs_exponential(NLCS_ALPHA, 0.5, nlcs_fixture, 256)
    lps(LpsParams(2, 0.5, 0.9, 0.5), 256)
    state = pair_coherent(1.0, 1, 1, 128)
    assert np.isclose(state.norm, 1.0)
    assert all(c.passed for c in run_checks(256, 0.5, only=["matel", "parity", "specfun"]))
    monkeypatch.delenv("SU11_DEFAULT_DIM", raising=False)
    assert main(["matel", "--method", "hyp", "--k", "0.5", "--r", "0.5", "--cap", "8"]) == 0
