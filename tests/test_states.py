import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11.algebra import (
    ConvergenceError,
    StateVector,
    basis_state,
    eigen_residual_lowering,
    kplus_matrix,
    mus_expectation,
    mus_residual,
    scale_occupied,
)
from su11 import displacement
from su11.displacement import (
    DisplacementParams,
    displacement_oracle,
    matrix_element_hyp,
    matrix_element_sum,
)
from su11.realizations import nbs
from su11.states import (
    LpsParams,
    bgcs,
    dns,
    laguerre_prestate,
    lps,
    nlcs,
    nlcs_exponential,
    pcs,
)


def raising_exponential(alpha: complex, k: float, dim: int) -> StateVector:
    """Independent construction of the displaced bottom level: normalize
    sum_j alpha^j K+^j / j! |0>."""
    raise_ = kplus_matrix(dim, k)
    term = basis_state(0, dim, k).amplitudes
    acc = np.array(term)
    for j in range(1, dim):
        term = (raise_ @ term) * (alpha / j)
        acc += term
    return StateVector(acc, k).normalized()


class TestPcs:
    def test_closed_form_k1(self):
        # amplitudes 0.75 sqrt(n+1) 0.5^n at k=1, alpha=1/2
        s = pcs(0.5, 1.0, 64)
        for n in range(10):
            want = 0.75 * math.sqrt(n + 1.0) * 0.5**n
            assert s.amplitudes[n] == pytest.approx(want, rel=1e-12)

    def test_matches_operator_exponential(self):
        alpha = 0.4 * cmath.exp(0.3j)
        for k in (0.25, 1.5):
            direct = pcs(alpha, k, 64)
            oracle = raising_exponential(alpha, k, 64)
            assert np.max(np.abs(direct.amplitudes - oracle.amplitudes)) < 1e-12

    def test_zero_amplitude(self):
        s = pcs(0.0, 0.5, 16)
        assert s.amplitudes[0] == 1.0
        assert np.all(s.amplitudes[1:] == 0.0)

    def test_rejects_outside_disc(self):
        with pytest.raises(ValueError):
            pcs(1.0, 0.5, 32)

    def test_phase_covariance(self):
        base = pcs(0.6, 0.75, 48)
        rot = pcs(0.6 * cmath.exp(1.2j), 0.75, 48)
        n = np.arange(48)
        assert np.max(np.abs(rot.amplitudes - base.amplitudes * np.exp(1.2j * n))) < 1e-14

    def test_truncation_guard(self):
        with pytest.raises(ConvergenceError):
            pcs(0.9, 0.5, 12)


class TestBgcs:
    def test_normalization_closed_form(self):
        import scipy.special as sp

        # at k=1/2 the squared norm constant is I_0(2|a|)
        s = bgcs(1.0, 0.5, 64)
        assert abs(s.amplitudes[0]) == pytest.approx(
            sp.iv(0, 2.0) ** -0.5, rel=1e-12
        )

    def test_quarter_index(self):
        # the smallest two-photon Bargmann index: its Bessel order 2k - 1 is negative
        s = bgcs(0.8, 0.25, 64)
        assert s.norm == pytest.approx(1.0, abs=1e-14)

    def test_eigen_relation(self):
        alpha = 1.7 * cmath.exp(-0.8j)
        s = bgcs(alpha, 1.0, 128)
        assert eigen_residual_lowering(s, lambda n: 1.0, alpha) < 1e-12

    def test_zero_amplitude(self):
        s = bgcs(0.0, 1.0, 16)
        assert s.amplitudes[0] == 1.0

    def test_truncation_guard(self):
        with pytest.raises(ConvergenceError):
            bgcs(3.0, 0.5, 12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bgcs(math.inf, 0.5, 32)

    @pytest.mark.parametrize("alpha, k, dim", [(60.0, 100.0, 16), (3.0, 1.0, 12)])
    def test_bessel_gate_refuses_a_state_past_its_dim(self, alpha, k, dim):
        with pytest.raises(ConvergenceError, match="Bessel normalization gap .* exceeds 1.0e-10"):
            bgcs(alpha, k, dim)

    @pytest.mark.parametrize("alpha, k, dim", [(1e4, 0.5, 16384), (5000.0, 5e-302, 8192)])
    def test_builds_where_the_series_is_long_or_its_first_term_huge(self, alpha, k, dim):
        # the series' terms peak near q = 1e4, past 10,000 steps; at 2k = 1e-301 its first term
        # 1/(2k) times |alpha|^2 passes the float range unless summed in units of 2^500
        assert bgcs(alpha, k, dim).norm == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("mag, k", [(6.647e4, 0.25), (6.987e4, 2.0), (1.003e5, 2.0),
                                        (1.014e5, 2.0)])
    def test_builds_out_to_alpha_1e5(self, mag, k):
        # with its logs summed in floats, the Bessel gap of these draws read up to 2e-10, in
        # steps of one float ulp of its ~2|alpha| terms (5.8e-11 here at 6.647e4 itself)
        dim = int(mag + 12.0 * math.sqrt(mag) + 100.0)
        assert bgcs(mag, k, dim).norm == pytest.approx(1.0, abs=1e-14)

    def test_bessel_gate_cancels_its_logs_in_long_double(self):
        # summed in floats, the gate's logs near 2|alpha| = 6.6e5 rounded by one float step and
        # read a gap of 1.164e-10 against 1e-10 (half of the seeded draws at |alpha| 2.5e5-5e5)
        assert bgcs(3.3e5, 7.75, 336993).norm == pytest.approx(1.0, abs=1e-14)

    def test_bessel_gate_reads_alpha_and_its_anchor_exactly(self):
        # with |alpha|^2 rounded to a float and its anchor from a running long double sum, the
        # gate read a gap of 1.629e-10 here (9 of 16 seeded draws at |alpha| 1e6-4e6)
        alpha = 1547439.1937684955 * cmath.exp(1j)
        assert bgcs(alpha, 16.695659472668517, 1562466).norm == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("mag", [1e4, 1.2e5])
    def test_phases_certified_out_to_alpha_1e5(self, mag):
        # with its phases taken as exp(i n arg(alpha)), n arg(alpha) rounded in floats, the
        # eigen residual read up to 6e-9 at |alpha| 7e3 and 9e-7 at 1.2e5
        alpha = mag * cmath.exp(2.3j)
        state = bgcs(alpha, 0.75, int(mag + 12.0 * math.sqrt(mag) + 100.0))
        assert eigen_residual_lowering(state, lambda n: 1.0, alpha) <= 1e-9

    @pytest.mark.parametrize("alpha, dim, label", [
        (1e4, 8192, "Bessel normalization gap"), (2e4, 64, "tail fraction"),
        (1e12, 64, "tail fraction"),
    ])
    def test_a_state_past_its_dim_keeps_the_remedy(self, alpha, dim, label):
        # past |alpha| = max(dim, 1e4) the top level is read before the series' ~|alpha| steps
        with pytest.raises(ConvergenceError,
                           match=f": {label} .*; increase the truncation dimension$"):
            bgcs(alpha, 0.5, dim)


class TestNlcs:
    def test_scaled_reduction(self):
        alpha = 0.55 * cmath.exp(0.7j)
        for k in (0.25, 1.0):
            got = nlcs(alpha, k, lambda n, k=k: 1.0 / (n + 2.0 * k), 64)
            want = pcs(alpha, k, 64)
            assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12

    def test_plain_reduction(self):
        alpha = 1.2 * cmath.exp(-0.3j)
        got = nlcs(alpha, 0.75, lambda n: 1.0, 96)
        want = bgcs(alpha, 0.75, 96)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12

    def test_zero_amplitude(self):
        s = nlcs(0.0, 0.5, lambda n: 1.0, 16)
        assert s.amplitudes[0] == 1.0

    def test_vanishing_nonlinearity_rejected(self):
        with pytest.raises(ZeroDivisionError):
            nlcs(0.5, 0.5, lambda n: float(n), 32)

    def test_nonfinite_nonlinearity_rejected(self):
        with pytest.raises(ValueError, match="^nonlinearity not finite at level 2$"):
            nlcs(0.5, 0.5, lambda n: math.inf if n == 2 else 1.0, 32)

    @pytest.mark.parametrize("build", [nlcs, nlcs_exponential])
    @pytest.mark.parametrize("alpha", [math.inf, math.nan, complex(0.5, math.inf)])
    def test_rejects_nonfinite_alpha(self, build, alpha):
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            build(alpha, 0.5, lambda n: 1.0, 32)

    @pytest.mark.parametrize("mag", [1e4, 1.2e5])
    @pytest.mark.parametrize("k", [0.25, 50.0])
    def test_plain_nonlinearity_certified_out_to_alpha_1e5(self, mag, k):
        # with its logs summed level by level in floats, the residual read 5e-9 at |alpha| 1e4
        alpha = mag * cmath.exp(0.7j)
        state = nlcs(alpha, k, lambda n: 1.0, int(mag + 12.0 * math.sqrt(mag) + 100.0))
        assert eigen_residual_lowering(state, lambda n: 1.0, alpha) <= 1e-9

    def test_reads_its_nonlinearity_once_per_level(self):
        # the certificate reuses the values the recursion read: 63 reads at dim 64, not 126
        seen = []

        def g(n):
            seen.append(n)
            return (n + 1.4) / (n + 0.9)

        nlcs(0.8, 0.5, g, 64)
        assert seen == list(range(63))
        # and none past a level whose ratio underflowed to 0: nothing above it is occupied
        seen.clear()

        def steep(n):
            seen.append(n)
            return 1e300 if n == 5 else 1.0

        state = nlcs(1e-30, 0.5, steep, 64)
        assert seen == list(range(6))
        assert np.any(state.amplitudes[5]) and not np.any(state.amplitudes[6:])

    def test_certifies_its_own_eigen_relation(self):
        alpha = 0.8
        g = lambda n: (n + 1.4) / (n + 0.9)
        s = nlcs(alpha, 0.5, g, 64)
        assert eigen_residual_lowering(s, g, alpha) < 1e-12


class TestNlcsExponential:
    def test_routes_agree(self):
        alpha = 0.7 * cmath.exp(0.25j)
        g = lambda n: 1.0 + n / 10.0
        a = nlcs(alpha, 0.75, g, 96)
        b = nlcs_exponential(alpha, 0.75, g, 96)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    def test_zero_amplitude(self):
        s = nlcs_exponential(0.0, 0.5, lambda n: 1.0, 16)
        assert s.amplitudes[0] == 1.0

    @given(
        mag=st.floats(0.1, 0.9),
        phase=st.floats(-3.0, 3.0),
        a=st.floats(0.5, 3.0),
        b=st.floats(0.5, 3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_routes_agree_rational_family(self, mag, phase, a, b):
        alpha = mag * cmath.exp(1j * phase)
        g = lambda n: (n + a) / (n + b)
        got = nlcs_exponential(alpha, 0.5, g, 96)
        want = nlcs(alpha, 0.5, g, 96)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mag", [340.0, 360.0, 1000.0])
    def test_terms_whose_squares_overflow(self, mag):
        # terms of ~1e156 at |alpha| = 360: the walk moves on in units of a power of two
        alpha = mag * cmath.exp(0.7j)
        got = nlcs_exponential(alpha, 0.5, lambda n: 1.0, 8192)
        want = nlcs(alpha, 0.5, lambda n: 1.0, 8192)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-10

    @pytest.mark.parametrize("mag, term", [(1e160, 11), (1e300, 2)])
    def test_a_term_past_the_float_range_in_one_step_refused_by_name(self, mag, term):
        # one step multiplies by up to |alpha|, past 2^1024 before the walk can rescale
        with pytest.raises(ValueError, match=rf"\): term {term} leaves the float range$"):
            nlcs_exponential(mag, 0.5, lambda n: 1.0, 8192)


def per_term_nlcs_exponential(alpha: complex, k: float, func, dim: int) -> StateVector:
    """The exponential series as a StateVector per term, each raised by the
    dense K+ matrix: the reference for the one-level-per-term walk."""

    def f(n: int) -> complex:
        return alpha / (complex(func(n - 1)) * ((n - 1) + 2.0 * k))

    raise_ = kplus_matrix(dim, k)
    term = basis_state(0, dim, k)
    acc = np.array(term.amplitudes)
    for j in range(1, dim):
        term = StateVector(scale_occupied(raise_ @ term.amplitudes, f) / j, k)
        tn = term.norm
        acc += term.amplitudes
        if tn == 0.0 or tn <= 1e-16 * float(np.linalg.norm(acc)):
            break
    return StateVector(acc, k).normalized()


def per_term_prestate(p: LpsParams, dim: int) -> StateVector:
    """The Laguerre series as a StateVector per term (see above), term j carrying
    its coefficient (-1)^j C(order, j)/j!, in units of s = 2^floor(e/2) <= 1
    where 2k = f 2^e, a power of two near sqrt(2k)."""
    s = 2.0 ** min(0, math.frexp(2.0 * p.k)[1] // 2)

    def f(n: int) -> complex:
        return -p.xi * (p.order - (n - 1)) / ((n - 1) + 2.0 * p.k if n > 1 else 2.0 * p.k / s)

    raise_ = kplus_matrix(dim, p.k)
    term = basis_state(0, dim, p.k)
    acc = s * term.amplitudes
    for j in range(1, p.order + 1):
        term = StateVector(scale_occupied(raise_ @ term.amplitudes, f) / j, p.k)
        tn = term.norm
        acc += term.amplitudes
        if tn == 0.0 or tn <= 1e-16 * float(np.linalg.norm(acc)):
            break
    return StateVector(acc, p.k).normalized()


class TestSeriesWalks:
    """`nlcs_exponential` and `laguerre_prestate` walk one amplitude per level."""

    def test_same_amplitudes_as_the_per_term_series(self):
        rng = random.Random(8)
        for _ in range(40):
            k = rng.uniform(0.1, 3.0)
            alpha = rng.uniform(0.05, 0.6) * cmath.exp(1j * rng.uniform(-3.1, 3.1))
            a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            g = rng.choice([lambda n: 1.0, lambda n, k=k: 1.0 / (n + 2.0 * k),
                            lambda n: (n + a) / (n + b)])
            dim = rng.choice([64, 160, 300])
            got = nlcs_exponential(alpha, k, g, dim).amplitudes
            assert np.array_equal(got, per_term_nlcs_exponential(alpha, k, g, dim).amplitudes)
        for _ in range(200):
            order = rng.randrange(31)
            r, theta, k = rng.uniform(0.0, 2.0), rng.uniform(-3.2, 3.2), rng.uniform(0.1, 3.0)
            p = LpsParams(order, r, theta, k)
            dim = rng.choice([max(order + 1, 2), 64, 257])
            assert np.array_equal(laguerre_prestate(p, dim).amplitudes,
                                  per_term_prestate(p, dim).amplitudes)

    @pytest.mark.filterwarnings("error")
    def test_laguerre_order_1000_against_the_closed_form(self):
        # the prestate peaks near term 350, past 2^500: the walk goes on in units of 2^600
        p = LpsParams(1000, 0.3, 0.4, 0.75)
        amps = lps(p, 8192).amplitudes
        # the prestate (-xi)^m M!/(M-m)!/sqrt(m! (2k)_m), normalized in log space
        m = np.arange(p.order + 1)
        ln = m * math.log(abs(p.xi)) - [
            math.lgamma(p.order - j + 1.0)
            + 0.5 * (math.lgamma(j + 1.0) + math.lgamma(2.0 * p.k + j) - math.lgamma(2.0 * p.k))
            for j in m.tolist()
        ]
        phi = np.exp(ln - ln.max() + 1j * m * cmath.phase(-p.xi))
        phi /= np.linalg.norm(phi)
        support = np.flatnonzero(np.abs(phi) > 1e-17).tolist()
        weight = np.cumsum(np.abs(amps) ** 2)
        for n in np.searchsorted(weight, [0.02, 0.5, 0.98]).tolist():
            want = sum(phi[j] * matrix_element_hyp(n, j, p.k, p.displacement) for j in support)
            assert abs(amps[n] - want) < 1e-12

    def test_state_vectors_built_per_call_not_per_term(self, monkeypatch):
        built = []
        post_init = StateVector.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(StateVector, "__post_init__", counted)

        def count(build) -> int:
            built.clear()
            build()
            return len(built)

        # 72 terms before the early stop: all 63 fit at dim 64, all 72 at dim 4096
        alpha = 0.6 * cmath.exp(0.3j)
        exp_counts = {count(lambda: nlcs_exponential(alpha, 0.5, lambda n: 1.0 / (n + 1.0), dim))
                      for dim in (64, 4096)}
        assert len(exp_counts) == 1
        pre_counts = {count(lambda: laguerre_prestate(LpsParams(order, 0.4, 0.3, 0.75), dim))
                      for order in (2, 40) for dim in (64, 4096)}
        assert len(pre_counts) == 1


class TestTinyBargmannIndex:
    """(j - 1) + 2k is exact at j = 1, where j + 2k - 1 rounds to 0 for 2k below 1e-16."""

    def test_series_walks_take_their_first_step(self):
        # nlcs_exponential passes its own gate against nlcs; its bottom level is ~ sqrt(2k)
        s = nlcs_exponential(0.9, 5e-324, lambda n: 1.0, 64)
        assert 0.0 < abs(s.amplitudes[0]) < 1e-150
        assert lps(LpsParams(2, 0.3, 0.0, 1e-17), 64).norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", (5e-324, 1e-300, 1e-17))
    def test_laguerre_walk_at_a_subnormal_index(self, k):
        # step 1 would multiply by 1/(2k), past the float range for subnormal 2k
        p = LpsParams(2, 0.3, 0.4, k)
        pre = laguerre_prestate(p, 64)
        assert np.array_equal(pre.amplitudes, per_term_prestate(p, 64).amplitudes)
        assert 0.0 < abs(pre.amplitudes[0]) < 1e-6
        assert lps(p, 64).norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", (0.1, 1e-3, 1e-17))
    def test_walk_in_units_of_a_power_of_two_rounds_alike(self, k):
        alpha = 0.6 * cmath.exp(0.4j)
        g = lambda n: (n + 1.5) / (n + 0.75)
        got = nlcs_exponential(alpha, k, g, 96).amplitudes
        assert np.array_equal(got, per_term_nlcs_exponential(alpha, k, g, 96).amplitudes)

    @pytest.mark.parametrize("k", (1e-17, 5e-324))
    def test_bgcs_builds_where_2k_minus_1_rounds_to_minus_1(self, k):
        # its Bessel gate sums over (2k)_q, not over the order 2k - 1
        want = nlcs(0.5, k, lambda n: 1.0, 32).amplitudes
        assert np.max(np.abs(bgcs(0.5, k, 32).amplitudes - want)) <= 1e-12


class TestLargeIndex:
    """ln Gamma(2k) is large here, so a difference of two lgamma values would cancel:
    each builder sums its ln Gamma ratio directly, and the closed form refuses."""

    LARGE_K = (1e4, 1e6, 1e8, 1e10, 1e12)

    @staticmethod
    def scaled(k):
        return nlcs(0.2 / math.sqrt(k) * cmath.exp(0.4j), k, lambda n: 1.0 / (n + 2.0 * k), 32)

    @pytest.mark.parametrize("k", LARGE_K)
    def test_pcs_matches_the_recursion(self, k):
        got = pcs(0.2 / math.sqrt(k) * cmath.exp(0.4j), k, 32)
        assert np.max(np.abs(got.amplitudes - self.scaled(k).amplitudes)) <= 1e-12

    @pytest.mark.parametrize("k", LARGE_K)
    def test_nbs_matches_the_recursion(self, k):
        got = nbs(0.2 / math.sqrt(k) * cmath.exp(0.4j), 2.0 * k, 32)
        assert np.max(np.abs(got.amplitudes - self.scaled(k).amplitudes)) <= 1e-12

    @pytest.mark.parametrize("k", LARGE_K)
    def test_bgcs_matches_the_recursion(self, k):
        alpha = 0.5 * math.sqrt(k) * cmath.exp(-0.3j)
        want = nlcs(alpha, k, lambda n: 1.0, 16)
        assert np.max(np.abs(bgcs(alpha, k, 16).amplitudes - want.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("k", LARGE_K)
    def test_closed_form_holds_or_refuses_by_name(self, k):
        p = DisplacementParams(0.01 / math.sqrt(k), 0.3)
        if k > 1e4:
            with pytest.raises(ValueError, match="^closed form loses precision at k = "):
                matrix_element_hyp(0, 0, k, p)
            return
        gap = max(
            abs(matrix_element_hyp(n, m, k, p) - matrix_element_sum(n, m, k, p))
            for n in range(6) for m in range(6)
        )
        assert gap <= 1e-8


class TestDns:
    def test_zero_displacement(self):
        s = dns(DisplacementParams(0.0), 3, 0.5, 16)
        assert np.array_equal(s.amplitudes, basis_state(3, 16, 0.5).amplitudes)

    def test_bottom_level_reduction(self):
        p = DisplacementParams(0.5, 0.8)
        got = dns(p, 0, 1.0, 96)
        want = pcs(p.alpha, 1.0, 96)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-10

    def test_against_matrix_exponential(self):
        p = DisplacementParams(0.5, 0.0)
        got = dns(p, 1, 1.0, 96)
        col = displacement_oracle(1.0, p, 96).entries[:, 1]
        assert np.max(np.abs(got.amplitudes - col / np.linalg.norm(col))) < 1e-8

    def test_truncation_guard(self):
        with pytest.raises(ConvergenceError):
            dns(DisplacementParams(3.0), 0, 0.5, 16)

    @pytest.mark.parametrize("m", [2, 40])
    def test_walk_residual_refused_without_the_truncation_remedy(self, monkeypatch, m):
        # one walk row off by 1e-6: the top level holds no weight, so no dim removes the deficit
        walk = displacement._walk

        def planted(c, k, r, ln_binomial):
            for j, (v, ln_v) in enumerate(walk(c, k, r, ln_binomial)):
                yield (v * (1.0 + 1e-6) if j == m // 2 else v), ln_v

        monkeypatch.setattr(displacement, "_walk", planted)
        with pytest.raises(ConvergenceError) as info:
            dns(DisplacementParams(0.5), m, 0.75, 8192)
        message = str(info.value)
        assert message.startswith(f"dns(m={m}, k=0.75, r=0.5, dim=8192): column norm deficit ")
        assert message.endswith(" exceeds 1.0e-08")

    def test_deficit_at_the_bound_names_the_truncation(self):
        # 1.2e-8 short of unit norm, with 6.7e-9 of the weight on the top level
        with pytest.raises(ConvergenceError, match="; increase the truncation dimension$"):
            dns(DisplacementParams(1.0), 3, 1.0, 70)

    def test_normalized_output(self):
        s = dns(DisplacementParams(0.8, -1.2), 5, 0.75, 128)
        assert s.norm == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m, dim", [(40, 2048), (64, 8192)])
    def test_high_level_at_unit_squeeze(self, m, dim):
        p = DisplacementParams(1.0, 0.3)
        s = dns(p, m, 0.5, dim)
        rows = [0, m // 2, m, m + 1, 2 * m, 4 * m, 8 * m]
        want = np.array([matrix_element_hyp(n, m, 0.5, p) for n in rows])
        assert np.max(np.abs(s.amplitudes[rows] - want)) < 1e-8

    @pytest.mark.parametrize("theta", [1e6, 1e10, 1e15])
    def test_huge_angle_reads_its_exact_reduction(self, theta):
        # math.remainder(theta, tau) was off by theta 3.9e-17: 5.5e-11 apart at 1e6, 5.5e-2 at 1e15
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            x = mpmath.mpf(theta)
            reduced = float(x - 2 * mpmath.pi * mpmath.nint(x / (2 * mpmath.pi)))
        got = dns(DisplacementParams(0.5, theta), 2, 1.0, 96).amplitudes
        want = dns(DisplacementParams(0.5, reduced), 2, 1.0, 96).amplitudes
        assert np.max(np.abs(got - want)) < 1e-14

    def test_start_below_float_range(self):
        # <0|S|300> underflows a float; the state is still the exact column
        p = DisplacementParams(0.01, 0.2)
        s = dns(p, 300, 0.5, 1024)
        rows = [150, 299, 300, 301, 400]
        want = np.array([matrix_element_hyp(n, 300, 0.5, p) for n in rows])
        assert np.max(np.abs(s.amplitudes[rows] - want)) < 1e-8


class TestLpsParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LpsParams(order=-1, r=0.5, theta=0.0, k=0.5)
        with pytest.raises(ValueError, match="radial argument must be finite and >= 0"):
            LpsParams(order=2, r=-0.5, theta=0.0, k=0.5)
        with pytest.raises(ValueError):
            LpsParams(order=2, r=0.5, theta=0.0, k=0.0)
        with pytest.raises(ValueError, match="theta must be finite"):
            LpsParams(order=2, r=0.5, theta=math.nan, k=0.5)

    def test_derived_quantities(self):
        p = LpsParams(order=3, r=0.4, theta=0.6, k=1.0)
        assert p.xi == pytest.approx(-math.tanh(0.8) * cmath.exp(0.6j))
        assert p.mu == pytest.approx(-math.tanh(0.4) ** 2 * cmath.exp(1.2j))
        assert not hasattr(p, "nu")
        assert abs(p.mu) < 1.0
        assert p.displacement.r == 0.4

    def test_angle_reduced_as_the_displacement_reduces_it(self):
        for theta in (0.6, -math.pi, 7.0, -1e10, 1e308):
            p = LpsParams(2, 0.3, theta, 0.5)
            assert p.theta == p.displacement.theta == DisplacementParams(0.3, theta).theta

    @pytest.mark.parametrize("theta", [1e10, 1e308])
    def test_huge_angle_builds(self, theta):
        # xi and mu read the reduced angle: reading the raw one, the state failed its
        # mixed-ladder gate at 2.4e-7 (1e10), and mu's cos(2 theta) a math domain error (1e308)
        p = LpsParams(2, 0.3, theta, 0.5)
        s = lps(p, 96)
        assert mus_residual(s, p.mu, mus_expectation(s, p.mu)) < 1e-12
        assert np.array_equal(s.amplitudes, lps(LpsParams(2, 0.3, p.theta, 0.5), 96).amplitudes)


class TestLaguerrePrestate:
    def test_closed_form_coefficients(self):
        p = LpsParams(order=3, r=0.35, theta=0.7, k=0.75)
        pre = laguerre_prestate(p, 32)
        tk = 2.0 * p.k
        raw = np.zeros(32, dtype=complex)
        for m in range(p.order + 1):
            raw[m] = (
                (-p.xi) ** m
                * math.factorial(p.order)
                / math.factorial(p.order - m)
                / math.sqrt(math.factorial(m) * math.prod(tk + i for i in range(m)))
            )
        raw /= np.linalg.norm(raw)
        assert np.max(np.abs(pre.amplitudes - raw)) < 1e-12

    @pytest.mark.parametrize("order", [1, 2, 5, 12, 25, 40])
    @pytest.mark.parametrize("k", [0.25, 0.5, 2.0])
    def test_weights_sum_to_the_laguerre_polynomial(self, order, k):
        # term j is (-xi)^j order! / ((order - j)! sqrt(j! (2k)_j)): reweighted by
        # sqrt((2k)_j / j!) (x / xi)^j / j!, the terms are L_order(x)'s, all positive at x < 0;
        # r from 0.3 up keeps every term the identity needs above the prestate's negligible tail
        for r in (0.3, 1.0):
            p = LpsParams(order, r, 0.9, k)
            pre = laguerre_prestate(p, order + 8).amplitudes.tolist()
            weights = [math.sqrt(math.prod((2.0 * k + i) / (i + 1) for i in range(j)))
                       / math.factorial(j) for j in range(order + 1)]
            for x in (-0.5, -3.7, -9.0):
                total = sum(pre[j] / pre[0] * weights[j] * (x / p.xi) ** j
                            for j in range(order + 1))
                exact = float(sum((-Fraction(x)) ** j * math.comb(order, j) / math.factorial(j)
                                  for j in range(order + 1)))
                assert abs(total / exact - 1.0) < 1e-13, (r, x)

    def test_support_is_finite(self):
        p = LpsParams(order=2, r=0.5, theta=0.0, k=0.5)
        pre = laguerre_prestate(p, 24)
        assert np.all(pre.amplitudes[3:] == 0.0)
        assert pre.norm == pytest.approx(1.0, abs=1e-14)

    def test_zero_order_is_bottom_level(self):
        p = LpsParams(order=0, r=0.9, theta=0.2, k=1.0)
        pre = laguerre_prestate(p, 8)
        assert pre.amplitudes[0] == 1.0

    def test_needs_room(self):
        p = LpsParams(order=5, r=0.1, theta=0.0, k=0.5)
        with pytest.raises(ValueError):
            laguerre_prestate(p, 5)


class TestLps:
    def test_zero_order_matches_displaced_bottom(self):
        p = LpsParams(order=0, r=0.4, theta=0.9, k=1.0)
        got = lps(p, 96)
        want = dns(p.displacement, 0, 1.0, 96)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12

    def test_zero_squeeze_is_prestate(self):
        p = LpsParams(order=2, r=0.0, theta=0.0, k=0.5)
        got = lps(p, 32)
        assert np.max(np.abs(got.amplitudes - laguerre_prestate(p, 32).amplitudes)) == 0.0

    def test_solves_mixed_ladder_eigenproblem(self):
        p = LpsParams(order=2, r=0.5, theta=0.9, k=0.5)
        s = lps(p, 192)
        alpha = mus_expectation(s, p.mu)
        assert mus_residual(s, p.mu, alpha) < 1e-10

    def test_recovered_eigenvalue_value(self):
        # recovered expectation lands on 2 tanh(r) e^{i theta} (order + k)
        for order in (0, 1, 2, 4):
            for k in (0.5, 1.0):
                p = LpsParams(order=order, r=0.3, theta=0.45, k=k)
                s = lps(p, 192)
                got = mus_expectation(s, p.mu)
                want = 2.0 * math.tanh(p.r) * cmath.exp(1j * p.theta) * (order + k)
                assert got == pytest.approx(want, rel=1e-9)

    def test_truncation_guard(self):
        p = LpsParams(order=2, r=2.5, theta=0.0, k=0.5)
        with pytest.raises(ConvergenceError):
            lps(p, 24)
