import cmath
import math

import numpy as np
import pytest

from su11.algebra import ConvergenceError, k0_matrix, kminus_matrix, kplus_matrix
from su11.displacement import DisplacementParams
from su11.realizations import (
    AmplitudeSquared,
    FockVector,
    HolsteinPrimakoff,
    TwoMode,
    TwoModeFockVector,
    map_to_fock,
    parity_sector_element,
    nbs,
    nbs_ladder_residual,
    pair_coherent,
    photon_distribution,
    photon_moments,
    squeezed_first,
    squeezed_vacuum,
    two_mode_nlcs_residual,
    two_mode_squeezed_vacuum,
    two_photon_nlcs_residual,
)
from su11.states import bgcs, pcs


class TestTags:
    def test_bargmann_indices(self):
        assert HolsteinPrimakoff(0.5).k == 0.5
        assert AmplitudeSquared(0).k == 0.25
        assert AmplitudeSquared(1).k == 0.75
        assert TwoMode(0).k == 0.5
        assert TwoMode(3).k == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HolsteinPrimakoff(0.0)
        with pytest.raises(ValueError):
            AmplitudeSquared(2)
        with pytest.raises(ValueError):
            TwoMode(-1)
        with pytest.raises(ValueError):
            TwoMode(1, sign=0)

    def test_two_mode_occupations(self):
        assert TwoMode(2).occupations(3) == (3, 5)
        assert TwoMode(2, sign=-1).occupations(3) == (5, 3)


class TestMapToFock:
    def test_holstein_primakoff_is_identity(self):
        s = pcs(0.4, 0.5, 32)
        f = map_to_fock(s, HolsteinPrimakoff(0.5))
        assert isinstance(f, FockVector)
        assert np.array_equal(f.amplitudes, s.amplitudes)

    def test_amplitude_squared_interleaves(self):
        s = pcs(0.4, 0.25, 16)
        f = map_to_fock(s, AmplitudeSquared(0))
        assert f.dim == 31
        assert np.array_equal(f.amplitudes[::2], s.amplitudes)
        assert np.all(f.amplitudes[1::2] == 0.0)

    def test_amplitude_squared_odd_offset(self):
        s = pcs(0.4, 0.75, 24)
        f = map_to_fock(s, AmplitudeSquared(1))
        assert f.amplitudes[1] == s.amplitudes[0]
        assert f.amplitudes[0] == 0.0

    def test_two_mode_keys(self):
        s = pcs(0.3, 1.0, 24)
        f = map_to_fock(s, TwoMode(1))
        assert isinstance(f, TwoModeFockVector)
        occupied = [f.tag.occupations(n) for n in range(f.dim)]
        assert set(occupied) == {(n, n + 1) for n in range(24)}
        assert f.amplitudes[occupied.index((2, 3))] == s.amplitudes[2]

    def test_two_mode_swapped(self):
        s = pcs(0.3, 1.0, 24)
        f = map_to_fock(s, TwoMode(1, sign=-1))
        assert (3, 2) in {f.tag.occupations(n) for n in range(f.dim)}

    def test_index_mismatch_rejected(self):
        s = pcs(0.3, 1.0, 24)
        with pytest.raises(ValueError):
            map_to_fock(s, AmplitudeSquared(0))

    def test_preserves_inner_products(self):
        a = pcs(0.4 * cmath.exp(0.2j), 0.25, 24)
        b = pcs(0.1 + 0.3j, 0.25, 24)
        fa = map_to_fock(a, AmplitudeSquared(0))
        fb = map_to_fock(b, AmplitudeSquared(0))
        assert fa.inner(fb) == pytest.approx(a.inner(b), abs=1e-15)


class TestFockVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            FockVector(np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            FockVector(np.array([1.0, math.nan], dtype=complex))

    def test_read_only(self):
        f = FockVector(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            f.amplitudes[0] = 2.0

    def test_two_mode_diagonal_round_trip(self):
        f = TwoModeFockVector(np.array([0.6, 0.8j]), TwoMode(2, 1))
        assert np.allclose(f.diagonal_amplitudes(), [0.6, 0.8j])
        assert f.norm == pytest.approx(1.0)

    def test_two_mode_rejects_nonfinite_amplitude(self):
        with pytest.raises(ValueError):
            TwoModeFockVector(np.array([1.0, math.inf], dtype=complex), TwoMode(1))

    def test_two_mode_read_only(self):
        f = TwoModeFockVector(np.array([1.0, 0.0], dtype=complex), TwoMode(1))
        with pytest.raises(ValueError):
            f.diagonal_amplitudes()[0] = 2.0


class TestTwoModeInner:
    def test_mapped_pair_matches_abstract(self):
        a = pcs(0.4 * cmath.exp(0.2j), 1.0, 24)
        b = bgcs(0.3 - 0.5j, 1.0, 24)
        for tag in (TwoMode(1), TwoMode(1, sign=-1)):
            fa, fb = map_to_fock(a, tag), map_to_fock(b, tag)
            assert fa.inner(fb) == pytest.approx(a.inner(b), abs=1e-15)

    def test_different_diagonals_are_orthogonal(self):
        s = pcs(0.3, 1.0, 24)
        assert map_to_fock(s, TwoMode(1)).inner(map_to_fock(s, TwoMode(1, -1))) == 0
        low = map_to_fock(pcs(0.3, 0.5, 24), TwoMode(0))
        high = map_to_fock(pcs(0.3, 1.5, 24), TwoMode(2))
        assert low.inner(high) == 0

    def test_zero_excess_is_one_diagonal_for_either_sign(self):
        a = pcs(0.3, 0.5, 24)
        b = pcs(0.1 + 0.2j, 0.5, 24)
        fa = map_to_fock(a, TwoMode(0, 1))
        fb = map_to_fock(b, TwoMode(0, -1))
        assert fa.inner(fb) == pytest.approx(a.inner(b), abs=1e-15)
        assert abs(fa.inner(fb)) > 0.5


class TestNbs:
    def test_matches_mapped_disc_state(self):
        # shape parameter 1 with unit index: the photon-number ladder and the
        # abstract ladder coincide, so the distributions must too
        got = nbs(0.5, 1.0, 64)
        want = map_to_fock(pcs(0.5, 0.5, 64), HolsteinPrimakoff(0.5))
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12

    def test_negative_binomial_law(self):
        m, shape = 0.5, 2.0
        f = nbs(m, shape, 80)
        p = photon_distribution(f)
        for n in range(41):
            want = (
                math.comb(n + 1, n)
                * ((1.0 - m * m) ** shape)
                * (m * m) ** n
            )
            assert p[n] == pytest.approx(want, rel=1e-12)

    def test_geometric_special_case(self):
        f = nbs(0.6, 1.0, 128)
        p = photon_distribution(f)
        ratio = p[1:60] / p[:59]
        assert np.max(np.abs(ratio - 0.36)) < 1e-12

    def test_moments(self):
        f = nbs(0.5, 2.0, 128)
        p = photon_distribution(f)
        mean, variance = photon_moments(p)
        assert mean == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert variance / mean - 1.0 == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_ladder_relation(self):
        f = nbs(0.45, 1.5, 128)
        assert nbs_ladder_residual(f, 0.45, 1.5) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nbs(0.5, 0.0, 32)
        with pytest.raises(ValueError):
            nbs(1.0, 2.0, 32)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.2, math.nan)])
    def test_rejects_nonfinite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            nbs(alpha, 2.0, 32)

    def test_truncation_guard(self):
        with pytest.raises(ConvergenceError):
            nbs(0.95, 2.0, 16)


class TestSqueezedStates:
    def test_vacuum_amplitude_ratio(self):
        p = DisplacementParams(0.5, 0.0)
        f = squeezed_vacuum(p, 64)
        got = abs(f.amplitudes[2]) / abs(f.amplitudes[0])
        assert got == pytest.approx(math.tanh(0.5) / math.sqrt(2.0), rel=1e-12)

    def test_first_amplitude_ratio(self):
        p = DisplacementParams(0.5, 0.0)
        f = squeezed_first(p, 64)
        got = abs(f.amplitudes[3]) / abs(f.amplitudes[1])
        assert got == pytest.approx(math.sqrt(1.5) * math.tanh(0.5), rel=1e-12)

    def test_parity_zeros(self):
        pa = DisplacementParams(0.4, 0.7)
        assert np.all(squeezed_vacuum(pa, 48).amplitudes[1::2] == 0.0)
        assert np.all(squeezed_first(pa, 48).amplitudes[::2] == 0.0)

    def test_vacuum_mean(self):
        p = DisplacementParams(0.5, 0.3)
        dist = photon_distribution(squeezed_vacuum(p, 128))
        assert photon_moments(dist)[0] == pytest.approx(math.sinh(0.5) ** 2, rel=1e-10)

    def test_pair_ladder_eigen_relations(self):
        p = DisplacementParams(0.5, 0.3)
        ev = squeezed_vacuum(p, 128)
        od = squeezed_first(p, 128)
        assert two_photon_nlcs_residual(ev, lambda i: 1.0 / (i + 1.0), p.alpha) < 1e-12
        assert two_photon_nlcs_residual(od, lambda i: 1.0 / (i + 2.0), p.alpha) < 1e-12


class TestParitySectorElements:
    def test_vacuum_diagonal(self):
        p = DisplacementParams(0.7, 0.0)
        got = parity_sector_element(0, 0, 0, p)
        assert got == pytest.approx(math.cosh(0.7) ** -0.5, rel=1e-12)

    def test_vacuum_diagonal_odd(self):
        p = DisplacementParams(0.7, 0.0)
        got = parity_sector_element(0, 0, 1, p)
        assert got == pytest.approx(math.cosh(0.7) ** -1.5, rel=1e-12)

    def test_against_general_column(self):
        from su11.displacement import matrix_columns

        p = DisplacementParams(0.6, 0.35)
        for parity in (0, 1):
            k = 0.25 + 0.5 * parity
            for m in (0, 2, 4):
                col = matrix_columns([m], k, p, 64)[:, 0]
                for n in (0, 1, 3, 5):
                    want = col[n]
                    got = parity_sector_element(n, m, parity, p)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_requires_positive_squeeze(self):
        with pytest.raises(ValueError):
            parity_sector_element(0, 0, 0, DisplacementParams(0.0))

    @pytest.mark.parametrize("r", [400.0, 711.0, 800.0])
    def test_past_the_range_of_sinh_squared(self, r):
        # sinh(r) ** 2 overflows past r ~ 355 and cosh(r) past ~ 710; the general
        # element stays finite, e.g. 5.7e-155 at (0, 0), k 1/4, r 711
        from su11.displacement import matrix_element_hyp

        p = DisplacementParams(r, 0.3)
        for parity in (0, 1):
            k = 0.25 + 0.5 * parity
            for n in range(7):
                for m in range(7):
                    want = matrix_element_hyp(n, m, k, p)
                    assert parity_sector_element(n, m, parity, p) == pytest.approx(want, rel=1e-9)
        assert abs(parity_sector_element(0, 0, 0, p)) > 0.0


class TestTwoModeFamilies:
    def test_tmsv_amplitude_ratio(self):
        p = DisplacementParams(0.5, 0.0)
        f = two_mode_squeezed_vacuum(p, 0, 1, 64)
        d = f.diagonal_amplitudes()
        assert abs(d[1]) / abs(d[0]) == pytest.approx(math.tanh(0.5), rel=1e-12)

    def test_tmsv_eigen_relation(self):
        p = DisplacementParams(0.5, 0.4)
        excess = 1
        f = two_mode_squeezed_vacuum(p, excess, 1, 96)
        fn2 = lambda n1, n2: 2.0 / (n1 + n2 + excess + 2.0)
        assert two_mode_nlcs_residual(f, fn2, p.alpha) < 1e-9

    def test_pair_matches_mapped_flat_state(self):
        got = pair_coherent(1.0, 1, 1, 96)
        want = map_to_fock(bgcs(1.0, 1.0, 96), TwoMode(1))
        gd = got.diagonal_amplitudes()
        wd = want.diagonal_amplitudes()
        assert np.max(np.abs(gd - wd)) < 1e-12

    def test_pair_product_lowering(self):
        # joint lowering a*b reproduces the amplitude on every occupied level
        alpha, excess = 1.0, 0
        f = pair_coherent(alpha, excess, 1, 128)
        d = f.diagonal_amplitudes()
        idx = np.arange(1, d.size)
        lowered = np.sqrt(idx * (idx + excess)) * d[1:]
        assert np.linalg.norm(lowered - alpha * d[:-1]) < 1e-12

    @pytest.mark.parametrize("mag, dim", [(5000.0, 8192), (1.2e5, 124_257)])
    def test_pair_certified_out_to_alpha_1e5(self, mag, dim):
        # with its logs summed level by level in floats, the residual read 1.3e-9 at |alpha|
        # 5000 and 1e-7 past 5e4
        alpha = mag * cmath.exp(-1.1j)
        f = pair_coherent(alpha, 1, 1, dim)
        assert two_mode_nlcs_residual(f, lambda n1, n2: 1.0, alpha) <= 1e-9

    def test_pair_swapped_orientation(self):
        f = pair_coherent(0.8, 2, -1, 48)
        occupied = {f.tag.occupations(n) for n in range(f.dim)}
        assert (2, 0) in occupied
        assert (0, 2) not in occupied

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(math.nan, 1.0)])
    def test_pair_rejects_nonfinite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            pair_coherent(alpha, 1, 1, 48)

    def test_pair_truncation_guard(self):
        with pytest.raises(ConvergenceError):
            pair_coherent(4.0, 1, 1, 12)

    @pytest.mark.parametrize("excess, sign", [(0, 1), (0, -1), (2, 1), (2, -1)])
    def test_pair_tiny_alpha_is_the_bottom_level(self, excess, sign):
        # |alpha| / sqrt(n1 n2) rounds to 0 at level 2: the recursion stops there, as in nlcs
        f = pair_coherent(5e-324, excess, sign, 32)
        assert photon_distribution(f)[excess] == 1.0
        assert f.tag.occupations(0) == ((0, excess) if sign > 0 else (excess, 0))
        assert not np.any(f.amplitudes[2:])


class TestTwoModeArrayPaths:
    """The array forms against per-level loops; the arithmetic is the same."""

    @pytest.mark.parametrize("excess,sign", [(0, 1), (1, 1), (2, -1)])
    def test_match_per_level_loops(self, excess, sign):
        p = DisplacementParams(0.6, 0.3)
        f = two_mode_squeezed_vacuum(p, excess, sign, 64)
        diag, tag = f.diagonal_amplitudes(), f.tag
        fn2 = lambda n1, n2: 2.0 / (n1 + n2 + excess + 2.0)
        resid = np.zeros(diag.size - 1, dtype=np.complex128)
        for level in range(diag.size - 1):
            n1_up, n2_up = tag.occupations(level + 1)
            lowered = math.sqrt(n1_up * n2_up) * diag[level + 1]
            if lowered != 0:
                lowered *= complex(fn2(*tag.occupations(level)))
            resid[level] = lowered - complex(p.alpha) * diag[level]
        assert two_mode_nlcs_residual(f, fn2, p.alpha) == float(np.linalg.norm(resid))
        dist = np.zeros(2 * diag.size - 1 + excess)
        for level in range(diag.size):
            dist[2 * level + excess] = abs(diag[level]) ** 2
        assert np.array_equal(photon_distribution(f), dist)


class TestResidualDiagnostics:
    def test_two_photon_wrong_function_is_large(self):
        p = DisplacementParams(0.5, 0.0)
        ev = squeezed_vacuum(p, 128)
        lam = -math.tanh(p.r)
        assert two_photon_nlcs_residual(ev, lambda i: 1.0 / (i + 3.0), lam) > 1e-2

    def test_two_mode_wrong_function_is_large(self):
        p = DisplacementParams(0.5, 0.0)
        f = two_mode_squeezed_vacuum(p, 1, 1, 96)
        lam = -math.tanh(p.r)
        assert two_mode_nlcs_residual(f, lambda a, b: 1.0, lam) > 1e-2


class TestRealizationMatrices:
    def test_holstein_primakoff_matches_abstract(self):
        tag = HolsteinPrimakoff(0.75)
        d = 24
        assert np.max(np.abs(tag.kplus(d) - kplus_matrix(d, 0.75))) < 1e-12
        assert np.max(np.abs(tag.kminus(d) - kminus_matrix(d, 0.75))) < 1e-12
        assert np.max(np.abs(tag.k0(d) - k0_matrix(d, 0.75))) < 1e-12

    def test_amplitude_squared_spot_values(self):
        tag = AmplitudeSquared(0)
        up = tag.kplus(9)
        # raising from photon number 0 to 2 carries sqrt(2)/2
        assert up[2, 0] == pytest.approx(math.sqrt(2.0) / 2.0)
        z = tag.k0(9)
        assert z[0, 0] == pytest.approx(0.25)
        assert z[4, 4] == pytest.approx(0.5 * (4.0 + 0.5))

    def test_two_mode_spot_values(self):
        tag = TwoMode(1)
        up = tag.kplus(6)
        # level 0 holds (0,1); raising carries sqrt(1*2)
        assert up[1, 0] == pytest.approx(math.sqrt(2.0))
        z = tag.k0(6)
        assert z[0, 0] == pytest.approx(1.0)

    def test_commutator_on_sublattice(self):
        tag = AmplitudeSquared(1)
        d = 16
        up = tag.kplus(2 * d + 2)
        dn = tag.kminus(2 * d + 2)
        z = tag.k0(2 * d + 2)
        comm = up @ dn - dn @ up
        sub = np.ix_(2 * np.arange(d) + 1, 2 * np.arange(d) + 1)
        assert np.max(np.abs(comm[sub] + 2.0 * z[sub])) < 1e-12


class TestDistributions:
    def test_photon_distribution_types(self):
        s = pcs(0.4, 0.5, 32)
        f = map_to_fock(s, HolsteinPrimakoff(0.5))
        assert np.allclose(photon_distribution(s), photon_distribution(f))
        tm = two_mode_squeezed_vacuum(DisplacementParams(0.4), 1, 1, 48)
        ptm = photon_distribution(tm)
        assert ptm[0] == 0.0
        assert ptm[1] == pytest.approx(abs(tm.diagonal_amplitudes()[0]) ** 2)

    def test_mean_and_variance(self):
        p = np.array([0.25, 0.5, 0.25])
        assert photon_moments(p) == pytest.approx((1.0, 0.5))

    def test_vacuum_moments_are_zero(self):
        assert photon_moments(np.array([1.0, 0.0])) == (0.0, 0.0)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            photon_moments(np.zeros(4))
