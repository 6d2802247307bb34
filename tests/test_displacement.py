import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11.algebra import StateVector, basis_state
from su11.displacement import (
    DisplacementParams,
    MatrixElementTable,
    column_norm_deficits,
    decomposed_apply,
    displacement_oracle,
    matrix_column,
    matrix_columns,
    matrix_element_hyp,
    matrix_element_sum,
    matrix_table,
    xi_from_alpha,
)
from su11.states import pcs

K_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DisplacementParams(-0.1)
        with pytest.raises(ValueError):
            DisplacementParams(math.inf)
        for theta in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="theta must be finite"):
                DisplacementParams(0.5, theta)

    def test_theta_reduced_to_halfopen_interval(self):
        p = DisplacementParams(1.0, 3.0 * math.pi)
        assert p.theta == pytest.approx(math.pi)
        p = DisplacementParams(1.0, -math.pi)
        assert p.theta == pytest.approx(math.pi)
        p = DisplacementParams(1.0, -0.5)
        assert p.theta == pytest.approx(-0.5)

    def test_argument_forms(self):
        p = DisplacementParams(0.8, 0.3)
        assert p.xi == pytest.approx(0.8 * cmath.exp(0.3j))
        assert p.alpha == pytest.approx(math.tanh(0.8) * cmath.exp(0.3j))

    def test_disc_round_trip(self):
        p = DisplacementParams(1.0, -0.7)
        q = xi_from_alpha(p.alpha)
        assert q.r == pytest.approx(p.r, rel=1e-12)
        assert q.theta == pytest.approx(p.theta, rel=1e-12)

    def test_disc_inverse_known_value(self):
        # tanh(1) = 0.76159...
        q = xi_from_alpha(0.7615941559557649)
        assert q.r == pytest.approx(1.0, rel=1e-12)
        assert q.theta == 0.0

    def test_disc_requires_interior(self):
        with pytest.raises(ValueError):
            xi_from_alpha(1.0)
        assert xi_from_alpha(0.0).r == 0.0


class TestScalarElements:
    def test_zero_displacement_is_identity(self):
        p = DisplacementParams(0.0)
        assert matrix_element_sum(3, 3, 0.5, p) == 1.0
        assert matrix_element_sum(3, 2, 0.5, p) == 0.0
        with pytest.raises(ValueError):
            matrix_element_hyp(1, 1, 0.5, p)

    def test_vacuum_element(self):
        # <0|S|0> = sech(r)^{2k}
        for k in (0.25, 1.0):
            for r in (0.3, 1.1):
                p = DisplacementParams(r, 0.9)
                want = math.cosh(r) ** (-2.0 * k)
                assert matrix_element_sum(0, 0, k, p) == pytest.approx(want, rel=1e-13)
                assert matrix_element_hyp(0, 0, k, p) == pytest.approx(want, rel=1e-13)

    def test_level_one_element(self):
        # the hypergeometric series has two terms here; 2F1(-1,-1;2k;z) = 1 + z/(2k)
        k, r = 0.75, 0.6
        p = DisplacementParams(r)
        t = math.tanh(r)
        z = 1.0 - 1.0 / (t * t)
        pref = 2.0 * k * t * t * math.cosh(r) ** (-2.0 * k)
        expected = -pref * (1.0 + z / (2.0 * k))
        assert matrix_element_sum(1, 1, k, p) == pytest.approx(expected, rel=1e-12)

    def test_domain_checks(self):
        p = DisplacementParams(0.4)
        with pytest.raises(ValueError):
            matrix_element_sum(-1, 0, 0.5, p)
        with pytest.raises(ValueError):
            matrix_element_sum(0, 0, -0.5, p)

    @given(
        n=st.integers(0, 25),
        m=st.integers(0, 12),
        k=st.sampled_from(K_GRID),
        r=st.floats(0.05, 1.2, allow_nan=False),
        theta=st.floats(-3.0, 3.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_sum_and_hyp_agree(self, n, m, k, r, theta):
        p = DisplacementParams(r, theta)
        a = matrix_element_sum(n, m, k, p)
        b = matrix_element_hyp(n, m, k, p)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_conjugation_symmetry(self):
        # S(-xi) = S(xi)^dagger entrywise
        p = DisplacementParams(0.7, 0.4)
        q = DisplacementParams(0.7, 0.4 + math.pi)
        for n in range(5):
            for m in range(5):
                a = matrix_element_sum(n, m, 0.75, p)
                b = matrix_element_sum(m, n, 0.75, q)
                assert a == pytest.approx(b.conjugate(), rel=1e-12, abs=1e-15)


class TestRecurrenceRange:
    """The recurrence walk where the alternating q-sum used to cancel."""

    @pytest.mark.parametrize("r", (0.5, 1.0, 2.0))
    @pytest.mark.parametrize("k", (0.25, 0.5, 2.0))
    def test_sweep_to_level_150(self, k, r):
        # the diagonal every 10 levels plus seeded pairs with min(n, m) <= 150
        rng = np.random.default_rng(int(100 * k + 10 * r))
        pairs = [(n, n) for n in range(0, 151, 10)]
        for low, gap in zip(rng.integers(0, 151, 12), rng.integers(1, 60, 12)):
            pairs += [(int(low), int(low + gap)), (int(low + gap), int(low))]
        p = DisplacementParams(r, 0.4)
        worst = max(
            abs(matrix_element_sum(n, m, k, p) - matrix_element_hyp(n, m, k, p))
            for n, m in pairs
        )
        assert worst < 1e-12

    def test_exact_route_past_float_range(self):
        # 2F1 is far past the float range here, the element is not
        p = DisplacementParams(0.05)
        want = matrix_element_sum(150, 150, 0.5, p)
        assert abs(want) < 1.0
        assert matrix_element_hyp(150, 150, 0.5, p) == pytest.approx(want, abs=1e-12)

    def test_large_squeeze_stays_finite(self):
        p = DisplacementParams(800.0, 0.3)
        col = matrix_column(5, 0.5, p, 64)
        assert np.all(np.isfinite(col))
        assert np.max(np.abs(col)) < 1e-300
        assert np.all(np.isfinite(matrix_table(2.0, p, 16).entries))

    @pytest.mark.parametrize("r", (800.0, 1e-200))
    def test_block_reads_raise_no_warning(self, r):
        # a column walked past its diagonal overflows if it is ever exponentiated
        p = DisplacementParams(r, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix_column(5, 0.5, p, 64)
            matrix_columns([0, 7, 30], 2.0, p, 64)
            matrix_table(0.75, p, 48)

    @pytest.mark.parametrize("r", (1e-20, 1e-200, 1e-310))
    def test_tiny_squeeze(self, r):
        # one step of the plain recurrence grows by about 1/r here
        k, p = 0.75, DisplacementParams(r, 0.3)
        entries = matrix_table(k, p, 12).entries
        assert np.max(np.abs(np.diag(entries) - 1.0)) < 1e-12
        assert np.max(np.abs(entries - np.diag(np.diag(entries)))) < 20.0 * r
        if r > 1e-280:  # first-order elements still above the underflow of the walk
            n = np.arange(11)
            first = r * np.sqrt((n + 1) * (n + 2 * k)) * cmath.exp(0.3j)
            assert np.allclose(np.diag(entries, -1), first, rtol=1e-12, atol=0.0)
        if r > 1e-150:  # the closed form divides by tanh(r)^2, which underflows below
            for n, m in ((3, 1), (7, 4), (2, 9)):
                want = matrix_element_hyp(n, m, k, p)
                assert abs(entries[n, m] - want) <= 1e-12 * abs(want)


class TestColumns:
    def test_zero_displacement(self):
        col = matrix_column(2, 0.5, DisplacementParams(0.0), 6)
        want = np.zeros(6, dtype=complex)
        want[2] = 1.0
        assert np.array_equal(col, want)

    def test_matches_scalar_route(self):
        p = DisplacementParams(0.8, 0.6)
        for m in (0, 3, 11):
            col = matrix_column(m, 1.0, p, 48)
            ref = np.array([matrix_element_sum(n, m, 1.0, p) for n in range(48)])
            assert np.array_equal(col, ref)

    def test_displaced_bottom_is_coherent_state(self):
        for k in K_GRID:
            for r in (0.2, 0.8):
                p = DisplacementParams(r, 1.1)
                col = matrix_column(0, k, p, 128)
                want = pcs(p.alpha, k, 128)
                assert np.max(np.abs(col - want.amplitudes)) < 1e-10

    def test_columns_orthonormal(self):
        p = DisplacementParams(0.5, -0.9)
        cols = [matrix_column(m, 0.75, p, 128) for m in range(8)]
        for i in range(8):
            for j in range(8):
                want = 1.0 if i == j else 0.0
                got = np.vdot(cols[i], cols[j])
                assert abs(got - want) < 1e-10

    def test_column_outside_dimension(self):
        with pytest.raises(ValueError):
            matrix_column(8, 0.5, DisplacementParams(0.1), 8)

    @pytest.mark.parametrize("levels", ([], [3, 1], [2, 2], [0, -1]))
    def test_block_rejects_bad_levels(self, levels):
        with pytest.raises(ValueError):
            matrix_columns(levels, 0.5, DisplacementParams(0.1), 8)


class TestTable:
    def test_zero_displacement_identity(self):
        t = matrix_table(0.5, DisplacementParams(0.0), 5)
        assert np.array_equal(t.entries, np.eye(5, dtype=complex))
        assert np.all(column_norm_deficits(t.entries) == 0.0)

    def test_matches_scalar_entries(self):
        p = DisplacementParams(0.6, 0.2)
        t = matrix_table(1.5, p, 10)
        assert t.dim == 10
        assert t.entries[4, 7] == matrix_element_sum(4, 7, 1.5, p)
        want = [[matrix_element_sum(n, m, 1.5, p) for m in range(10)] for n in range(10)]
        assert np.array_equal(t.entries, np.array(want))

    @pytest.mark.parametrize("k, r, theta", ((0.25, 0.1, 0.0), (1.5, 0.6, 0.2), (2.0, 2.0, -2.0)))
    def test_every_reader_matches_scalar_entries(self, k, r, theta):
        # columns, blocks and tables all read the walk of `matrix_element_sum`, bit for bit
        p, dim = DisplacementParams(r, theta), 40
        want = np.array([[matrix_element_sum(n, m, k, p) for m in range(dim)] for n in range(dim)])
        assert np.array_equal(matrix_table(k, p, dim).entries, want)
        for levels in ([0], [7], [39], [0, 3, 17, 39], range(5, 12)):
            assert np.array_equal(matrix_columns(levels, k, p, dim), want[:, list(levels)])
        for m in (0, 1, 20, 39):
            assert np.array_equal(matrix_column(m, k, p, dim), want[:, m])

    def test_entries_read_only(self):
        t = matrix_table(0.5, DisplacementParams(0.3), 6)
        with pytest.raises(ValueError):
            t.entries[0, 0] = 5.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            MatrixElementTable(0.5, DisplacementParams(0.1), np.ones((2, 3)))


class TestOracle:
    def test_requires_room(self):
        with pytest.raises(ValueError):
            displacement_oracle(0.5, DisplacementParams(0.5), 4)

    def test_agrees_with_closed_forms(self):
        p = DisplacementParams(0.5, 1.3)
        oracle = displacement_oracle(1.0, p, 96)
        for n in range(8):
            for m in range(8):
                want = matrix_element_sum(n, m, 1.0, p)
                assert abs(oracle.entries[n, m] - want) < 1e-10

    def test_one_parameter_group(self):
        # same-direction displacements compose additively in r
        theta = 0.4
        a = displacement_oracle(0.75, DisplacementParams(0.3, theta), 96).entries
        b = displacement_oracle(0.75, DisplacementParams(0.45, theta), 96).entries
        c = displacement_oracle(0.75, DisplacementParams(0.75, theta), 96).entries
        prod = a @ b
        assert np.max(np.abs(prod[:8, :8] - c[:8, :8])) < 1e-9


class TestDecomposedApply:
    def test_on_bottom_level(self):
        k = 0.5
        p = DisplacementParams(0.6, 0.9)
        out = decomposed_apply(k, p, basis_state(0, 96, k))
        want = pcs(p.alpha, k, 96)
        assert np.max(np.abs(out.amplitudes - want.amplitudes)) < 1e-12

    def test_matches_columns(self):
        k = 1.0
        p = DisplacementParams(0.5, -0.4)
        for m in (1, 4):
            out = decomposed_apply(k, p, basis_state(m, 96, k))
            col = matrix_column(m, k, p, 96)
            assert np.max(np.abs(out.amplitudes - col)) < 1e-9

    def test_preserves_norm_of_converged_states(self):
        k = 0.75
        p = DisplacementParams(0.7, 0.25)
        rng = np.random.default_rng(7)
        amp = np.zeros(128, dtype=complex)
        amp[:6] = rng.normal(size=6) + 1j * rng.normal(size=6)
        s = decomposed_apply(k, p, StateVector(amp, k).normalized())
        assert s.norm == pytest.approx(1.0, abs=1e-9)

    def test_index_mismatch(self):
        with pytest.raises(ValueError):
            decomposed_apply(0.5, DisplacementParams(0.1), basis_state(0, 16, 1.0))
