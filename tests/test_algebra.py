import cmath
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11.algebra import (
    ConvergenceError,
    StateVector,
    apply_diag,
    apply_kminus,
    apply_kplus,
    basis_state,
    casimir_residual,
    check_bargmann,
    commutator_residuals,
    eigen_residual_lowering,
    gdo_residuals,
    k0_matrix,
    kminus_matrix,
    kplus_matrix,
    ladder_function_from_state,
    ladder_residual_general,
    mus_expectation,
    mus_residual,
)
from su11.states import bgcs, pcs

K_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


class TestStateVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            StateVector(np.ones((2, 2)), 0.5)
        with pytest.raises(ValueError):
            StateVector(np.array([1.0]), 0.5)
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, np.nan]), 0.5)
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0]), -1.0)

    def test_amplitudes_read_only(self):
        s = basis_state(0, 4, 0.5)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 2.0

    def test_norm_and_normalized(self):
        s = StateVector(np.array([3.0, 4.0]), 1.0)
        assert s.norm == pytest.approx(5.0)
        n = s.normalized()
        assert n.norm == pytest.approx(1.0, abs=1e-15)
        assert n.k == 1.0

    def test_inner_requires_matching_space(self):
        a = basis_state(0, 4, 0.5)
        b = basis_state(1, 4, 0.5)
        assert a.inner(b) == 0.0
        assert a.inner(a) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            a.inner(basis_state(0, 5, 0.5))
        with pytest.raises(ValueError):
            a.inner(basis_state(0, 4, 1.0))

    def test_tail_fraction(self):
        s = StateVector(np.array([1.0, 0.0, 1.0]), 0.5)
        assert s.tail_fraction == pytest.approx(0.5)
        with pytest.raises(ConvergenceError):
            s.converged("s")


class TestBargmannCheck:
    def test_accepts_positive(self):
        for k in K_GRID:
            check_bargmann(k)

    def test_rejects_bad(self):
        for k in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_bargmann(k)


class TestLadderActions:
    def test_raise_from_bottom(self):
        out = apply_kplus(basis_state(0, 4, 1.0))
        assert out.amplitudes[1] == pytest.approx(math.sqrt(2.0))

    def test_raise_mid(self):
        # transition amplitude sqrt(3 * (1 + 2)) = 3
        out = apply_kplus(basis_state(2, 6, 0.5))
        assert out.amplitudes[3] == pytest.approx(3.0)

    def test_lower(self):
        out = apply_kminus(basis_state(1, 4, 1.0))
        assert out.amplitudes[0] == pytest.approx(math.sqrt(2.0))
        out = apply_kminus(basis_state(3, 6, 0.5))
        assert out.amplitudes[2] == pytest.approx(3.0)

    def test_lower_annihilates_bottom(self):
        out = apply_kminus(basis_state(0, 4, 0.75))
        assert np.all(out.amplitudes == 0.0)

    def test_diagonal_operators(self):
        # K0 is n + k on level n
        s = basis_state(2, 5, 1.5)
        assert (k0_matrix(5, 1.5) @ s.amplitudes)[2] == pytest.approx(3.5)

    def test_raise_then_lower_diagonal(self):
        # K- K+ on level n multiplies by (n+1)(2k+n)
        for k in (0.5, 1.25):
            for n in range(5):
                s = basis_state(n, 8, k)
                out = apply_kminus(apply_kplus(s))
                assert out.amplitudes[n] == pytest.approx(
                    (n + 1) * (2 * k + n), rel=1e-12
                )

    def test_truncation_loss(self):
        # the component pushed past the top level is dropped
        s = basis_state(3, 4, 1.0)
        assert np.all(apply_kplus(s).amplitudes == 0.0)

    def test_matrices_match_actions(self):
        k, dim = 0.75, 48
        s = pcs(0.4 + 0.3j, k, dim)
        assert np.allclose(
            kplus_matrix(dim, k) @ s.amplitudes, apply_kplus(s).amplitudes
        )
        assert np.allclose(
            kminus_matrix(dim, k) @ s.amplitudes, apply_kminus(s).amplitudes
        )
        level = (np.arange(dim) + k) * s.amplitudes
        assert np.allclose(k0_matrix(dim, k) @ s.amplitudes, level)


class TestApplyDiag:
    def test_applies_by_level(self):
        s = StateVector(np.array([1.0, 2.0, 3.0]), 0.5)
        out = apply_diag(s, lambda n: float(n * n))
        assert np.allclose(out.amplitudes, [0.0, 2.0, 12.0])

    def test_skips_unoccupied_levels(self):
        s = StateVector(np.array([1.0, 0.0, 1.0]), 0.5)
        out = apply_diag(s, lambda n: 1.0 / (n - 1))  # pole only at the empty level
        assert np.allclose(out.amplitudes, [-1.0, 0.0, 1.0])

    def test_rejects_nonfinite_factor(self):
        s = StateVector(np.array([1.0, 1.0]), 0.5)
        with pytest.raises(ValueError):
            apply_diag(s, lambda n: math.inf)

    def test_bit_identical_to_the_level_loop(self):
        rng = random.Random(12)
        for _ in range(300):
            dim = rng.choice((2, 9, 64, 257))
            amps = np.array([
                complex(rng.gauss(0, 1), rng.gauss(0, 1)) if rng.random() < 0.7 else 0j
                for _ in range(dim)
            ])
            s = StateVector(amps, rng.uniform(0.1, 3.0))
            a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            func = rng.choice([
                lambda n: (n + a) / (n + 3.0 + b * b),
                lambda n: complex(a, b) / (n + 1.0),
                lambda n: cmath.exp(1j * a * n) * (1.0 + b * n),
            ])
            assert np.array_equal(apply_diag(s, func).amplitudes, level_loop_apply_diag(s, func))

    def test_visits_occupied_levels_in_order_and_stops_at_the_first_nonfinite(self):
        s = StateVector(np.array([0.0, 1.0, 0.0, 2.0, 1j, 3.0]), 0.5)
        seen = []

        def func(n):
            seen.append(n)
            if n == 5:
                raise ZeroDivisionError("past the first non-finite value")
            return math.nan if n == 4 else 1.0

        with pytest.raises(ValueError, match="not finite at level 4"):
            apply_diag(s, func)
        assert seen == [1, 3, 4]


def level_loop_apply_diag(state, func):
    """apply_diag as a loop over every level, one numpy scalar product each: the
    reference for the one-pass version."""
    out = np.array(state.amplitudes, dtype=np.complex128)
    for n in range(state.dim):
        if out[n] != 0.0:
            g = complex(func(n))
            if not (np.isfinite(g.real) and np.isfinite(g.imag)):
                raise ValueError(f"diagonal function not finite at level {n}")
            out[n] *= g
    return out


def _structure(s, n):
    """The deformed-oscillator S(n) = n^2 |c_n|^2 / |c_{n-1}|^2 of a state's amplitudes."""
    return n * n * abs(s.amplitudes[n]) ** 2 / abs(s.amplitudes[n - 1]) ** 2


class TestStructureFunction:
    def test_exponential_family(self):
        alpha = 0.6
        s = pcs(alpha, 0.5, 32)
        # at k=1/2 the first ratio equals |alpha|^2 exactly
        assert _structure(s, 1) == pytest.approx(alpha * alpha, rel=1e-12)

    def test_eigenvector_family(self):
        alpha = 0.9
        s = bgcs(alpha, 1.0, 48)
        assert _structure(s, 1) == pytest.approx(alpha * alpha / 2.0, rel=1e-12)


class TestAlgebraResiduals:
    def test_commutators_tiny_on_interior(self):
        for k in K_GRID:
            assert commutator_residuals(k, 128) < 1e-12

    def test_casimir_value(self):
        # defect against k(k-1): exact for representable products
        assert casimir_residual(0.5, 64) < 1e-13
        assert casimir_residual(1.0, 64) < 1e-13
        assert casimir_residual(0.25, 64) < 1e-13

    def test_casimir_k_grid(self):
        for k in K_GRID:
            assert casimir_residual(k, 96) < 1e-12


class TestGdoResiduals:
    def test_tiny_for_coherent_states(self):
        for k in (0.25, 1.0):
            s = pcs(0.5 * cmath.exp(0.4j), k, 64)
            assert gdo_residuals(s) < 1e-13

    def test_phase_invariant(self):
        s = pcs(0.5, 0.75, 32)
        rotated = StateVector(s.amplitudes * cmath.exp(1.1j), 0.75)
        assert gdo_residuals(s) == pytest.approx(gdo_residuals(rotated), abs=1e-15)

    def test_requires_occupied_interior(self):
        s = StateVector(np.array([1.0, 0.0, 1.0, 0.5]), 0.5)
        with pytest.raises(ValueError):
            gdo_residuals(s)

    def test_requires_dim_4(self):
        s = StateVector(np.array([1.0, 1.0, 1.0]), 0.5)
        with pytest.raises(ValueError):
            gdo_residuals(s)


class TestLadderFunction:
    def test_reconstructs_number_action(self):
        s = bgcs(1.2 * cmath.exp(-0.5j), 0.75, 64)
        f = ladder_function_from_state(s)
        assert f(0) == 0.0
        assert ladder_residual_general(s, f) < 1e-12

    def test_zero_function_on_bottom_level(self):
        s = basis_state(0, 4, 0.5)
        assert ladder_residual_general(s, lambda n: 0.0) == 0.0

    def test_zero_function_on_excited_level(self):
        s = basis_state(1, 4, 0.5)
        # N|1> has norm 1 and the raising part vanishes
        assert ladder_residual_general(s, lambda n: 0.0) == pytest.approx(1.0)


class TestEigenResidual:
    def test_plain_lowering(self):
        alpha = 1.4 * cmath.exp(0.8j)
        s = bgcs(alpha, 1.0, 96)
        assert eigen_residual_lowering(s, lambda n: 1.0, alpha) < 1e-12

    def test_scaled_lowering(self):
        alpha = 0.7 * cmath.exp(-0.2j)
        k = 0.75
        s = pcs(alpha, k, 96)
        g = lambda n: 1.0 / (n + 2.0 * k)
        assert eigen_residual_lowering(s, g, alpha) < 1e-12

    def test_wrong_eigenvalue_detected(self):
        s = bgcs(1.0, 0.5, 64)
        assert eigen_residual_lowering(s, lambda n: 1.0, 2.0) > 0.1


class TestMixedLadderResidual:
    def test_pure_lowering_specialization(self):
        alpha = 1.1 * cmath.exp(0.3j)
        s = bgcs(alpha, 0.5, 64)
        assert mus_residual(s, 0.0, 1.0, alpha) < 1e-12

    def test_expectation_matches_eigenvalue(self):
        alpha = 0.9
        s = bgcs(alpha, 1.0, 64)
        assert mus_expectation(s, 0.0, 1.0) == pytest.approx(alpha, rel=1e-10)

    def test_warns_outside_normalizable_regime(self):
        s = bgcs(0.5, 0.5, 32)
        with pytest.warns(UserWarning):
            mus_residual(s, 1.0, 0.0, 0.5)
        with pytest.warns(UserWarning):
            mus_residual(s, 2.0, 1.0, 0.5)


@given(
    k=st.sampled_from(K_GRID),
    n=st.integers(0, 40),
)
@settings(max_examples=60, deadline=None)
def test_product_rule_on_basis_states(k, n):
    s = basis_state(n, 48, k)
    out = apply_kminus(apply_kplus(s))
    assert out.amplitudes[n] == pytest.approx((n + 1) * (2 * k + n), rel=1e-12)


@given(
    k=st.floats(0.1, 3.0, allow_nan=False),
    dim=st.integers(4, 64),
)
@settings(max_examples=40, deadline=None)
def test_commutators_hold_for_any_index(k, dim):
    assert commutator_residuals(k, dim) < 1e-12
    assert casimir_residual(k, dim) < 1e-12
