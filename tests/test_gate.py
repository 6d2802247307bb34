"""The one refusal gate every state builder ends in."""

import math

import numpy as np
import pytest

from su11.algebra import ConvergenceError, StateVector, require_within
from su11.displacement import DisplacementParams
from su11.realizations import (
    FockVector,
    TwoMode,
    TwoModeFockVector,
    nbs,
    pair_coherent,
    squeezed_first,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)
from su11.states import LpsParams, bgcs, dns, lps, nlcs, nlcs_exponential, pcs


def pcs_like(n):
    """1/(n + 2k) at k = 1/2."""
    return 1.0 / (n + 1.0)


# each builder at a dimension too small for its state
TOO_SMALL = {
    "pcs": lambda: pcs(0.9, 0.5, 12),
    "bgcs": lambda: bgcs(3.0, 0.5, 12),
    "nlcs": lambda: nlcs(0.9, 0.5, pcs_like, 12),
    "nlcs_exponential": lambda: nlcs_exponential(0.9, 0.5, pcs_like, 12),
    "dns": lambda: dns(DisplacementParams(3.0), 0, 0.5, 16),
    "lps": lambda: lps(LpsParams(order=2, r=2.5, theta=0.0, k=0.5), 24),
    "nbs": lambda: nbs(0.9, 2.0, 12),
    "pair_coherent": lambda: pair_coherent(10.0, 1, 1, 12),
    "squeezed_vacuum": lambda: squeezed_vacuum(DisplacementParams(18.0, 0.3), 48),
    "squeezed_first": lambda: squeezed_first(DisplacementParams(2.0), 12),
    "two_mode_squeezed_vacuum": lambda: two_mode_squeezed_vacuum(
        DisplacementParams(2.0), 1, 1, 12
    ),
}


@pytest.mark.parametrize("name", TOO_SMALL)
def test_builders_refuse_a_small_truncation(name):
    with pytest.raises(ConvergenceError) as info:
        TOO_SMALL[name]()
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith(f"{name}(")
    assert " exceeds " in message
    assert message.endswith("; increase the truncation dimension")


class TestRequireWithin:
    def test_passes_at_the_bound(self):
        require_within(1e-9, 1e-9, "f(x=1)", "residual")

    @pytest.mark.parametrize("measured", [2e-9, math.inf, math.nan])
    def test_refuses_above_the_bound_and_nan(self, measured):
        with pytest.raises(ConvergenceError, match=r"^f\(x=1\): residual .* exceeds 1\.0e-09$"):
            require_within(measured, 1e-9, "f(x=1)", "residual")

    def test_names_the_truncation_remedy(self):
        heavy_top = StateVector(np.array([1.0, 1.0]), 0.5)
        with pytest.raises(ConvergenceError) as info:
            require_within(0.5, 1e-12, "f()", "tail fraction", heavy_top)
        assert str(info.value) == (
            "f(): tail fraction 5.000e-01 exceeds 1.0e-12; increase the truncation dimension"
        )


VECTORS = {
    "state": lambda amp: StateVector(amp, 0.75),
    "fock": FockVector,
    "two-mode": lambda amp: TwoModeFockVector(amp, TwoMode(2, -1)),
}


@pytest.mark.parametrize("make", VECTORS.values(), ids=VECTORS)
class TestAmplitudeVectorGate:
    def test_normalized_keeps_type_and_labels(self, make):
        vec = make(np.array([3.0, 4.0j, 0.0]))
        unit = vec.normalized()
        assert type(unit) is type(vec)
        assert _labels(unit) == _labels(vec)
        assert unit.norm == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(unit.amplitudes, vec.amplitudes / 5.0)

    def test_converged_keeps_type_and_labels(self, make):
        vec = make(np.array([3.0, 4.0j, 0.0]))
        unit = vec.converged("v()")
        assert type(unit) is type(vec)
        assert _labels(unit) == _labels(vec)
        assert np.array_equal(unit.amplitudes, vec.normalized().amplitudes)

    def test_converged_refuses_a_heavy_top_level(self, make):
        vec = make(np.array([1.0, 0.0, 1e-5]))
        assert vec.tail_fraction == pytest.approx(1e-10)
        with pytest.raises(ConvergenceError, match=r"^v\(\): tail fraction 1\.000e-10 exceeds"):
            vec.converged("v()")

    def test_zero_vector(self, make):
        vec = make(np.zeros(3))
        assert vec.tail_fraction == 0.0
        with pytest.raises(ValueError):
            vec.normalized()
        # named as an underflow, with no truncation remedy: no dimension would help
        want = r"^v\(\): amplitudes underflowed, share of the weight lost 1\.000e\+00 exceeds 0\.0e\+00$"
        with pytest.raises(ConvergenceError, match=want):
            vec.converged("v()")


def _labels(vec):
    """The Bargmann index or realization tag a vector carries."""
    return {name: getattr(vec, name) for name in ("k", "tag") if hasattr(vec, name)}
