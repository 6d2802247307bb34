"""Hostile inputs to the library's scalar entry points and its level gate.

Every call must return a value, a float or complex that is finite or +-inf but never nan, or
refuse with ValueError: never TypeError, IndexError, OverflowError, ZeroDivisionError or a
numpy warning, which the test configuration turns into an error.

Each argument is drawn from one alphabet: negative ints, ints up to 200, non-integer floats,
+-0.0, nan, +-inf, None, str and complex.  Levels stop at 200 because the exact 2F1 behind
`parity_sector_element` and `matrix_element_hyp` costs about n^2 bigint digits: a subnormal
c or z puts 2^1074 in every row, about 0.2 s at n = 200.  The examples are derandomized and
fixed in number, so the test reads the same cases every run.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11.algebra import basis_state, check_level, eigen_residual_lowering
from su11.displacement import (
    DisplacementParams,
    matrix_columns,
    matrix_element_hyp,
    matrix_element_sum,
)
from su11.realizations import (
    TwoMode,
    parity_sector_element,
    squeezed_vacuum,
    two_mode_nlcs_residual,
    two_mode_squeezed_vacuum,
    two_photon_nlcs_residual,
)
from su11.states import LpsParams, bgcs, nlcs, nlcs_exponential

HOSTILE = st.one_of(
    st.integers(max_value=-1),
    st.integers(0, 200),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, None, "3", "x"]),
    st.complex_numbers(),
)
SQUEEZES = [DisplacementParams(r, 0.4) for r in (1e-6, 0.5, 355.0)]

# name -> (call, number of hostile arguments): the squeeze, k and dim are valid
TARGETS = {
    "check_level": (lambda n: check_level(n, "n"), 1),
    "basis_state": (lambda n: basis_state(n, 256, 0.5), 1),
    "matrix_element_sum": (lambda n, m: matrix_element_sum(n, m, 0.75, SQUEEZES[1]), 2),
    "matrix_element_hyp": (lambda n, m: matrix_element_hyp(n, m, 0.75, SQUEEZES[1]), 2),
    "matrix_columns": (lambda m: matrix_columns([m], 0.75, SQUEEZES[1], 256), 1),
    "LpsParams": (lambda order: LpsParams(order, 0.3, 0.4, 0.5), 1),
    "TwoMode": (lambda excess: TwoMode(excess), 1),
    "parity_sector_element": (
        lambda n, m, parity: [parity_sector_element(n, m, parity, p) for p in SQUEEZES], 3),
}


def no_nan(value):
    if isinstance(value, list):
        return all(map(no_nan, value))
    if isinstance(value, np.ndarray):
        return not np.isnan(value).any()
    return not isinstance(value, (float, complex)) or not cmath.isnan(value)


@pytest.mark.parametrize("name", TARGETS)
def test_returns_a_number_or_refuses(name):
    call, arity = TARGETS[name]

    @given(st.tuples(*[HOSTILE] * arity))
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    def check(args):
        try:
            value = call(*args)
        except ValueError:
            return
        assert no_nan(value), (args, value)

    check()


@pytest.mark.parametrize("call, args, message", [
    (parity_sector_element, (2.5, 1, 0, SQUEEZES[1]), "n must be a nonnegative integer, got 2.5"),
    (matrix_element_sum, (math.inf, 1, 0.5, SQUEEZES[1]),
     "n must be a nonnegative integer, got inf"),
    (LpsParams, (math.inf, 0.3, 0.4, 0.5), "order must be a nonnegative integer, got inf"),
    (matrix_columns, ([math.inf], 0.5, SQUEEZES[1], 8), "m must be a nonnegative integer, got inf"),
    (TwoMode, (None,), "excess must be a nonnegative integer, got None"),
    (basis_state, (1j, 8, 0.5), "level must be a nonnegative integer, got 1j"),
    (matrix_element_hyp, (math.nan, 1, 0.5, SQUEEZES[1]),
     "n must be a nonnegative integer, got nan"),
])
def test_one_gate_refuses_every_non_level(call, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(*args)



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), None, "3",
                                 "x", object()],
                         ids=["nan", "inf", "-inf", "nan-imag", "None", "str-3", "str-x", "object"])
def test_photon_residuals_refuse_a_diagonal_value_that_is_not_a_finite_number(bad):
    params = DisplacementParams(0.5, 0.3)
    even = squeezed_vacuum(params, 32)  # photon level 4 is occupied after the lowering
    with pytest.raises(ValueError, match="^diagonal function not finite at level 4$"):
        two_photon_nlcs_residual(even, lambda i: bad if i == 4 else 1.0 / (i + 1.0), params.alpha)
    pairs = two_mode_squeezed_vacuum(params, 1, 1, 32)  # diagonal level 3 holds (3, 4)
    with pytest.raises(ValueError, match="^diagonal function not finite at level 3$"):
        two_mode_nlcs_residual(pairs, lambda n1, n2: bad if n1 == 3 else 1.0, params.alpha)


@pytest.mark.parametrize("build", [nlcs, nlcs_exponential])
@pytest.mark.parametrize("level", [0, 3])
@pytest.mark.parametrize("bad", [math.nan, complex(1.0, math.inf), None, "3", object()],
                         ids=["nan", "inf-imag", "None", "str-3", "object"])
def test_nonlinear_builders_refuse_a_value_that_is_not_a_finite_number(build, level, bad):
    with pytest.raises(ValueError, match=f"^nonlinearity not finite at level {level}$"):
        build(0.5, 0.5, lambda n: bad if n == level else 1.0 / (n + 1.0), 32)


def past_the_float_range(n):
    return 10**400 if n == 3 else 1.0 / (n + 1.0)  # an int that no float holds


@pytest.mark.parametrize("call, message", [
    (lambda: nlcs(0.5, 0.5, past_the_float_range, 32), "nonlinearity not finite at level 3"),
    (lambda: nlcs_exponential(0.5, 0.5, past_the_float_range, 32),
     "nonlinearity not finite at level 3"),
    (lambda: eigen_residual_lowering(bgcs(0.5, 0.5, 32), past_the_float_range, 0.5),
     "diagonal function not finite at level 3"),
    # f(0) d underflows to 0 in the step, as f(0) sqrt(2k) does in nlcs's ratio
    (lambda: nlcs_exponential(0.5, 0.1, lambda n: 5e-324, 32),
     "diagonal function not finite at level 1"),
    (lambda: nlcs(0.5, 0.1, lambda n: 5e-324, 32), "amplitude ratio not finite at level 0"),
], ids=["nlcs-huge-int", "nlcs_exponential-huge-int", "eigen_residual-huge-int",
        "nlcs_exponential-underflow", "nlcs-underflow"])
def test_a_value_the_float_range_cannot_hold_is_refused_with_its_level(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
