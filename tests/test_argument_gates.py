"""Every scalar argument of the library is read by `algebra`'s gates.

Each public builder, parameter type and dim-taking function is called with one hostile value in
one slot, the other arguments valid.  Every call must return, or end in one line of ValueError,
ConvergenceError or a "vanishes" ZeroDivisionError: never TypeError, IndexError, OverflowError or
a value computed from the raw argument.  A dim must be a positive integer: a float equal to one
gives the same bits as the int, and a fractional dim is refused.
"""

import math

import numpy as np
import pytest

from su11.algebra import (
    ConvergenceError,
    StateVector,
    basis_state,
    casimir_residual,
    check_dim,
    commutator_residuals,
    k0_matrix,
    kminus_matrix,
    kplus_matrix,
    raising_factors,
)
from su11.displacement import DisplacementParams, displacement_oracle, matrix_columns
from su11.realizations import (
    AmplitudeSquared,
    HolsteinPrimakoff,
    TwoMode,
    nbs,
    pair_coherent,
    squeezed_first,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)
from su11.states import LpsParams, bgcs, dns, laguerre_prestate, lps, nlcs, nlcs_exponential, pcs

# not finite numbers, or not real ones: the k, alpha, r, theta and shape slots' hostile values
BAD_NUMBERS = [math.nan, math.inf, -math.inf, None, "0.5", "x", 10**400, 0.5j, object()]
BAD_DIMS = [0, -1, -32, 2.5, 32.5, 1e-3, math.nan, math.inf, -math.inf, None, "32", 10**400, 32j,
            object()]


def g(n):
    return 1.0 / (n + 1.0)


def params(r=0.3, theta=0.4):
    return DisplacementParams(r, theta)


# name -> call(**slot): each slot's default is valid
BUILDERS = {
    "pcs": lambda alpha=0.3, k=0.5, dim=32: pcs(alpha, k, dim),
    "bgcs": lambda alpha=0.75, k=0.5, dim=32: bgcs(alpha, k, dim),
    "nlcs": lambda alpha=0.3, k=0.5, dim=32: nlcs(alpha, k, g, dim),
    "nlcs_exponential": lambda alpha=0.3, k=0.5, dim=32: nlcs_exponential(alpha, k, g, dim),
    "dns": lambda r=0.3, theta=0.4, m=2, k=0.5, dim=32: dns(params(r, theta), m, k, dim),
    "lps": lambda order=2, r=0.3, theta=0.4, k=0.5, dim=32: lps(LpsParams(order, r, theta, k),
                                                                dim),
    "laguerre_prestate": lambda dim=32: laguerre_prestate(LpsParams(2, 0.3, 0.4, 0.5), dim),
    "nbs": lambda alpha=0.3, shape=1.0, dim=32: nbs(alpha, shape, dim),
    "squeezed_vacuum": lambda r=0.3, theta=0.4, dim=32: squeezed_vacuum(params(r, theta), dim),
    "squeezed_first": lambda r=0.3, theta=0.4, dim=32: squeezed_first(params(r, theta), dim),
    "two_mode_squeezed_vacuum": lambda r=0.3, theta=0.4, excess=1, dim=32: (
        two_mode_squeezed_vacuum(params(r, theta), excess, 1, dim)),
    "pair_coherent": lambda alpha=0.75, excess=1, dim=32: pair_coherent(alpha, excess, 1, dim),
    "StateVector": lambda k=0.5: StateVector(np.ones(4), k),
    "HolsteinPrimakoff": lambda k=0.5, dim=8: HolsteinPrimakoff(k).kplus(dim),
}
# the functions that size an array by dim, at valid k and parameters
SIZED = {
    "raising_factors": lambda dim=32, k=0.5: raising_factors(dim, k),
    "kplus_matrix": lambda dim=32, k=0.5: kplus_matrix(dim, k),
    "kminus_matrix": lambda dim=32, k=0.5: kminus_matrix(dim, k),
    "k0_matrix": lambda dim=32, k=0.5: k0_matrix(dim, k),
    "commutator_residuals": lambda dim=32, k=0.5: commutator_residuals(k, dim),
    "casimir_residual": lambda dim=32, k=0.5: casimir_residual(k, dim),
    "basis_state": lambda dim=32, k=0.5: basis_state(1, dim, k),
    "matrix_columns": lambda dim=32, k=0.5: matrix_columns([1], k, params(), dim),
    "displacement_oracle": lambda dim=32, k=0.5: displacement_oracle(k, params(), dim),
    "HolsteinPrimakoff.kplus": lambda dim: HolsteinPrimakoff(0.5).kplus(dim),
    "HolsteinPrimakoff.kminus": lambda dim: HolsteinPrimakoff(0.5).kminus(dim),
    "HolsteinPrimakoff.k0": lambda dim: HolsteinPrimakoff(0.5).k0(dim),
    "AmplitudeSquared.kplus": lambda dim: AmplitudeSquared(0).kplus(dim),
    "AmplitudeSquared.kminus": lambda dim: AmplitudeSquared(1).kminus(dim),
    "AmplitudeSquared.k0": lambda dim: AmplitudeSquared(0).k0(dim),
    "TwoMode.kplus": lambda dim: TwoMode(1).kplus(dim),
    "TwoMode.kminus": lambda dim: TwoMode(1).kminus(dim),
    "TwoMode.k0": lambda dim: TwoMode(1).k0(dim),
}
NUMBER_SLOTS = ("k", "alpha", "r", "theta", "shape")
LEVEL_SLOTS = ("m", "order", "excess")


def slots(call):
    return call.__code__.co_varnames[: call.__code__.co_argcount]


CASES = [(name, slot, value)
         for name, call in BUILDERS.items()
         for slot in slots(call)
         for value in (BAD_DIMS if slot == "dim" else BAD_NUMBERS)]
CASES += [(name, "dim", value) for name in SIZED for value in BAD_DIMS]
CASES += [(name, "k", value) for name, call in SIZED.items() if "k" in slots(call)
          for value in BAD_NUMBERS]


def label(value):
    return "object" if type(value) is object else repr(value)[:12]


def returns_or_refuses_in_one_line(call):
    try:
        call()
    except (ValueError, ConvergenceError) as exc:
        message = str(exc)
    except ZeroDivisionError as exc:
        message = str(exc)
        assert "vanishes" in message, message
    else:
        return
    assert message and "\n" not in message, message


def test_the_probe_reads_every_slot():
    read = {slot for name, slot, value in CASES}
    assert read == {"dim", *NUMBER_SLOTS, *LEVEL_SLOTS}
    assert len(CASES) == 776


@pytest.mark.parametrize("name, slot, value", CASES,
                         ids=[f"{name}-{slot}-{label(value)}" for name, slot, value in CASES])
def test_a_hostile_argument_is_refused_in_one_line(name, slot, value):
    call = {**BUILDERS, **SIZED}[name]
    returns_or_refuses_in_one_line(lambda: call(**{slot: value}))


@pytest.mark.parametrize("name", [*SIZED, *(name for name, call in BUILDERS.items()
                                            if "dim" in slots(call))])
@pytest.mark.parametrize("dim", [2.5, 32.5, 1e-3, -1, 0])
def test_a_dim_that_is_not_a_positive_integer_is_refused(name, dim):
    call = {**BUILDERS, **SIZED}[name]
    with pytest.raises(ValueError, match=f"^dim must be a positive integer, got {dim}$"):
        call(dim=dim)


@pytest.mark.parametrize("name", [*SIZED, *(name for name, call in BUILDERS.items()
                                            if "dim" in slots(call))])
def test_a_float_dim_equal_to_an_integer_gives_the_same_bits(name):
    call = {**BUILDERS, **SIZED}[name]
    as_int, as_float = call(dim=32), call(dim=32.0)
    values = [np.asarray(getattr(v, "amplitudes", getattr(v, "entries", v)))
              for v in (as_int, as_float)]
    assert values[0].dtype == values[1].dtype
    assert values[0].tobytes() == values[1].tobytes()


@pytest.mark.parametrize("dim", [1, 2, 32, np.int64(32), 32.0, np.float64(32.0), True])
def test_the_dim_gate_returns_an_int(dim):
    got = check_dim(dim)
    assert type(got) is int and got == dim


@pytest.mark.parametrize("call, message", [
    (lambda: pcs(0.3, "3", 32), "Bargmann index must be a positive real, got 3"),
    (lambda: pcs(None, 0.5, 32), "alpha must be finite"),
    (lambda: bgcs("3", 0.75, 32), "alpha must be finite"),
    (lambda: DisplacementParams("0.5"), "radial argument must be finite and >= 0, got 0.5"),
    (lambda: DisplacementParams(0.5, "1"), "theta must be finite, got 1"),
    (lambda: nbs(0.3, None, 32), "shape parameter must be finite and > 0, got None"),
    (lambda: nlcs_exponential(0.3, 0.75, g, 0), "dim must be a positive integer, got 0"),
    (lambda: raising_factors(2.5, 0.5), "dim must be a positive integer, got 2.5"),
    (lambda: k0_matrix(8.5, 0.5), "dim must be a positive integer, got 8.5"),
    (lambda: AmplitudeSquared(0).k0(2.5), "dim must be a positive integer, got 2.5"),
    (lambda: basis_state(10**400, 8, 0.5), f"level must be a nonnegative integer, got {10**400}"),
    (lambda: StateVector(np.ones(4), 0.5j), "Bargmann index must be a positive real, got 0.5j"),
])
def test_each_gate_keeps_its_own_refusal(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_call_texts_print_the_gated_values():
    with pytest.raises(ConvergenceError, match=r"^pcs\(alpha=\(0\.99\+0j\), k=1\.0, dim=8\): "):
        pcs(np.float64(0.99), 1, 8.0)
    with pytest.raises(ConvergenceError, match=r"^nbs\(alpha=\(0\.99\+0j\), shape=2\.0, dim=8\): "):
        nbs(0.99, 2, np.int64(8))
