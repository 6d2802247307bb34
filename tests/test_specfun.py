import itertools
import math
import random
from fractions import Fraction

import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from su11.specfun import (
    _hyp2f1_rows,
    bessel_i,
    hyp2f1_terminating,
    laguerre,
    pochhammer,
)


def hyp2f1_ratio(m, n, c, z):
    """2F1(-m, -n; c; z) for integers m, n >= 0 as the contiguous walk's unreduced integer
    ratio: row min(m, n) of column max(m, n)."""
    return next(itertools.islice(_hyp2f1_rows(max(m, n), c, z), min(m, n), None))


def hyp2f1_terminating_exact(m, n, c, z):
    """2F1(-m, -n; c; z) for integers m, n >= 0 as the Fraction of the contiguous walk's ratio."""
    return Fraction(*hyp2f1_ratio(m, n, c, z))


class TestPochhammer:
    def test_spot_values(self):
        assert pochhammer(7.3, 0) == 1.0
        assert pochhammer(-2.0, 3) == 0.0
        assert pochhammer(0.5, 3) == pytest.approx(1.875, rel=1e-15)

    @given(
        x=st.floats(-5.0, 5.0, allow_nan=False),
        n=st.integers(0, 30),
    )
    @settings(max_examples=80, deadline=None)
    def test_recurrence(self, x, n):
        left = pochhammer(x, n + 1)
        right = pochhammer(x, n) * (x + n)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-280)


class TestTerminatingHyp2f1:
    def test_degenerate_cases(self):
        assert hyp2f1_terminating(0, 9, 1.3, -4.2) == 1.0
        assert hyp2f1_terminating(4, 0, 0.7, 2.0) == 1.0
        assert hyp2f1_terminating(1, 1, 1.0, 0.35) == pytest.approx(1.35, rel=1e-15)

    def test_known_value(self):
        assert hyp2f1_terminating(2, 1, 0.5, -3.0) == pytest.approx(-11.0, rel=1e-14)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError, match="lower parameter must be positive, got 0.0"):
            hyp2f1_terminating(2, 2, 0.0, 1.0)

    @pytest.mark.parametrize("m, n", [(-1, 2), (2, -1)])
    def test_rejects_negative_orders(self, m, n):
        with pytest.raises(ValueError, match=rf"orders must be >= 0, got \({m}, {n}\)"):
            hyp2f1_terminating(m, n, 1.5, 0.5)

    @given(
        m=st.integers(0, 10),
        n=st.integers(0, 10),
        c=st.floats(0.3, 6.0, allow_nan=False),
        z=st.floats(-50.0, 0.9, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_in_upper_indices(self, m, n, c, z):
        assert hyp2f1_terminating(m, n, c, z) == hyp2f1_terminating(n, m, c, z)

    @given(
        m=st.integers(0, 12),
        n=st.integers(0, 12),
        c=st.floats(0.3, 6.0, allow_nan=False),
        z=st.floats(-50.0, 0.9, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_scipy(self, m, n, c, z):
        ours = hyp2f1_terminating(m, n, c, z)
        ref = sp.hyp2f1(-m, -n, c, z)
        assert ours == pytest.approx(ref, rel=1e-8, abs=1e-8)


def _per_term_fraction_sum(m, n, c, z):
    """The terminating series summed term by term, one reduced Fraction per term."""
    zf = Fraction(z)
    cf = Fraction(c)
    term = Fraction(1)
    total = Fraction(1)
    for q in range(min(m, n)):
        term *= Fraction((m - q) * (n - q), q + 1) * zf / (cf + q)
        total += term
    return total


def _displacement_arguments(count):
    """Seeded (m, n, c, z) draws at the arguments the displacement elements use."""
    rng = random.Random(1)
    for _ in range(count):
        r = 10.0 ** rng.uniform(-3.0, math.log10(2.0))
        # the general element's argument, or the parity sector's
        if rng.random() < 0.5:
            z = 1.0 - 1.0 / math.tanh(r) ** 2
        else:
            z = -1.0 / math.sinh(r) ** 2
        c = 2.0 * rng.choice((0.25, 0.5, 0.75, 1.7, 2.0))
        yield rng.randint(0, 150), rng.randint(0, 150), c, z


class TestExactHyp2f1:
    def test_same_rational_as_the_per_term_sum(self):
        for m, n, c, z in _displacement_arguments(400):
            assert hyp2f1_terminating_exact(m, n, c, z) == _per_term_fraction_sum(m, n, c, z)

    def test_float_is_the_exact_value_rounded_once(self):
        # past the float range both raise OverflowError
        outcomes = set()
        for m, n, c, z in _displacement_arguments(400):
            try:
                want = float(hyp2f1_terminating_exact(m, n, c, z))
            except OverflowError:
                with pytest.raises(OverflowError):
                    hyp2f1_terminating(m, n, c, z)
                outcomes.add("overflow")
            else:
                assert hyp2f1_terminating(m, n, c, z) == want
                outcomes.add("finite")
        assert outcomes == {"overflow", "finite"}

    def test_takes_integer_arguments(self):
        assert hyp2f1_terminating_exact(2, 1, 1, -3) == Fraction(-5)


def horner_ratio(m, n, c, z):
    """2F1(-m, -n; c; z) nested from its innermost term out, 1 + a_0 (1 + a_1 (...)), in
    integers: the one-pass sum the contiguous walk replaced, kept as its reference."""
    z_num, z_den = z.as_integer_ratio()
    c_num, c_den = c.as_integer_ratio()
    num = den = 1
    for i in reversed(range(min(m, n))):
        step = (i + 1) * z_den * (c_num + i * c_den)
        num = step * den + (m - i) * (n - i) * z_num * c_den * num
        den *= step
    return num, den


class TestContiguousWalk:
    """The walk down a column yields the one-pass sum's unreduced integers, not
    just its value."""

    def test_the_one_pass_integers_in_both_orders(self):
        rng = random.Random(11)
        draws = 0
        for c_kind, z_kind, _ in itertools.product(range(5), range(4), range(3)):
            c = (5e-324, 1e-300, 0.5, 1.5, rng.uniform(0.01, 6.0))[c_kind]
            z = (0.0, 1.0, -(10.0 ** rng.uniform(-3.0, 3.0)), rng.uniform(0.0, 3.0))[z_kind]
            m, n = rng.randint(0, 150), rng.randint(0, 150)
            want = horner_ratio(m, n, c, z)
            assert hyp2f1_ratio(m, n, c, z) == want, (m, n, c, z)
            assert hyp2f1_ratio(n, m, c, z) == want, (n, m, c, z)
            draws += 1
        assert draws == 60

    @pytest.mark.parametrize("c", [0.5, 1.7, 3, Fraction(2, 3)])
    def test_every_row_of_a_column(self, c):
        # an int or a Fraction: a denominator that is 1, or not a power of two
        for z in (0.0, 1.0, -3.25, 0.4, -2, Fraction(-5, 7)):
            for hi in (0, 1, 2, 17, 40):
                rows = list(itertools.islice(_hyp2f1_rows(hi, c, z), hi + 1))
                assert rows == [horner_ratio(lo, hi, c, z) for lo in range(hi + 1)]


class TestBesselI:
    def test_zero_argument(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.0, 0.0) == 0.0
        assert bessel_i(2.5, 0.0) == 0.0
        with pytest.raises(ValueError):
            bessel_i(-0.5, 0.0)

    def test_against_scipy_spot(self):
        assert bessel_i(1.0, 2.0) == pytest.approx(sp.iv(1.0, 2.0), rel=1e-12)
        # the order -1/2 case backs the smallest Bargmann index
        assert bessel_i(-0.5, 2.0) == pytest.approx(sp.iv(-0.5, 2.0), rel=1e-12)

    @pytest.mark.parametrize("nu, x, rel", [(5000.0, 3000.0, 1e-11), (400.0, 50.0, 1e-12)])
    def test_where_the_first_term_underflows(self, nu, x, rel):
        # the first term (x/2)^nu / Gamma(nu + 1) is e^-1025 (0.0) and e^-711 (subnormal), I is
        # 2.2e-258 and 1.1e-309; ln Gamma(5001) is 3.8e4, so its rounding alone allows ~1e-11
        assert bessel_i(nu, x) == pytest.approx(sp.iv(nu, x), rel=rel, abs=0.0)

    @pytest.mark.parametrize("nu, x", [(10000.0, 6000.0), (20000.0, 12000.0)])
    def test_where_the_series_overflows_and_i_underflows(self, nu, x):
        # at (10000, 6000) the first term is e^-2045 and the series e^882: I is e^-1163, 0.0
        assert bessel_i(nu, x) == sp.iv(nu, x) == 0.0

    def test_where_the_series_overflows_and_i_does_not(self):
        # the first term is e^-1040 and the series e^1040: the series is summed in log scale
        assert bessel_i(10000.0, 6630.0) == pytest.approx(sp.iv(10000.0, 6630.0), rel=1e-10)

    @pytest.mark.parametrize("nu, x, message", [(math.nan, 1.0, "order must exceed -1, got nan"),
                                                 (1.0, math.nan, "argument must be >= 0, got nan")])
    def test_refuses_nan_by_name(self, nu, x, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            bessel_i(nu, x)

    def test_refuses_a_series_it_cannot_sum(self):
        # the terms grow up to q ~ 3.5e8; summing only the first 10,001 would return 0.0
        with pytest.raises(ValueError, match="not converged after 10,001 terms"):
            bessel_i(1e9, 7e8)

    @given(
        nu=st.floats(-0.9, 5.0, allow_nan=False),
        x=st.floats(0.01, 30.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_scipy(self, nu, x):
        assert bessel_i(nu, x) == pytest.approx(sp.iv(nu, x), rel=1e-10)

    @given(
        nu=st.floats(0.25, 5.0, allow_nan=False),
        x=st.floats(0.1, 20.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_recurrence(self, nu, x):
        lhs = bessel_i(nu - 1.0, x) - bessel_i(nu + 1.0, x)
        rhs = (2.0 * nu / x) * bessel_i(nu, x)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestLaguerre:
    def test_degenerate_cases(self):
        assert laguerre(0, 4.2) == 1.0
        assert laguerre(5, 0.0) == 1.0

    def test_quadratic(self):
        x = 0.37
        assert laguerre(2, x) == pytest.approx(1.0 - 2.0 * x + x * x / 2.0, rel=1e-14)

    def test_against_scipy(self):
        for order in (1, 3, 7, 15):
            for x in (-2.0, 0.5, 3.3, 9.0):
                assert laguerre(order, x) == pytest.approx(
                    sp.eval_laguerre(order, x), rel=1e-10, abs=1e-12
                )

    def test_complex_argument(self):
        z = 0.4 + 0.9j
        expected = 1.0 - 2.0 * z + z * z / 2.0
        assert laguerre(2, z) == pytest.approx(expected, rel=1e-13)

    @given(
        order=st.integers(1, 40),
        x=st.floats(-10.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_exact_rational_sum(self, order, x):
        # every float is a rational, so the explicit sum is computable
        # exactly; this oracle shares no arithmetic with the recurrence
        xf = Fraction(x)
        exact = sum(
            (-xf) ** q * math.comb(order, q) / Fraction(math.factorial(q))
            for q in range(order + 1)
        )
        assert laguerre(order, x) == pytest.approx(float(exact), rel=1e-12, abs=1e-12)
