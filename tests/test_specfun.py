import itertools
import math
import random
from fractions import Fraction

import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from su11.algebra import _ln_binomials
from su11.specfun import _bessel_i_series, _hyp2f1_row, _hyp2f1_rows, _ln_ratio


def exact_row(m, n, c, z):
    """2F1(-m, -n; c; z) for integers m, n >= 0 as the Fraction of the contiguous walk's ratio."""
    return Fraction(*_hyp2f1_row(m, n, c, z))


class TestTerminatingHyp2f1:
    def test_degenerate_cases(self):
        assert exact_row(0, 9, 1.3, -4.2) == 1
        assert exact_row(4, 0, 0.7, 2.0) == 1
        assert exact_row(1, 1, 1.0, 0.35) == 1 + Fraction(0.35)

    def test_known_value(self):
        assert exact_row(2, 1, 0.5, -3.0) == -11

    @given(
        m=st.integers(0, 12),
        n=st.integers(0, 12),
        c=st.floats(0.3, 6.0, allow_nan=False),
        z=st.floats(-50.0, 0.9, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_scipy(self, m, n, c, z):
        ours = float(exact_row(m, n, c, z))
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
            assert exact_row(m, n, c, z) == _per_term_fraction_sum(m, n, c, z)

    def test_log_follows_the_exact_value_past_the_float_range(self):
        mpmath = pytest.importorskip("mpmath")
        outcomes = set()
        for m, n, c, z in _displacement_arguments(400):
            num, den = _hyp2f1_row(m, n, c, z)
            sign, ln = _ln_ratio(num, den)
            assert sign == (num > 0) - (num < 0)
            if num:
                with mpmath.workdps(30):
                    want = float(mpmath.log(abs(mpmath.mpf(num)) / den))
                assert ln == pytest.approx(want, rel=1e-15, abs=1e-15)
                outcomes.add("overflow" if want > math.log(2.0) * 1024 else "finite")
        assert outcomes == {"overflow", "finite"}

    def test_takes_integer_arguments(self):
        assert exact_row(2, 1, 1, -3) == Fraction(-5)


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
            assert _hyp2f1_row(m, n, c, z) == want, (m, n, c, z)
            assert _hyp2f1_row(n, m, c, z) == want, (n, m, c, z)
            draws += 1
        assert draws == 60

    @pytest.mark.parametrize("c", [0.5, 1.7, 3, Fraction(2, 3)])
    def test_every_row_of_a_column(self, c):
        # an int or a Fraction: a denominator that is 1, or not a power of two
        for z in (0.0, 1.0, -3.25, 0.4, -2, Fraction(-5, 7)):
            for hi in (0, 1, 2, 17, 40):
                rows = list(itertools.islice(_hyp2f1_rows(hi, c, z), hi + 1))
                assert rows == [horner_ratio(lo, hi, c, z) for lo in range(hi + 1)]


def ln_bessel_series_scipy(c, x):
    """ln sum_q x^{2q} / (q! (c)_q) from scipy: ln I_{c-1}(2x) - (c - 1) ln x + ln Gamma(c)."""
    return math.log(sp.iv(c - 1.0, 2.0 * x)) - (c - 1.0) * math.log(x) + math.lgamma(c)


def ln_add(a, b):
    """ln(e^a + e^b) without leaving the float range."""
    hi, lo = max(a, b), min(a, b)
    return hi + math.log1p(math.exp(lo - hi))


def contiguous_gap(c, x):
    """|ln S_c - ln(S_{c+1} + x^2 S_{c+2} / (c (c + 1)))| for S the summed series."""
    s0, s1, s2 = (_bessel_i_series(c + i, x) for i in range(3))
    return abs(s0 - ln_add(s1, s2 + 2.0 * math.log(x) - math.log(c) - math.log1p(c)))


class TestBesselSeries:
    """`_bessel_i_series(c, x)` is ln S_c(x), S_c(x) = sum_q x^{2q} / (q! (c)_q) = 0F1(; c; x^2):
    I_{c-1}(2x) over its first term."""

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.5, 1e4])
    def test_zero_argument(self, c):
        assert _bessel_i_series(c, 0.0) == 0.0

    def test_against_scipy_spot(self):
        assert _bessel_i_series(2.0, 1.0) == pytest.approx(ln_bessel_series_scipy(2.0, 1.0),
                                                           rel=0.0, abs=1e-12)
        # c = 1/2 backs the smallest Bargmann index
        assert _bessel_i_series(0.5, 1.0) == pytest.approx(ln_bessel_series_scipy(0.5, 1.0),
                                                           rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("nu, y, gap", [(400.0, 50.0, 1e-12), (5000.0, 3000.0, 1e-11),
                                            (10000.0, 6630.0, 1e-10)])
    def test_large_orders_against_scipy(self, nu, y, gap):
        # I_nu(y)'s first term (y/2)^nu / Gamma(nu + 1) is subnormal, e^-1025 and e^-1040, and
        # at (10000, 6630) the series is e^1040; ln Gamma(10001) is 8.2e4, so its rounding alone
        # allows ~1e-11 in the reference
        x = 0.5 * y
        assert abs(_bessel_i_series(nu + 1.0, x) - ln_bessel_series_scipy(nu + 1.0, x)) < gap

    @pytest.mark.parametrize("nu, y", [(10000.0, 6000.0), (20000.0, 12000.0)])
    def test_where_the_series_overflows_and_i_underflows(self, nu, y):
        # scipy's I_nu(y) is 0.0 here: the reference is 0F1 itself, at 40 digits
        mpmath = pytest.importorskip("mpmath")
        x = 0.5 * y
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.hyp0f1(nu + 1.0, mpmath.mpf(x) ** 2)))
        assert want > 709.0
        assert _bessel_i_series(nu + 1.0, x) == pytest.approx(want, rel=0.0, abs=1e-12)

    @given(
        nu=st.floats(-0.9, 5.0, allow_nan=False),
        x=st.floats(0.005, 15.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_scipy(self, nu, x):
        assert abs(_bessel_i_series(nu + 1.0, x) - ln_bessel_series_scipy(nu + 1.0, x)) < 1e-10

    @pytest.mark.parametrize("x", [1e-3, 1.0, 2.0, 10.0, 100.0, 1000.0])
    def test_closed_forms(self, x):
        # S_{1/2} = cosh 2x and S_{3/2} = sinh(2x) / (2x): the k = 1/4 and 3/4 of the two-photon
        # states, and what no contiguous relation can see, a common scale
        y = 2.0 * x
        ln_cosh = y - math.log(2.0) + math.log1p(math.exp(-2.0 * y))
        ln_sinh_over_y = y - math.log(2.0) + math.log1p(-math.exp(-2.0 * y)) - math.log(y)
        assert abs(_bessel_i_series(0.5, x) - ln_cosh) < 1e-12
        assert abs(_bessel_i_series(1.5, x) - ln_sinh_over_y) < 1e-12

    @pytest.mark.parametrize("c, x", [(1e-300, 1.0), (1e-300, 1e3), (5e-324, 2.0),
                                      (0.5, 1e3), (4.0, 1e3), (1e3, 1e3)])
    def test_contiguous_relation_at_the_extremes(self, c, x):
        assert contiguous_gap(c, x) < 1e-12

    @given(
        c=st.floats(1e-300, 50.0, allow_nan=False),
        x=st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_contiguous_relation(self, c, x):
        assert contiguous_gap(c, x) < 1e-12


class TestLnBinomials:
    @pytest.mark.parametrize("k", [1e-3, 0.25, 0.35, 2.75, 50.0])
    def test_against_the_exact_product(self, k):
        # C(2k + c - 1, c) = prod_{i<c} (2k + i) / (i + 1), exactly, at 2k = p/q
        p, q = (2.0 * k).as_integer_ratio()
        num = den = 1
        for c, ln_binomial in enumerate(_ln_binomials(151, k).tolist()):
            assert abs(ln_binomial - _ln_ratio(num, den)[1]) < 1e-12, c
            num, den = num * (p + c * q), den * q * (c + 1)
