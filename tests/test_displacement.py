import cmath
import itertools
import math
import random
import re
import sys
import threading
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11 import displacement
from su11.algebra import StateVector, basis_state, check_level, kplus_matrix
from su11.displacement import (
    DisplacementParams,
    MatrixElementTable,
    _closed_form_rows,
    _column,
    _column_rows,
    _ln_binomials,
    _ln_cosh,
    _parity,
    _walk,
    column_norm_deficits,
    decomposed_apply,
    displacement_oracle,
    matrix_columns,
    matrix_element_hyp,
    matrix_element_sum,
)
from su11.specfun import _hyp2f1_rows
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

    def test_theta_in_the_interval_kept_bit_for_bit(self):
        for theta in (0.0, -0.0, 1e-300, 0.7, -0.5, math.pi, math.nextafter(-math.pi, 0.0)):
            got = DisplacementParams(1.0, theta).theta
            assert (got, math.copysign(1.0, got)) == (theta, math.copysign(1.0, theta))

    @pytest.mark.parametrize(
        "theta", [3.2, -3.2, 4.0, 3.0 * math.pi, -7.5, 1e6, -1e10, 1e15, 2.0**60, 1e308, -1e308]
    )
    def test_theta_beyond_the_interval_reduced_exactly(self, theta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(400):  # 1e308 / (2 pi) has 308 digits before the point
            x = mpmath.mpf(theta)
            want = float(x - 2 * mpmath.pi * mpmath.nint(x / (2 * mpmath.pi)))
        got = DisplacementParams(0.5, theta).theta
        assert -math.pi < got <= math.pi
        assert abs(got - want) <= 4e-16

    def test_argument_forms(self):
        p = DisplacementParams(0.8, 0.3)
        assert p.alpha == pytest.approx(math.tanh(0.8) * cmath.exp(0.3j))

    def test_disc_round_trip(self):
        p = DisplacementParams(1.0, -0.7)
        assert math.atanh(abs(p.alpha)) == pytest.approx(p.r, rel=1e-12)
        assert cmath.phase(p.alpha) == pytest.approx(p.theta, rel=1e-12)

    def test_disc_inverse_known_value(self):
        # tanh(1) = 0.76159...
        assert DisplacementParams(1.0).alpha == pytest.approx(0.7615941559557649, rel=1e-15)


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

    @pytest.mark.parametrize(
        "element", [matrix_element_sum, matrix_element_hyp], ids=["sum", "hyp"]
    )
    def test_transpose_symmetry_is_exact(self, element):
        # at theta = 0, <m|S|n> = (-1)^{n-m} <n|S|m>: both read one cached row, bit for bit
        rng = random.Random(20)
        for i in range(300):
            if i < 10:  # 2k with a 2^1074 denominator makes every integer long and a draw slow
                k = (5e-324, 1e-300)[i % 2]
            else:
                k = rng.choice((0.25, 0.5, 2.0, rng.uniform(0.1, 3.0)))
            r = 10.0 ** rng.uniform(-3.0, math.log10(2.0))
            n, m = rng.randint(0, 150), rng.randint(0, 150)
            p = DisplacementParams(r)
            assert element(m, n, k, p) == (-1) ** (n - m) * element(n, m, k, p), (n, m, k, r)

    def test_conjugation_symmetry(self):
        # S(-xi) = S(xi)^dagger entrywise
        p = DisplacementParams(0.7, 0.4)
        q = DisplacementParams(0.7, 0.4 + math.pi)
        for n in range(5):
            for m in range(5):
                a = matrix_element_sum(n, m, 0.75, p)
                b = matrix_element_sum(m, n, 0.75, q)
                assert a == pytest.approx(b.conjugate(), rel=1e-12, abs=1e-15)


def fraction_matrix_element_hyp(n, m, k, params):
    """The closed form read through the reduced Fraction, its lgamma values taken one by one,
    in (min(n, m), max(n, m)) order: the reference for the element's reading of the unreduced
    integer ratio.  Returns the element and whether |2F1| was shifted back into the float
    range."""
    t = math.tanh(params.r)
    rows = _hyp2f1_rows(max(n, m), 2.0 * k, 1.0 - 1.0 / (t * t))
    f = Fraction(*next(itertools.islice(rows, min(n, m), None)))
    if f == 0:
        return 0j, False
    # past 2^1000, shift back by floor(log2 |f|) - 1000: a property of the rational alone
    floor_log2 = abs(f.numerator).bit_length() - f.denominator.bit_length()
    if abs(f) < Fraction(2) ** floor_log2:
        floor_log2 -= 1
    shift = max(0, floor_log2 - 1000)
    ln_f = math.log(abs(f) / 2**shift) + shift * math.log(2.0)
    lo, hi = min(n, m), max(n, m)
    ln_pref = (
        0.5
        * (
            math.lgamma(2.0 * k + lo)
            + math.lgamma(2.0 * k + hi)
            - math.lgamma(lo + 1.0)
            - math.lgamma(hi + 1.0)
        )
        - math.lgamma(2.0 * k)
        - 2.0 * k * _ln_cosh(params.r)
        + (n + m) * math.log(t)
    )
    mag = math.exp(ln_pref + ln_f)
    sign = (1.0 if f > 0 else -1.0) * (1.0 if m % 2 == 0 else -1.0)
    return complex(mag * sign * np.exp(1j * ((n - m) * params.theta))), shift > 0


class TestClosedFormReading:
    def test_bit_identical_to_the_reduced_fraction(self):
        rng = random.Random(9)
        shifted = set()
        for i in range(1040):
            # 2k with a 2^1074 denominator makes every integer long and a draw slow
            if i < 40:
                k = (5e-324, 1e-300)[i % 2]
            else:
                k = rng.choice((0.25, 0.5, 2.0, rng.uniform(0.1, 3.0)))
            r = rng.choice((0.05, 10.0 ** rng.uniform(-2.0, math.log10(2.0))))
            n, m = rng.randint(0, 150), rng.randint(0, 150)
            p = DisplacementParams(r, rng.uniform(-3.1, 3.1))
            want, past_range = fraction_matrix_element_hyp(n, m, k, p)
            assert matrix_element_hyp(n, m, k, p) == want, (n, m, k, r)
            shifted.add(past_range)
        # both the plain reading and the shift back from past the float range
        assert shifted == {False, True}


def per_element_sum(n, m, k, params):
    """`matrix_element_sum` walking column max(n, m) afresh for every element:
    the reference for the cached columns."""
    if params.r == 0.0:
        return complex(1.0 if n == m else 0.0)
    col, row, sign = (m, n, 1.0) if n <= m else (n, m, _parity(n - m))
    walk = _walk(col, k, params.r, float(_ln_binomials(col + 1, k)[col]))
    v, ln_v = next(itertools.islice(walk, row, None))
    return complex(sign * v * np.exp(ln_v) * np.exp(1j * ((n - m) * params.theta)))


def sum_column(c, k, r):
    """The sum route's cached column c at (k, r): its rows, walked to its diagonal."""
    return _column(_column_rows, c, k, r)


def hyp_column(c, k, r):
    """The closed form's cached column c at (k, r): its rows, walked to its diagonal."""
    return _column(_closed_form_rows, c, k, r)


def element_caches():
    """Every `functools.lru_cache` of the displacement module, found, not listed."""
    return [f for f in vars(displacement).values() if hasattr(f, "cache_clear")]


def clear_element_caches():
    for cache in element_caches():
        cache.cache_clear()


class TestSharedWork:
    """Both scalar routes cache each column's finished rows, walked once to its diagonal, in
    one cache of 512 columns; every element stays what a fresh per-element evaluation gives
    (`per_element_sum`, and `fraction_matrix_element_hyp`, bit for bit the uncached closed
    form)."""

    def test_bit_identical_to_per_element_evaluation(self):
        clear_element_caches()
        rng = random.Random(10)
        # r = 0.05 puts |2F1| past the float range at high levels: the shift branch
        configs = [(0.25, 0.05, 0.3), (0.5, 0.7, -2.0), (1.7, 1.9, 1.1), (rng.uniform(0.1, 3), 0.3, 2)]
        streams = []
        for k, r, theta in configs:
            levels = sorted(rng.sample(range(151), 11))
            grid = [(n, m) for n in levels for m in levels]
            shuffled = rng.sample(grid, len(grid))
            by_column = [(n, m) for m in levels for n in levels]
            streams.append([(n, m, k, r, theta) for n, m in grid + by_column + shuffled])
        # the certify access pattern: a dense 21 x 21 corner read row by row, fresh (k, r)
        k, r, theta = rng.uniform(0.25, 2.0), rng.uniform(0.1, 1.0), rng.uniform(-3.1, 3.1)
        streams.append([(n, m, k, r, theta) for n in range(21) for m in range(21)])
        draws = [d for group in itertools.zip_longest(*streams) for d in group if d]
        # 300 columns more than evict every cached walk; then the first draws again
        flood = [(rng.randint(0, m), m, k, 0.4, 0.0) for k in (0.3, 2.5) for m in range(150)]
        draws += flood + draws[:200]
        assert len(draws) >= 1000
        shifted = set()
        for n, m, k, r, theta in draws:
            p = DisplacementParams(r, theta)
            assert matrix_element_sum(n, m, k, p) == per_element_sum(n, m, k, p), (n, m, k, r)
            want, past_range = fraction_matrix_element_hyp(n, m, k, p)
            assert matrix_element_hyp(n, m, k, p) == want, (n, m, k, r)
            shifted.add(past_range)
        assert shifted == {False, True}
        # per route 4 x 11 + 21 columns and 300 flooding ones, more than the 512 cached:
        # evicted ones are walked again
        assert _column.cache_info().misses > 2 * (65 + 300)
        assert _column.cache_info().currsize == 512

    @pytest.mark.parametrize("k, r, theta", [(0.75, 0.6, 0.9), (0.25, 1.4, -2.2), (2.0, 0.2, 0.1)])
    def test_threads_read_the_serial_values(self, k, r, theta):
        p = DisplacementParams(r, theta)
        cells = [(n, m) for n in range(21) for m in range(21)]
        serial = [(per_element_sum(n, m, k, p), fraction_matrix_element_hyp(n, m, k, p)[0]) for n, m in cells]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: mid-extension, too
        try:
            for round_ in range(4):
                clear_element_caches()
                got = {}

                def read(i):
                    order = random.Random(10 * round_ + i).sample(cells, len(cells))
                    got[i] = {(n, m): (matrix_element_sum(n, m, k, p),
                                       matrix_element_hyp(n, m, k, p)) for n, m in order}

                threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert len(got) == 4
                for values in got.values():
                    assert [values[cell] for cell in cells] == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "element, column_of, reference",
        [
            (matrix_element_sum, lambda c: sum_column(c, 1.25, 0.5), per_element_sum),
            (matrix_element_hyp, lambda c: hyp_column(c, 1.25, 0.5),
             lambda *a: fraction_matrix_element_hyp(*a)[0]),
        ],
        ids=["sum", "hyp"],
    )
    def test_a_lone_element_walks_its_column_to_the_diagonal(
        self, element, column_of, reference
    ):
        # the trade for one walk per column: a read far off the diagonal walks the whole column
        clear_element_caches()
        p = DisplacementParams(0.5, 0.2)
        assert element(0, 40, 1.25, p) == reference(0, 40, 1.25, p)
        assert len(column_of(40)) == 41 and _column.cache_info().misses == 1
        for n in (0, 5, 31, 40):  # rows of column 40, read from below the diagonal too
            assert element(40, n, 1.25, p) == reference(40, n, 1.25, p)
            assert element(n, 40, 1.25, p) == reference(n, 40, 1.25, p)
        assert _column.cache_info().misses == 1
        element(0, 10, 1.25, p)
        assert len(column_of(10)) == 11 and _column.cache_info().misses == 2

    def test_a_corner_walks_each_column_once_to_its_diagonal(self, monkeypatch):
        clear_element_caches()
        walks = {"_column_rows": [], "_closed_form_rows": []}
        for name, walked in walks.items():

            def counted(col, k, r, rows=getattr(displacement, name), walked=walked):
                walk = [col, 0]  # the column and the rows walked so far
                walked.append(walk)
                for value in rows(col, k, r):
                    walk[1] += 1
                    yield value

            monkeypatch.setattr(displacement, name, counted)
        k, p = 0.81, DisplacementParams(0.37, 0.2)
        cells = [(n, m) for n in range(21) for m in range(21)]
        first = {(n, m): (matrix_element_sum(n, m, k, p), matrix_element_hyp(n, m, k, p))
                 for n, m in cells}
        diagonals = [[c, c + 1] for c in range(21)]
        assert walks == {"_column_rows": diagonals, "_closed_form_rows": diagonals}
        # read again column by column and shuffled: every read is of a cached column
        for n, m in [(n, m) for m, n in cells] + random.Random(24).sample(cells, len(cells)):
            assert (matrix_element_sum(n, m, k, p), matrix_element_hyp(n, m, k, p)) == first[n, m]
        assert walks == {"_column_rows": diagonals, "_closed_form_rows": diagonals}

    def test_a_read_behind_the_walk_reads_its_kept_row(self, monkeypatch):
        clear_element_caches()
        p = DisplacementParams(0.3, -1.0)
        for n in (9, 30):
            matrix_element_hyp(n, 30, 0.75, p)
        rows = hyp_column(30, 0.75, 0.3)
        assert len(rows) == 31
        monkeypatch.setattr(displacement, "_hyp2f1_rows", None)  # no walk is started again
        for n in (4, 9, 30, 12, 0):
            want = fraction_matrix_element_hyp(30, n, 0.75, p)[0]
            assert matrix_element_hyp(30, n, 0.75, p) == want
        assert len(rows) == 31

    @pytest.mark.parametrize("r", [0.05, 0.5, 1.0])
    def test_the_closed_form_takes_no_gcd(self, monkeypatch, r):
        # at k = 5e-324 every 2F1 row past row 0 of column 150 holds ~10^5-bit integers whose
        # ratio passes 2^1000: each row walked is shifted back from its bit lengths, unreduced
        clear_element_caches()
        gcds = []

        def gcd(*args):
            gcds.append(args)
            return math.gcd(*args)

        counting_math = types.SimpleNamespace(**{**vars(math), "gcd": gcd})
        monkeypatch.setattr(displacement, "math", counting_math)
        p = DisplacementParams(r, 0.4)
        for n, m in ((0, 150), (150, 150), (77, 150)):
            assert matrix_element_hyp(n, m, 5e-324, p) == fraction_matrix_element_hyp(
                n, m, 5e-324, p)[0]
        assert len(hyp_column(150, 5e-324, r)) == 151
        assert gcds == []

    @pytest.mark.parametrize(
        "walker, element, reference",
        [
            ("_walk", matrix_element_sum, per_element_sum),
            ("_hyp2f1_rows", matrix_element_hyp, lambda *a: fraction_matrix_element_hyp(*a)[0]),
        ],
        ids=["sum", "hyp"],
    )
    def test_a_walk_an_exception_cut_short_is_walked_afresh(
        self, monkeypatch, walker, element, reference
    ):
        clear_element_caches()
        p = DisplacementParams(0.6, 0.5)
        walk = getattr(displacement, walker)

        def interrupted(*args):
            yield from itertools.islice(walk(*args), 3)
            raise KeyboardInterrupt

        monkeypatch.setattr(displacement, walker, interrupted)
        with pytest.raises(KeyboardInterrupt):
            element(5, 12, 0.75, p)
        monkeypatch.undo()
        for n in (5, 2, 7, 12):
            assert element(n, 12, 0.75, p) == reference(n, 12, 0.75, p)

    def test_caches_stay_at_their_bound(self):
        clear_element_caches()
        assert element_caches() == [_column]  # the module's one cache
        p = DisplacementParams(0.4, 0.0)
        for m in range(300):
            matrix_element_sum(0, m, 0.5, p)
        for m in range(100):
            matrix_element_hyp(0, m, 0.5, p)
        for i in range(1, 71):  # 70 more (k, r) a column each
            matrix_element_hyp(1, 2, 0.5, DisplacementParams(0.4 + i / 100))
            matrix_element_sum(1, 2, 0.5 + i / 100, p)
        info = _column.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (540, 512, 512)
        # within a (k, r) too: the last 512 columns read, and no more, are read again unwalked;
        # on the sum route, as walking 1100 closed-form columns to their diagonals is slow
        p = DisplacementParams(1.09, 0.3)
        for m in range(1100):
            matrix_element_sum(0, m, 0.5, p)
        misses = _column.cache_info().misses
        for m in reversed(range(1100 - 512, 1100)):
            matrix_element_sum(0, m, 0.5, p)
        assert _column.cache_info().misses == misses
        matrix_element_sum(0, 1100 - 513, 0.5, p)
        assert _column.cache_info().misses == misses + 1
        for top in (1023, 1024, 1500):  # at high levels the same bits as the reference
            assert matrix_element_sum(3, top, 0.5, p) == per_element_sum(3, top, 0.5, p)
            want = fraction_matrix_element_hyp(3, top, 0.5, p)[0]
            assert matrix_element_hyp(3, top, 0.5, p) == want


BAD_K = [
    (math.nan, ValueError, "Bargmann index must be a positive real, got nan"),
    (math.inf, ValueError, "Bargmann index must be a positive real, got inf"),
    (-math.inf, ValueError, "Bargmann index must be a positive real, got -inf"),
    (0, ValueError, "Bargmann index must be a positive real, got 0.0"),
    (-1, ValueError, "Bargmann index must be a positive real, got -1.0"),
    (1e301, ValueError, "Bargmann index too large: ln Gamma(2k) overflows, 2k = 2e+301"),
    ("0.5", ValueError, "Bargmann index must be a positive real, got 0.5"),
]
BAD_LEVELS = [
    (-1, 10, "n must be a nonnegative integer, got -1"),
    (2.5, 10, "n must be a nonnegative integer, got 2.5"),
    ("3", 10, "n must be a nonnegative integer, got 3"),
    (3, -1, "m must be a nonnegative integer, got -1"),
    (3, 2.5, "m must be a nonnegative integer, got 2.5"),
    (3, "3", "m must be a nonnegative integer, got 3"),
    (-1, "3", "n must be a nonnegative integer, got -1"),
]


@pytest.mark.parametrize("element", [matrix_element_sum, matrix_element_hyp], ids=["sum", "hyp"])
class TestRefusalsSurviveAWarmCache:
    """A cached column or (k, r) entry vouches only for the k it was made with: a bad
    argument read straight after valid reads of the same column is refused as on a cold
    cache, levels first, then k, then r."""

    @staticmethod
    def warm(element, p):
        for n, m in ((3, 10), (10, 3), (0, 10)):
            element(n, m, 0.5, p)

    @pytest.mark.parametrize("k, error, message", BAD_K)
    def test_bad_index(self, element, k, error, message):
        p = DisplacementParams(0.5, 0.3)
        self.warm(element, p)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            element(3, 10, k, p)
        for r in (1e-200, 0.0):  # the index outranks r: below 1e-150 and at 0
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                element(3, 10, k, DisplacementParams(r))

    @pytest.mark.parametrize("n, m, message", BAD_LEVELS)
    def test_bad_level(self, element, n, m, message):
        p = DisplacementParams(0.5, 0.3)
        self.warm(element, p)
        for k in (0.5, math.nan):  # the levels outrank k
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                element(n, m, k, p)

    def test_a_string_index_is_refused(self, element):
        # check_bargmann reads no str as a number, whatever r is
        self.warm(element, DisplacementParams(0.5, 0.3))
        message = r"^Bargmann index must be a positive real, got 0\.5$"
        for n, m, r in ((3, 3, 0.0), (3, 10, 1e-200)):
            with pytest.raises(ValueError, match=message):
                element(n, m, "0.5", DisplacementParams(r))


class TestCheckLevel:
    @pytest.mark.parametrize("level", [3, np.int64(3), 3.0, True, 0])
    def test_integral_levels_pass_as_int(self, level):
        got = check_level(level, "n")
        assert type(got) is int and got == level

    @pytest.mark.parametrize("level", [-1, 2.5, "3", math.nan])
    def test_others_refused(self, level):
        with pytest.raises(ValueError):
            check_level(level, "n")


class TestRecurrenceRange:
    """The recurrence walk where the alternating q-sum used to cancel."""

    @pytest.mark.parametrize("r", (0.5, 1.0, 2.0))
    # tiny k: 1 + (2k - 1) rounds to 0 below the epsilon, the walk's first step must not
    @pytest.mark.parametrize("k", (0.25, 0.5, 2.0, 5e-324, 1e-300, 1e-20, 1e-8))
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
        col = matrix_columns([5], 0.5, p, 64)
        assert np.all(np.isfinite(col))
        assert np.max(np.abs(col)) < 1e-300
        assert np.all(np.isfinite(matrix_columns(range(16), 2.0, p, 16)))

    @pytest.mark.parametrize("r", (800.0, 1e-200))
    def test_block_reads_raise_no_warning(self, r):
        # a column walked past its diagonal overflows if it is ever exponentiated
        p = DisplacementParams(r, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix_columns([5], 0.5, p, 64)
            matrix_columns([0, 7, 30], 2.0, p, 64)
            matrix_columns(range(48), 0.75, p, 48)

    @pytest.mark.parametrize("r", (1e-20, 1e-200, 1e-310))
    def test_tiny_squeeze(self, r):
        # one step of the plain recurrence grows by about 1/r here
        k, p = 0.75, DisplacementParams(r, 0.3)
        entries = matrix_columns(range(12), k, p, 12)
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

    @pytest.mark.parametrize("r", (1e-6, 1e-3))
    def test_ln_cosh_keeps_its_digits_near_zero(self, r):
        # log(cosh r) kept only the digits of cosh r - 1 above the epsilon: 8.9e-5 off at 1e-6
        assert _ln_cosh(r) == pytest.approx(r * r / 2 - r**4 / 12 + r**6 / 45, rel=1e-15, abs=0)

    @pytest.mark.parametrize("k", (1e4, 1e6, 1e8))
    def test_oracle_certifies_the_walk_at_large_index(self, k):
        # the walk multiplies ln cosh r by 2k: its digits near r = 0 are the element's
        p = DisplacementParams(0.01 / math.sqrt(k), 0.7)
        walk = np.array([[matrix_element_sum(n, m, k, p) for m in range(6)] for n in range(6)])
        oracle = displacement_oracle(k, p, 32).entries[:6, :6]
        assert np.max(np.abs(walk - oracle)) <= 1e-12

    def test_closed_form_refuses_where_its_prefactor_loses_precision(self):
        # lgamma(2k + n) - lgamma(2k) rounds by about 2^-52 ln Gamma(2k): 4.5e-7 at k = 1e8
        p = DisplacementParams(1e-6)
        assert abs(matrix_element_hyp(2, 3, 1e4, p) - matrix_element_sum(2, 3, 1e4, p)) <= 1e-10
        with pytest.raises(ValueError, match="^closed form loses precision at k = 1000000.0: .*"
                                             "; use matrix_element_sum$"):
            matrix_element_hyp(2, 3, 1e6, p)


def normal_ordered_element(n, m, k, r, mpmath):
    """e^{-i(n-m) theta} <n|S|m> in mpmath, as the terminating sum of
    S = exp(z K+) (1 - |z|^2)^{K0} exp(-conj(z) K-), z = tanh(r) e^{i theta}, over the levels
    j <= min(n, m) between the two ladders, each term from the one before."""
    k, r = mpmath.mpf(k), mpmath.mpf(r)
    t2, ln_cosh = mpmath.tanh(r) ** 2, mpmath.log1p(2 * mpmath.sinh(r / 2) ** 2)
    term = ((-1) ** m * mpmath.sqrt(t2) ** (n + m) * mpmath.exp(-2 * k * ln_cosh)
            * mpmath.sqrt(mpmath.fprod(2 * k + i for i in range(n)) / mpmath.factorial(n)
                          * mpmath.fprod(2 * k + i for i in range(m)) / mpmath.factorial(m)))
    total = term
    for j in range(1, min(n, m) + 1):
        term *= -(n - j + 1) * (m - j + 1) / (j * (2 * k + j - 1) * t2 * mpmath.cosh(r) ** 2)
        total += term
    return total


class TestHugeIndexTinySqueeze:
    """A huge k at a tiny r: one walk step shrinks v by about 2^64 (c - j) / sqrt(2k (j + 1)),
    which took v below the float range while e^l passed it (inf and nan, with warnings)."""

    KS = (5e-324, 1e-300, 1e-100, 1e-20, 0.25, 1.0, 1e20, 1e100, 1e200, 1e300)
    RS = (0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-5, 1.0, 100.0, 1e10, 1e308)

    @pytest.mark.parametrize("k, r", [(1e300, 1e-300), (1e200, 1e-200)])
    def test_reads_the_basis_column(self, k, r):
        p = DisplacementParams(r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            col = matrix_columns([7], k, p, 256)[:, 0]
            element = matrix_element_sum(7, 7, k, p)
        assert np.max(np.abs(col - basis_state(7, 256, k).amplitudes)) <= 1e-10
        assert element == col[7]

    @pytest.mark.parametrize("k", KS)
    def test_every_read_is_finite(self, k):
        for r, m in itertools.product(self.RS, (0, 1, 7, 255)):
            p = DisplacementParams(r, 0.3)
            col = matrix_columns([m], k, p, 256)[:, 0]
            assert np.all(np.isfinite(col)), (k, r, m)
            assert matrix_element_sum(m, m, k, p) == col[m], (k, r, m)
            # the largest raising factor out of |m>, times r, bounds every off-diagonal entry
            if r * math.sqrt((m + 1) * (2.0 * k + m)) < 1e-100:
                assert np.max(np.abs(col - basis_state(m, 256, k).amplitudes)) <= 1e-10

    @pytest.mark.parametrize("k, r, m", [(1e100, 1e-100, 7), (1e50, 1e-60, 40), (1e300, 1e-300, 2),
                                         (1e200, 1e-200, 30), (1e200, 1e-200, 100)])
    def test_rescaled_walk_matches_an_exact_sum(self, k, r, m):
        # a huge k at a tiny r: the walk rescales its values up from below 2^-64 here
        mpmath = pytest.importorskip("mpmath")
        p = DisplacementParams(r, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            col = matrix_columns([m], k, p, m + 1)[:, 0]
        normal = 0
        with mpmath.workdps(60):
            for n in range(m + 1):
                want = normal_ordered_element(n, m, k, r, mpmath)
                if abs(want) > 2.3e-308:
                    normal += 1
                    got = col[n] * cmath.exp(-1j * ((n - m) * p.theta))
                    assert abs(cmath.log(got / float(want))) <= 1e-11, (n, got, want)
        assert normal >= 3


class TestColumns:
    def test_zero_displacement(self):
        col = matrix_columns([2], 0.5, DisplacementParams(0.0), 6)[:, 0]
        want = np.zeros(6, dtype=complex)
        want[2] = 1.0
        assert np.array_equal(col, want)

    def test_matches_scalar_route(self):
        p = DisplacementParams(0.8, 0.6)
        for m in (0, 3, 11):
            col = matrix_columns([m], 1.0, p, 48)[:, 0]
            ref = np.array([matrix_element_sum(n, m, 1.0, p) for n in range(48)])
            assert np.array_equal(col, ref)

    def test_displaced_bottom_is_coherent_state(self):
        for k in K_GRID:
            for r in (0.2, 0.8):
                p = DisplacementParams(r, 1.1)
                col = matrix_columns([0], k, p, 128)[:, 0]
                want = pcs(p.alpha, k, 128)
                assert np.max(np.abs(col - want.amplitudes)) < 1e-10

    def test_columns_orthonormal(self):
        p = DisplacementParams(0.5, -0.9)
        cols = matrix_columns(range(8), 0.75, p, 128)
        assert np.max(np.abs(cols.conj().T @ cols - np.eye(8))) < 1e-10

    def test_column_outside_dimension(self):
        with pytest.raises(ValueError):
            matrix_columns([8], 0.5, DisplacementParams(0.1), 8)

    @pytest.mark.parametrize("levels", ([], [3, 1], [2, 2], [0, -1]))
    def test_block_rejects_bad_levels(self, levels):
        with pytest.raises(ValueError):
            matrix_columns(levels, 0.5, DisplacementParams(0.1), 8)


class TestTable:
    def test_zero_displacement_identity(self):
        t = matrix_columns(range(5), 0.5, DisplacementParams(0.0), 5)
        assert np.array_equal(t, np.eye(5, dtype=complex))
        assert np.all(column_norm_deficits(t) == 0.0)

    def test_matches_scalar_entries(self):
        p = DisplacementParams(0.6, 0.2)
        t = matrix_columns(range(10), 1.5, p, 10)
        assert t.shape == (10, 10)
        assert t[4, 7] == matrix_element_sum(4, 7, 1.5, p)
        want = [[matrix_element_sum(n, m, 1.5, p) for m in range(10)] for n in range(10)]
        assert np.array_equal(t, np.array(want))

    @pytest.mark.parametrize("k, r, theta", ((0.25, 0.1, 0.0), (1.5, 0.6, 0.2), (2.0, 2.0, -2.0)))
    def test_every_reader_matches_scalar_entries(self, k, r, theta):
        # every block of columns reads the walk of `matrix_element_sum`, bit for bit
        p, dim = DisplacementParams(r, theta), 40
        want = np.array([[matrix_element_sum(n, m, k, p) for m in range(dim)] for n in range(dim)])
        for levels in ([0], [1], [7], [20], [39], [0, 3, 17, 39], range(5, 12), range(dim)):
            assert np.array_equal(matrix_columns(levels, k, p, dim), want[:, list(levels)])

    def test_entries_read_only(self):
        t = displacement_oracle(0.5, DisplacementParams(0.3), 8)
        with pytest.raises(ValueError):
            t.entries[0, 0] = 5.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            MatrixElementTable(0.5, DisplacementParams(0.1), np.ones((2, 3)))


def eigh_oracle(k, params, dim):
    """exp(-irT) from one eigh of the symmetric tridiagonal T = K+ + K- and one
    complex product, in the phases P = diag(e^{in theta} i^n): the reference for
    the parity-split SVD."""
    kp = kplus_matrix(dim, k)
    lam, vec = np.linalg.eigh(kp + kp.T)
    n = np.arange(dim)
    p = np.exp(1j * (n * params.theta)) * np.array([1, 1j, -1, -1j])[n % 4]
    return p[:, None] * ((vec * np.exp(-1j * params.r * lam)) @ vec.T) * p.conj()


class TestOracle:
    @pytest.mark.parametrize(
        "dim, k", [(8, 0.25), (9, 2.0), (96, 0.5), (255, 0.75), (256, 1.5), (1024, 2.0)]
    )
    def test_matches_the_eigh_reference(self, dim, k):
        # odd dims give U an extra column, in the kernel of B^T
        for r in (1e-3, 0.4, 2.0):
            p = DisplacementParams(r, 1.1)
            got = displacement_oracle(k, p, dim).entries
            assert np.max(np.abs(got - eigh_oracle(k, p, dim))) <= 1e-12
            assert np.max(np.abs(got @ got.conj().T - np.eye(dim))) <= 1e-13

    @pytest.mark.parametrize("dim", (8, 9, 255, 256))
    def test_block_is_the_dense_generators_block(self, monkeypatch, dim):
        # B is built from the raising factors, not sliced out of K+ + K-
        blocks = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda b: blocks.append(b.copy()) or svd(b))
        displacement_oracle(1.5, DisplacementParams(0.7, 0.2), dim)
        kp = kplus_matrix(dim, 1.5)
        (block,) = blocks
        assert np.array_equal(block, (kp + kp.T)[0::2, 1::2])

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

    def test_zero_displacement_is_exact_identity(self):
        oracle = displacement_oracle(0.75, DisplacementParams(0.0, 0.4), 16)
        assert np.array_equal(oracle.entries, np.eye(16))

    @pytest.mark.parametrize("k, r, theta", [(0.25, 1.0, 0.4), (2.0, 0.5, 1.3)])
    def test_certifies_the_walk_at_scale(self, k, r, theta):
        # the walk's 256 x 256 corner, far below the oracle's truncation at 1024
        p = DisplacementParams(r, theta)
        walk = matrix_columns(range(256), k, p, 256)
        oracle = displacement_oracle(k, p, 1024).entries[:256, :256]
        assert np.max(np.abs(walk - oracle)) <= 1e-12


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
            col = matrix_columns([m], k, p, 96)[:, 0]
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
