import math

import numpy as np
import pytest
from scipy import special as sp

from charlierbd.special import (adaptive_support_bound, chen_stein_gap,
                                falling_factorial, lower_tail, poisson_pmf,
                                poisson_weight, stirling2, touchard,
                                upper_tail)


def brute_tail(q, c, x_max=400):
    # direct finite summation, independent of the gamma-function route
    return sum(poisson_weight(q, m) for m in range(max(c + 1, 0), x_max + 1))


class TestPoissonWeight:
    def test_seed_values(self):
        assert poisson_weight(1.0, 0) == pytest.approx(math.exp(-1.0))
        assert poisson_weight(2.0, 2) == pytest.approx(2 * math.exp(-2.0))

    def test_normalization(self):
        s = sum(poisson_weight(5.0, x) for x in range(201))
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_large_x_no_overflow(self):
        v = poisson_weight(10.0, 500)
        assert 0.0 <= v < 1e-300 or v == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            poisson_weight(-1.0, 0)

    def test_pmf_vector(self):
        p = poisson_pmf(3.0, 50)
        assert p.shape == (51,)
        assert p[4] == pytest.approx(poisson_weight(3.0, 4))


class TestTails:
    def test_basic_values(self):
        assert upper_tail(1.0, 0) == pytest.approx(1 - math.exp(-1.0))
        assert upper_tail(3.0, -1) == 1.0
        assert upper_tail(0.0, 2) == 0.0
        assert lower_tail(1.0, 0) == pytest.approx(math.exp(-1.0))
        assert lower_tail(2.0, -1) == 0.0

    def test_lower_tail_direct_sum(self):
        want = sum(poisson_weight(4.0, m) for m in range(4))
        assert lower_tail(4.0, 3) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", [0.5, 1.0, 5.0, 50.0])
    def test_complement_and_monotone(self, q):
        prev = 2.0
        for c in range(-1, 121):
            u = upper_tail(q, c)
            assert u + lower_tail(q, c) == pytest.approx(1.0, abs=1e-13)
            assert u <= prev + 1e-15
            prev = u

    @pytest.mark.parametrize("q,c", [(1.0, 3), (7.5, 2), (20.0, 25)])
    def test_against_brute_sum(self, q, c):
        assert upper_tail(q, c) == pytest.approx(brute_tail(q, c), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            upper_tail(-0.5, 1)

    def test_equal_the_scipy_ufuncs_bit_for_bit(self):
        # the tails call cython_special's pdtrc/pdtr: the same cephes code
        # as the ufuncs, so every value is the ufunc's, bit for bit
        rng = np.random.default_rng(2014)
        qs = np.concatenate([rng.uniform(0.0, 600.0, 3000),
                             rng.exponential(3.0, 500)])
        cs = rng.integers(0, 801, qs.size)
        for q, c in zip(qs.tolist(), cs.tolist()):
            for got, want in ((upper_tail(q, c), sp.pdtrc(c, q)),
                              (lower_tail(q, c), sp.pdtr(c, q))):
                assert type(got) is float
                assert got == float(want), (q, c)
        # NumPy scalars and 0-d arrays, as a caller may hold them
        for q, c in ((np.float64(37.5), np.int64(40)),
                     (np.array(37.5), 40), (math.inf, 3), (5.0, 2 ** 40)):
            assert upper_tail(q, c) == float(sp.pdtrc(c, q))
            assert lower_tail(q, c) == float(sp.pdtr(c, q))
        assert math.isnan(upper_tail(math.nan, 3))
        assert math.isnan(lower_tail(math.nan, 3))

    def test_array_lower_tail_is_the_scalar_tail_bit_for_bit(self):
        rng = np.random.default_rng(33)
        qs = np.concatenate([rng.uniform(0.0, 600.0, 2000),
                             rng.exponential(3.0, 500), [0.0, 1e-9]])
        for c in (-3, -1, 0, 1, 2, 7, 99, 100, 450):
            got = lower_tail(qs, c)
            assert got.shape == qs.shape
            assert np.array_equal(got, [lower_tail(q, c)
                                        for q in qs.tolist()])
        with pytest.raises(ValueError, match="nonnegative"):
            lower_tail(np.array([1.0, -1e-300]), 3)

    @pytest.mark.parametrize("c", [-1, -2, -700])
    def test_threshold_below_zero(self, c):
        for q in (0.0, 2.5, 600.0):
            assert upper_tail(q, c) == 1.0 and lower_tail(q, c) == 0.0

    @pytest.mark.parametrize("c", [0, 3, 800])
    def test_zero_rate(self, c):
        assert upper_tail(0.0, c) == 0.0 and lower_tail(0.0, c) == 1.0

    @pytest.mark.parametrize("tail", [upper_tail, lower_tail])
    def test_negative_rate_raises(self, tail):
        for c in (-1, 0, 5):
            with pytest.raises(ValueError, match="nonnegative"):
                tail(-1e-300, c)


class TestStirlingTouchard:
    def test_stirling_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(6, 6) == 1
        assert stirling2(2, 5) == 0

    def test_touchard_low_orders(self):
        q = 1.7
        assert touchard(0, q) == 1.0
        assert touchard(1, q) == pytest.approx(q)
        assert touchard(4, 1.0) == pytest.approx(15.0)

    def test_touchard_vs_brute_moment(self):
        # E[X^3] for X ~ Poisson(2) by truncated summation
        want = sum(m**3 * poisson_weight(2.0, m) for m in range(120))
        assert touchard(3, 2.0) == pytest.approx(want, rel=1e-12)
        assert touchard(3, 2.0) == pytest.approx(22.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_low_orders_equal_the_stirling_fsum(self, k):
        rng = np.random.default_rng(k)
        qs = [*(rng.random(500) * 10.0 ** rng.integers(-8, 150, 500)),
              *np.float64(rng.random(50) * 300.0), 0.0, -0.0, 3, math.inf]
        for q in qs:
            want = math.fsum(stirling2(k, j) * q**j for j in range(1, k + 1))
            got = touchard(k, q)
            assert type(got) is float
            assert got == want and math.copysign(1.0, got) \
                == math.copysign(1.0, want), q
        assert math.isnan(touchard(k, math.nan))

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("q", [0.5, 5.0, 50.0])
    def test_touchard_matches_sums(self, k, q):
        xm = adaptive_support_bound(q, tail_tol=1e-15) + 50
        want = math.fsum(m**k * poisson_weight(q, m) for m in range(xm + 1))
        assert touchard(k, q) == pytest.approx(want, rel=1e-9)


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(3, 4) == 0
        assert falling_factorial(7, 0) == 1


class TestChenStein:
    def test_identity_function(self):
        assert chen_stein_gap(lambda x: x, 3.0) == pytest.approx(0.0, abs=1e-10)

    def test_constant(self):
        assert chen_stein_gap(lambda x: 1.0, 2.5) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("q", [1.0, 5.0, 20.0])
    def test_gap_vanishes(self, q):
        fs = [lambda x: 1.0, lambda x: float(x), lambda x: float(x) ** 2,
              lambda x: float(x) ** 3, lambda x: float(x >= 4)]
        for f in fs:
            assert abs(chen_stein_gap(f, q)) < 1e-10
