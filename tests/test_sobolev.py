import math

import numpy as np
import pytest

from charlierbd.basis import CharlierBasis
from charlierbd.sobolev import (DivergenceError, isometry_residual,
                                poisson_norm_closed_form, seq_norm,
                                weak_error_bound_check)
from charlierbd.special import (adaptive_support_bound, falling_factorial,
                                poisson_pmf, poisson_weight)


def brute_norm_sq(q, a, m, mode):
    total = 0.0
    for k in range(m + 1):
        for x, v in enumerate(q):
            ff = falling_factorial(x, k)
            if ff == 0 or v == 0:
                continue
            w = poisson_weight(a, x)
            omega = {"w": w, "w_inverse": 1.0 / w}[mode]
            total += a ** (-k) * ff * v * v * omega
    return total


class TestSeqNorm:
    @pytest.mark.parametrize("mode", ["w", "w_inverse"])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_vs_brute_force(self, mode, m):
        rng = np.random.default_rng(11)
        q = rng.standard_normal(30) * np.exp(-0.3 * np.arange(30))
        a = 4.0
        want = math.sqrt(brute_norm_sq(q, a, m, mode))
        assert seq_norm(q, a, m, inverse=mode == "w_inverse") == \
            pytest.approx(want, rel=1e-10)

    def test_divergence_detection(self):
        # slowly decaying sequence is far too heavy for w^{-1} at small a
        xs = np.arange(120, dtype=float)
        q = 1.0 / (1.0 + xs) ** 2
        with pytest.raises(DivergenceError):
            seq_norm(q, 1.0, 0, inverse=True)

    def test_spec_validation(self):
        q = np.ones(5)
        for inverse in (False, True):
            with pytest.raises(ValueError, match="must be positive"):
                seq_norm(q, 0.0, 0, inverse=inverse)
            with pytest.raises(ValueError, match="nonnegative"):
                seq_norm(q, 1.0, -1, inverse=inverse)


class TestPoissonClosedForm:
    @pytest.mark.parametrize("ratio", [0.5, 0.9, 1.0, 1.5])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_vs_direct_sum(self, ratio, m):
        a = 2.0
        lam = ratio * a
        x_max = adaptive_support_bound(max(lam * lam / a, lam),
                                       tail_tol=1e-16) + 80
        p = poisson_pmf(lam, x_max)
        direct = brute_norm_sq(p, a, m, "w_inverse")
        assert poisson_norm_closed_form(lam, a, m) == \
            pytest.approx(direct, rel=1e-8)

    def test_equal_parameters_limit(self):
        for m in range(5):
            assert poisson_norm_closed_form(3.0, 3.0, m) == \
                pytest.approx(m + 1.0)


class TestIsometry:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_residual_small(self, m):
        a = 3.0
        dists = [
            poisson_pmf(2.0, 60),
            poisson_pmf(3.0, 60),
            np.concatenate([np.full(5, 0.2), np.zeros(56)]),
        ]
        rng = np.random.default_rng(0)
        for seed_p in (rng.random(61) * np.exp(-np.arange(61)),):
            dists.append(seed_p / seed_p.sum())
        geo = 0.5 ** np.arange(61)
        dists.append(geo / geo.sum())
        assert len(dists) == 5
        for p in dists:
            assert isometry_residual(p, a, m) < 1e-10


class TestWeakErrorCheck:
    def test_polynomial_f_is_exact(self):
        x_max = 60
        p = poisson_pmf(1.2, x_max)
        for N in range(2, 11):
            rep = weak_error_bound_check(lambda x: x**2, p,
                                         CharlierBasis(a=1.0, N=N,
                                                       X_max=x_max), m=4)
            assert rep.measured <= rep.predicted
            assert rep.measured < 1e-10

    def test_nonpolynomial_f_decays_under_bound(self):
        x_max = 60
        p = poisson_pmf(1.2, x_max)
        f = lambda x: float(x >= 3)
        reports = [weak_error_bound_check(f, p,
                                          CharlierBasis(a=1.0, N=N,
                                                        X_max=x_max), m=4)
                   for N in (2, 4, 8, 16)]
        measured = [r.measured for r in reports]
        assert measured[-1] < measured[0]
        assert all(r.measured <= r.predicted for r in reports)
