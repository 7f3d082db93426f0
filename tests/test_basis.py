import math

import numpy as np
import pytest

from charlierbd.basis import (CharlierBasis, CoeffVector, charlier_table,
                              project_density, reconstruct, weak_expectation)
from charlierbd.special import poisson_pmf


# Scalar oracles for the tabulated recurrence, one value per call.

def charlier_normalized(n, a, x):
    """Normalized Poisson-Charlier polynomial value, orthonormal in l2(w):
    the three-term recurrence seeded with 1 and (a - x)/sqrt(a)."""
    prev = 1.0
    if n == 0:
        return prev
    cur = (a - x) / math.sqrt(a)
    for k in range(1, n):
        prev, cur = cur, ((k + a - x) / math.sqrt(a * (k + 1))) * cur \
            - math.sqrt(k / (k + 1)) * prev
    return cur


def charlier_unnormalized(n, a, x):
    """Unnormalized Charlier polynomial with C_1 = x - a, from
    C_{n+1} = (x - n - a) C_n - n a C_{n-1}; the normalized family is
    (-1)^n C_n / sqrt(n! a^n)."""
    prev = 1.0
    if n == 0:
        return prev
    cur = x - a
    for k in range(1, n):
        prev, cur = cur, (x - k - a) * cur - k * a * prev
    return cur


class TestPolynomials:
    def test_normalized_seeds(self):
        assert charlier_normalized(0, 3.0, 7) == 1.0
        assert charlier_normalized(1, 4.0, 2) == pytest.approx(1.0)

    def test_normalized_vs_bridge(self):
        # C_bar_n = (-1)^n C_n / sqrt(n! a^n)
        for a in (1.0, 4.0, 25.0):
            for x in (0, 3, 11):
                for n in range(8):
                    want = (-1) ** n * charlier_unnormalized(n, a, x) \
                        / math.sqrt(math.factorial(n) * a**n)
                    assert charlier_normalized(n, a, x) == \
                        pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_normalized_c2_example(self):
        assert charlier_normalized(2, 1.0, 2) == \
            pytest.approx(-1 / math.sqrt(2))

    def test_unnormalized_values(self):
        assert charlier_unnormalized(1, 2.0, 5) == pytest.approx(3.0)
        assert charlier_unnormalized(2, 1.0, 2) == pytest.approx(-1.0)
        assert charlier_unnormalized(0, 5.0, 9) == 1.0

    def test_unnormalized_closed_forms(self):
        # degree-2 and degree-3 closed forms expanded by hand
        for a in (0.7, 3.0):
            for x in (0, 2, 6):
                c2 = x * x - 2 * x * a + a * a - x
                c3 = (x - 2 - a) * c2 - 2 * a * (x - a)
                assert charlier_unnormalized(2, a, x) == pytest.approx(c2)
                assert charlier_unnormalized(3, a, x) == pytest.approx(c3)

    def test_domain(self):
        with pytest.raises(ValueError):
            charlier_table(2, 0.0, 5)
        with pytest.raises(ValueError):
            CharlierBasis(a=-2.0, N=1, X_max=5)


class TestOrthonormality:
    @pytest.mark.parametrize("a,x_max", [(1.0, 60), (5.0, 90), (30.0, 220)])
    def test_gram_identity(self, a, x_max):
        basis = CharlierBasis(a=a, N=8, X_max=x_max)
        T = basis.table
        G = (T * basis.weights) @ T.T
        assert np.max(np.abs(G - np.eye(9))) < 1e-10

    def test_table_matches_scalar(self):
        T = charlier_table(5, 2.5, 20)
        for n in range(6):
            for x in range(21):
                assert T[n, x] == pytest.approx(
                    charlier_normalized(n, 2.5, x), rel=1e-12, abs=1e-12)


class TestProjection:
    def test_own_weight_projects_to_e0(self):
        basis = CharlierBasis(a=4.0, N=6, X_max=80)
        c = project_density(poisson_pmf(4.0, 80), basis)
        want = np.zeros(7)
        want[0] = 1.0
        assert np.max(np.abs(c.c - want)) < 1e-12

    def test_first_coefficient_closed_form(self):
        basis = CharlierBasis(a=1.0, N=3, X_max=60)
        c = project_density(poisson_pmf(1.2, 60), basis)
        assert c.c[1] == pytest.approx(-0.2, abs=1e-10)

    def test_mass_is_c0(self):
        rng = np.random.default_rng(3)
        p = rng.random(41)
        p /= p.sum()
        basis = CharlierBasis(a=6.0, N=4, X_max=40)
        assert project_density(p, basis).c[0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        basis = CharlierBasis(a=2.0, N=3, X_max=30)
        with pytest.raises(ValueError):
            project_density(np.ones(12), basis)


class TestReconstruction:
    def test_zeroth_order_is_weight(self):
        basis = CharlierBasis(a=3.0, N=5, X_max=50)
        c = CoeffVector(np.array([1.0, 0, 0, 0, 0, 0]), basis)
        p = reconstruct(c)
        assert np.allclose(p, poisson_pmf(3.0, 50), atol=1e-14)

    def test_roundtrip_converges(self):
        x_max = 70
        src = poisson_pmf(2.0, x_max)
        errs = []
        for N in (2, 6, 14):
            basis = CharlierBasis(a=3.0, N=N, X_max=x_max)
            rec = reconstruct(project_density(src, basis))
            errs.append(np.max(np.abs(rec - src)))
        assert errs[2] < errs[0]
        assert errs[2] < 1e-8

    def test_signed_values_not_clipped(self):
        # a point mass far from the basis parameter reconstructs with
        # genuine negative excursions at low order
        x_max = 50
        src = np.zeros(x_max + 1)
        src[12] = 1.0
        basis = CharlierBasis(a=4.0, N=3, X_max=x_max)
        rec = reconstruct(project_density(src, basis))
        assert rec.min() < 0


class TestWeakExpectation:
    def test_polynomial_exactness(self):
        x_max = 90
        src = poisson_pmf(5.5, x_max)
        basis = CharlierBasis(a=4.0, N=3, X_max=x_max)
        c = project_density(src, basis)
        xs = np.arange(x_max + 1.0)
        for k in (0, 1, 2, 3):
            want = float((xs**k) @ src)
            assert weak_expectation(xs**k, c) == pytest.approx(want, rel=1e-10)
