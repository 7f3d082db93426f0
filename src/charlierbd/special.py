"""Special functions: Poisson weight and tails, Stirling numbers, Touchard
polynomials, falling factorials, and the Chen-Stein identity of the
Poisson distribution.

All scalar routines are pure functions; sums are truncated adaptively so
that the neglected tail is below 1e-15 of the total and accumulated with
`math.fsum`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp
from scipy.special import cython_special as _cs

__all__ = [
    "poisson_weight",
    "poisson_log_weight",
    "poisson_pmf",
    "upper_tail",
    "lower_tail",
    "stirling2",
    "touchard",
    "falling_factorial",
    "falling_factorial_vec",
    "chen_stein_gap",
    "adaptive_support_bound",
]


def poisson_weight(a: float, x: int) -> float:
    """Poisson weight w(x; a) = a^x e^{-a} / x!, evaluated in log space."""
    if a <= 0:
        raise ValueError(f"Poisson parameter must be positive, got a={a}")
    if x < 0:
        return 0.0
    return math.exp(x * math.log(a) - a - math.lgamma(x + 1))


def poisson_log_weight(a: float, xs: np.ndarray) -> np.ndarray:
    """log w(xs; a) = xs log a - a - log Gamma(xs + 1) elementwise, a > 0."""
    return xs * math.log(a) - a - _sp.gammaln(xs + 1)


def poisson_pmf(a: float, x_max: int) -> np.ndarray:
    """Poisson weights on {0..x_max} as an array."""
    if a < 0:
        raise ValueError(f"Poisson parameter must be nonnegative, got a={a}")
    xs = np.arange(x_max + 1)
    if a == 0:
        p = np.zeros(x_max + 1)
        p[0] = 1.0
        return p
    return np.exp(poisson_log_weight(a, xs))


def upper_tail(q: float, c: int) -> float:
    """P(Poisson(q) > c) = sum_{m=c+1}^inf e^{-q} q^m / m!.

    Argument order is (rate q, threshold c); c <= -1 gives the full mass 1.
    Computed through the regularized incomplete gamma function, by
    `scipy.special.cython_special.pdtrc`: the cephes code of the
    `scipy.special.pdtrc` ufunc, returning the same Python float, called
    without the ufunc's per-call dispatch (about 0.2 us a call against
    1.1 us on 2 vCPUs). q may be a Python or NumPy float or a 0-d array.
    """
    if q < 0:
        raise ValueError(f"Poisson rate must be nonnegative, got q={q}")
    if c <= -1:
        return 1.0
    if q == 0:
        return 0.0
    return _cs.pdtrc(c, q)


def lower_tail(q: float, c: int) -> float:
    """P(Poisson(q) <= c) = sum_{m=0}^{c} e^{-q} q^m / m!; c <= -1 gives 0.

    As `upper_tail`, by `scipy.special.cython_special.pdtr`.
    """
    if q < 0:
        raise ValueError(f"Poisson rate must be nonnegative, got q={q}")
    if c <= -1:
        return 0.0
    if q == 0:
        return 1.0
    return _cs.pdtr(c, q)


@lru_cache(maxsize=None)
def stirling2(n: int, j: int) -> int:
    """Stirling number of the second kind S(n, j).

    Number of partitions of an n-set into j nonempty blocks, from the
    triangle recurrence S(n, j) = j*S(n-1, j) + S(n-1, j-1). Returns 0 for
    j > n (defined, not an error).
    """
    if n < 0 or j < 0:
        raise ValueError("stirling2 arguments must be nonnegative")
    if j > n:
        return 0
    if n == 0:
        return 1 if j == 0 else 0
    if j == 0:
        return 0
    return j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


def touchard(k: int, q: float) -> float:
    """Touchard polynomial T_k(q) = sum_j S(k, j) q^j = E[X^k], X ~ Poisson(q).

    The `math.fsum` of the terms S(k, j) q^j. For k = 1 and 2 it is
    written out: the fsum of one term is that term (with -0.0 read as
    0.0) and of two terms their rounded sum, so T_1 = q and T_2 = q + q**2
    equal the fsum bit for bit. The hard-coded low-order polynomials exist
    only in tests as cross-checks.
    """
    if k < 0:
        raise ValueError("touchard order must be nonnegative")
    if q < 0:
        raise ValueError(f"Poisson rate must be nonnegative, got q={q}")
    if k == 0:
        return 1.0
    if k == 1:
        return float(q) + 0.0
    if k == 2:
        return float(q) + float(q**2)
    return math.fsum(stirling2(k, j) * q**j for j in range(1, k + 1))


def falling_factorial(x: int, k: int) -> int:
    """Falling factorial power x(x-1)...(x-k+1); 0 when k > x, 1 when k = 0."""
    out = 1
    for i in range(k):
        out *= x - i
        if out == 0:
            return 0
    return out


def falling_factorial_vec(xs: np.ndarray, k: int) -> np.ndarray:
    """Falling factorial powers of an integer array, as floats."""
    out = np.ones_like(xs, dtype=float)
    for i in range(k):
        out *= xs - i
    return np.maximum(out, 0.0)


def adaptive_support_bound(a: float, tail_tol: float = 1e-14) -> int:
    """Truncation bound covering the Poisson(a) weight at double precision.

    Smallest x with lower_tail(a, x) > 1 - tail_tol, times 1.5, rounded up.
    """
    if a <= 0:
        raise ValueError(f"Poisson parameter must be positive, got a={a}")
    x = int(a)
    while upper_tail(a, x) >= tail_tol:
        x = max(x + 1, int(1.2 * x))
    # walk back to the smallest such x
    while x > 0 and upper_tail(a, x - 1) < tail_tol:
        x -= 1
    return int(math.ceil(1.5 * x))


def chen_stein_gap(f, q: float) -> float:
    """E[Q f(Q)] - q E[f(Q+1)] under Poisson(q); identically 0 for Poisson.

    Evaluated by truncated summation over {0..x_max}, x_max the
    `adaptive_support_bound` of max(q, 1); f must be bounded on
    {0..x_max + 1}.
    """
    if q < 0:
        raise ValueError(f"Poisson rate must be nonnegative, got q={q}")
    x_max = adaptive_support_bound(max(q, 1.0))
    w = [poisson_weight(q, x) if q > 0 else (1.0 if x == 0 else 0.0)
         for x in range(x_max + 1)]
    lhs = math.fsum(x * f(x) * w[x] for x in range(x_max + 1))
    rhs = q * math.fsum(f(x + 1) * w[x] for x in range(x_max + 1))
    return lhs - rhs
