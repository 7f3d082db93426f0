"""Poisson-Charlier polynomials, density projection onto the truncated
Charlier-function basis, reconstruction, and weak expectations.

The normalized three-term recurrence, tabulated over the whole support,
is the single computational representation. Reconstructions are signed
measures by design and are never clipped to nonnegative values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import poisson_pmf

__all__ = [
    "CharlierBasis",
    "CoeffVector",
    "charlier_table",
    "project_density",
    "reconstruct",
    "weak_expectation",
]


@dataclass(eq=False)
class CharlierBasis:
    """Basis parameter a, max degree N, and summation bound X_max; built
    once, at construction: the weights w(x; a) (`weights`, (X_max+1,)) and
    the values C_norm_n(x) (`table`, (N+1, X_max+1), one recurrence sweep)."""

    a: float
    N: int
    X_max: int

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"basis parameter must be positive, got a={self.a}")
        if self.N < 0:
            raise ValueError("basis order must be nonnegative")
        if self.N > self.X_max:
            raise ValueError(f"N={self.N} exceeds X_max={self.X_max}")
        self.weights = poisson_pmf(self.a, self.X_max)
        self.table = charlier_table(self.N, self.a, self.X_max)


def charlier_table(n_max: int, a: float, x_max: int) -> np.ndarray:
    """Normalized polynomial values for all degrees <= n_max on {0..x_max}."""
    if a <= 0:
        raise ValueError(f"basis parameter must be positive, got a={a}")
    xs = np.arange(x_max + 1, dtype=float)
    out = np.empty((n_max + 1, x_max + 1))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = (a - xs) / math.sqrt(a)
    for k in range(1, n_max):
        out[k + 1] = ((k + a - xs) / math.sqrt(a * (k + 1))) * out[k] \
            - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


@dataclass
class CoeffVector:
    """Spectral coefficients c_0..c_N against a Charlier basis."""

    c: np.ndarray
    basis: CharlierBasis

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.basis.N + 1,):
            raise ValueError(
                f"coefficient length {self.c.shape} does not match basis "
                f"order N={self.basis.N}")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("coefficients must be finite")


def project_density(p, basis: CharlierBasis) -> CoeffVector:
    """Fourier coefficients of p against the Charlier functions.

    c_n = sum_x p(x) C_norm_n(x), the w^{-1}-weighted inner product of p
    with the Charlier functions; c_0 recovers the total mass of p.
    """
    arr = np.asarray(p, dtype=float)
    if arr.shape != (basis.X_max + 1,):
        raise ValueError(
            f"pmf length {arr.size} does not match basis X_max={basis.X_max}")
    return CoeffVector(basis.table @ arr, basis)


def reconstruct(coeffs: CoeffVector) -> np.ndarray:
    """Signed density w(x; a) * sum_n c_n C_norm_n(x) over {0..X_max}."""
    basis = coeffs.basis
    return basis.weights * (coeffs.c @ basis.table)


def weak_expectation(f, coeffs: CoeffVector) -> float:
    """Numerical expectation sum_x f(x) p_N(x) of the reconstruction, for
    f tabulated on {0..X_max}."""
    fx = np.asarray(f, dtype=float)
    if fx.shape != (coeffs.basis.X_max + 1,):
        raise ValueError("function table does not match basis support")
    return float(fx @ reconstruct(coeffs))
