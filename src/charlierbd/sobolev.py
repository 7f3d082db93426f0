"""Weighted discrete Sobolev sequence norms, the weight-map isometry, and
a numerical check of the weak-error rate.

`seq_norm(q, a, m, inverse=...)` is the norm of h^m(w) or, with `inverse`,
of h^m(w^-1), for the Poisson weight w(x; a). Inverse-weighted sums grow
super-exponentially in the weight, so with `inverse` it monitors the
summand at the truncation boundary and rejects inputs whose tail is too
heavy for the chosen parameter instead of silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import falling_factorial_vec, poisson_log_weight

__all__ = [
    "DivergenceError",
    "seq_norm",
    "poisson_norm_closed_form",
    "isometry_residual",
    "WeakErrorReport",
    "weak_error_bound_check",
]


class DivergenceError(ValueError):
    """Inverse-weighted norm summand fails to decay at the truncation bound."""


def _summand(q: np.ndarray, a: float, k: int, inverse: bool) -> np.ndarray:
    """Termwise a^{-k} ff(x,k) q(x)^2 omega(x), computed safely in log space
    for the inverse weight."""
    xs = np.arange(q.size, dtype=float)
    ff = falling_factorial_vec(xs, k)
    logw = poisson_log_weight(a, xs)
    if not inverse:
        return a ** (-k) * ff * q * q * np.exp(logw)
    # q(x)^2 / w(x) via logs to dodge overflow of 1/w alone
    out = np.zeros_like(q)
    nz = (q != 0) & (ff != 0)
    with np.errstate(over="ignore"):
        out[nz] = np.exp(2.0 * np.log(np.abs(q[nz])) - logw[nz]
                         + np.log(ff[nz]) - k * math.log(a))
    return out


def _check_tail(s: np.ndarray, total: float, a: float, m: int,
                k: int) -> None:
    """DivergenceError if the last five summands do not decay while the
    last is still above 1e-12 of the norm."""
    if s.size < 6:
        return
    tail = s[-5:]
    if tail[-1] > 0 and tail[-1] >= tail[0] and \
            tail[-1] > 1e-12 * max(total, tail[-1]):
        x_bad = s.size - 1
        raise DivergenceError(
            f"h^{m}(w^-1) summand (order k={k}) is not decaying at the "
            f"truncation bound x={x_bad}; the sequence is too heavy-tailed "
            f"for weight parameter a={a}")


def seq_norm(q, a: float, m: int, *, inverse: bool) -> float:
    """Weighted Sobolev norm of q in h^m(w), or in h^m(w^-1) if `inverse`:

    ( sum_{k<=m} a^{-k} sum_x ff(x,k) q(x)^2 omega(x) )^{1/2}, omega being
    the weight w(x; a) or its inverse. ValueError unless a > 0 and m >= 0.
    """
    if a <= 0:
        raise ValueError(f"weight parameter must be positive, got a={a}")
    if m < 0:
        raise ValueError("Sobolev order must be nonnegative")
    q = np.asarray(q, dtype=float)
    total = 0.0
    for k in range(m + 1):
        s = _summand(q, a, k, inverse)
        if not np.all(np.isfinite(s)):
            raise DivergenceError(
                f"h^{m} summand overflows at order k={k}; sequence not "
                f"in the space for a={a}")
        part = float(s.sum())
        if inverse:
            _check_tail(s, part, a, m, k)
        total += part
    return math.sqrt(total)


def poisson_norm_closed_form(lam: float, a: float, m: int) -> float:
    """Squared h^m(w^{-1}) norm of the Poisson(lam) pmf at weight parameter a.

    Geometric-sum closed form sum_{k<=m} (lam/a)^{2k} exp((a-lam)^2/a); the
    lam = a limit degenerates to m + 1.
    """
    if lam <= 0 or a <= 0:
        raise ValueError("lam and a must be positive")
    r = (lam / a) ** 2
    geo = math.fsum(r**k for k in range(m + 1))
    return geo * math.exp((a - lam) ** 2 / a)


def isometry_residual(p, a: float, m: int) -> float:
    """| ||w p||_{h^m(w^-1)} - ||p||_{h^m(w)} |; zero when p lies in h^m(w)."""
    p = np.asarray(p, dtype=float)
    xs = np.arange(p.size, dtype=float)
    w = np.exp(poisson_log_weight(a, xs))
    lhs = seq_norm(w * p, a, m, inverse=True)
    rhs = seq_norm(p, a, m, inverse=False)
    return abs(lhs - rhs)


@dataclass
class WeakErrorReport:
    measured: float
    predicted: float
    ratio: float


def weak_error_bound_check(f, p, basis, m: int) -> WeakErrorReport:
    """Measured weak error of the projection surrogate against the a priori
    rate (a/N)^{m/2} ||f||_{l2(w)} ||p||_{h^m(w^-1)}, for a test function
    f(x) evaluated on {0..X_max}."""
    from .basis import project_density, weak_expectation

    p = np.asarray(p, dtype=float)
    fx = np.asarray([f(x) for x in range(basis.X_max + 1)], dtype=float)
    exact = float(fx @ p)
    approx = weak_expectation(fx, project_density(p, basis))
    measured = abs(approx - exact)
    f_norm = seq_norm(fx, basis.a, 0, inverse=False)
    p_norm = seq_norm(p, basis.a, m, inverse=True)
    predicted = (basis.a / max(basis.N, 1)) ** (m / 2) * f_norm * p_norm
    ratio = measured / predicted if predicted > 0 else 0.0
    return WeakErrorReport(measured=measured, predicted=predicted, ratio=ratio)
