"""Weighted discrete Sobolev sequence norms, the weight-map isometry, and
a numerical check of the weak-error rate.

Inverse-weighted sums grow super-exponentially in the weight, so `seq_norm`
monitors the summand at the truncation boundary and rejects inputs whose
tail is too heavy for the chosen parameter instead of silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .special import falling_factorial_vec

__all__ = [
    "SobolevSpec",
    "DivergenceError",
    "seq_norm",
    "poisson_norm_closed_form",
    "isometry_residual",
    "WeakErrorReport",
    "weak_error_bound_check",
]


class DivergenceError(ValueError):
    """Inverse-weighted norm summand fails to decay at the truncation bound."""


@dataclass
class SobolevSpec:
    """Order m, weight parameter a, and weight mode: "w" for the weight
    w(x; a), "w_inverse" for its inverse."""

    m: int
    a: float
    weight_mode: str

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"weight parameter must be positive, got a={self.a}")
        if self.m < 0:
            raise ValueError("Sobolev order must be nonnegative")
        if self.weight_mode not in ("w", "w_inverse"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")


def _log_weight(a: float, xs: np.ndarray) -> np.ndarray:
    return xs * math.log(a) - a - _sp.gammaln(xs + 1)


def _summand(q: np.ndarray, spec: SobolevSpec, k: int) -> np.ndarray:
    """Termwise a^{-k} ff(x,k) q(x)^2 omega(x), computed safely in log space
    for the inverse weight."""
    xs = np.arange(q.size, dtype=float)
    ff = falling_factorial_vec(xs, k)
    logw = _log_weight(spec.a, xs)
    if spec.weight_mode == "w":
        return spec.a ** (-k) * ff * q * q * np.exp(logw)
    # w_inverse: q(x)^2 / w(x) via logs to dodge overflow of 1/w alone
    out = np.zeros_like(q)
    nz = (q != 0) & (ff != 0)
    with np.errstate(over="ignore"):
        out[nz] = np.exp(2.0 * np.log(np.abs(q[nz])) - logw[nz]
                         + np.log(ff[nz]) - k * math.log(spec.a))
    return out


def _check_tail(s: np.ndarray, total: float, spec: SobolevSpec, k: int) -> None:
    """DivergenceError if the last five summands do not decay while the
    last is still above 1e-12 of the norm."""
    if s.size < 6:
        return
    tail = s[-5:]
    if tail[-1] > 0 and tail[-1] >= tail[0] and \
            tail[-1] > 1e-12 * max(total, tail[-1]):
        x_bad = s.size - 1
        raise DivergenceError(
            f"h^{spec.m}(w^-1) summand (order k={k}) is not decaying at the "
            f"truncation bound x={x_bad}; the sequence is too heavy-tailed "
            f"for weight parameter a={spec.a}")


def seq_norm(q, spec: SobolevSpec) -> float:
    """Weighted Sobolev sequence norm of q.

    ( sum_{k<=m} a^{-k} sum_x ff(x,k) q(x)^2 omega(x) )^{1/2}, where omega
    is w(x; a) or w(x; a)^{-1} according to the weight mode.
    """
    q = np.asarray(q, dtype=float)
    total = 0.0
    for k in range(spec.m + 1):
        s = _summand(q, spec, k)
        if not np.all(np.isfinite(s)):
            raise DivergenceError(
                f"h^{spec.m} summand overflows at order k={k}; sequence not "
                f"in the space for a={spec.a}")
        part = float(s.sum())
        if spec.weight_mode == "w_inverse":
            _check_tail(s, part, spec, k)
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
    w = np.exp(_log_weight(a, xs))
    lhs = seq_norm(w * p, SobolevSpec(m=m, a=a, weight_mode="w_inverse"))
    rhs = seq_norm(p, SobolevSpec(m=m, a=a, weight_mode="w"))
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
    f_norm = seq_norm(fx, SobolevSpec(m=0, a=basis.a, weight_mode="w"))
    p_norm = seq_norm(p, SobolevSpec(m=m, a=basis.a, weight_mode="w_inverse"))
    predicted = (basis.a / max(basis.N, 1)) ** (m / 2) * f_norm * p_norm
    ratio = measured / predicted if predicted > 0 else 0.0
    return WeakErrorReport(measured=measured, predicted=predicted, ratio=ratio)
