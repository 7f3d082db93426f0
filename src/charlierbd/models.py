"""Birth-death process definitions: generic time- and state-dependent rate
pairs, the built-in queueing/quadratic models, truncated generator
application, and the linear-growth admissibility scan.

Rate callables take (t, x), broadcast over array arguments in either slot,
and must be pure; models are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BirthDeathModel",
    "ErlangAParams",
    "ErlangLossParams",
    "QuadraticParams",
    "make_infinite_server",
    "make_erlang_a",
    "make_erlang_loss",
    "make_quadratic",
    "generator_apply",
    "GrowthReport",
    "GrowthError",
    "growth_check",
]


class GrowthError(ValueError):
    """Rates violate the linear-growth admissibility envelope."""

RateFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BirthDeathModel:
    birth: RateFn
    death: RateFn
    label: str = ""


@dataclass(frozen=True)
class ErlangAParams:
    """Arrival rate lam(t), service rate mu, abandonment rate beta, c servers."""

    lam: Callable[[float], float]
    mu: float
    beta: float
    c: int

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("service rate mu must be positive")
        if self.beta < 0:
            raise ValueError("abandonment rate beta must be nonnegative")
        if self.c < 1:
            raise ValueError("server count c must be at least 1")


@dataclass(frozen=True)
class ErlangLossParams(ErlangAParams):
    """Erlang-A parameters plus k waiting spaces (arrivals blocked at c+k)."""

    k: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.k < 0:
            raise ValueError("waiting spaces k must be nonnegative")


@dataclass(frozen=True)
class QuadraticParams:
    """Logistic quadratic model: birth lam(t) x (Qtilde - x)+, death beta x."""

    lam: Callable[[float], float]
    Qtilde: int
    beta: float

    def __post_init__(self):
        if self.Qtilde < 1:
            raise ValueError("carrying capacity Qtilde must be at least 1")
        if self.beta <= 0:
            raise ValueError("death coefficient beta must be positive")


def make_infinite_server(lam: Callable[[float], float],
                         mu: float) -> BirthDeathModel:
    """Infinite-server queue: birth lam(t), death mu*x."""
    if mu <= 0:
        raise ValueError("service rate mu must be positive")

    def birth(t, x):
        return np.asarray(lam(t), dtype=float) + 0.0 * np.asarray(x, dtype=float)

    def death(t, x):
        return mu * np.asarray(x, dtype=float)

    return BirthDeathModel(birth, death, label="infinite_server")


def make_erlang_a(p: ErlangAParams) -> BirthDeathModel:
    """Erlang-A queue: birth lam(t), death mu*(x ^ c) + beta*(x - c)+."""

    def birth(t, x):
        return np.asarray(p.lam(t), dtype=float) + 0.0 * np.asarray(x, dtype=float)

    def death(t, x):
        xa = np.asarray(x, dtype=float)
        return p.mu * np.minimum(xa, p.c) + p.beta * np.maximum(xa - p.c, 0.0)

    return BirthDeathModel(birth, death, label="erlang_a")


def make_erlang_loss(p: ErlangLossParams) -> BirthDeathModel:
    """Erlang loss queue: Erlang-A with arrivals blocked once x >= c + k."""
    cap = p.c + p.k

    def birth(t, x):
        xa = np.asarray(x, dtype=float)
        lam_t = np.asarray(p.lam(t), dtype=float)
        return np.where(xa < cap, lam_t + 0.0 * xa, 0.0)

    def death(t, x):
        xa = np.asarray(x, dtype=float)
        return p.mu * np.minimum(xa, p.c) + p.beta * np.maximum(xa - p.c, 0.0)

    return BirthDeathModel(birth, death, label="erlang_loss")


def make_quadratic(p: QuadraticParams,
                   check_x_max: int | None = None) -> BirthDeathModel:
    """Logistic quadratic model; birth clamped to zero above the ceiling.

    Nonnegativity of both rates on the working range is verified at
    construction (automatic for the clamped logistic form unless lam(0) is
    negative).
    """

    def birth(t, x):
        xa = np.asarray(x, dtype=float)
        return np.asarray(p.lam(t), dtype=float) * xa \
            * np.maximum(p.Qtilde - xa, 0.0)

    def death(t, x):
        return p.beta * np.asarray(x, dtype=float)

    x_hi = check_x_max if check_x_max is not None else 2 * p.Qtilde
    xs = np.arange(x_hi + 1)
    if np.any(np.asarray(birth(0.0, xs)) < 0) or \
            np.any(np.asarray(death(0.0, xs)) < 0):
        raise ValueError("quadratic model has a negative rate on the "
                         f"working range {{0..{x_hi}}}")
    return BirthDeathModel(birth, death, label="quadratic")


def rate_vector(fn: RateFn, t: float, xs: np.ndarray) -> np.ndarray:
    """Rate values over a state array, normalized to a writable float array."""
    out = np.asarray(fn(t, xs), dtype=float)
    if out.ndim == 0:
        return np.full(xs.shape, float(out))
    return np.array(out, dtype=float)


def generator_apply(model: BirthDeathModel, t: float, p) -> np.ndarray:
    """(A(t) p)(x) on the truncated state space {0..X_max}.

    birth(x-1)p(x-1) + death(x+1)p(x+1) - (birth(x)+death(x))p(x), with
    births out of X_max suppressed so the truncated generator conserves
    total mass (reflecting upper boundary). p may be an (..., X_max+1)
    stack; the generator acts on its last axis, with one rate evaluation
    shared by all rows.
    """
    from .basis import PmfVector

    if isinstance(p, PmfVector):
        p = p.p
    p = np.asarray(p, dtype=float)
    xs = np.arange(p.shape[-1])
    b = rate_vector(model.birth, t, xs)
    d = rate_vector(model.death, t, xs)
    b[-1] = 0.0
    out = -(b + d) * p
    out[..., 1:] += b[:-1] * p[..., :-1]
    out[..., :-1] += d[1:] * p[..., 1:]
    return out


@dataclass
class GrowthReport:
    """Fitted linear-growth envelope birth + death <= C (1 + x)."""

    C: float
    superlinear: bool
    x_argmax: int


def growth_check(model: BirthDeathModel, t_grid, X_max: int) -> GrowthReport:
    """Smallest C with birth + death <= C(1 + x) on the scanned grid.

    The flag reports whether the fitted C keeps growing with X_max, the
    signature of super-linear rates.
    """
    xs = np.arange(X_max + 1)

    def envelope(x_hi):
        best, arg = 0.0, 0
        for t in np.atleast_1d(t_grid):
            tot = rate_vector(model.birth, float(t), xs[:x_hi + 1]) \
                + rate_vector(model.death, float(t), xs[:x_hi + 1])
            ratio = tot / (1.0 + xs[:x_hi + 1])
            i = int(np.argmax(ratio))
            if ratio[i] > best:
                best, arg = float(ratio[i]), i
        return best, arg

    c_half, _ = envelope(max(X_max // 2, 1))
    c_full, x_arg = envelope(X_max)
    return GrowthReport(C=c_full, superlinear=c_full > 1.05 * c_half,
                        x_argmax=x_arg)
