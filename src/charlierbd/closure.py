"""Moment-closure engine: expectations of queueing functionals under
zeroth- and first-order Charlier surrogates, moment matching, and delay
probability.

Every expectation here is derived by linearity from Poisson expectations,

    E_s[f] = E_P[f] + a1 (E_P[Q f] - q E_P[f]),

with the Q-weighted Poisson expectations reduced through the Chen-Stein
identity E_P[Q g(Q)] = q E_P[g(Q+1)] to the Poisson tails of `_block`
and the Touchard values of `surrogate_moments`. The solver's
`closure_evaluator` and the single closed forms (`expected_overflow`, ...)
all read these two, so the oracles that test the forms test that code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# a series of surrogates has ndarray fields; tested for by type, against
# this module-level name, in the scalar hot path
from numpy import ndarray

from .special import lower_tail, poisson_pmf, touchard, upper_tail

__all__ = [
    "SurrogateParams",
    "MomentState",
    "surrogate_pmf",
    "surrogate_moment",
    "surrogate_moments",
    "expected_overflow",
    "expected_min",
    "expected_indicator_below",
    "expected_q_times_overflow",
    "expected_q_times_min",
    "expected_q_times_indicator_below",
    "CovarianceTerms",
    "covariance_terms",
    "closure_evaluator",
    "delay_probability",
    "moment_match",
]


@dataclass(slots=True)
class SurrogateParams:
    """Charlier surrogate p(x) = w(x; q) (1 + a1 (x - q)), a probability
    surrogate: its total mass is 1. Order "zeroth" forces a1 = 0. q, a1
    and over_dispersed may be arrays of one series of surrogates, as
    `moment_match` makes them from a series of targets; `delay_probability`
    takes such a series.

    Not frozen: the closure solver matches one per rhs evaluation, and
    frozen field setting made Erlang-A `figures` about 0.12 s (6%) slower
    on 2 vCPUs. The fields are checked only at construction, so they are
    set there and not reassigned.
    """

    q: float | np.ndarray
    order: str
    a1: float | np.ndarray = 0.0
    over_dispersed: bool | np.ndarray = False

    def __post_init__(self):
        q = self.q
        if (q <= 0).any() if type(q) is ndarray else q <= 0:
            raise ValueError(
                f"surrogate parameter must be positive, got q={q}")
        if self.order not in ("zeroth", "first"):
            raise ValueError(f"unknown surrogate order {self.order!r}")
        if self.order == "zeroth" and self.a1 != 0.0:
            raise ValueError("zeroth-order surrogate requires a1 = 0")


@dataclass
class MomentState:
    """Mean and variance at a time point."""

    mean: float
    variance: float


def surrogate_pmf(s: SurrogateParams, x_max: int) -> np.ndarray:
    """Tabulated surrogate density w(x; q) (1 + a1 (x - q)) on {0..x_max};
    may be signed."""
    xs = np.arange(x_max + 1)
    return poisson_pmf(s.q, x_max) * (1.0 + s.a1 * (xs - s.q))


def surrogate_moments(s: SurrogateParams, n: int) -> list[float]:
    """[E_s[Q], ..., E_s[Q^n]], each T_k read once. Reads T_1..T_{n+1},
    or T_1..T_n when a1 = 0: there every a1 (T_{k+1} - q T_k) term is
    exactly zero."""
    t = [touchard(k, s.q) for k in range(1, n + 1 + (s.a1 != 0.0))]
    if s.a1 == 0.0:
        return t
    return [lo + s.a1 * (hi - s.q * lo) for lo, hi in zip(t, t[1:])]


def surrogate_moment(s: SurrogateParams, k: int) -> float:
    """E_s[Q^k], the last entry of `surrogate_moments(s, k)`; 1.0 at k = 0."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    return surrogate_moments(s, k)[-1] if k else 1.0


# per closure functional: its highest power of Q in E_s[f], and its
# [E_s[f], E_s[Q f]] from m = [1, E_s[Q], E_s[Q^2], ...] and its `_block` o
_FUNCTIONALS = {
    "1": (0, lambda m, o: m),
    "x": (1, lambda m, o: m[1:]),
    "x2": (2, lambda m, o: m[2:]),
    "min": (1, lambda m, o: [mj - oj for mj, oj in zip(m[1:], o)]),
    "over": (0, lambda m, o: o),
    "below": (0, lambda m, o: o),
}


def _tilted(s: SurrogateParams) -> bool:
    """Whether `_block` must read the tails that feed s's a1 terms: a1 is
    nonzero, or an array (a series, whose a1 terms add exactly zero at its
    zero entries)."""
    return type(s.a1) is ndarray or s.a1 != 0.0


def _block(s: SurrogateParams, below: bool, c: int, width: int,
           tilted: bool) -> list:
    """[E_s[Q^j f] for j < width <= 2] of f = 1{Q < c} (below) or
    (Q - c)^+. Chen-Stein reduces each Poisson block E_P[Q^j f] to the
    tails t_j, P(Q <= c - 1 - j) or G(q, c - j); each is read once, and
    none that feeds only the a1 terms, exactly zero, unless `tilted` (see
    `_tilted`). A series of surrogates (`below` only) reads each tail
    once for the whole series."""
    q, a1 = s.q, s.a1
    depth = width + tilted   # E_P[Q^j f] for j < depth
    if below:
        p = [lower_tail(q, c - 1)]
        if depth > 1:
            t1 = lower_tail(q, c - 2)
            p.append(q * t1)
        if depth > 2:
            p.append(q * (q * lower_tail(q, c - 3) + t1))
    else:
        t0, t1 = upper_tail(q, c), upper_tail(q, c - 1)
        p = [q * t1 - c * t0]
        if depth > 1:
            t2 = upper_tail(q, c - 2)
            p.append(q * q * t2 - q * (c - 1) * t1)
        if depth > 2:
            p.append(q * ((q * q * upper_tail(q, c - 3) - q * (c - 2) * t2)
                          + (q * t2 - (c - 1) * t1)))
    return [lo + a1 * (hi - q * lo) for lo, hi in zip(p, p[1:])] \
        if tilted else p


def closure_evaluator(g: tuple, d: tuple, first: bool):
    """s -> (E_s[g], E_s[d], Cov_s[Q, g], Cov_s[Q, d]) under a surrogate s,
    the covariances None unless `first`, for rates g and d given as
    (functional, coefficient) terms: ("1",), ("x",), ("x2",), ("min", c)
    for x ^ c, ("over", c) for (x - c)^+ or ("below", z) for 1{x < z}.
    Each Poisson value it needs is read once."""
    terms = (*g, *d)
    if any(f[0] not in _FUNCTIONALS or f[1:] and f[1] < 0 for f, _ in terms):
        raise ValueError(f"closure terms {terms!r} leave the vocabulary")
    n = max(_FUNCTIONALS[f[0]][0] for f, _ in terms) + first

    def key(f):   # f's Poisson block, "min" sharing "over"'s; () if none
        return f[1:] and (f[0] == "below", f[1])
    keys = dict.fromkeys(key(f) for f, _ in terms if f[1:])
    # (0 for g or 1 for d, coefficient, source, block key) per term
    flat = [(r, coef, _FUNCTIONALS[f[0]][1], key(f))
            for r, rate in enumerate((g, d)) for f, coef in rate]

    def evaluate(s: SurrogateParams):
        m = [1.0, *(surrogate_moments(s, n) if n else [])]
        tilted = s.a1 != 0.0
        b = {k: _block(s, *k, 1 + first, tilted) for k in keys}
        e = [-0.0] * 4   # -0.0 + x is x, bit for bit
        for r, coef, source, k in flat:
            v = source(m, b.get(k))
            e[r] += coef * v[0]
            if first:
                e[r + 2] += coef * (v[1] - m[1] * v[0])
        return tuple(e) if first else (e[0], e[1], None, None)
    return evaluate


def expected_overflow(s: SurrogateParams, c: int) -> float:
    """E_s[(Q - c)^+], the expected number of waiting customers."""
    if c < 0:
        raise ValueError("threshold c must be nonnegative")
    return _block(s, False, c, 1, _tilted(s))[0]


def expected_min(s: SurrogateParams, c: int) -> float:
    """E_s[Q ^ c] via the identity Q ^ c = Q - (Q - c)^+."""
    return surrogate_moment(s, 1) - expected_overflow(s, c)


def expected_indicator_below(s: SurrogateParams, z: int) -> float:
    """E_s[1{Q < z}]; the Erlang-loss admission probability at cap z."""
    if z < 0:
        raise ValueError("cap z must be nonnegative")
    return _block(s, True, z, 1, _tilted(s))[0]


def expected_q_times_overflow(s: SurrogateParams, c: int) -> float:
    """E_s[Q (Q - c)^+]."""
    if c < 0:
        raise ValueError("threshold c must be nonnegative")
    return _block(s, False, c, 2, _tilted(s))[1]


def expected_q_times_min(s: SurrogateParams, c: int) -> float:
    """E_s[Q (Q ^ c)] = E_s[Q^2] - E_s[Q (Q - c)^+]."""
    return surrogate_moment(s, 2) - expected_q_times_overflow(s, c)


def expected_q_times_indicator_below(s: SurrogateParams, z: int) -> float:
    """E_s[Q 1{Q < z}]."""
    if z < 0:
        raise ValueError("cap z must be nonnegative")
    return _block(s, True, z, 2, _tilted(s))[1]


@dataclass
class CovarianceTerms:
    """Cov[Q, .] assemblies under one surrogate, as E[XY] - E[X]E[Y]."""

    overflow: float
    minimum: float
    below: float | None


def covariance_terms(s: SurrogateParams, c: int,
                     z: int | None) -> CovarianceTerms:
    """Cov_s[Q, f] for f = (Q - c)^+, Q ^ c and, given z, 1{Q < z}."""
    return CovarianceTerms(*(
        None if f[1] is None
        else closure_evaluator(((f, 1.0),), (), True)(s)[2]
        for f in (("over", c), ("min", c), ("below", z))))


def delay_probability(s: SurrogateParams, c: int):
    """P(Q >= c) under the surrogate; an array of them under a series."""
    if c < 0:
        raise ValueError("threshold c must be nonnegative")
    return 1.0 - expected_indicator_below(s, c)


def moment_match(mean: float, variance: float | None) -> SurrogateParams:
    """Surrogate parameters tracking a mean, or a (mean, variance) pair.

    Without a variance (None) the match is zeroth order: q = mean. With
    one it is first order, solving mean = q (1 + a1) and variance = mean
    - (q - mean)^2 with the a1 >= 0 root q = mean - sqrt(mean - variance),
    or the other root where that one is not positive. The family cannot
    represent variance > mean; such targets fall back to the zeroth-order
    point with the over-dispersion flag set.

    mean and variance may also be arrays, a series of targets, matched
    into one series of surrogates whose q, a1 and flags are arrays. Each
    entry is the scalar match of its target bit for bit: an over-dispersed
    target's root is 0, so its q is the mean and its a1 is exactly 0.
    """
    if type(mean) is ndarray:
        if (mean <= 0).any():
            raise ValueError("surrogate means must be positive")
        if variance is None:
            return SurrogateParams(q=mean, order="zeroth")
        gap = mean - variance
        root = np.sqrt(np.maximum(gap, 0.0))
        q = mean - root
        q = np.where(q <= 0, mean + root, q)
        return SurrogateParams(q=q, a1=mean / q - 1.0, order="first",
                               over_dispersed=gap < 0)
    if mean <= 0:
        raise ValueError(f"surrogate mean must be positive, got {mean}")
    if variance is None:
        return SurrogateParams(q=mean, order="zeroth")
    gap = mean - variance
    if gap < 0:
        return SurrogateParams(q=mean, order="first", over_dispersed=True)
    root = math.sqrt(gap)
    q = mean - root
    if q <= 0:
        q = mean + root
    return SurrogateParams(q=q, a1=mean / q - 1.0, order="first")
