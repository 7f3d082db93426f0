"""Moment-closure engine: closed-form expectations of queueing functionals
under zeroth- and first-order Charlier surrogates, moment matching, and
delay probability.

Every closed form here is derived by linearity from Poisson expectations,

    E_s[f] = E_P[f] + a1 (E_P[Q f] - q E_P[f]),

with the Q-weighted Poisson expectations reduced through the Chen-Stein
identity E_P[Q g(Q)] = q E_P[g(Q+1)]. The unit tests pin each form against
a brute-force surrogate-sum oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    "QueueTerms",
    "queue_terms",
    "delay_probability",
    "moment_match",
]


@dataclass(slots=True)
class SurrogateParams:
    """Charlier surrogate p(x) = w(x; q) (1 + a1 (x - q)), a probability
    surrogate: its total mass is 1. Order "zeroth" forces a1 = 0.

    Not frozen: the closure solver matches one per rhs evaluation, and
    frozen field setting made Erlang-A `figures` about 0.12 s (6%) slower
    on 2 vCPUs. The fields are checked only at construction, so they are
    set there and not reassigned.
    """

    q: float
    order: str
    a1: float = 0.0
    over_dispersed: bool = False

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError(f"surrogate parameter must be positive, got q={self.q}")
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


def _surrogate_value(s: SurrogateParams, e0: float, e1: float) -> float:
    """E_P[f] + a1 (E_P[Q f] - q E_P[f]) from the two Poisson blocks."""
    return e0 + s.a1 * (e1 - s.q * e0)


def surrogate_moment(s: SurrogateParams, k: int) -> float:
    """E_s[Q^k] = T_k(q) + a1 (T_{k+1}(q) - q T_k(q))."""
    return _surrogate_value(s, touchard(k, s.q), touchard(k + 1, s.q))


def surrogate_moments(s: SurrogateParams, n: int) -> list[float]:
    """[E_s[Q], ..., E_s[Q^n]], each T_k read once; entry k - 1 equals
    surrogate_moment(s, k) exactly. Reads T_1..T_{n+1}, or T_1..T_n when
    a1 = 0: there every a1 (T_{k+1} - q T_k) term is exactly zero."""
    t = [touchard(k, s.q) for k in range(1, n + 1 + (s.a1 != 0.0))]
    if s.a1 == 0.0:
        return t
    return [_surrogate_value(s, lo, hi) for lo, hi in zip(t, t[1:])]


# Poisson(q) building blocks; tails written with argument order (rate q,
# threshold c). Repeated Chen-Stein reduction supplies the Q- and
# Q^2-weighted versions of each functional.

def _pois_overflow(q: float, c: int) -> float:
    """E_P[(Q - c)^+] = q G(q, c-1) - c G(q, c) with G the upper tail."""
    return q * upper_tail(q, c - 1) - c * upper_tail(q, c)


def _pois_q_overflow(q: float, c: int) -> float:
    """E_P[Q (Q - c)^+] = q^2 G(q, c-2) - q (c-1) G(q, c-1)."""
    return q * q * upper_tail(q, c - 2) - q * (c - 1) * upper_tail(q, c - 1)


def _pois_q2_overflow(q: float, c: int) -> float:
    """E_P[Q^2 (Q - c)^+] = q (E_P[Q (Q-(c-1))^+] + E_P[(Q-(c-1))^+])."""
    return q * (_pois_q_overflow(q, c - 1) + _pois_overflow(q, c - 1))


def _pois_ind_below(q: float, z: int) -> float:
    """E_P[1{Q < z}]."""
    return lower_tail(q, z - 1)


def _pois_q_ind_below(q: float, z: int) -> float:
    """E_P[Q 1{Q < z}] = q P(Q < z - 1)."""
    return q * lower_tail(q, z - 2)


def _pois_q2_ind_below(q: float, z: int) -> float:
    """E_P[Q^2 1{Q < z}] = q (E_P[Q 1{Q < z-1}] + P(Q < z - 1))."""
    return q * (_pois_q_ind_below(q, z - 1) + _pois_ind_below(q, z - 1))


def expected_overflow(s: SurrogateParams, c: int) -> float:
    """E_s[(Q - c)^+], the expected number of waiting customers."""
    if c < 0:
        raise ValueError("threshold c must be nonnegative")
    return _surrogate_value(s, _pois_overflow(s.q, c), _pois_q_overflow(s.q, c))


def expected_min(s: SurrogateParams, c: int) -> float:
    """E_s[Q ^ c] via the identity Q ^ c = Q - (Q - c)^+."""
    if c < 0:
        raise ValueError("threshold c must be nonnegative")
    return surrogate_moment(s, 1) - expected_overflow(s, c)


def expected_indicator_below(s: SurrogateParams, z: int) -> float:
    """E_s[1{Q < z}]; the Erlang-loss admission probability at cap z.

    With a1 = 0 the Q-weighted tail is not read, as in `queue_terms`: for
    a finite q its term a1 (E_P[Q 1{Q < z}] - q E_P[1{Q < z}]) is then
    exactly zero, so E_P[1{Q < z}] alone is the value bit for bit.
    """
    if z < 0:
        raise ValueError("cap z must be nonnegative")
    e0 = _pois_ind_below(s.q, z)
    if s.a1 == 0.0:
        return e0
    return _surrogate_value(s, e0, _pois_q_ind_below(s.q, z))


def expected_q_times_overflow(s: SurrogateParams, c: int) -> float:
    """E_s[Q (Q - c)^+]."""
    if c < 0:
        raise ValueError("threshold c must be nonnegative")
    return _surrogate_value(s, _pois_q_overflow(s.q, c),
                            _pois_q2_overflow(s.q, c))


def expected_q_times_min(s: SurrogateParams, c: int) -> float:
    """E_s[Q (Q ^ c)] = E_s[Q^2] - E_s[Q (Q - c)^+]."""
    return surrogate_moment(s, 2) - expected_q_times_overflow(s, c)


def expected_q_times_indicator_below(s: SurrogateParams, z: int) -> float:
    """E_s[Q 1{Q < z}]."""
    if z < 0:
        raise ValueError("cap z must be nonnegative")
    return _surrogate_value(s, _pois_q_ind_below(s.q, z),
                            _pois_q2_ind_below(s.q, z))


@dataclass
class CovarianceTerms:
    """Cov[Q, .] assemblies under one surrogate, as E[XY] - E[X]E[Y]."""

    overflow: float
    minimum: float
    below: float | None


def covariance_terms(s: SurrogateParams, c: int,
                     z: int | None) -> CovarianceTerms:
    mean = surrogate_moment(s, 1)
    cov_ovf = expected_q_times_overflow(s, c) - mean * expected_overflow(s, c)
    cov_min = expected_q_times_min(s, c) - mean * expected_min(s, c)
    cov_below = None
    if z is not None:
        cov_below = expected_q_times_indicator_below(s, z) \
            - mean * expected_indicator_below(s, z)
    return CovarianceTerms(overflow=cov_ovf, minimum=cov_min, below=cov_below)


class QueueTerms(NamedTuple):
    """The queue closures' expectations under one surrogate; without a cap
    `admit` is 1 and `cov_below` 0, and the covariances are None at
    zeroth order."""

    mean: float
    minimum: float
    overflow: float
    admit: float
    cov_overflow: float | None
    cov_minimum: float | None
    cov_below: float | None


def queue_terms(s: SurrogateParams, c: int, z: int | None,
                first: bool) -> QueueTerms:
    """One-block evaluation of what a queue closure's right-hand side needs:
    E_s[Q], E_s[Q ^ c], E_s[(Q - c)^+], the admission probability
    E_s[1{Q < z}] and, when `first`, Cov[Q, .] of the last three.

    Each distinct Poisson value is read once: the upper tails
    G(q, c-j) for j = 0..3, the Touchard moments T_1..T_3 and the lower
    tails at z-1..z-3 with covariances, one fewer of each without. A
    surrogate with a1 = 0 (every zeroth-order one, and the over-dispersed
    first-order fallback) needs one fewer again: its a1 terms are exactly
    zero, so the Q-weighted values that feed only them are not read. The
    assembly repeats the float operations of the single closed forms above
    in the same order, the a1 terms aside when a1 = 0, so every field
    equals its closed form exactly.
    """
    if c < 0:
        raise ValueError("threshold c must be nonnegative")
    if z is not None and z < 0:
        raise ValueError("cap z must be nonnegative")
    q, a1 = s.q, s.a1
    corr = a1 != 0.0  # the a1 (first-order correction) terms count
    # Q-weighting levels the blocks need; g[j] = G(q, c - j)
    depth = 1 + first + corr
    g = [upper_tail(q, c - j) for j in range(depth + 1)]
    moments = surrogate_moments(s, 1 + first)
    mean = moments[0]
    pois_ovf = q * g[1] - c * g[0]
    if depth > 1:
        pois_q_ovf = q * q * g[2] - q * (c - 1) * g[1]
    overflow = pois_ovf
    if corr:
        overflow += a1 * (pois_q_ovf - q * pois_ovf)
    minimum = mean - overflow
    admit = 1.0
    if z is not None:
        low = [lower_tail(q, z - 1 - j) for j in range(depth)]
        admit = low[0]
        if corr:
            admit += a1 * (q * low[1] - q * low[0])
    if not first:
        return QueueTerms(mean, minimum, overflow, admit, None, None, None)
    q_ovf = pois_q_ovf
    if corr:
        pois_q2_ovf = q * ((q * q * g[3] - q * (c - 2) * g[2])
                           + (q * g[2] - (c - 1) * g[1]))
        q_ovf += a1 * (pois_q2_ovf - q * pois_q_ovf)
    q_min = moments[1] - q_ovf
    cov_below = 0.0
    if z is not None:
        q_below = q * low[1]
        if corr:
            q_below += a1 * (q * (q * low[2] + low[1]) - q * (q * low[1]))
        cov_below = q_below - mean * admit
    return QueueTerms(mean, minimum, overflow, admit,
                      q_ovf - mean * overflow, q_min - mean * minimum,
                      cov_below)


def delay_probability(s: SurrogateParams, c: int) -> float:
    """P(Q >= c) under the surrogate."""
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
    """
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
