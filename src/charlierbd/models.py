"""Birth-death process definitions: the model record, the built-in
model kinds, and the truncated generator's stencil and its application.

Every model has a birth rate lam(t) * g(x) and a death rate d(x): the
drive lam, a `SineDrive` or a `TableDrive`, carries all the time
dependence and gives its exact maximum (`sup`) and minimum (`inf`) over
an interval. Each built-in kind is one frozen params record in `KINDS`:
the config's model fields, g and d as (functional, coefficient) terms
(`g_terms`, `d_terms`) that `rate_values` evaluates and `closure` takes
expectations of, and a default X_max. `make_model` turns a record into a
`BirthDeathModel`; this module imports no other charlierbd module. Rate
callables take (t, x), broadcast over arrays in either slot, and are
pure; models are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SineDrive",
    "TableDrive",
    "BirthDeathModel",
    "InfiniteServerParams",
    "ErlangAParams",
    "ErlangLossParams",
    "QuadraticParams",
    "KINDS",
    "rate_values",
    "make_model",
    "affine_rates",
    "generator",
    "generator_apply",
]

RateFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SineDrive:
    """lam(t) = base + amp sin(t)."""

    base: float
    amp: float

    def __call__(self, t):
        return self.base + self.amp * np.sin(t)

    def sup(self, a, b) -> np.ndarray:
        """max of lam over [a, b], elementwise over arrays a <= b."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        ends = np.maximum(self(a), self(b))
        if self.amp == 0:
            return ends
        # a crest base + |amp| sits at pi/2 (amp > 0) or 3pi/2 (amp < 0)
        # modulo 2pi; take the first crest at or after a
        phase = np.pi / 2 if self.amp > 0 else 1.5 * np.pi
        crest = phase + 2 * np.pi * np.ceil((a - phase) / (2 * np.pi))
        return np.where(crest <= b, self.base + abs(self.amp), ends)

    def inf(self, a, b) -> np.ndarray:
        """min of lam over [a, b]: the negated sup of the negated drive."""
        return -SineDrive(-self.base, -self.amp).sup(a, b)


@dataclass(frozen=True)
class TableDrive:
    """lam(t) interpolated linearly in samples (t, v), held constant
    beyond the first and last knot (np.interp semantics)."""

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("tabulated lambda needs matching t/value arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("tabulated lambda samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("tabulated lambda times must increase")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    def __call__(self, t):
        return np.interp(t, self.t, self.v)

    def sup(self, a, b) -> np.ndarray:
        """max of lam over [a, b], elementwise over arrays a <= b: the
        larger end value or the largest knot value inside (a, b)."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
        ends = np.maximum(self(a), self(b))
        lo = np.searchsorted(self.t, a, side="right").ravel()
        hi = np.searchsorted(self.t, b, side="left").ravel()
        # reduceat over the pairs (lo, hi) gives max(v[lo:hi]) at the even
        # positions whenever lo < hi; the sentinel keeps hi = t.size valid
        padded = np.append(self.v, -np.inf)
        inner = np.maximum.reduceat(padded, np.stack([lo, hi], 1).ravel())
        inner = np.where(lo < hi, inner[::2], -np.inf).reshape(ends.shape)
        return np.maximum(ends, inner)

    def inf(self, a, b) -> np.ndarray:
        """min of lam over [a, b]: the negated sup of the negated drive."""
        return -TableDrive(self.t, -self.v).sup(a, b)


@dataclass(frozen=True)
class BirthDeathModel:
    """Rate callables plus the drive lam(t) they are affine in.

    Contract: birth(t, x) = lam(t) * g(x) and death(t, x) = d(x), where g
    and d do not depend on t; `affine_rates` recovers (g, d) and checks it.
    """

    birth: RateFn
    death: RateFn
    lam: SineDrive | TableDrive
    label: str


def _tail_cover(peak: float) -> int:
    """A queue's default X_max: peak level + 12 sqrt(peak) + 20."""
    return int(peak + 12 * math.sqrt(peak) + 20)


@dataclass(frozen=True)
class InfiniteServerParams:
    """Infinite-server queue: arrivals lam(t), each customer served at
    rate mu. g(x) = 1, d(x) = mu x."""

    kind = "infinite_server"
    lam: SineDrive | TableDrive
    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("service rate mu must be positive")

    def x_max(self, t0: float, T: float, x0: float) -> int:
        """Default X_max of a run from level x0 over [t0, T]."""
        return _tail_cover(float(self.lam.sup(t0, T)) / min(self.mu, 1.0))

    g_terms = ((("1",), 1.0),)
    d_terms = property(lambda p: ((("x",), p.mu),))


@dataclass(frozen=True)
class ErlangAParams(InfiniteServerParams):
    """Erlang-A queue: the infinite-server queue with only c servers and
    abandonment at rate beta per waiting customer.
    d(x) = mu (x ^ c) + beta (x - c)+."""

    kind = "erlang_a"
    beta: float
    c: int

    def __post_init__(self):
        super().__post_init__()
        if self.beta < 0:
            raise ValueError("abandonment rate beta must be nonnegative")
        if self.c < 1:
            raise ValueError("server count c must be at least 1")

    def x_max(self, t0: float, T: float, x0: float) -> int:
        # fluid level of the queue at the peak arrival rate, at least the
        # initial state and at most what arrivals add by T
        lam_max = float(self.lam.sup(t0, T))
        mu, beta, c = self.mu, self.beta, self.c
        if lam_max <= mu * c:
            fluid = lam_max / mu
        elif beta > 0:
            fluid = c + (lam_max - mu * c) / beta
        else:
            fluid = math.inf
        return _tail_cover(max(lam_max / min(mu, 1.0),
                               min(max(fluid, x0), x0 + lam_max * (T - t0))))

    d_terms = property(lambda p: ((("min", p.c), p.mu),
                                  (("over", p.c), p.beta)))


@dataclass(frozen=True)
class ErlangLossParams(ErlangAParams):
    """Erlang-A with k waiting spaces: arrivals are blocked at the cap
    c + k, so g(x) = 1{x < c + k}."""

    kind = "erlang_loss"
    k: int

    def __post_init__(self):
        super().__post_init__()
        if self.k < 0:
            raise ValueError("waiting spaces k must be nonnegative")

    g_terms = property(lambda p: ((("below", p.c + p.k), 1.0),))

    def x_max(self, t0: float, T: float, x0: float) -> int:
        return self.c + self.k + 1


@dataclass(frozen=True)
class QuadraticParams:
    """Logistic quadratic model: g(x) = x (Qtilde - x)+, d(x) = beta x.
    Its g terms are x (Qtilde - x): `rate_values` clamps them, the
    closure does not."""

    kind = "quadratic"
    lam: SineDrive | TableDrive
    Qtilde: int
    beta: float

    def __post_init__(self):
        if self.Qtilde < 1:
            raise ValueError("carrying capacity Qtilde must be at least 1")
        if self.beta <= 0:
            raise ValueError("death coefficient beta must be positive")

    def x_max(self, t0: float, T: float, x0: float) -> int:
        return int(1.4 * self.Qtilde) + 10

    g_terms = property(lambda p: ((("x",), p.Qtilde), (("x2",), -1.0)))
    d_terms = property(lambda p: ((("x",), p.beta),))


KINDS = {p.kind: p for p in (InfiniteServerParams, ErlangAParams,
                             ErlangLossParams, QuadraticParams)}


# the value at states x of each functional (name, *args) of the terms:
# 1, x, x^2, x ^ c, (x - c)+ and 1{x < z}
_VALUES = {"1": np.ones_like, "x": lambda x: x, "x2": lambda x: x * x,
           "min": np.minimum, "over": lambda x, c: np.maximum(x - c, 0.0),
           "below": lambda x, z: (x < z).astype(float)}


def rate_values(terms: tuple, x) -> np.ndarray:
    """The rate of (functional, coefficient) terms at states x: the terms
    summed in order, clamped at 0."""
    x = np.asarray(x, dtype=float)
    return np.maximum(sum(coef * _VALUES[f[0]](x, *f[1:])
                          for f, coef in terms), 0.0)


def make_model(p) -> BirthDeathModel:
    """The model of a params record: birth lam(t) g(x), death d(x)."""
    return BirthDeathModel(
        birth=lambda t, x: p.lam(t) * rate_values(p.g_terms, x),
        death=lambda t, x: rate_values(p.d_terms, x), lam=p.lam,
        label=p.kind)


def affine_rates(model: BirthDeathModel, times,
                 X_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(g, d) on {0..X_max} with birth(t, x) = lam(t) g(x), death(t, x) = d(x).

    g is scaled by the drive sample of largest |lam| on `times` (g = 0 if
    lam vanishes there), so a drive that is zero at some times never
    divides. g[X_max] = 0: the truncated process has no births out of
    X_max. Each rate callable runs once, broadcasting over (t, x); the
    contract is checked at times[0] and times[-1]. A model whose rates
    break it, that has a negative rate (lam below zero on `times`, or a
    negative entry of g or d), or whose death rate d(0) is positive (a
    death out of state 0 would leave the state space) raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    lam = model.lam(times)
    if np.any(lam < 0):
        raise ValueError(f"model {model.label!r}: lam reaches "
                         f"{lam.min():.6g} < 0; rates must be nonnegative")
    ts = np.array([times[np.argmax(np.abs(lam))], times[0],
                   times[-1]])[:, None]
    xs = np.arange(X_max + 1)
    # sample the drive on the array the birth callable receives, so g is
    # exact (1.0 for the queues) whichever numpy loop evaluates lam
    lam3 = model.lam(ts)
    B = np.broadcast_to(np.asarray(model.birth(ts, xs), dtype=float),
                        (3, X_max + 1))
    D = np.broadcast_to(np.asarray(model.death(ts[1:], xs), dtype=float),
                        (2, X_max + 1))
    g = B[0] / lam3[0] if lam3[0, 0] != 0 else np.zeros(X_max + 1)
    d = D[0].copy()

    def close(u, v):
        scale = max(float(np.max(np.abs(v))), 1.0)
        return np.allclose(u, v, rtol=1e-10, atol=1e-12 * scale)

    if not (close(B[1], lam3[1] * g) and close(B[2], lam3[2] * g)):
        raise ValueError(f"model {model.label!r}: birth(t, x) is not "
                         "lam(t) * g(x)")
    if not close(D[1], D[0]):
        raise ValueError(f"model {model.label!r}: death rate depends on t")
    if np.any(g < 0) or np.any(d < 0):
        raise ValueError(f"model {model.label!r}: negative rate on "
                         f"{{0..{X_max}}}; rates must be nonnegative")
    if d[0] > 0:
        raise ValueError(f"model {model.label!r}: death rate {d[0]:.6g} in "
                         "state 0; a death there would leave {0, 1, ...}")
    g[-1] = 0.0
    return g, d


def generator(b, d) -> tuple:
    """The stencil of the truncated generator A on {0..X_max} for the
    birth and death rate vectors b and d: its diagonals (-(b + d), b[:-1],
    d[1:]). b[X_max] is ignored: births out of X_max are suppressed so the
    truncated generator conserves total mass (reflecting upper boundary),
    and the main diagonal ends in -d[X_max]. The main diagonal is a fresh
    array and the others are views; b and d are only read."""
    diag = b + d
    diag[-1] = d[-1]
    return np.negative(diag, out=diag), b[:-1], d[1:]


def generator_apply(stencil, p: np.ndarray) -> np.ndarray:
    """(A p)(x) for the `generator` stencil of A:
    b(x-1)p(x-1) + d(x+1)p(x+1) - (b(x)+d(x))p(x), summed in the order
    diagonal, birth, death. p is a float array, a pmf or an
    (..., X_max+1) stack of them; A acts on its last axis. The result is
    a fresh array; the stencil and p are only read."""
    diag, birth, death = stencil
    out = diag * p
    # adding into views of out, not through out[...] = ..., saves a
    # write-back per term
    up, down = out[..., 1:], out[..., :-1]
    up += birth * p[..., :-1]
    down += death * p[..., 1:]
    return out
