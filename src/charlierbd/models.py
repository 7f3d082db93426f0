"""Birth-death process definitions: the model record, the built-in
queueing/quadratic models, and truncated generator application.

Every model has a birth rate lam(t) * g(x) and a death rate d(x): the
drive lam carries all the time dependence. The config drives, `SineDrive`
and `TableDrive`, also give their exact maximum over an interval
(`sup`), which the thinning simulator's rate bound needs. Rate callables
take (t, x), broadcast over array arguments in either slot, and must be
pure; models are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

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
    "make_infinite_server",
    "make_erlang_a",
    "make_erlang_loss",
    "make_quadratic",
    "affine_rates",
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


@dataclass(frozen=True)
class BirthDeathModel:
    """Rate callables plus the drive lam(t) they are affine in.

    Contract: birth(t, x) = lam(t) * g(x) and death(t, x) = d(x), where g
    and d do not depend on t; `affine_rates` recovers (g, d) and checks it.
    """

    birth: RateFn
    death: RateFn
    lam: Callable[[float], float]
    label: str = ""


@dataclass(frozen=True)
class InfiniteServerParams:
    """Arrival rate lam(t) and per-customer service rate mu."""

    lam: Callable[[float], float]
    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("service rate mu must be positive")


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


def make_infinite_server(p: InfiniteServerParams) -> BirthDeathModel:
    """Infinite-server queue: birth lam(t), death mu*x."""

    def birth(t, x):
        return np.asarray(p.lam(t), dtype=float) + 0.0 * np.asarray(x, dtype=float)

    def death(t, x):
        return p.mu * np.asarray(x, dtype=float)

    return BirthDeathModel(birth, death, p.lam, label="infinite_server")


def make_erlang_a(p: ErlangAParams) -> BirthDeathModel:
    """Erlang-A queue: birth lam(t), death mu*(x ^ c) + beta*(x - c)+."""

    def birth(t, x):
        return np.asarray(p.lam(t), dtype=float) + 0.0 * np.asarray(x, dtype=float)

    def death(t, x):
        xa = np.asarray(x, dtype=float)
        return p.mu * np.minimum(xa, p.c) + p.beta * np.maximum(xa - p.c, 0.0)

    return BirthDeathModel(birth, death, p.lam, label="erlang_a")


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

    return BirthDeathModel(birth, death, p.lam, label="erlang_loss")


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
    return BirthDeathModel(birth, death, p.lam, label="quadratic")


def affine_rates(model: BirthDeathModel, times,
                 X_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(g, d) on {0..X_max} with birth(t, x) = lam(t) g(x), death(t, x) = d(x).

    g is scaled by the drive sample of largest |lam| on `times` (g = 0 if
    lam vanishes there), so a drive that is zero at some times never
    divides. g[X_max] = 0: the truncated process has no births out of
    X_max. Each rate callable runs once, broadcasting over (t, x); the
    contract is checked at times[0] and times[-1], and a model whose rates
    break it raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    lam = np.broadcast_to(np.asarray(model.lam(times), dtype=float),
                          times.shape)
    ts = np.array([times[np.argmax(np.abs(lam))], times[0],
                   times[-1]])[:, None]
    xs = np.arange(X_max + 1)
    # sample the drive on the array the birth callable receives, so g is
    # exact (1.0 for the queues) whichever numpy loop evaluates lam
    lam3 = np.broadcast_to(np.asarray(model.lam(ts), dtype=float), ts.shape)
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
    g[-1] = 0.0
    return g, d


def generator_apply(b, d, p) -> np.ndarray:
    """(A p)(x) on the truncated state space {0..X_max} for rate vectors.

    b(x-1)p(x-1) + d(x+1)p(x+1) - (b(x)+d(x))p(x), with b and d the birth
    and death rates on {0..X_max}. b[X_max] is ignored: births out of
    X_max are suppressed so the truncated generator conserves total mass
    (reflecting upper boundary). p may be an (..., X_max+1) stack; the
    generator acts on its last axis.
    """
    p = np.asarray(p, dtype=float)
    out = -(b + d) * p
    out[..., -1] = -d[-1] * p[..., -1]
    out[..., 1:] += b[:-1] * p[..., :-1]
    out[..., :-1] += d[1:] * p[..., 1:]
    return out
