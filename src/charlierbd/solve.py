"""Time integration: the truncated-master-equation reference solver, the
order-N spectral Galerkin solver, the explicit zeroth/first-order closure
solver, and a thinning-based path simulator used as a second oracle.

All solvers are deterministic: identical inputs (and seed) give
bit-identical trajectories.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import closure as _closure
from .basis import CoeffVector
from .basis import project_density  # unused here; perfbench/tracer.py wraps it
from .closure import MomentState, closure_evaluator, moment_match
from .models import BirthDeathModel, affine_rates, generator, generator_apply

__all__ = [
    "TimeGrid",
    "Trajectory",
    "IntegrationError",
    "SolverError",
    "RateBoundError",
    "integrate",
    "solve_reference",
    "solve_galerkin",
    "galerkin_matrices",
    "solve_closure",
    "simulate_paths",
    "basis_parameter_prepass",
]

log = logging.getLogger("charlierbd")

_Q_FLOOR = 1e-9  # q -> 0 tail limits used below this mean


class IntegrationError(RuntimeError):
    pass


class SolverError(RuntimeError):
    pass


class RateBoundError(RuntimeError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    """Output times every dt_out on [t0, T], each output step split into
    `substeps` RK4 steps of dt_int. Construction checks the layout and
    raises ValueError for any other, steps too many to count included;
    the read-only `times` are built on first use, so a grid made only to
    validate a layout builds none. Output times past numpy's array size
    limit raise MemoryError, as too many for the machine's memory do."""

    t0: float
    T: float
    dt_out: float
    dt_int: float

    def __post_init__(self):
        span = self.T - self.t0
        if not 0 < span < np.inf:
            raise ValueError("horizon T must exceed t0, both finite")
        if not self.dt_out >= self.dt_int > 0:
            raise ValueError("need dt_out >= dt_int > 0")
        if np.inf in (span / self.dt_out, self.dt_out / self.dt_int):
            raise ValueError(f"dt_out = {self.dt_out:g} and dt_int = "
                             f"{self.dt_int:g} give more steps than a float "
                             "can count")
        n_out = round(span / self.dt_out)
        if not abs(n_out * self.dt_out - span) <= 1e-9 * span:
            raise ValueError(f"horizon T - t0 = {span:g} is not a whole number"
                             f" of output steps dt_out = {self.dt_out:g}")
        n_sub = round(self.dt_out / self.dt_int)
        if abs(n_sub * self.dt_int - self.dt_out) > 1e-9 * self.dt_out:
            raise ValueError("dt_out must be an integer multiple of dt_int")
        object.__setattr__(self, "substeps", n_sub)
        object.__setattr__(self, "n_out", n_out)

    @functools.cached_property
    def times(self) -> np.ndarray:
        try:
            steps = np.arange(self.n_out + 1)
        except ValueError as exc:   # "Maximum allowed size exceeded"
            raise MemoryError(f"{self.n_out + 1:.4g} output times: "
                              f"{exc}") from None
        times = self.t0 + self.dt_out * steps
        times.flags.writeable = False
        return times

    def coarsened(self, dt_out: float, dt_int: float) -> "TimeGrid":
        """The grid on [t0, T] with these steps if valid, else the nearest
        valid one: whole step counts nearest span / dt_out and dt_out /
        dt_int, at least one each."""
        try:
            return TimeGrid(self.t0, self.T, dt_out, dt_int)
        except ValueError:
            span = self.T - self.t0
            n_out = max(1, round(span / dt_out))
            n_sub = max(1, round(span / n_out / dt_int))
            return TimeGrid(self.t0, self.T, span / n_out,
                            span / (n_out * n_sub))


@dataclass
class Trajectory:
    """Output times plus per-time records and solver diagnostics."""

    times: np.ndarray
    meta: dict
    values: np.ndarray | None = None
    mean: np.ndarray | None = None
    variance: np.ndarray | None = None
    cum3: np.ndarray | None = None
    cum4: np.ndarray | None = None
    delay: np.ndarray | None = None
    se_mean: np.ndarray | None = None


# output states per block that `integrate` hands to its `reduce`; a block
# of reference pmfs at X_max 250 is 128 kB
_BLOCK = 64


def _rk4_step(rhs, t, y, h):
    """One classical RK4 step of y' = rhs(t, y) from (t, y). Every stage
    state and the new state are fresh arrays: y and the rhs values are
    read, never written."""
    hh = 0.5 * h
    k1 = rhs(t, y)
    k2 = rhs(t + hh, y + hh * k1)
    k3 = rhs(t + hh, y + hh * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_finite(block, times):
    """IntegrationError naming the first of `times` whose state, a row of
    block, is not finite."""
    if not np.isfinite(block).all():
        ok = np.isfinite(block.reshape(len(block), -1)).all(axis=1)
        raise IntegrationError(
            f"non-finite state at t={times[np.argmin(ok)]:.6g}")


def integrate(rhs, y0, grid: TimeGrid, h_max: float | None,
              reduce=lambda b: b, watch=None) -> Trajectory:
    """Integrate y' = rhs(t, y) with RK4 on the output grid: fixed steps
    of dt_int aligned with the output times when h_max is None or at most
    dt_int, else error-controlled steps between dt_int and h_max whose
    node states fill the output times by cubic Hermite interpolation.

    y0 may have any shape. At most _BLOCK states are held at once: each
    block of consecutive states, a (rows,) + y0.shape stack, is replaced
    by reduce(block), one row per state, and values stacks the reduced
    rows. The default reduce keeps the states, so values has shape
    (n_times,) + y0.shape; one that reduces each state to a few sums keeps
    memory at O(_BLOCK y0.size + n_times row size), not O(n_times y0.size).
    watch, if given, sees every block of states just before reduce does,
    the initial state included (under error control a block repeats the
    last node of the one before); its return value is dropped. The stepped
    states of a block are checked first: a non-finite one raises
    IntegrationError at its time, the first such time of the run. The
    steps of the block after it are taken and dropped, so numpy may warn
    of invalid values on the way; a FloatingPointError that they raise
    (numpy's "raise" error mode) becomes that same IntegrationError.

    At fixed step the states are the output states. Under error control
    (see `_integrate_controlled`) they are the node states, and reduce
    also maps each block of node slopes, so it must be linear for the
    interpolated rows to mean anything. meta records the steps taken
    (n_steps), the right-hand-side evaluations (n_rhs), the largest step
    allowed (h_max: dt_int at fixed step), the steps rejected (n_rejected)
    and taken at dt_int although rejected (n_floor), and the sum of the
    taken steps' error estimates (err_l1); the last three read 0 at fixed
    step, which estimates nothing.
    """
    y0 = np.asarray(y0, dtype=float)
    if h_max is not None and h_max > grid.dt_int:
        return _integrate_controlled(rhs, y0, grid, reduce, watch, h_max)
    times = grid.times
    n_sub = grid.substeps
    block = np.empty((_BLOCK,) + y0.shape)
    block[0] = y0
    k = 1   # states held in block
    start = 0   # output index of block[0]
    done = []
    y = y0.copy()
    h = grid.dt_int

    def check(rows):
        # the initial state is not a stepped one and is not checked
        skip = int(start == 0)
        _check_finite(rows[skip:], times[start + skip:start + len(rows)])
        if watch is not None:
            watch(rows)

    try:
        for i in range(times.size - 1):
            t = times[i]
            for j in range(n_sub):
                y = _rk4_step(rhs, t + j * h, y, h)
            if k == _BLOCK:
                check(block)
                done.append(reduce(block))
                block, k, start = np.empty_like(block), 0, start + _BLOCK
            block[k] = y
            k += 1
    except FloatingPointError:
        # a step after a blow-up held in the block: report the blow-up
        check(block[:k])
        raise
    check(block[:k])
    out = np.concatenate([*done, reduce(block[:k])])
    n_steps = (times.size - 1) * n_sub
    return Trajectory(times=times, values=out,
                      meta={"dt_int": h, "n_steps": n_steps,
                            "n_rhs": 4 * n_steps, "h_max": h,
                            "n_rejected": 0, "n_floor": 0, "err_l1": 0.0})


# error-controlled RK4: the estimate allowed per unit step, relative to the
# l1 norm of the initial state taken as at least _STEP_SCALE_MIN, so that a
# state started at 0 is allowed an error too; a pmf's norm is 1
_STEP_TOL = 3e-9
_STEP_SCALE_MIN = 0.5
# the longest step the reference and the closures take
_STEP_MAX = 1e-2
# RK4's stability interval on the negative real axis is [-2.785, 0]
_RK4_STABLE = 2.785


def _cubic(s, y0, hf0, y1, hf1):
    """The cubic Hermite interpolant at s in [0, 1] of an interval from
    state y0 to y1 whose end slopes, times its length, are hf0 and hf1."""
    return (((2 * s - 3) * s * s + 1) * y0 + ((s - 2) * s + 1) * s * hf0
            + (3 - 2 * s) * s * s * y1 + (s - 1) * s * s * hf1)


def _hermite(out, ts, ys, fs):
    """Rows at the times `out` by cubic Hermite interpolation of the rows
    ys, with slopes fs, at the increasing node times ts (at least two).
    Each time of out lies within [ts[0], ts[-1]], or beyond it by
    rounding only: it takes the first or the last interval."""
    i = np.clip(np.searchsorted(ts, out) - 1, 0, ts.size - 2)
    dt = (ts[i + 1] - ts[i]).reshape((-1,) + (1,) * (ys.ndim - 1))
    s = (out - ts[i]).reshape(dt.shape) / dt
    return _cubic(s, ys[i], dt * fs[i], ys[i + 1], dt * fs[i + 1])


def _integrate_controlled(rhs, y0, grid: TimeGrid, reduce, watch,
                          h_max: float) -> Trajectory:
    """`integrate` with error-controlled RK4 steps from grid.t0 to grid.T
    (Hairer, Norsett and Wanner, Solving ODEs I, II.4).

    Each step is a classical RK4 step. Its local error estimate is the
    order-3 one that comes free with RK4, h/6 ||k4 - k5||_1, where
    k5 = rhs(t + h, y_new) serves as the next step's k1. A step is taken
    when the estimate is at most _STEP_TOL h max(||y0||_1, _STEP_SCALE_MIN).
    The next step is h (0.9 (bound / estimate)^(1/3)), moved by at most a
    factor of 5 and kept within [dt_int, h_max]; a step tried at dt_int is
    taken even when it fails the test. The last step ends on grid.T, and
    a step that falls short of it by no more than 1e-9 of the rest is
    stretched to end there, so rounding in t + h leaves no sliver step.

    The node states and their slopes k1 go to reduce in blocks of
    _BLOCK, each block after the first starting on the last node of the
    one before, and each block's reduced rows fill the output times up to
    its last node by cubic Hermite interpolation, so memory stays
    O(_BLOCK y0.size + n_times row size)."""
    times = grid.times
    t_end, floor = times[-1], grid.dt_int
    tol = _STEP_TOL * max(float(np.abs(y0).sum()), _STEP_SCALE_MIN)
    states = np.empty((_BLOCK,) + y0.shape)
    slopes = np.empty_like(states)
    t, y, f = times[0], y0, rhs(times[0], y0)
    node_t, states[0], slopes[0] = [t], y0, f
    done = []
    filled = 0   # output times interpolated so far
    h = floor
    n_steps = n_rejected = n_floor = 0
    n_rhs, err_l1 = 1, 0.0

    def check(k):
        # row 0 is the initial state, not a stepped one, or the node that
        # the block before ended on and checked
        _check_finite(states[1:k], node_t[1:k])

    def flush(k):
        nonlocal filled
        check(k)
        if watch is not None:
            watch(states[:k])
        ts = np.array(node_t[:k])
        upto = np.searchsorted(times, ts[-1], side="right")
        done.append(_hermite(times[filled:upto], ts, reduce(states[:k]),
                             reduce(slopes[:k])))
        filled = upto

    k = 1   # nodes held in states
    try:
        while t < t_end:
            last = h >= (t_end - t) * (1 - 1e-9)
            step = t_end - t if last else h
            t_new = t_end if last else t + step
            half = 0.5 * step
            k2 = rhs(t + half, y + half * f)
            k3 = rhs(t + half, y + half * k2)
            k4 = rhs(t_new, y + step * k3)
            y_new = y + (step / 6.0) * (f + 2.0 * k2 + 2.0 * k3 + k4)
            k5 = rhs(t_new, y_new)
            n_rhs += 4
            err = step / 6.0 * float(np.abs(k4 - k5).sum())
            bound = tol * step
            ok = err <= bound
            if ok or h <= floor:
                n_steps += 1
                n_floor += not ok
                err_l1 += err
                if k == _BLOCK:
                    flush(k)
                    # the next block starts on this one's last node, the
                    # left end of its first interval
                    states, slopes = np.empty_like(states), \
                        np.empty_like(slopes)
                    states[0], slopes[0], node_t, k = y, f, [t], 1
                t, y, f = t_new, y_new, k5
                node_t.append(t)
                states[k], slopes[k] = y, f
                k += 1
            else:
                n_rejected += 1
            # a non-finite estimate shrinks the step by the largest factor
            grow = 0.9 * (bound / err) ** (1 / 3) if err else 5.0
            h = min(h_max, max(floor, step * min(5.0, max(0.2, grow))))
    except FloatingPointError:
        # a step after a blow-up held in the block: report the blow-up
        check(k)
        raise
    flush(k)
    return Trajectory(times=times, values=np.concatenate(done),
                      meta={"dt_int": floor, "n_steps": n_steps,
                            "n_rhs": n_rhs, "h_max": float(h_max),
                            "n_rejected": n_rejected, "n_floor": n_floor,
                            "err_l1": float(err_l1)})


# RK4 on y' = y A(t) with A = M0 + lam(t) M1 is one step y <- y + y D
# with D = P - I. With the stage matrices A1, A2 (= A3) and A4 at t,
# t + h/2 and t + h,
#   D = h/6 (A1 + 4 A2 + A4) + h^2/6 (A1 A2 + A2 A2 + A2 A4)
#       + h^3/12 (A1 A2 A2 + A2 A2 A4) + h^4/24 A1 A2 A2 A4,
# from K1 = A1, K2 = (I + h/2 K1) A2, K3 = (I + h/2 K2) A2,
# K4 = (I + h K3) A4 and D = h/6 (K1 + 2 K2 + 2 K3 + K4). Each term is
# (coefficient of h^k, stage of each of its k factors), the stages
# 0, 1, 2 being A1, A2, A4.
_RK4_TERMS = [(1 / 6, (0,)), (4 / 6, (1,)), (1 / 6, (2,)),
              (1 / 6, (0, 1)), (1 / 6, (1, 1)), (1 / 6, (1, 2)),
              (1 / 12, (0, 1, 1)), (1 / 12, (1, 1, 2)),
              (1 / 24, (0, 1, 1, 2))]
# the 30 words in {M0, M1} of length 1..4
_WORDS = [w for k in range(1, 5) for w in itertools.product((0, 1), repeat=k)]
# steps per propagator GEMM; the chunk's propagators are held at once, so
# 64 steps raised the Erlang-A table's peak RSS by about 3 MB
_CHUNK = 16
# most steps whose word coefficients are built and held at once, a
# multiple of _CHUNK: building them takes a few hundred array operations
_SEGMENT = 1024


def _rk4_word_coeffs(lam, t: np.ndarray, h: float) -> np.ndarray:
    """(steps, 30) coefficients a_w with D = sum_w a_w W_w of the RK4 steps
    from times t, from the drive at the three stage times of each step."""
    lam3 = lam(np.concatenate([t, t + 0.5 * h, t + h])).reshape(3, -1)
    a = np.zeros((t.size, len(_WORDS)))
    for i, w in enumerate(_WORDS):
        for coef, stages in _RK4_TERMS:
            if len(stages) == len(w):
                term = coef * h ** len(w)
                for bit, s in zip(w, stages):
                    if bit:
                        term = term * lam3[s]
                a[:, i] += term
    return a


def _rk4_words(M0: np.ndarray, M1: np.ndarray) -> np.ndarray:
    """(30, members, n, n) products W_w = M_w1 ... M_wk of the
    (members, n, n) stacks M0 and M1, in `_WORDS` order: word i >= 2 is
    word i // 2 - 1 times M_(i % 2)."""
    words = np.empty((len(_WORDS),) + M0.shape)
    words[0], words[1] = M0, M1
    for i in range(2, len(_WORDS)):
        np.matmul(words[i // 2 - 1], words[i % 2], out=words[i])
    return words


def _step_linear(M0, M1, lam, y0: np.ndarray, grid: TimeGrid, reduce):
    """RK4 for the members' independent systems y' = y (M0 + lam(t) M1),
    each step y <- y + y D_k with a precomputed increment propagator.

    The drive is sampled once at every stage time, with the float
    expressions `integrate` uses, and turned into word coefficients
    _SEGMENT steps at a time. The D_k of each _CHUNK steps come from one
    GEMM of their word coefficients with the word stack. Adding y D_k to
    y, rather than forming I + D_k, keeps the increment's low bits, as
    stagewise RK4 does. A lone member (every table row and
    `solve-galerkin`) makes the step product with np.dot on 1-D views,
    about 40% cheaper a step than the (1, 1, n) @ (1, n, n) matmul.

    As in `integrate`, no stack of states is kept. Each chunk's output
    states (after the steps that land on an output time) go to a pending
    stack as one strided view of the chunk; pending rows go to reduce in
    stacks of at least _BLOCK, (rows, members, n) each, and values stacks
    reduce(stack), one row per output time. A pending view pins its
    chunk's _CHUNK + 1 states, so memory is O(30 members n^2 + _CHUNK
    members n^2 + _SEGMENT + _BLOCK _CHUNK members n + n_times reduced
    row size).

    Members never mix, so a member whose state goes non-finite keeps
    stepping as a non-finite state without moving the others' bits; the
    loop ends with the chunk in which the last member failed. After the
    last reduce, each member reads NaN from its first non-finite reduced
    row on, so a finite state that reduces to a non-finite value counts
    as failed too; the rows after the loop ended read NaN. Returns
    (values, n_steps, propagator_s), n_steps counting the steps taken.
    """
    times = grid.times
    n_sub, h = grid.substeps, grid.dt_int
    start = time.perf_counter()
    words = _rk4_words(M0, M1)
    propagator_s = time.perf_counter() - start
    m, n = y0.shape
    # rows after the last member failed stay NaN
    out = np.full((times.size,) + reduce(y0[None]).shape[1:], np.nan)
    pending, held, pos = [y0[None]], 1, 0   # states not yet reduced
    y = y0[:, None, :]
    W = words.reshape(len(_WORDS), -1)
    n_steps = (times.size - 1) * n_sub
    for c in range(0, n_steps, _CHUNK):
        start = time.perf_counter()
        if c % _SEGMENT == 0:
            s = np.arange(c, min(c + _SEGMENT, n_steps))
            coeffs = _rk4_word_coeffs(lam, times[s // n_sub] + s % n_sub * h,
                                      h)
        D = (coeffs[c % _SEGMENT:c % _SEGMENT + _CHUNK] @ W).reshape(
            -1, m, n, n)
        propagator_s += time.perf_counter() - start
        Y = np.empty((len(D) + 1,) + y.shape)   # Y[j]: after step c + j
        Y[0] = y
        if m == 1:
            Ys, Ds, product = list(Y[:, 0, 0]), D[:, 0], np.dot
        else:
            Ys, Ds, product = list(Y), D, np.matmul
        for y_j, D_j, y_next in zip(Ys, Ds, Ys[1:]):
            product(y_j, D_j, out=y_next)
            y_next += y_j
        y = Y[-1]
        # the output rows, after the steps c + j with (c + j) % n_sub == 0
        rows = Y[(-(c + 1)) % n_sub + 1::n_sub, :, 0]
        if len(rows):
            pending.append(rows)
            held += len(rows)
            if held >= _BLOCK:
                out[pos:pos + held] = reduce(np.concatenate(pending))
                pending, held, pos = [], 0, pos + held
        # stop once every member has failed; a chunk with no failed
        # member passes the whole-state test, about 1 us cheaper
        if not np.isfinite(y).all() and not np.isfinite(y).all(-1).any():
            n_steps = c + len(D)
            break
    if held:
        out[pos:pos + held] = reduce(np.concatenate(pending))
    ok = np.isfinite(out.reshape(times.size, m, -1)).all(2)
    out[np.logical_or.accumulate(~ok, 0)] = np.nan
    return out, n_steps, propagator_s


def _raw_to_cumulants(m1, m2, m3, m4):
    var = m2 - m1**2
    c3 = m3 - 3 * m2 * m1 + 2 * m1**3
    c4 = m4 - 4 * m3 * m1 - 3 * m2**2 + 12 * m2 * m1**2 - 6 * m1**4
    return m1, var, c3, c4


def solve_reference(model: BirthDeathModel, p0, grid: TimeGrid,
                    c: int | None) -> Trajectory:
    """Truncated forward equations p' = A(t) p on {0..X_max}, X_max + 1
    being the length of the initial pmf p0, as numerical ground truth.

    A(t) is the generator of the rate vectors (lam(t) g, d) from
    `affine_rates`, so no rate callable runs inside the step loop; its
    stencil is built once per distinct stage time, twice per step. Emits
    direct-sum cumulants at each output time and, for a model with `c`
    servers (c not None), the delay probability P(X >= c).

    `integrate` steps under error control, between dt_int and a cap of
    min(_STEP_MAX, 2.785 / rho), rho = 2 max_x(lam_bar g(x) + d(x))
    being the Gershgorin bound of every A(t) on [t0, T] with lam_bar =
    lam.sup(t0, T): RK4 is stable for h rho <= 2.785 on the real
    spectrum of a birth-death generator; a cap at or below dt_int steps
    at dt_int. No pmf stack is kept: `integrate` reduces each block of
    node pmfs and of their slopes to the mass, raw moments 1-4 and delay,
    all linear in p, and interpolates those, so memory is
    O(_BLOCK (X_max+1) + n_times).
    Diagnoses mass conservation and the probability mass parked at the
    truncation boundary (warning above 1e-8, error above 1e-6); meta
    carries both, the smallest entry of any pmf (pmf_min), the step
    control's counts from `integrate` and the wall time of the whole call
    (wall_s). The boundary mass and pmf_min, which are not linear in p,
    are taken at the states stepped to only: the output times at fixed
    step, the nodes under error control. A blow-up raises
    IntegrationError naming the reference.
    """
    start = time.perf_counter()
    p0 = np.asarray(p0, dtype=float)
    X_max = p0.size - 1
    g, d = affine_rates(model, grid.times, X_max)
    lam = model.lam
    powers = [np.arange(X_max + 1, dtype=float) ** k for k in (1, 2, 3, 4)]
    rho = 2 * float(np.max(float(lam.sup(grid.t0, grid.T)) * g + d))
    h_max = _RK4_STABLE / rho if rho * _STEP_MAX > _RK4_STABLE else _STEP_MAX

    stage = [None, None]   # the last stage time and its stencil

    def rhs(t, p):
        # RK4's k2 and k3 share a time, as do k4 and the next step's k1:
        # two stencils per step
        if t != stage[0]:
            stage[:] = t, generator(lam(t) * g, d)
        return generator_apply(stage[1], p)

    def reduce(block):
        # per pmf: mass, raw moments 1-4 and, with servers, the delay
        # probability
        cols = [block.sum(axis=1), *(block @ x for x in powers)]
        if c is not None:
            cols.append(block[:, c:].sum(axis=1))
        return np.stack(cols, axis=1)

    seen = [0.0, np.inf]   # largest boundary mass, smallest entry

    def watch(block):
        seen[0] = max(seen[0], float(np.max(np.abs(block[:, -1]))))
        seen[1] = min(seen[1], float(np.min(block)))

    try:
        traj = integrate(rhs, p0, grid, h_max, reduce, watch)
    except IntegrationError as exc:
        raise IntegrationError(f"reference: {exc}") from None
    mass, m1, m2, m3, m4, *delay = traj.values.T
    mass_resid = float(np.max(np.abs(mass - p0.sum())))
    boundary, pmf_min = seen
    if boundary > 1e-6:
        raise SolverError(
            f"boundary mass {boundary:.3e} exceeds 1e-6; increase X_max")
    if boundary > 1e-8:
        warnings.warn(f"boundary mass {boundary:.3e} above 1e-8",
                      RuntimeWarning, stacklevel=2)
    m1, var, c3, c4 = _raw_to_cumulants(m1, m2, m3, m4)
    wall = time.perf_counter() - start
    m = traj.meta
    log.debug("reference: X_max %d, %d steps, %d rejected, %d at the floor, "
              "%d rhs calls, mass_residual %.3e, boundary_mass %.3e, "
              "pmf_min %.3e, %.3f s", X_max, m["n_steps"], m["n_rejected"],
              m["n_floor"], m["n_rhs"], mass_resid, boundary, pmf_min, wall)
    return Trajectory(times=traj.times, mean=m1, variance=var, cum3=c3,
                      cum4=c4, delay=delay[0] if delay else None,
                      meta={"solver": "reference", "X_max": X_max,
                            "mass_residual": mass_resid,
                            "boundary_mass": boundary, "pmf_min": pmf_min,
                            "wall_s": wall, **m})


def solve_galerkin(model: BirthDeathModel, coeffs: list[CoeffVector],
                   grid: TimeGrid, h_max: float | None = None
                   ) -> list[Trajectory]:
    """Order-N spectral solver for the coefficient system c' = c M(t).

    M_ji(t) = (A(t) C~_j, C_i) projects the generator acting on the
    Charlier functions back onto the basis under the inverse-weighted
    inner product. The generator is affine in the drive, so
    M(t) = M0 + lam(t) M1 with both matrices built once per solve
    (`galerkin_matrices`). Each RK4 step is then c <- c + c D_k, with a
    propagator D_k precomputed from the drive at the step's stage times
    (`_step_linear`), so no right-hand side is evaluated.

    h_max reads as in `integrate`. When it is None or h_max / 2 is at
    most dt_int, the members step at dt_int on the output grid. Else the
    batch's node step is picked by step doubling (`_doubled_rows`) and
    the nodes fill the output times by cubic Hermite interpolation, or
    the batch falls back to dt_int when no node step passes.

    coeffs holds the initial coefficients of each member, each against
    its own basis, all on one X_max; one Trajectory comes back per member.
    All members are zero-padded to the largest order and stepped together;
    they never mix. No coefficient stack is kept: each chunk's output
    rows are reduced to every member's c0 and raw moments 1-4 from its own
    unpadded coefficients (at nodes, also those of the slope c M(t)), so
    memory is O(30 members n^2 + the chunk's propagators + the chunks
    that pending rows pin + 15 members (n_times + nodes)), n being the
    largest order plus one. Failed members are masked after the
    reduction: a member comes back with meta["failed"] set and NaN values
    from the first output time at which its c0 or a raw moment is
    non-finite. A non-finite state always makes one so, and a finite
    state whose moments overflow counts as failed too. A one-member call
    steps on 1-D views with the batch's arithmetic (see `_step_linear`).
    meta carries the steps taken (n_steps) and where the time went:
    assembly_s (the two matrices, rate evaluation included), propagator_s
    (drive samples, words and propagator GEMMs), loop_s (the step
    products, reductions and interpolation) and wall_s (the whole call);
    the step-doubled runs' propagator_s and loop_s include the probes. A
    step-doubled batch also carries its node step (h: dt_int after a
    fall-back), the steps of its discarded runs (n_probe_steps) and the
    member's accepted estimate (step_err, 0 after a fall-back).
    """
    start = time.perf_counter()
    M0, M1, y0 = _galerkin_system(model, coeffs, grid)
    assembly_s = time.perf_counter() - start
    bases = [cv.basis for cv in coeffs]
    xs = np.arange(bases[0].X_max + 1, dtype=float)
    # moment row vectors: E[x^m] = (x^m w Phi^T) . c
    R = [np.stack([(xs**m * b.weights) @ b.table.T for m in (1, 2, 3, 4)])
         for b in bases]

    def reduce(block, S=None):
        # per member: c0 and raw moments 1-4 of its unpadded rows, then
        # with S those of the rows times M0 and times M1
        out = np.empty(block.shape[:2] + (5 if S is None else 15,))
        for k, (b, R_k) in enumerate(zip(bases, R)):
            rows = block[:, k, :b.N + 1]
            out[:, k, 0] = rows[:, 0]
            out[:, k, 1:5] = rows @ R_k.T
            if S is not None:
                out[:, k, 5:] = rows @ S[k]
        return out

    t_loop = time.perf_counter()
    probed = h_max is not None and h_max / 2 > grid.dt_int
    if probed:
        # [e0 | R^T] maps a member's rows to its reduced row
        S = []
        for k, (b, R_k) in enumerate(zip(bases, R)):
            n = b.N + 1
            L = np.concatenate([np.eye(n, 1), R_k.T], axis=1)
            S.append(np.concatenate([M0[k, :n, :n] @ L, M1[k, :n, :n] @ L],
                                    axis=1))
        values, n_steps, propagator_s, probe = _doubled_rows(
            M0, M1, model.lam, y0, grid, reduce,
            functools.partial(reduce, S=S), h_max)
    else:
        values, n_steps, propagator_s = _step_linear(
            M0, M1, model.lam, y0, grid, reduce)
        probe = {"h": grid.dt_int, "n_probe_steps": 0,
                 "step_err": np.zeros(len(bases))}
    loop_s = time.perf_counter() - t_loop - propagator_s
    c0 = values[:, :, 0]
    moments = np.moveaxis(values[:, :, 1:], -1, 0)
    _, moments[1], moments[2], moments[3] = _raw_to_cumulants(*moments)
    times = grid.times
    out = []
    for k, b in enumerate(bases):
        failed = bool(np.isnan(c0[-1, k]))
        drift = float(np.max(np.abs(c0[:, k] - c0[0, k])))
        if drift > 1e-9:
            warnings.warn(f"zeroth coefficient drift {drift:.3e} above 1e-9",
                          RuntimeWarning, stacklevel=2)
        mean, var, c3, c4 = moments[:, :, k]
        meta = {"solver": "galerkin", "N": b.N, "a": b.a, "X_max": b.X_max,
                "c0_drift": drift, "failed": failed, "dt_int": grid.dt_int,
                "n_steps": n_steps, "assembly_s": assembly_s,
                "propagator_s": propagator_s, "loop_s": loop_s}
        if probed:
            meta.update(h=probe["h"], n_probe_steps=probe["n_probe_steps"],
                        step_err=float(probe["step_err"][k]))
        out.append(Trajectory(times=times, mean=mean, variance=var,
                              cum3=c3, cum4=c4, meta=meta))
    wall = time.perf_counter() - start
    for tr in out:
        tr.meta["wall_s"] = wall
    log.debug("galerkin batch: %d member(s), orders %s, %d steps at h %.4g, "
              "%d probe steps, step_err %.3e, propagators %.3f s, step loop "
              "%.3f s, %.3f s", len(bases), [b.N for b in bases], n_steps,
              probe["h"], probe["n_probe_steps"], np.max(probe["step_err"]),
              propagator_s, loop_s, wall)
    return out


# step doubling on the Galerkin rows: a node step H passes when, at every
# node the runs at H and 2H share, each member's mean, variance, cum3 and
# cum4 differ by at most 15 _ROW_TOL times that column's largest magnitude
# (the Richardson estimate of the H run's error is the difference / 15).
# On the shipped Erlang-A config every row passes H = 5e-3 with an
# estimate of at most 4.7e-9 (see README, "Step control")
_ROW_TOL = 1e-8


def _node_grids(grid: TimeGrid, H: float) -> tuple[TimeGrid, TimeGrid]:
    """The node grids of step H and 2H on [t0, T], H rounded down so
    that T - t0 is an even number of steps."""
    span = grid.T - grid.t0
    n = max(1, math.ceil(span / (2 * H) - 1e-9))
    return (TimeGrid(grid.t0, grid.T, span / (2 * n), span / (2 * n)),
            TimeGrid(grid.t0, grid.T, span / n, span / n))


def _doubled_rows(M0, M1, lam, y0: np.ndarray, grid: TimeGrid, reduce,
                  slope_reduce, h_max: float):
    """`_step_linear`'s (values, n_steps, propagator_s), plus a dict of the
    node step (h), the discarded steps (n_probe_steps) and each member's
    accepted estimate (step_err), for rows whose node step is picked by
    step doubling (Hairer, Norsett and Wanner, Solving ODEs I, II.4).

    The first node step H is h_max / 2, so the 2H run never exceeds h_max;
    every H is rounded down to divide T - t0 into an even number of steps.
    `_step_linear` runs on the node grids of step H, reduced by
    slope_reduce to the rows of reduce followed by those of c M0 and
    c M1, and of step 2H, reduced by reduce. The cumulants of the two
    runs at their shared nodes give each member's estimate, the largest
    over the four columns of max |y_H - y_2H| / 15 over that column's
    largest |y_H|. H passes when every member's estimate is at most
    _ROW_TOL and the H run is finite; its nodes' rows and their slopes,
    c M0 + lam(t) c M1 reduced, fill the output times by cubic Hermite
    interpolation. A failing H moves to the order-4 law's
    H 0.9 (_ROW_TOL / estimate)^(1/4), rounded as above. The rows step
    at dt_int on the output grid, as without h_max, once the law's step
    is below 2 dt_int or a probe run is non-finite; h is then dt_int, each
    step_err 0 and every probe step counts in n_probe_steps. The probes
    run under np.errstate(all="ignore"): their blow-ups are discarded."""
    fine, coarse = _node_grids(grid, h_max / 2)
    n_probe, propagator_s = 0, 0.0
    with np.errstate(all="ignore"):
        while True:
            v_fine, n_fine, p_fine = _step_linear(M0, M1, lam, y0, fine,
                                                  slope_reduce)
            v_coarse, n_coarse, p_coarse = _step_linear(M0, M1, lam, y0,
                                                        coarse, reduce)
            propagator_s += p_fine + p_coarse
            if not (np.isfinite(v_fine).all()
                    and np.isfinite(v_coarse).all()):
                n_probe += n_fine + n_coarse
                break
            cum_fine, cum_coarse = (
                np.stack(_raw_to_cumulants(*np.moveaxis(v[:, :, 1:5], -1, 0)))
                for v in (v_fine[::2], v_coarse))
            diff = np.max(np.abs(cum_fine - cum_coarse), axis=1) / 15
            scale = np.max(np.abs(cum_fine), axis=1)
            # (4, members); a column that is 0 throughout passes only
            # with no difference
            err = np.divide(diff, scale, out=np.zeros_like(diff),
                            where=diff > 0).max(axis=0)
            if err.max() <= _ROW_TOL:
                ts = fine.times
                slopes = (v_fine[:, :, 5:10]
                          + lam(ts)[:, None, None] * v_fine[:, :, 10:])
                values = _hermite(grid.times, ts, v_fine[:, :, :5], slopes)
                return values, n_fine, propagator_s, {
                    "h": fine.dt_int, "n_probe_steps": n_probe + n_coarse,
                    "step_err": err}
            n_probe += n_fine + n_coarse
            H = fine.dt_int * 0.9 * (_ROW_TOL / err.max()) ** 0.25
            if H < 2 * grid.dt_int:
                break
            fine, coarse = _node_grids(grid, H)
    values, n_steps, p_fixed = _step_linear(M0, M1, lam, y0, grid, reduce)
    return values, n_steps, propagator_s + p_fixed, {
        "h": grid.dt_int, "n_probe_steps": n_probe,
        "step_err": np.zeros(y0.shape[0])}


def _galerkin_system(model: BirthDeathModel, coeffs: list[CoeffVector],
                     grid: TimeGrid):
    """(M0, M1, y0) of `solve_galerkin`'s batch: the (members, n, n)
    matrices and the (members, n) initial coefficients, every member
    zero-padded to n, the largest order plus one."""
    bases = [cv.basis for cv in coeffs]
    x_max = bases[0].X_max
    if any(b.X_max != x_max for b in bases):
        raise ValueError("all bases of one batch must share X_max")
    n = max(b.N for b in bases) + 1
    Phi = np.zeros((len(bases), n, x_max + 1))   # zero rows pad low orders
    y0 = np.zeros((len(bases), n))
    for k, (b, cv) in enumerate(zip(bases, coeffs)):
        Phi[k, :b.N + 1] = b.table
        y0[k, :b.N + 1] = cv.c
    Cw = Phi * np.stack([b.weights for b in bases])[:, None, :]
    M0, M1 = galerkin_matrices(*affine_rates(model, grid.times, x_max),
                               Phi, Cw)
    return M0, M1, y0


def galerkin_matrices(g, d, Phi, Cw) -> tuple[np.ndarray, np.ndarray]:
    """(M0, M1) with c @ (M0 + lam(t) M1) = Phi A(t)(c @ Cw).

    A(t) is the generator of the rate vectors (lam(t) g, d); Phi holds the
    Charlier rows C_i and Cw the weighted rows C~_j, as (..., n, X_max+1)
    stacks. M0 is the death part and M1 the birth part per unit drive.
    """
    zero = np.zeros_like(d)
    phi_t = np.swapaxes(Phi, -1, -2)
    return (generator_apply(generator(zero, d), Cw) @ phi_t,
            generator_apply(generator(g, zero), Cw) @ phi_t)


def _closure_rhs(params, order: str, counts: dict):
    """Mean(/variance) vector field for the explicit closure solver: with
    the record's `closure_evaluator` terms under the matched surrogate,
    mean' = lam E[g] - E[d] and
    var' = lam E[g] + E[d] + 2 (lam Cov[Q, g] - Cov[Q, d]).

    The zeroth-order state is the mean alone, a scalar, so its RK4 steps
    are scalar arithmetic; the first-order state is the array (mean,
    variance). counts["over_dispersed"] counts the evaluations whose
    first-order target was over dispersed."""
    lam = params.lam
    terms = closure_evaluator(params.g_terms, params.d_terms,
                              order == "first")
    if order == "zeroth":
        def rhs(t, m):
            s = moment_match(max(m, _Q_FLOOR), None)
            e_g, e_d, _, _ = terms(s)
            return lam(t) * e_g - e_d
        return rhs

    def rhs(t, y):
        s = moment_match(max(y[0], _Q_FLOOR), y[1])
        if s.over_dispersed:
            counts["over_dispersed"] += 1
        e_g, e_d, cov_g, cov_d = terms(s)
        lam_t = lam(t)
        return np.array([lam_t * e_g - e_d,
                         lam_t * e_g + e_d + 2 * (lam_t * cov_g - cov_d)])
    return rhs


def solve_closure(kind: str, params, order: str, init: MomentState,
                  grid: TimeGrid, h_max: float | None = _STEP_MAX
                  ) -> Trajectory:
    """Explicit zeroth/first-order moment-closure trajectories.

    Zeroth order evolves the mean (variance reported as the surrogate's
    q); first order evolves (mean, variance). A model with servers (a
    params record with `c`) also emits the delay probability per output
    time. `kind` must be the record's.

    The closure steps through `integrate` with h_max passed on, as the
    reference does: error-controlled RK4 steps between dt_int and h_max,
    whose node states fill the output times by cubic Hermite
    interpolation, or fixed steps of dt_int on the output grid when h_max
    is None or at most dt_int.

    meta carries `integrate`'s step keys (dt_int, n_steps, n_rhs, h_max,
    n_rejected, n_floor, err_l1), the share of the rhs evaluations that
    met an over-dispersed first-order target (over_dispersed_fraction)
    and the wall time of the whole call (wall_s). A blow-up raises
    IntegrationError naming the closure's order.
    """
    start = time.perf_counter()
    if kind != params.kind:
        raise ValueError(f"model kind {kind!r} does not match the "
                         f"{params.kind!r} params record")
    if order not in ("zeroth", "first"):
        raise ValueError(f"unknown closure order {order!r}")
    counts = {"over_dispersed": 0}
    rhs = _closure_rhs(params, order, counts)
    y0 = (init.mean if order == "zeroth"
          else np.array([init.mean, init.variance], dtype=float))
    try:
        traj = integrate(rhs, y0, grid, h_max)
    except IntegrationError as exc:
        raise IntegrationError(f"{order}-order closure: {exc}") from None
    if order == "zeroth":
        mean, var = traj.values, traj.values.copy()
    else:
        mean, var = traj.values.T
    delay = None
    if hasattr(params, "c"):
        s = moment_match(np.maximum(mean, _Q_FLOOR),
                         var if order == "first" else None)
        delay = _closure.delay_probability(s, params.c)
    m = traj.meta
    frac = counts["over_dispersed"] / m["n_rhs"]
    wall = time.perf_counter() - start
    log.debug("closure %s/%s: %d steps, %d rejected, %d at the floor, "
              "%d rhs calls, %.3f s", kind, order, m["n_steps"],
              m["n_rejected"], m["n_floor"], m["n_rhs"], wall)
    return Trajectory(times=traj.times, mean=mean, variance=var, delay=delay,
                      meta={"solver": "closure", "kind": kind, "order": order,
                            "over_dispersed_fraction": frac, "wall_s": wall,
                            **m})


def basis_parameter_prepass(params, init: MomentState,
                            grid: TimeGrid) -> float:
    """Default Galerkin basis parameter: time-averaged zeroth-closure mean.

    One cheap fixed-step pre-pass on a coarsened grid.
    """
    span = grid.T - grid.t0
    coarse = grid.coarsened(max(grid.dt_out, span / 200),
                            max(grid.dt_int, span / 2000))
    traj = solve_closure(params.kind, params, "zeroth", init, coarse,
                         h_max=None)
    a = float(np.mean(traj.mean))
    return max(a, _Q_FLOOR)


def simulate_paths(model: BirthDeathModel, n_paths: int, seed: int,
                   grid: TimeGrid, x0: int, x0_dist: str) -> Trajectory:
    """Exact-in-law paths by thinning a dominating process (Lewis and
    Shedler, 1979).

    Between jumps a path's total rate lam(t) g(x) + d(x) moves only with
    the drive, so on output interval [t_i, t_{i+1}] it is at most
    B = lam_bar_i g(x) + d(x), with lam_bar_i = model.lam.sup(t_i, t_{i+1})
    the drive's exact maximum there. Each path draws its next candidate
    from rate B and accepts it as a birth or a death with probabilities
    lam(t) g(x) / B and d(x) / B. Paths advance independently, each on
    its own interval, and read g and d from `affine_rates` tables on
    {0..top} (ValueError for a model it refuses); as g[top] is truncated
    to 0, the tables double whenever a path reaches top. A candidate
    whose rate exceeds its bound raises RateBoundError. Emits the
    empirical mean and variance with delete-a-group jackknife standard
    errors for the mean (100 contiguous groups of paths, or one per path
    when fewer); deterministic for a fixed seed. No path history is kept:
    the state of each path at each output time is added into exact int64
    sums at that time, S2 of squared states and one state sum per group,
    whose total is S1, so memory is O(n_paths + 100 n_times). The mean is
    S1 / n_paths, the variance the correctly rounded (n S2 - S1^2) /
    (n (n-1)); a table top at which n_paths top^2 could reach 2^63 raises
    SolverError. Each pass of the loop draws one candidate time for every
    live path, then one uniform for every candidate before its path's
    interval end; meta carries the thinning candidates (n_candidates),
    the accepted births plus deaths (n_jumps), the passes (n_passes) and
    the wall time of the whole call (wall_s).
    """
    start = time.perf_counter()
    if n_paths < 2:
        raise ValueError("need at least two paths")
    lam = model.lam
    rng = np.random.default_rng(seed)
    times = grid.times
    n_int = times.size - 1
    if x0_dist == "point":
        xs = np.full(n_paths, x0, dtype=np.int64)
    elif x0_dist == "poisson":
        xs = rng.poisson(float(x0), size=n_paths).astype(np.int64)
    else:
        raise ValueError(f"unknown initial distribution {x0_dist!r}")

    def tables(top):
        if n_paths * top * top >= 2 ** 63:
            raise SolverError(f"{n_paths} paths up to state {top} overflow "
                              "the int64 sum of squared states")
        return affine_rates(model, times, top)

    top = 2 * int(xs.max()) + 2
    g, d = tables(top)
    sizes = np.array([len(c) for c in np.array_split(np.arange(n_paths),
                                                     min(100, n_paths))])
    n_groups = sizes.size
    # per output time: the sum of squared states, and the state sum of
    # each jackknife group at flat index time * n_groups + group
    s2 = np.zeros(times.size, dtype=np.int64)
    group_sums = np.zeros(times.size * n_groups, dtype=np.int64)
    # per output interval: its end and drive bound, +inf and 0 past the
    # last, so a path that reaches T needs no special case
    ends = np.append(times[1:], np.inf)
    bounds = np.append(lam.sup(times[:-1], times[1:]), 0.0)

    # per live path: state, clock, the flat index k * n_groups + group of
    # its last output time t_k, and the end and drive bound of its
    # interval [t_k, t_{k+1}]
    ts = np.full(n_paths, times[0])
    kg = np.repeat(np.arange(n_groups), sizes)
    t_end = np.full(n_paths, ends[0])
    lb = np.full(n_paths, bounds[0])
    add_at = np.add.at
    s2[0] = np.sum(xs * xs)
    add_at(group_sums, kg, xs)
    exponential, uniform = rng.standard_exponential, rng.random
    n_candidates = n_jumps = n_passes = 0
    while xs.size:
        n_passes += 1
        gx, dx = g.take(xs), d.take(xs)
        B = lb * gx
        B += dx
        t_new = exponential(xs.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new /= B          # B = 0: no candidate, t_new = inf
        t_new += ts
        hit = t_new <= t_end
        h = np.flatnonzero(hit)
        if h.size:
            n_candidates += h.size
            Bh = B.take(h)
            b = gx.take(h)
            b *= lam(t_new.take(h))
            tot = dx.take(h)
            tot += b
            if np.any(tot > Bh * (1 + 1e-12)):
                worst = float(np.max(tot - Bh))
                raise RateBoundError(
                    f"thinning rate exceeds its bound by {worst:.3e}: a rate "
                    "is negative or the drive's sup under-reports its "
                    "maximum")
            u = uniform(h.size)
            u *= Bh
            # a birth when u < b, a death when b <= u < tot: d >= 0, so
            # `down` holds every `up`, and d(0) = 0 keeps every state >= 0
            up, down = u < b, u < tot
            xh = xs.take(h)
            xh += up
            xh += up
            xh -= down
            xs[h] = xh
            n_jumps += np.count_nonzero(down)
            if xh.max() == top:
                top *= 2
                g, d = tables(top)
        # a path without a candidate before its interval end reaches it;
        # fmin also takes t_end over an infinite or NaN t_new
        ts = np.fmin(t_new, t_end)
        m = np.flatnonzero(~hit)
        if m.size:
            flat = kg.take(m)
            flat += n_groups
            kg[m] = flat
            km = flat // n_groups
            t_end[m] = ends.take(km)
            lb[m] = bounds.take(km)
            xm = xs.take(m)
            add_at(s2, km, xm * xm)
            add_at(group_sums, flat, xm)
            if km.max() == n_int:
                live = kg < n_int * n_groups
                xs, ts, kg, t_end, lb = (
                    a[live] for a in (xs, ts, kg, t_end, lb))

    group_sums = group_sums.reshape(times.size, n_groups)
    # the int64 sums are exact, so the group sums add up to S1
    s1 = group_sums.sum(axis=1)
    m1 = s1 / n_paths
    # exact Python ints, one correctly rounded division per output time
    den = n_paths * (n_paths - 1)
    var = np.array([(n_paths * q - s * s) / den
                    for s, q in zip(s1.tolist(), s2.tolist())])
    se = _jackknife_se_mean(group_sums, sizes)
    wall = time.perf_counter() - start
    log.debug("simulate: %d paths, %d thinning candidates, %d jumps, %d "
              "passes, %.3f s", n_paths, n_candidates, n_jumps, n_passes, wall)
    return Trajectory(times=times, mean=m1, variance=var, se_mean=se,
                      meta={"solver": "simulate", "n_paths": n_paths,
                            "seed": seed, "n_candidates": n_candidates,
                            "n_jumps": n_jumps, "n_passes": n_passes,
                            "wall_s": wall})


def _jackknife_se_mean(group_sums: np.ndarray,
                       sizes: np.ndarray) -> np.ndarray:
    """Delete-a-group jackknife standard error of the per-time mean, from
    the per-time state sums of each group (columns) of `sizes` paths."""
    g = sizes.size
    n_paths = int(sizes.sum())
    total = group_sums.sum(axis=1, keepdims=True)
    reps = (total - group_sums) / (n_paths - sizes)
    est = total / n_paths
    return np.sqrt((g - 1) / g * ((reps - est) ** 2).sum(axis=1))
