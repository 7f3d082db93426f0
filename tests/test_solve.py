import contextlib
import logging
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from charlierbd.basis import CharlierBasis, CoeffVector, project_density
from charlierbd.closure import MomentState, delay_probability, moment_match
from charlierbd.harness import ExperimentConfig, _make_lambda, run_galerkin
from charlierbd.models import (KINDS, BirthDeathModel, ErlangAParams,
                               ErlangLossParams, InfiniteServerParams,
                               QuadraticParams, SineDrive, TableDrive,
                               affine_rates, generator, generator_apply,
                               make_model)
from charlierbd import solve
from charlierbd.solve import (_BLOCK, _STEP_MAX, IntegrationError,
                              RateBoundError, SolverError, TimeGrid,
                              _closure_rhs, _galerkin_system,
                              _raw_to_cumulants, _step_linear,
                              galerkin_matrices, integrate, simulate_paths,
                              solve_closure, solve_galerkin, solve_reference)
from charlierbd.special import poisson_pmf


def lam_const(v):
    return SineDrive(v, 0.0)


def infinite_server(lam):
    return make_model(InfiniteServerParams(lam=lam, mu=1.0))


def small_erlang_a():
    return make_model(ErlangAParams(lam=SineDrive(4.0, 1.0),
                                    mu=1.0, beta=0.4, c=3))


def four_models():
    """One model of each built-in kind, all with a time-varying drive."""
    lam = SineDrive(4.0, 1.0)
    return [
        infinite_server(lam),
        small_erlang_a(),
        make_model(ErlangLossParams(lam=lam, mu=1.0, beta=0.4, c=3, k=4)),
        make_model(QuadraticParams(lam=SineDrive(0.1, 0.02), Qtilde=20,
                                   beta=1.0)),
    ]


# servers c of the four_models() that have them
SERVERS = {"erlang_a": 3, "erlang_loss": 3}


def assert_reference_matches(tr, P, p0, c):
    """Every series and diagnostic of the reference run `tr` agrees with
    the same reductions of the unreduced (n_times, X_max+1) pmf stack P:
    mean, variance, cum3, cum4 and, with c servers, the delay P(X >= c)
    to 1e-12 of each series' largest magnitude at every output time; the
    mass residual, boundary mass and smallest pmf entry to 1e-12."""
    xs = np.arange(P.shape[1], dtype=float)
    want = dict(zip(("mean", "variance", "cum3", "cum4"),
                    _raw_to_cumulants(*(P @ xs**k for k in (1, 2, 3, 4)))))
    if c is None:
        assert tr.delay is None
    else:
        want["delay"] = P[:, c:].sum(axis=1)
    for name, w in want.items():
        got = getattr(tr, name)
        assert got.shape == tr.times.shape, name
        assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w)), name
    diag = {"mass_residual": np.max(np.abs(P.sum(axis=1) - p0.sum())),
            "boundary_mass": np.max(np.abs(P[:, -1])),
            "pmf_min": P.min()}
    for name, w in diag.items():
        assert abs(tr.meta[name] - w) <= 1e-12, name


# numeric fields of one valid params record per kind
KIND_FIELDS = {"infinite_server": {"mu": 1.0},
               "erlang_a": {"mu": 1.0, "beta": 0.4, "c": 3},
               "erlang_loss": {"mu": 1.0, "beta": 0.4, "c": 3, "k": 4},
               "quadratic": {"Qtilde": 20, "beta": 1.0}}


def stencil(b, d, p):
    """A p for birth and death rate vectors b and d, no births out of
    X_max, written out in one function: the oracle of `generator` and
    `generator_apply`, term for term in their order."""
    b = np.array(b, dtype=float)
    b[-1] = 0.0
    out = -(b + d) * p
    out[..., 1:] += b[:-1] * p[..., :-1]
    out[..., :-1] += d[1:] * p[..., 1:]
    return out


def stencil_oracle(model, t, p):
    """A(t) p with both rate callables evaluated at t: the generator the
    solvers applied at every step before the affine split."""
    xs = np.arange(p.shape[-1])
    return stencil(np.broadcast_to(model.birth(t, xs), xs.shape),
                   np.broadcast_to(model.death(t, xs), xs.shape), p)


def rebuilt_rhs(lam, g, d):
    """The reference's rhs p -> A(t) p with the generator's stencil built
    afresh at every call."""
    return lambda t, p: generator_apply(generator(lam(t) * g, d), p)


def stagewise(model, coeffs, grid):
    """Each member's coefficients from stagewise RK4 (`integrate`) on the
    matrix-free rhs c @ (M0 + lam(t) M1): the propagator stepper's oracle."""
    out = []
    for cv in coeffs:
        b = cv.basis
        M0, M1 = galerkin_matrices(*affine_rates(model, grid.times, b.X_max),
                                   b.table, b.table * b.weights)
        out.append(integrate(lambda t, c: c @ (M0 + model.lam(t) * M1),
                             cv.c, grid, None).values)
    return out


def galerkin_rows(model, coeffs, grid):
    """Each member's (n_times, N+1) coefficient rows, and the steps taken,
    from `_step_linear` on `solve_galerkin`'s system with an identity
    reduce."""
    M0, M1, y0 = _galerkin_system(model, coeffs, grid)
    values, n_steps, _ = _step_linear(M0, M1, model.lam, y0, grid,
                                      lambda b: b)
    return [values[:, k, :cv.basis.N + 1]
            for k, cv in enumerate(coeffs)], n_steps


def oracle_models():
    """(id, model): the four kinds and a tabulated drive that is zero at
    t0."""
    table = _make_lambda({"samples": {"t": [0.0, 1.0, 2.0],
                                      "value": [0.0, 4.0, 2.0]}})
    return [*((m.label, m) for m in four_models()),
            ("table_drive_zero_at_t0", infinite_server(table))]


class TestTimeGrid:
    def test_times_layout(self):
        g = TimeGrid(t0=0.0, T=1.0, dt_out=0.25, dt_int=0.25)
        assert np.allclose(g.times, [0, 0.25, 0.5, 0.75, 1.0])
        assert g.substeps == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t0=1.0, T=1.0, dt_out=1e-3, dt_int=1e-3)
        with pytest.raises(ValueError):
            TimeGrid(t0=0.0, T=10.0, dt_out=1e-3, dt_int=2e-3)

    @pytest.mark.parametrize("t0,T,dt_out,dt_int,match", [
        (0.0, 1.0, 0.3, 0.3, "not a whole number of output steps"),
        (0.0, 1.0, 0.25, 0.1, "integer multiple"),
        (0.0, 1.0, np.inf, np.inf, "not a whole number of output steps"),
        (0.0, 1.0, 1e-310, 1e-310, "more steps than a float can count"),
        (0.0, 1.0, 1.0, 1e-310, "more steps than a float can count"),
        (0.0, 1.0, np.nan, np.nan, "dt_out >= dt_int > 0"),
        (0.0, 1.0, 0.0, 0.0, "dt_out >= dt_int > 0"),
        (0.0, np.inf, 0.5, 0.5, "must exceed t0"),
        (np.nan, 1.0, 0.5, 0.5, "must exceed t0"),
    ])
    def test_every_bad_layout_raises_at_construction(self, t0, T, dt_out,
                                                      dt_int, match):
        with pytest.raises(ValueError, match=match):
            TimeGrid(t0=t0, T=T, dt_out=dt_out, dt_int=dt_int)

    def test_layout_is_set_once_and_read_only(self):
        g = TimeGrid(t0=0.0, T=1.0, dt_out=0.25, dt_int=0.05)
        assert g.times is g.times
        assert g.substeps == 5 and isinstance(g.substeps, int)
        with pytest.raises(ValueError):
            g.times[0] = 1.0

    def test_times_are_built_on_first_use(self):
        # a config validates its layout with a grid it then drops
        g = TimeGrid(t0=0.0, T=1.0, dt_out=0.25, dt_int=0.05)
        assert "times" not in vars(g)
        times = g.times
        assert vars(g)["times"] is times

    def test_coarsened_keeps_a_valid_layout(self):
        g = TimeGrid(t0=0.0, T=10.0, dt_out=1e-3, dt_int=1e-3)
        c = g.coarsened(0.05, 5e-3)
        assert (c.dt_out, c.dt_int) == (0.05, 5e-3)
        assert np.array_equal(c.times, 0.05 * np.arange(201))

    @pytest.mark.parametrize("T,steps,want", [
        # 5e-3 overshoots T = 0.004 and T = 0.002: one step of T
        (0.004, (5e-3, 5e-3), (1, 1)),
        (0.002, (5e-3, 5e-3), (1, 1)),
        (0.0125, (5e-3, 5e-3), (2, 1)),
        # 0.075 / 0.00525 is not whole: 14 RK4 steps per output step
        (10.5, (0.075, 0.00525), (140, 14)),
    ])
    def test_coarsened_rounds_to_the_nearest_valid_layout(self, T, steps,
                                                          want):
        c = TimeGrid(t0=0.0, T=T, dt_out=T, dt_int=T).coarsened(*steps)
        assert (c.times.size - 1, c.substeps) == want
        assert c.times[0] == 0.0 and c.times[-1] == pytest.approx(T,
                                                                  rel=1e-12)


def fixed_step(monkeypatch):
    """Make `solve_reference` step at dt_int whatever its cap: the
    fixed-step run on the same rhs."""
    step = solve.integrate
    monkeypatch.setattr(
        solve, "integrate", lambda rhs, y0, grid, h_max, reduce, watch:
        step(rhs, y0, grid, None, reduce, watch))


class TestIntegrate:
    def test_exact_on_linear_ode(self):
        # y' = -y, rk4 local error ~ h^5
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.1, dt_int=0.01)
        tr = integrate(lambda t, y: -y, [1.0], g, None)
        assert np.max(np.abs(tr.values[:, 0] - np.exp(-tr.times))) < 1e-9

    def test_fourth_order_convergence(self):
        # the reference's rhs and mean, stepped at fixed dt
        model = small_erlang_a()
        x_max = 40
        p0 = poisson_pmf(3.0, x_max)
        xs = np.arange(x_max + 1, dtype=float)

        def run(dt):
            g = TimeGrid(t0=0.0, T=2.0, dt_out=0.5, dt_int=dt)
            gv, dv = affine_rates(model, g.times, x_max)
            return integrate(rebuilt_rhs(model.lam, gv, dv), p0, g, None,
                             lambda b: b @ xs).values

        fine = run(6.25e-4)
        e1 = np.max(np.abs(run(1e-2) - fine))
        e2 = np.max(np.abs(run(5e-3) - fine))
        assert e1 / e2 == pytest.approx(16.0, rel=0.3)

    def test_nonfinite_detection(self):
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.5, dt_int=0.5)
        with np.errstate(over="ignore"), pytest.raises(IntegrationError):
            integrate(lambda t, y: y * y, [10.0], g, None)

    def test_any_state_shape(self):
        g = TimeGrid(t0=0.0, T=1.0, dt_out=0.25, dt_int=0.05)
        rates = np.array([[1.0, 2.0, 3.0], [0.5, 0.25, 4.0]])
        tr = integrate(lambda t, y: -rates * y, np.ones((2, 3)), g, None)
        assert tr.values.shape == (5, 2, 3)
        for i, j in np.ndindex(2, 3):
            one = integrate(lambda t, y: -rates[i, j] * y, [1.0], g,
                            None)
            assert np.array_equal(tr.values[:, i, j], one.values[:, 0])

    def test_meta_counts_the_work(self):
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.5, dt_int=0.05)
        tr = integrate(lambda t, y: -y, [1.0], g, None)
        assert tr.meta["n_steps"] == 40 and tr.meta["n_rhs"] == 160

    # a grid holds at least two output times, so 2 stands in for one
    @pytest.mark.parametrize("n_times", [2, _BLOCK, _BLOCK + 1,
                                         2 * _BLOCK + 3])
    def test_reduce_equals_the_blockwise_reduction(self, n_times):
        g = TimeGrid(t0=0.0, T=(n_times - 1) * 0.05, dt_out=0.05,
                     dt_int=0.01)
        rates = np.array([[1.0, 2.0, 3.0], [0.5, 0.25, 4.0]])

        def rhs(t, y):
            return -rates * y + np.sin(3 * t)

        def reduce(block):
            # (rows, 2, 3) states to rows of width 4
            return np.stack([block.sum(axis=(1, 2)), block[:, 0, 0],
                             block[:, 1] @ np.array([1.0, 0.3, -2.0]),
                             block.min(axis=(1, 2))], axis=1)

        seen = []

        def counted(block):
            seen.append(len(block))
            return reduce(block)

        full = integrate(rhs, np.ones((2, 3)), g, None)
        got = integrate(rhs, np.ones((2, 3)), g, None, counted)
        blocks = np.split(full.values, range(_BLOCK, n_times, _BLOCK))
        assert seen == [len(b) for b in blocks] and sum(seen) == n_times
        assert got.values.shape == (n_times, 4)
        assert np.array_equal(got.values,
                              np.concatenate([reduce(b) for b in blocks]))
        assert got.meta == full.meta

    def test_nonfinite_detection_with_reduce(self):
        # y = 10 / (1 - 10 t) blows up at t = 0.1, past the first block
        g = TimeGrid(t0=0.0, T=0.2, dt_out=1e-3, dt_int=1e-3)
        seen = []

        def reduce(block):
            seen.append(len(block))
            return block

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as plain:
                integrate(lambda t, y: y * y, [10.0], g, None)
            with pytest.raises(IntegrationError) as reduced:
                integrate(lambda t, y: y * y, [10.0], g, None, reduce)
        assert str(reduced.value) == str(plain.value)
        t_bad = float(str(plain.value).split("t=")[1])
        assert g.times[_BLOCK] < t_bad < 0.11
        assert seen == [_BLOCK]


    @pytest.mark.parametrize("shape", [(251,), (1,), ()],
                             ids=["251_states", "1_state", "scalar"])
    def test_rk4_step_is_the_textbook_step(self, shape):
        rng = np.random.default_rng(17)
        w = rng.random(shape) + 0.5
        y = rng.random(shape)
        y_before = np.copy(y)
        calls = []

        def rhs(t, u):
            k = np.cos(t) - w * u
            calls.append((t, np.copy(u), k, np.copy(k)))
            return k

        t, h = 0.37, 1e-3
        got = solve._rk4_step(rhs, t, y, h)
        (t1, u1, k1, _), (t2, u2, k2, _), (t3, u3, k3, _), \
            (t4, u4, k4, _) = calls
        assert (t1, t2, t3, t4) == (t, t + 0.5 * h, t + 0.5 * h, t + h)
        assert np.array_equal(u1, y)
        assert np.array_equal(u2, y + 0.5 * h * k1)
        assert np.array_equal(u3, y + 0.5 * h * k2)
        assert np.array_equal(u4, y + h * k3)
        assert np.array_equal(
            got, y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        # neither the state nor the rhs values were written to
        assert np.array_equal(y, y_before)
        assert all(np.array_equal(k, kept) for *_, k, kept in calls)

    # an rhs that turns state `col` infinite from the RK4 step ending at
    # output `at`: its last stage sits at that output time, the stages
    # before it at least h / 2 earlier
    @staticmethod
    def blow_up(g, col, at):
        def rhs(t, y):
            k = np.zeros_like(y)
            if t >= g.times[at] - 0.25 * g.dt_int:
                k[col] = np.inf
            return k
        return rhs

    # _BLOCK rows per block: output 84 is inside the second block, 127 its
    # last row and 140 in the partial third block of the 150 outputs
    @pytest.mark.parametrize("at", [84, 2 * _BLOCK - 1, 140])
    def test_block_check_reports_the_first_nonfinite_output(self, at):
        g = TimeGrid(t0=0.0, T=1.49, dt_out=0.01, dt_int=0.01)
        assert g.times.size == 150 and _BLOCK == 64
        seen = []

        def reduce(block):
            seen.append(len(block))
            return block

        # state 1 goes first, state 0 two outputs later in the same block
        first, second = self.blow_up(g, 1, at), self.blow_up(g, 0, at + 2)

        def rhs(t, y):
            return first(t, y) + second(t, y)

        with pytest.raises(IntegrationError) as err:
            integrate(rhs, np.ones(2), g, None, reduce)
        assert str(err.value) == f"non-finite state at t={g.times[at]:.6g}"
        # the blocks before the bad one were reduced, the bad one not
        assert seen == [_BLOCK] * (at // _BLOCK)

    @pytest.mark.parametrize("mode", ["raise", "warn"])
    def test_steps_after_a_blow_up_report_the_blow_up(self, mode):
        # state 0 turns infinite at output 84, mid-block, with no FP flag;
        # the next stage computes -y + inf = -inf + inf, an invalid value
        g = TimeGrid(t0=0.0, T=1.49, dt_out=0.01, dt_int=0.01)
        bump = self.blow_up(g, 0, 84)

        def rhs(t, y):
            return bump(t, y) - y

        # numpy's default mode warns of it; "raise" raises it
        warns = (pytest.warns(RuntimeWarning, match="invalid value")
                 if mode == "warn" else contextlib.nullcontext())
        with np.errstate(all=mode), warns, \
                pytest.raises(IntegrationError) as err:
            integrate(rhs, np.ones(2), g, None)
        assert str(err.value) == f"non-finite state at t={g.times[84]:.6g}"
        assert isinstance(err.value.__context__,
                          FloatingPointError if mode == "raise"
                          else type(None))

    def test_nonfinite_initial_state_reports_the_first_step(self):
        # the initial state is not a stepped one; its first step is
        g = TimeGrid(t0=0.0, T=0.5, dt_out=0.1, dt_int=0.05)
        with pytest.raises(IntegrationError,
                           match=r"^non-finite state at t=0\.1$"):
            integrate(lambda t, y: -y, [np.nan, 1.0], g, None)


class TestControlledIntegrate:
    """`integrate` with h_max above dt_int: error-controlled RK4 steps
    whose nodes fill the output times by cubic Hermite interpolation."""

    def test_fills_the_output_times(self):
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.01, dt_int=1e-3)
        tr = integrate(lambda t, y: -y, [1.0], g, h_max=0.05)
        m = tr.meta
        assert tr.values.shape == (201, 1) and tr.values[0, 0] == 1.0
        assert np.max(np.abs(tr.values[:, 0] - np.exp(-g.times))) < 1e-8
        assert m["h_max"] == 0.05 and m["dt_int"] == 1e-3
        # a quarter of the 2,000 fixed steps would do
        assert m["n_steps"] < 500 and m["n_floor"] == 0
        assert m["n_rhs"] == 1 + 4 * (m["n_steps"] + m["n_rejected"])
        assert 0.0 < m["err_l1"] <= solve._STEP_TOL * 2.0

    def test_a_pulse_rejects_steps_and_keeps_the_accuracy(self):
        # y' = -(1 + 5 sech^2((t - 1) / 0.05)) y: steps grown on the calm
        # before the pulse overshoot it
        def rhs(t, y):
            return -(1.0 + 5.0 / np.cosh((t - 1.0) / 0.05) ** 2) * y
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.01, dt_int=1e-4)
        tr = integrate(rhs, [1.0], g, h_max=0.05)
        t = g.times
        exact = np.exp(-t - 0.25 * (np.tanh((t - 1.0) / 0.05)
                                    + np.tanh(20.0)))
        m = tr.meta
        assert m["n_rejected"] > 0 and m["n_floor"] == 0
        assert m["n_rhs"] == 1 + 4 * (m["n_steps"] + m["n_rejected"])
        assert np.max(np.abs(tr.values[:, 0] - exact)) < 1e-8

    def test_a_step_that_fails_at_the_floor_is_taken_and_counted(self):
        # stable at dt_int (h lambda = 2 < 2.785) but, tracking sin(50 t),
        # far from the tolerance at every step
        g = TimeGrid(t0=0.0, T=0.5, dt_out=0.05, dt_int=0.01)
        tr = integrate(lambda t, y: -200.0 * (y - np.sin(50.0 * t)), [0.0],
                       g, h_max=0.013)
        assert tr.meta["n_steps"] == tr.meta["n_floor"] == 50
        assert tr.meta["n_rejected"] == 0
        assert np.all(np.abs(tr.values) <= 1.0)

    def test_blow_up_names_the_first_nonfinite_node(self):
        # y' = y^2 from 10 leaves every float just after t = 0.1
        g = TimeGrid(t0=0.0, T=1.0, dt_out=0.5, dt_int=1e-3)
        with np.errstate(all="ignore"), pytest.raises(IntegrationError,
                              match=r"^non-finite state at t=0\.10"):
            integrate(lambda t, y: y * y, [10.0], g, h_max=0.01)

    def test_a_cap_at_dt_int_is_the_fixed_step_run(self):
        g = TimeGrid(t0=0.0, T=1.0, dt_out=0.1, dt_int=0.01)
        fixed = integrate(lambda t, y: -y * np.sin(t), [1.0, 2.0], g,
                          None)
        capped = integrate(lambda t, y: -y * np.sin(t), [1.0, 2.0], g,
                           h_max=0.01)
        assert np.array_equal(capped.values, fixed.values)
        assert capped.meta == fixed.meta


class TestReference:
    def test_infinite_server_scalar_ode(self):
        model = infinite_server(SineDrive(5.0, 1.0))
        x_max = 45
        p0 = np.zeros(x_max + 1)
        p0[0] = 1.0
        g = TimeGrid(t0=0.0, T=6.0, dt_out=0.01, dt_int=0.01)
        tr = solve_reference(model, p0, g, None)
        # oracle: m' = lam(t) - m, solved with the same fixed-step scheme
        m = np.zeros_like(tr.times)
        h = 1e-4
        y, t = 0.0, 0.0
        for i in range(1, tr.times.size):
            while t < tr.times[i] - 1e-12:
                k1 = 5.0 + np.sin(t) - y
                k2 = 5.0 + np.sin(t + h / 2) - (y + h / 2 * k1)
                k3 = 5.0 + np.sin(t + h / 2) - (y + h / 2 * k2)
                k4 = 5.0 + np.sin(t + h) - (y + h * k3)
                y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
            m[i] = y
        assert np.max(np.abs(tr.mean - m)) < 1e-6
        assert np.max(np.abs(tr.variance - m)) < 1e-6

    def test_mass_and_positivity(self):
        model = small_erlang_a()
        x_max = 40
        tr = solve_reference(model, poisson_pmf(3.0, x_max),
                             TimeGrid(t0=0.0, T=4.0, dt_out=0.01, dt_int=0.001),
                             3)
        assert tr.meta["mass_residual"] < 1e-10
        assert tr.meta["pmf_min"] > -1e-12

    @pytest.mark.parametrize("model", four_models(),
                             ids=lambda m: m.label)
    def test_matches_the_stencil_oracle(self, model):
        x_max = 40
        p0 = poisson_pmf(3.0, x_max)
        # 101 output times: more than one block of the reduction
        g = TimeGrid(t0=0.0, T=1.0, dt_out=0.01, dt_int=0.01)
        tr = solve_reference(model, p0, g, SERVERS.get(model.label))
        oracle = integrate(lambda t, p: stencil_oracle(model, t, p), p0, g,
                           None)
        assert_reference_matches(tr, oracle.values, p0,
                                 SERVERS.get(model.label))
        gv, dv = affine_rates(model, g.times, x_max)
        rng = np.random.default_rng(4)
        P = rng.random((3, x_max + 1))
        for t in (0.0, 0.37, 1.0):
            want = stencil_oracle(model, t, P)
            got = generator_apply(generator(model.lam(t) * gv, dv), P)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("lam", [
        SineDrive(4.0, 1.0),
        TableDrive([0.0, 0.3, 0.7, 1.0], [3.0, 6.0, 2.0, 4.0])],
        ids=["sine_drive", "table_drive"])
    def test_one_stencil_per_stage_time_changes_no_bit(self, lam,
                                                      monkeypatch):
        # under error control (cap 1e-2 above dt_int), against the same
        # integrate call with the stencil rebuilt at every rhs call
        model = make_model(ErlangAParams(lam=lam, mu=1.0, beta=0.4, c=3))
        p0 = poisson_pmf(3.0, 40)
        grid = TimeGrid(t0=0.0, T=1.0, dt_out=0.01, dt_int=1e-3)
        built = []
        monkeypatch.setattr(solve, "generator",
                            lambda b, d: built.append(1) or generator(b, d))
        tr = solve_reference(model, p0, grid, 3)
        m = tr.meta
        assert m["h_max"] == 1e-2 and m["n_steps"] < 1000
        # one at t0, then two per step tried
        assert len(built) == 1 + 2 * (m["n_steps"] + m["n_rejected"])
        integrate_ = solve.integrate

        def rebuilt(rhs, y0, grid, h_max, reduce, watch):
            g, d = affine_rates(model, grid.times, 40)
            return integrate_(rebuilt_rhs(lam, g, d), y0, grid, h_max,
                              reduce, watch)
        monkeypatch.setattr(solve, "integrate", rebuilt)
        want = solve_reference(model, p0, grid, 3)
        for name in ("mean", "variance", "cum3", "cum4", "delay"):
            assert np.array_equal(getattr(tr, name), getattr(want, name))
        del tr.meta["wall_s"], want.meta["wall_s"]
        assert tr.meta == want.meta

    def test_meta_and_debug_line(self, caplog):
        caplog.set_level(logging.DEBUG, logger="charlierbd")
        g = TimeGrid(t0=0.0, T=1.0, dt_out=0.1, dt_int=0.01)
        tr = solve_reference(small_erlang_a(), poisson_pmf(3.0, 30), g, 3)
        assert tr.meta["n_steps"] == 100 and tr.meta["n_rhs"] == 400
        assert tr.meta["wall_s"] > 0.0
        # the cap 2.785 / 38.8 is above dt_int, so no step is controlled
        assert tr.meta["h_max"] == 0.01 and tr.meta["err_l1"] == 0.0
        assert tr.meta["n_rejected"] == tr.meta["n_floor"] == 0
        lines = [r.getMessage() for r in caplog.records]
        m = tr.meta
        assert lines == ["reference: X_max 30, 100 steps, 0 rejected, 0 at "
                         "the floor, 400 rhs calls, mass_residual "
                         f"{m['mass_residual']:.3e}, boundary_mass "
                         f"{m['boundary_mass']:.3e}, pmf_min "
                         f"{m['pmf_min']:.3e}, {m['wall_s']:.3f} s"]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_negative_drive_is_refused(self, kind):
        # a negative drive makes every kind's birth rate negative
        p = KINDS[kind](lam=SineDrive(-2.0, 0.0), **KIND_FIELDS[kind])
        with pytest.raises(ValueError, match="lam reaches -2 < 0"):
            solve_reference(make_model(p), np.eye(31)[3],
                            TimeGrid(t0=0.0, T=1.0, dt_out=0.1, dt_int=0.01),
                            None)

    def test_memory_does_not_scale_with_times_by_states(self):
        # the (20001, 201) pmf stack alone would be 32 MB
        model = infinite_server(lam_const(1.0))
        g = TimeGrid(t0=0.0, T=20.0, dt_out=1e-3, dt_int=1e-3)
        tracemalloc.start()
        try:
            tr = solve_reference(model, np.eye(201)[1], g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.times.size == 20001 and tr.delay.shape == (20001,)
        assert peak < 4e6

    def test_error_controlled_run_matches_a_fine_fixed_step_run(
            self, monkeypatch):
        # the shipped Erlang-A config over T = 2: rho = 2 (120 + 174.5)
        p, _ = SHIPPED["erlang_a"]
        p0 = poisson_pmf(100.0, 250)
        p0 /= p0.sum()
        grid = TimeGrid(t0=0.0, T=2.0, dt_out=1e-3, dt_int=1e-3)
        tr = solve_reference(make_model(p), p0, grid, 100)
        with monkeypatch.context() as m:
            fixed_step(m)
            fine = solve_reference(make_model(p), p0,
                                   TimeGrid(0.0, 2.0, 1e-3, 2.5e-4), 100)
        meta = tr.meta
        assert meta["h_max"] == pytest.approx(2.785 / 589.0, rel=1e-12)
        assert meta["n_steps"] < 1000 and meta["n_rejected"] == 0
        assert meta["n_rhs"] == 1 + 4 * meta["n_steps"]
        for name, tol in (("mean", 1e-9), ("variance", 1e-9),
                          ("delay", 1e-9), ("cum4", 1e-8)):
            want = getattr(fine, name)
            assert (np.max(np.abs(getattr(tr, name) - want))
                    <= tol * np.max(np.abs(want))), name
        assert meta["mass_residual"] < 1e-10
        assert meta["boundary_mass"] <= 1e-15 and meta["pmf_min"] >= 0.0

    def test_a_cap_at_dt_int_is_the_fixed_step_run(self, monkeypatch):
        # perfbench's small Erlang-A config: rho = 2 (12 + 34.5) leaves
        # the cap at _STEP_MAX, the grid's own step
        model = make_model(ErlangAParams(lam=SineDrive(10.0, 2.0), mu=1.0,
                                         beta=0.5, c=10))
        p0 = poisson_pmf(10.0, 60)
        grid = TimeGrid(t0=0.0, T=1.0, dt_out=1e-2, dt_int=1e-2)
        tr = solve_reference(model, p0, grid, 10)
        with monkeypatch.context() as m:
            fixed_step(m)
            want = solve_reference(model, p0, grid, 10)
        for name in ("mean", "variance", "cum3", "cum4", "delay"):
            assert np.array_equal(getattr(tr, name), getattr(want, name))
        del tr.meta["wall_s"], want.meta["wall_s"]
        assert tr.meta == want.meta
        assert tr.meta["h_max"] == 1e-2 and tr.meta["n_steps"] == 100

    def test_capped_run_matches_the_dt_int_run(self):
        grid = TimeGrid(t0=0.0, T=1.0, dt_out=0.01, dt_int=1e-3)
        p0 = poisson_pmf(3.0, 45)
        model = infinite_server(SineDrive(5.0, 1.0))
        capped = solve_reference(model, p0, grid, None)
        # the fixed-step run of the same generator, at dt_int
        g, d = affine_rates(model, grid.times, 45)
        plain = integrate(rebuilt_rhs(model.lam, g, d), p0, grid, None)
        assert plain.meta["n_steps"] == 1000
        assert plain.meta["h_max"] == 1e-3
        assert capped.meta["n_steps"] < 1000
        xs = np.arange(46.0)
        want = _raw_to_cumulants(*(plain.values @ xs**k for k in (1, 2, 3, 4)))
        for name, w in zip(("mean", "variance", "cum3", "cum4"), want):
            assert (np.max(np.abs(getattr(capped, name) - w))
                    <= 1e-9 * np.max(np.abs(w))), name

    def test_boundary_mass_error(self):
        model = infinite_server(lam_const(30.0))
        p0 = np.zeros(11)
        p0[0] = 1.0
        with pytest.raises(SolverError):
            solve_reference(model, p0, TimeGrid(t0=0.0, T=2.0, dt_out=0.1,
                                                dt_int=0.01), None)


class TestGalerkin:
    def test_infinite_server_mean_exact(self):
        model = infinite_server(lam_const(4.0))
        x_max = 60
        basis = CharlierBasis(a=4.0, N=2, X_max=x_max)
        c0 = project_density(poisson_pmf(2.0, x_max), basis)
        g = TimeGrid(t0=0.0, T=5.0, dt_out=0.01, dt_int=0.01)
        tr, = solve_galerkin(model, [c0], g)
        want = 4.0 + (2.0 - 4.0) * np.exp(-tr.times)
        assert np.max(np.abs(tr.mean - want)) < 1e-6

    def test_c0_conserved(self):
        model = small_erlang_a()
        x_max = 60
        basis = CharlierBasis(a=4.0, N=6, X_max=x_max)
        c0 = project_density(poisson_pmf(3.0, x_max), basis)
        tr, = solve_galerkin(model, [c0], TimeGrid(t0=0.0, T=4.0, dt_out=0.01,
                                                   dt_int=0.005))
        assert tr.meta["c0_drift"] < 1e-9

    def test_full_basis_reproduces_reference(self):
        model = small_erlang_a()
        x_max = 30
        p0 = poisson_pmf(3.0, x_max)
        p0 /= p0.sum()
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.05, dt_int=0.005)
        ref = solve_reference(model, p0, g, None)
        basis = CharlierBasis(a=4.0, N=x_max, X_max=x_max)
        gal, = solve_galerkin(model, [project_density(p0, basis)], g)
        assert np.max(np.abs(gal.mean - ref.mean)) < 1e-7
        assert np.max(np.abs(gal.variance - ref.variance)) < 1e-7

    def test_matches_assembled_operator(self):
        # oracle: M[j, i] = (A(t) C~_j, C_i) built from the dense generator
        model = small_erlang_a()
        x_max = 30
        basis = CharlierBasis(a=4.0, N=5, X_max=x_max)
        c0 = project_density(poisson_pmf(3.0, x_max), basis)
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.05, dt_int=0.005)
        xs = np.arange(x_max + 1)
        Cw = basis.table * basis.weights

        def dense_generator(t):
            b = model.birth(t, xs) * (xs < x_max)
            d = model.death(t, xs)
            return (np.diag(-(b + d)) + np.diag(b[:-1], -1)
                    + np.diag(d[1:], 1))

        oracle = integrate(
            lambda t, c: c @ ((Cw @ dense_generator(t).T) @ basis.table.T),
            c0.c, g, None)
        (rows,), _ = galerkin_rows(model, [c0], g)
        assert np.max(np.abs(rows - oracle.values)) < 1e-12

    def test_batch_matches_single_solves(self):
        # 28 members: four mixed ones plus a tuning-shaped search, twelve
        # candidates a at orders N and 2N + 2
        model = small_erlang_a()
        x_max = 50
        p0 = poisson_pmf(4.0, x_max)
        g = TimeGrid(t0=0.0, T=3.0, dt_out=0.01, dt_int=0.005)
        bases = [CharlierBasis(a=a, N=N, X_max=x_max)
                 for a, N in ((4.0, 1), (3.0, 6), (5.5, 3), (4.0, 9))]
        bases += [CharlierBasis(a=a, N=N, X_max=x_max)
                  for a in np.linspace(2.5, 5.5, 12) for N in (3, 8)]
        c0 = [project_density(p0, b) for b in bases]
        batch = solve_galerkin(model, c0, g)
        assert len(batch) == len(bases) == 28
        assert len({tr.meta["wall_s"] for tr in batch}) == 1
        for b, c, tr in zip(bases, c0, batch):
            one, = solve_galerkin(model, [c], g)
            assert tr.mean.shape == one.mean.shape == g.times.shape
            assert np.max(np.abs(tr.mean - one.mean) / np.abs(one.mean)) \
                <= 1e-12
            assert tr.meta["c0_drift"] == pytest.approx(
                one.meta["c0_drift"], rel=1e-6, abs=1e-15)
            assert tr.meta["N"] == b.N and tr.meta["a"] == b.a
            assert not tr.meta["failed"]

    @pytest.mark.parametrize("model", [m for _, m in oracle_models()],
                             ids=[i for i, _ in oracle_models()])
    def test_stepper_matches_stagewise_rk4(self, model):
        # 230 steps (not a multiple of the 16-step chunk), 10 per output
        x_max = 40
        g = TimeGrid(t0=0.0, T=2.3, dt_out=0.1, dt_int=0.01)
        bases = [CharlierBasis(a=a, N=N, X_max=x_max)
                 for a, N in ((4.0, 6), (2.5, 3))]
        p0 = poisson_pmf(3.0, x_max)
        c0 = [project_density(p0, b) for b in bases]
        with np.errstate(all="raise"):
            batch = solve_galerkin(model, c0, g)
            rows, n_steps = galerkin_rows(model, c0, g)
        for b, got, want in zip(bases, rows, stagewise(model, c0, g)):
            assert got.shape == want.shape == (24, b.N + 1)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert n_steps == 230
        assert all(tr.meta["n_steps"] == 230 and not tr.meta["failed"]
                   for tr in batch)

    def test_blown_up_member_leaves_the_others(self):
        # RK4 at dt=0.5 is unstable for the stiff order-12 system only
        model = small_erlang_a()
        x_max = 40
        p0 = poisson_pmf(3.0, x_max)
        g = TimeGrid(t0=0.0, T=150.0, dt_out=0.5, dt_int=0.5)
        bases = [CharlierBasis(a=a, N=N, X_max=x_max)
                 for a, N in ((4.0, 2), (4.0, 12), (3.0, 1))]
        c0 = [project_density(p0, b) for b in bases]
        with np.errstate(all="ignore"):
            batch = solve_galerkin(model, c0, g)
        assert [tr.meta["failed"] for tr in batch] == [False, True, False]
        assert np.isnan(batch[1].mean[-1])
        for k in (0, 2):
            one, = solve_galerkin(model, [c0[k]], g)
            assert np.max(np.abs(batch[k].mean - one.mean)
                          / np.abs(one.mean)) <= 1e-12

    @pytest.mark.parametrize("model", four_models(),
                             ids=lambda m: m.label)
    def test_affine_operator_matches_matrix_free(self, model):
        # c @ (M0 + lam(t) M1) against Phi A(t)(c Cw) with rates at t
        x_max = 40
        bases = [CharlierBasis(a=a, N=N, X_max=x_max)
                 for a, N in ((4.0, 6), (2.5, 3))]
        n = 7
        Phi = np.zeros((2, n, x_max + 1))
        for k, b in enumerate(bases):
            Phi[k, :b.N + 1] = b.table
        Cw = Phi * np.stack([b.weights for b in bases])[:, None, :]
        times = np.linspace(0.0, 3.0, 31)
        M0, M1 = galerkin_matrices(*affine_rates(model, times, x_max),
                                   Phi, Cw)
        assert M0.shape == M1.shape == (2, n, n)
        c = np.random.default_rng(8).standard_normal((2, n))
        c[1, 4:] = 0.0
        for t in (0.0, 1.3, 3.0):
            got = np.matmul(c[:, None, :], M0 + model.lam(t) * M1)[:, 0]
            V = np.matmul(c[:, None, :], Cw)[:, 0]
            want = np.matmul(Phi, stencil_oracle(model, t, V)[:, :, None])
            want = want[..., 0]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("model", four_models(),
                             ids=lambda m: m.label)
    def test_matrices_are_the_stencil_products_bit_for_bit(self, model):
        # M0 and M1 as the generator applied in one function made them
        x_max = 40
        bases = [CharlierBasis(a=a, N=N, X_max=x_max)
                 for a, N in ((4.0, 6), (2.5, 3))]
        Phi = np.zeros((2, 7, x_max + 1))
        for k, b in enumerate(bases):
            Phi[k, :b.N + 1] = b.table
        Cw = Phi * np.stack([b.weights for b in bases])[:, None, :]
        g, d = affine_rates(model, np.linspace(0.0, 3.0, 31), x_max)
        M0, M1 = galerkin_matrices(g, d, Phi, Cw)
        zero, phi_t = np.zeros_like(d), np.swapaxes(Phi, -1, -2)
        assert np.array_equal(M0, stencil(zero, d, Cw) @ phi_t)
        assert np.array_equal(M1, stencil(g, zero, Cw) @ phi_t)

    def test_time_dependent_death_is_refused(self):
        lam = SineDrive(4.0, 1.0)
        model = BirthDeathModel(
            birth=lambda t, x: lam(t) + 0.0 * np.asarray(x, dtype=float),
            death=lambda t, x: (1.0 + 0.2 * t) * np.asarray(x, dtype=float),
            lam=lam, label="t-death")
        x_max = 30
        p0 = poisson_pmf(3.0, x_max)
        g = TimeGrid(t0=0.0, T=1.0, dt_out=0.1, dt_int=0.01)
        basis = CharlierBasis(a=4.0, N=3, X_max=x_max)
        with pytest.raises(ValueError, match="death rate depends on t"):
            solve_reference(model, p0, g, None)
        with pytest.raises(ValueError, match="death rate depends on t"):
            solve_galerkin(model, [project_density(p0, basis)], g)

    def test_drive_zero_at_t0(self):
        lam = _make_lambda({"samples": {"t": [0.0, 1.0, 2.0],
                                        "value": [0.0, 4.0, 2.0]}})
        model = infinite_server(lam)
        x_max = 30
        p0 = poisson_pmf(2.0, x_max)
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.1, dt_int=0.01)
        basis = CharlierBasis(a=2.0, N=4, X_max=x_max)
        with np.errstate(all="raise"):
            ref = solve_reference(model, p0, g, None)
            gal, = solve_galerkin(model, [project_density(p0, basis)], g)
        oracle = integrate(lambda t, p: stencil_oracle(model, t, p), p0, g,
                           None)
        assert_reference_matches(ref, oracle.values, p0, None)
        assert np.all(np.isfinite(gal.mean))
        assert np.max(np.abs(gal.mean - ref.mean)) < 1e-6

    def test_assembly_time_in_meta(self):
        x_max = 30
        basis = CharlierBasis(a=4.0, N=3, X_max=x_max)
        c0 = project_density(poisson_pmf(3.0, x_max), basis)
        tr, = solve_galerkin(small_erlang_a(), [c0],
                             TimeGrid(t0=0.0, T=1.0, dt_out=0.1, dt_int=0.01))
        parts = [tr.meta[k] for k in ("assembly_s", "propagator_s", "loop_s")]
        assert all(s >= 0.0 for s in parts) and sum(parts) < tr.meta["wall_s"]
        # the stepper evaluates no right-hand side
        assert tr.meta["n_steps"] == 100 and "n_rhs" not in tr.meta

    def test_members_isolate_a_blowup(self):
        # RK4 at dt=4 is unstable for the order-12 system only: it reads
        # NaN from the output time it overflows on, its neighbour as alone
        model = small_erlang_a()
        x_max = 40
        p0 = poisson_pmf(3.0, x_max)
        g = TimeGrid(t0=0.0, T=400.0, dt_out=4.0, dt_int=4.0)
        c0 = [project_density(p0, CharlierBasis(a=a, N=N, X_max=x_max))
              for a, N in ((4.0, 12), (3.0, 1))]
        with np.errstate(all="ignore"):
            bad, good = solve_galerkin(model, c0, g)
            (bad_c, good_c), _ = galerkin_rows(model, c0, g)
        (one,), _ = galerkin_rows(model, c0[1:], g)
        assert bad.meta["failed"] and not good.meta["failed"]
        i = int(np.argmax(np.isnan(bad_c).any(axis=1)))
        assert 0 < i < 100 and np.isnan(bad_c[i:]).all()
        assert np.all(np.isfinite(bad_c[:i]))
        assert np.isnan(bad.mean[i:]).all() and np.isfinite(bad.mean[:i]).all()
        assert np.max(np.abs(good_c - one)) <= 1e-12 * np.max(np.abs(one))
        assert good.meta["n_steps"] == bad.meta["n_steps"] == 100

    def test_blow_up_leaves_the_others_bits(self):
        # the same batch with the order-12 member held at a zero state,
        # which never goes non-finite: the order-1 member reads the same
        # bits whether its neighbour blows up or not
        model = small_erlang_a()
        x_max = 40
        p0 = poisson_pmf(3.0, x_max)
        g = TimeGrid(t0=0.0, T=400.0, dt_out=4.0, dt_int=4.0)
        bases = [CharlierBasis(a=a, N=N, X_max=x_max)
                 for a, N in ((4.0, 12), (3.0, 1))]
        c0 = [project_density(p0, b) for b in bases]
        with np.errstate(all="ignore"):
            bad, good = solve_galerkin(model, c0, g)
            zero, calm = solve_galerkin(
                model, [CoeffVector(np.zeros(13), bases[0]), c0[1]], g)
        assert bad.meta["failed"] and not zero.meta["failed"]
        for k in ("mean", "variance", "cum3", "cum4"):
            assert np.array_equal(getattr(good, k), getattr(calm, k)), k
        assert good.meta["c0_drift"] == calm.meta["c0_drift"]

    def test_stops_once_every_member_is_dead(self):
        model = small_erlang_a()
        x_max = 40
        p0 = poisson_pmf(3.0, x_max)
        g = TimeGrid(t0=0.0, T=400.0, dt_out=4.0, dt_int=4.0)
        c0 = [project_density(p0, CharlierBasis(a=4.0, N=N, X_max=x_max))
              for N in (12, 20)]
        with np.errstate(all="ignore"):
            batch = solve_galerkin(model, c0, g)
        last = max(int(np.argmax(np.isnan(tr.mean))) for tr in batch)
        assert all(tr.meta["failed"] for tr in batch)
        # the loop ends with the 16-step chunk in which the last one failed
        assert 0 < last < 100
        assert batch[0].meta["n_steps"] == 16 * -(-last // 16) < 100
        assert all(np.isnan(getattr(tr, k)[last:]).all() for tr in batch
                   for k in ("mean", "variance", "cum3", "cum4"))

    def test_short_chunks_segments_and_blocks(self, monkeypatch):
        # 7-step chunks, 21-step segments and 5-row blocks put every edge
        # of the stepper inside the horizon
        monkeypatch.setattr(solve, "_CHUNK", 7)
        monkeypatch.setattr(solve, "_SEGMENT", 21)
        monkeypatch.setattr(solve, "_BLOCK", 5)
        model = small_erlang_a()
        x_max = 40
        p0 = poisson_pmf(3.0, x_max)
        g = TimeGrid(t0=0.0, T=2.3, dt_out=0.1, dt_int=0.01)
        c0 = [project_density(p0, CharlierBasis(a=a, N=N, X_max=x_max))
              for a, N in ((4.0, 6), (2.5, 3))]
        with np.errstate(all="raise"):
            rows, n_steps = galerkin_rows(model, c0, g)
        assert n_steps == 230
        for got, want in zip(rows, stagewise(model, c0, g)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # a member that fails mid-horizon leaves the others, which go on
        # in the chunks after its own
        g = TimeGrid(t0=0.0, T=400.0, dt_out=4.0, dt_int=4.0)
        c0 = [project_density(p0, CharlierBasis(a=a, N=N, X_max=x_max))
              for a, N in ((4.0, 12), (3.0, 1))]
        with np.errstate(all="ignore"):
            (bad, good), n_steps = galerkin_rows(model, c0, g)
        (one,), _ = galerkin_rows(model, c0[1:], g)
        i = int(np.argmax(np.isnan(bad).any(axis=1)))
        assert 0 < i < 90 and np.isnan(bad[i:]).all()
        assert np.all(np.isfinite(bad[:i])) and n_steps == 100
        assert np.max(np.abs(good - one)) <= 1e-12 * np.max(np.abs(one))

    @staticmethod
    def short_lone_chunks(monkeypatch):
        # 7-step chunks at 3 steps per output start the chunks' output rows
        # at every offset, and 5-row blocks put block seams inside chunks
        monkeypatch.setattr(solve, "_CHUNK", 7)
        monkeypatch.setattr(solve, "_SEGMENT", 21)
        monkeypatch.setattr(solve, "_BLOCK", 5)
        x_max = 40
        p0 = poisson_pmf(3.0, x_max)
        # the order-7 member of a two-member batch: 64 propagator entries
        # a member keep the GEMM's blocking of each member's entries the
        # same for one member and two
        return [project_density(p0, CharlierBasis(a=a, N=N, X_max=x_max))
                for a, N in ((4.0, 7), (2.5, 3))]

    def test_lone_member_equals_its_batch_twin(self, monkeypatch):
        c0 = self.short_lone_chunks(monkeypatch)
        model = small_erlang_a()
        g = TimeGrid(t0=0.0, T=2.4, dt_out=0.03, dt_int=0.01)
        with np.errstate(all="raise"):
            one, = solve_galerkin(model, c0[:1], g)
            twin, _ = solve_galerkin(model, c0, g)
        for k in ("mean", "variance", "cum3", "cum4"):
            assert getattr(one, k).shape == g.times.shape
            assert np.array_equal(getattr(one, k), getattr(twin, k)), k
        assert one.meta["c0_drift"] == twin.meta["c0_drift"]
        assert one.meta["n_steps"] == twin.meta["n_steps"] == 240
        assert not one.meta["failed"]

    def test_lone_member_matches_stagewise_rk4(self, monkeypatch):
        c0 = self.short_lone_chunks(monkeypatch)[:1]
        model = small_erlang_a()
        g = TimeGrid(t0=0.0, T=2.4, dt_out=0.03, dt_int=0.01)
        with np.errstate(all="raise"):
            (rows,), n_steps = galerkin_rows(model, c0, g)
        want, = stagewise(model, c0, g)
        assert rows.shape == want.shape == (81, 8) and n_steps == 240
        assert np.max(np.abs(rows - want)) <= 1e-12 * np.max(np.abs(want))

    def test_lone_member_blow_up_mid_chunk(self, monkeypatch):
        # RK4 at dt=1.5 is unstable for order 7: the state goes non-finite
        # by step 150, output row 50, inside the chunk of steps 148-154
        self.short_lone_chunks(monkeypatch)
        cfg = ExperimentConfig(
            model={"kind": "erlang_a",
                   "lambda": {"base": 4.0, "amplitude": 1.0},
                   "mu": 1.0, "beta": 0.4, "c": 3},
            T=450.0, dt_out=4.5, dt_int=1.5, X_max=40, orders=[7],
            init={"kind": "poisson", "value": 3.0})
        model, p0, g = cfg.build_model(), cfg.initial_pmf(), cfg.grid()
        c0 = [project_density(p0, CharlierBasis(a=a, N=N, X_max=40))
              for a, N in ((4.0, 7), (3.0, 1))]
        with np.errstate(all="ignore"):
            (one,), n_steps = galerkin_rows(model, c0[:1], g)
            (twin, _), _ = galerkin_rows(model, c0, g)
            tr, = solve_galerkin(model, c0[:1], g)
            with pytest.raises(IntegrationError, match=r"^Galerkin row N=7: "
                               r"non-finite state at t=225$"):
                run_galerkin(cfg, 7, a=4.0)
        i = int(np.argmax(~np.isfinite(twin).all(axis=1)))
        assert i == 50
        assert np.isnan(one[i:]).all() and np.isnan(twin[i:]).all()
        assert np.array_equal(one[:i], twin[:i])
        # the loop stops at the end of the chunk in which the member failed
        assert n_steps == tr.meta["n_steps"] == 154
        assert tr.meta["failed"]
        assert np.isnan(tr.mean[i:]).all() and not np.isnan(tr.mean[:i]).any()

    def test_memory_does_not_scale_with_times_by_members(self):
        # a tuning-shaped batch: 14 candidates at the order-16 proxy
        model = small_erlang_a()
        x_max = 60
        p0 = poisson_pmf(4.0, x_max)
        c0 = [project_density(p0, CharlierBasis(a=a, N=16, X_max=x_max))
              for a in np.linspace(2.5, 5.5, 14)]
        peaks = []
        for T in (10.0, 40.0):
            g = TimeGrid(t0=0.0, T=T, dt_out=5e-3, dt_int=5e-3)
            tracemalloc.start()
            try:
                batch = solve_galerkin(model, c0, g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert not any(tr.meta["failed"] for tr in batch)
        # 6000 more output times cost the (times, members, 5) c0 and
        # moments and the cumulants' temporaries, under 10 floats per
        # member and time, not the 17 of a coefficient stack
        assert peaks[1] - peaks[0] < 6000 * 14 * 10 * 8

    def test_batch_needs_one_support(self):
        model = small_erlang_a()
        bases = [CharlierBasis(a=4.0, N=2, X_max=x) for x in (30, 40)]
        c0 = [CoeffVector(np.zeros(3), b) for b in bases]
        with pytest.raises(ValueError):
            solve_galerkin(model, c0, TimeGrid(t0=0.0, T=1.0, dt_out=1e-3,
                                                dt_int=1e-3))

    def test_erlang_a_error_improves_with_order(self):
        model = small_erlang_a()
        x_max = 50
        p0 = poisson_pmf(4.0, x_max)
        g = TimeGrid(t0=0.0, T=4.0, dt_out=0.01, dt_int=0.01)
        ref = solve_reference(model, p0, g, None)

        def err(N):
            basis = CharlierBasis(a=4.0, N=N, X_max=x_max)
            gal, = solve_galerkin(model, [project_density(p0, basis)], g)
            return np.max(np.abs(gal.mean - ref.mean))

        assert err(7) < err(1)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestGalerkinStepDoubling:
    # the shipped configs at their tuned a; each column's largest change
    # of the filled rows against the dt_int rows, as a share of its
    # largest magnitude, was at most: Erlang-A mean 6e-13, variance
    # 5e-11, cum3 9.4e-10, cum4 4.7e-9; quadratic mean 1.9e-10,
    # variance 3.0e-9, cum3 6.4e-9, cum4 4.1e-9
    SHIPPED = {
        "erlang_a_benchmark.json": (109.94952194848524, {
            "mean": 2e-12, "variance": 1e-10, "cum3": 2e-9, "cum4": 1e-8}),
        "quadratic_benchmark.json": (29.217999478285087, {
            "mean": 5e-10, "variance": 6e-9, "cum3": 1e-8, "cum4": 1e-8}),
    }

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_filled_rows_match_the_dt_int_rows(self, name):
        a, bounds = self.SHIPPED[name]
        cfg = ExperimentConfig.from_file(CONFIGS / name)
        model, p0, g = cfg.build_model(), cfg.initial_pmf(), cfg.grid()
        steps = []
        for N in cfg.orders:
            c0 = [project_density(p0, CharlierBasis(a=a, N=N,
                                                    X_max=p0.size - 1))]
            with np.errstate(all="raise"):
                fixed, = solve_galerkin(model, c0, g)
                filled, = solve_galerkin(model, c0, g, h_max=_STEP_MAX)
            for k, bound in bounds.items():
                want, got = getattr(fixed, k), getattr(filled, k)
                assert got.shape == want.shape == g.times.shape
                assert np.max(np.abs(got - want)) \
                    <= bound * np.max(np.abs(want)), (N, k)
            m = filled.meta
            assert not m["failed"] and m["c0_drift"] < 1e-9
            assert m["n_steps"] == round((cfg.T - cfg.t0) / m["h"])
            assert m["step_err"] <= solve._ROW_TOL
            steps.append(m["h"])
        if name.startswith("erlang_a"):
            # every row passes the first node step, half the cap
            assert steps == [_STEP_MAX / 2] * len(cfg.orders)
        else:
            assert all(g.dt_int <= h <= _STEP_MAX / 2 for h in steps)

    def test_cap_within_twice_dt_int_is_the_fixed_path(self):
        model = small_erlang_a()
        x_max = 40
        c0 = [project_density(poisson_pmf(3.0, x_max),
                              CharlierBasis(a=a, N=N, X_max=x_max))
              for a, N in ((4.0, 6), (2.5, 3))]
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.01, dt_int=5e-3)
        plain = solve_galerkin(model, c0, g)
        for h_max in (1e-2, 5e-3, 1e-3):
            for one, two in zip(plain, solve_galerkin(model, c0, g, h_max)):
                for k in ("mean", "variance", "cum3", "cum4"):
                    assert np.array_equal(getattr(one, k), getattr(two, k))
                assert {k: v for k, v in one.meta.items() if k[-2:] != "_s"} \
                    == {k: v for k, v in two.meta.items() if k[-2:] != "_s"}
                assert "h" not in two.meta

    def test_failing_probes_fall_back_to_the_fixed_path(self):
        # the stiff config whose basis search loses candidates: the
        # estimate at 5e-3 sends the law's step below 2 dt_int
        cfg = ExperimentConfig(
            model={"kind": "erlang_a",
                   "lambda": {"base": 450.0, "amplitude": 37.5},
                   "mu": 100.0, "beta": 60.0, "c": 4},
            T=1.0, dt_out=1e-2, dt_int=1e-4, X_max=60, orders=[3],
            init={"kind": "poisson", "value": 4.0})
        model, p0, g = cfg.build_model(), cfg.initial_pmf(), cfg.grid()
        c0 = [project_density(p0, CharlierBasis(a=6.62, N=3, X_max=60))]
        fixed, = solve_galerkin(model, c0, g)
        probed, = solve_galerkin(model, c0, g, h_max=_STEP_MAX)
        for k in ("mean", "variance", "cum3", "cum4"):
            assert np.array_equal(getattr(fixed, k), getattr(probed, k)), k
        m = probed.meta
        assert not m["failed"] and m["n_steps"] == fixed.meta["n_steps"]
        assert m["h"] == g.dt_int and m["step_err"] == 0.0
        # the one probe: 200 steps at H = 5e-3 and 100 at 2H
        assert m["n_probe_steps"] == 300

    def test_non_finite_row_fails_from_its_first_bad_time(self):
        # RK4 at dt=4 is unstable for the order-12 system only; its
        # probes at 8 and 16 blow up, so the batch steps at dt_int
        model = small_erlang_a()
        x_max = 40
        p0 = poisson_pmf(3.0, x_max)
        g = TimeGrid(t0=0.0, T=400.0, dt_out=4.0, dt_int=4.0)
        c0 = [project_density(p0, CharlierBasis(a=a, N=N, X_max=x_max))
              for a, N in ((4.0, 12), (3.0, 1))]
        with np.errstate(all="ignore"):
            fixed = solve_galerkin(model, c0, g)
            probed = solve_galerkin(model, c0, g, h_max=16.0)
        for one, two in zip(fixed, probed):
            for k in ("mean", "variance", "cum3", "cum4"):
                assert np.array_equal(getattr(one, k), getattr(two, k),
                                      equal_nan=True), k
            assert two.meta["h"] == 4.0 and two.meta["n_probe_steps"] > 0
        bad, good = probed
        assert bad.meta["failed"] and not good.meta["failed"]
        i = int(np.argmax(np.isnan(bad.mean)))
        assert 0 < i < 100 and np.isnan(bad.mean[i:]).all()
        assert np.isfinite(bad.mean[:i]).all()
        with pytest.raises(IntegrationError, match=r"^Galerkin row N=12: "
                           rf"non-finite state at t={g.times[i]:.6g}$"):
            with np.errstate(all="ignore"):
                run_galerkin(ExperimentConfig(
                    model={"kind": "erlang_a",
                           "lambda": {"base": 4.0, "amplitude": 1.0},
                           "mu": 1.0, "beta": 0.4, "c": 3},
                    T=400.0, dt_out=4.0, dt_int=4.0, X_max=x_max,
                    orders=[12], init={"kind": "poisson", "value": 3.0}),
                    12, a=4.0)

    def test_hermite_fill_is_exact_on_cubics(self):
        ts = np.array([0.0, 0.3, 1.0, 1.2])
        out = np.linspace(0.0, 1.2, 13)
        y, f = ts**3 - 2 * ts, 3 * ts**2 - 2
        got = solve._hermite(out, ts, y[:, None], f[:, None])[:, 0]
        assert np.allclose(got, out**3 - 2 * out, rtol=0, atol=1e-14)


class TestClosure:
    def test_infinite_server_zeroth_exact(self):
        lamv = 5.0
        p = InfiniteServerParams(lam=lam_const(lamv), mu=1.0)
        tr = solve_closure("infinite_server", p, "zeroth",
                           MomentState(mean=1.0, variance=0.0),
                           TimeGrid(t0=0.0, T=5.0, dt_out=0.01, dt_int=0.01))
        want = lamv + (1.0 - lamv) * np.exp(-tr.times)
        assert np.max(np.abs(tr.mean - want)) < 1e-8

    def test_erlang_a_beta_equal_mu_degenerates(self):
        p = ErlangAParams(lam=SineDrive(6.0, 1.0), mu=1.0, beta=1.0, c=4)
        tr = solve_closure("erlang_a", p, "first",
                           MomentState(mean=3.0, variance=3.0),
                           TimeGrid(t0=0.0, T=4.0, dt_out=0.01, dt_int=0.005))
        assert np.max(np.abs(tr.variance - tr.mean)) < 1e-8
        assert tr.delay is not None

    def test_quadratic_bounded_by_carrying_level(self):
        p = QuadraticParams(lam=lam_const(0.1), Qtilde=50, beta=1.0)
        tr = solve_closure("quadratic", p, "zeroth",
                           MomentState(mean=20.0, variance=0.0),
                           TimeGrid(t0=0.0, T=10.0, dt_out=0.01, dt_int=0.01))
        assert np.all(np.isfinite(tr.mean))
        assert tr.mean.max() < 50.0

    def test_meta_and_debug_line(self, caplog):
        caplog.set_level(logging.DEBUG, logger="charlierbd")
        p = ErlangAParams(lam=lam_const(6.0), mu=1.0, beta=0.5, c=4)
        tr = solve_closure("erlang_a", p, "first",
                           MomentState(mean=3.0, variance=3.0),
                           TimeGrid(t0=0.0, T=1.0, dt_out=0.1, dt_int=0.01))
        # dt_int at the cap: fixed steps, which estimate nothing
        assert tr.meta["n_steps"] == 100 and tr.meta["n_rhs"] == 400
        assert (tr.meta["h_max"], tr.meta["n_rejected"], tr.meta["n_floor"],
                tr.meta["err_l1"]) == (0.01, 0, 0, 0.0)
        assert tr.meta["wall_s"] > 0.0
        lines = [r.getMessage() for r in caplog.records]
        assert lines == ["closure erlang_a/first: 100 steps, 0 rejected, "
                         "0 at the floor, 400 rhs calls, "
                         f"{tr.meta['wall_s']:.3f} s"]

    def test_kind_must_match_the_record(self):
        p = ErlangAParams(lam=lam_const(6.0), mu=1.0, beta=0.5, c=4)
        with pytest.raises(ValueError, match="does not match"):
            solve_closure("erlang_loss", p, "first",
                          MomentState(mean=3.0, variance=3.0),
                          TimeGrid(t0=0.0, T=1.0, dt_out=0.1, dt_int=0.01))

    def test_over_dispersion_fraction_reported(self):
        # beta << mu makes the Erlang-A state over-dispersed
        p = ErlangAParams(lam=lam_const(20.0), mu=1.0, beta=0.1, c=10)
        tr = solve_closure("erlang_a", p, "first",
                           MomentState(mean=20.0, variance=20.0),
                           TimeGrid(t0=0.0, T=10.0, dt_out=0.1, dt_int=0.01))
        assert tr.meta["over_dispersed_fraction"] > 0.5


    @pytest.mark.parametrize("order,dt_out,dt_int", [
        ("zeroth", 0.1, 0.01), ("first", 0.1, 0.01),
        ("zeroth", 1e-3, 1e-3), ("first", 1e-3, 1e-3),
    ], ids=["zeroth", "first", "zeroth-fine", "first-fine"])
    def test_blow_up_names_the_closure(self, order, dt_out, dt_int):
        # the drive overflows to inf once sin(t) > 0; on the fine grid the
        # steps are error-controlled, the first one fails at the floor and
        # is taken, and the error names the first output time, as on the
        # grid's own steps
        p = InfiniteServerParams(lam=SineDrive(1e308, 1e308), mu=1.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationError) as err:
            solve_closure("infinite_server", p, order,
                          MomentState(mean=1.0, variance=1.0),
                          TimeGrid(t0=0.0, T=1.0, dt_out=dt_out,
                                   dt_int=dt_int))
        assert str(err.value) == (f"{order}-order closure: non-finite "
                                  f"state at t={dt_out:g}")


# the models and initial states of the two shipped configs
SHIPPED = {
    "erlang_a": (ErlangAParams(lam=SineDrive(100.0, 20.0), mu=1.0, beta=0.5,
                               c=100), MomentState(mean=100.0, variance=100.0)),
    "quadratic": (QuadraticParams(lam=SineDrive(0.1, 0.02), Qtilde=50,
                                  beta=1.0), MomentState(mean=20.0,
                                                         variance=0.0)),
}


def with_servers(p, c):
    """The record p with its rates kept and its delay threshold set to c,
    which the kinds' own records refuse below 1."""
    return SimpleNamespace(kind=p.kind, lam=p.lam, g_terms=p.g_terms,
                           d_terms=p.d_terms, c=c)


class TestDelaySeries:
    """A closure's delay series is, bit for bit, the per-time
    `delay_probability` of the surrogate matched to its mean (and, at
    first order, its variance)."""

    RUNS = {
        # over-dispersed: the first order falls back at nearly every time
        "shipped_erlang_a": (*SHIPPED["erlang_a"], 2.0),
        # beta > mu: under-dispersed, so a1 != 0 at most times
        "under_dispersed": (ErlangAParams(lam=SineDrive(12.0, 2.0), mu=1.0,
                                          beta=3.0, c=8),
                            MomentState(mean=5.0, variance=1.0), 4.0),
        "c0": (with_servers(ErlangAParams(lam=SineDrive(4.0, 1.0), mu=1.0,
                                          beta=0.4, c=1), 0),
               MomentState(mean=3.0, variance=2.0), 2.0),
        "c1": (ErlangAParams(lam=SineDrive(4.0, 1.0), mu=1.0, beta=0.4, c=1),
               MomentState(mean=3.0, variance=2.0), 2.0),
        # started empty: the mean at t0 is clamped at _Q_FLOOR
        "floor": (ErlangAParams(lam=SineDrive(4.0, 1.0), mu=1.0, beta=0.4,
                                c=3), MomentState(mean=0.0, variance=0.0),
                  2.0),
        "erlang_loss": (ErlangLossParams(lam=SineDrive(4.0, 1.0), mu=1.0,
                                         beta=0.4, c=3, k=4),
                        MomentState(mean=3.0, variance=2.0), 2.0),
    }

    @pytest.mark.parametrize("order", ["zeroth", "first"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_matches_the_per_time_delay_probability(self, run, order):
        p, init, T = self.RUNS[run]
        tr = solve_closure(p.kind, p, order, init,
                           TimeGrid(t0=0.0, T=T, dt_out=1e-3, dt_int=1e-3))
        want = np.array([
            delay_probability(moment_match(max(m, solve._Q_FLOOR),
                                           v if order == "first" else None),
                              p.c)
            for m, v in zip(tr.mean.tolist(), tr.variance.tolist())])
        assert np.array_equal(tr.delay, want)
        if order == "first":
            tilted = [moment_match(max(m, solve._Q_FLOOR), v).a1 != 0.0
                      for m, v in zip(tr.mean.tolist(),
                                      tr.variance.tolist())]
            if run == "under_dispersed":
                assert sum(tilted) > 0.9 * len(tilted)
            if run == "shipped_erlang_a":
                assert sum(tilted) < 0.01 * len(tilted)
        if run == "floor":
            assert tr.mean[0] == 0.0


class TestClosureNodes:
    """The closures under `integrate`'s error control: node states at
    controlled steps, the output times filled between them."""

    @pytest.mark.parametrize("kind,order", [
        ("erlang_a", "zeroth"), ("erlang_a", "first"),
        ("quadratic", "zeroth"), ("quadratic", "first"),
    ])
    def test_series_match_a_fine_stagewise_run(self, kind, order):
        p, init = SHIPPED[kind]
        grid = TimeGrid(t0=0.0, T=2.0, dt_out=1e-3, dt_int=1e-3)
        tr = solve_closure(kind, p, order, init, grid)
        fine = solve_closure(kind, p, order, init,
                             TimeGrid(t0=0.0, T=2.0, dt_out=1e-3,
                                      dt_int=5e-4), h_max=None)
        assert tr.meta["h_max"] == solve._STEP_MAX
        assert tr.meta["n_steps"] < 2000
        for col in ("mean", "variance", "delay"):
            got, ref = getattr(tr, col), getattr(fine, col)
            if ref is None:
                continue
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind,order,budget", [
        ("erlang_a", "zeroth", 5000), ("erlang_a", "first", 5000),
        ("quadratic", "zeroth", 15000), ("quadratic", "first", 15000),
    ])
    def test_shipped_configs_stay_within_their_rhs_budget(self, kind, order,
                                                          budget):
        # the shipped configs' grid; 10,001 output times at dt_int would
        # take 40,001 evaluations
        p, init = SHIPPED[kind]
        grid = TimeGrid(t0=0.0, T=10.0, dt_out=1e-3, dt_int=1e-3)
        assert solve_closure(kind, p, order, init, grid).meta["n_rhs"] \
            <= budget

    @pytest.mark.parametrize("order", ["zeroth", "first"])
    def test_coarse_output_grid_steps_stagewise(self, order):
        # a cap at or below dt_int steps at dt_int on the output grid, bit
        # for bit: the default cap on dt_int 1e-2, a cap given at dt_int,
        # and none
        p, init = SHIPPED["erlang_a"]
        y0 = (init.mean if order == "zeroth"
              else np.array([init.mean, init.variance]))
        for dt_int, h_max, steps in ((1e-2, solve._STEP_MAX, 200),
                                     (2.5e-3, 2.5e-3, 800),
                                     (2.5e-3, None, 800)):
            grid = TimeGrid(t0=0.0, T=2.0, dt_out=1e-2, dt_int=dt_int)
            tr = solve_closure("erlang_a", p, order, init, grid, h_max=h_max)
            counts = {"over_dispersed": 0}
            want = integrate(_closure_rhs(p, order, counts), y0, grid,
                             None)
            values = want.values
            if order == "zeroth":
                values = np.stack([values, values], axis=1)
            assert np.array_equal(np.stack([tr.mean, tr.variance], axis=1),
                                  values)
            assert (tr.meta["n_steps"], tr.meta["n_rhs"]) == (steps,
                                                              4 * steps)
            assert {k: tr.meta[k] for k in want.meta} == want.meta

    @pytest.mark.parametrize("order", ["zeroth", "first"])
    def test_a_stiff_run_steps_at_the_floor(self, order):
        # lam (Qtilde - 1) sets the mean's relaxation rate, here up to
        # about 1800: RK4 is unstable at the cap, 1e-2, and stable at the
        # grid's 1e-3, where every step fails the error test; the true
        # mean stays below Qtilde = 50
        p = QuadraticParams(lam=SineDrive(30.0, 6.0), Qtilde=50, beta=1.0)
        init = MomentState(mean=20.0, variance=0.0)
        grid = TimeGrid(t0=0.0, T=2.0, dt_out=1e-3, dt_int=1e-3)
        wild = solve_closure("quadratic", p, "zeroth", init,
                             TimeGrid(t0=0.0, T=2.0, dt_out=1e-2,
                                      dt_int=1e-2))
        assert np.abs(wild.mean).max() > 1e2
        tr = solve_closure("quadratic", p, order, init, grid)
        # 2,000 steps and one last evaluation: no sliver step before T
        assert (tr.meta["n_steps"], tr.meta["n_floor"], tr.meta["n_rhs"],
                tr.meta["n_rejected"]) == (2000, 2000, 8001, 0)
        stepped = solve_closure("quadratic", p, order, init, grid,
                                h_max=None)
        # the node times are sums of steps, not the grid's times: measured
        # 1.5e-16 (mean) and 1.7e-12 (first-order variance) of the
        # column's largest value
        for col in ("mean", "variance"):
            got, ref = getattr(tr, col), getattr(stepped, col)
            assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_a_closure_started_at_zero_steps_above_the_floor(self):
        # acceptance criterion 6's closure, started empty: the error
        # tolerance scales with max(|mean|, 0.5), not |mean| = 0
        p = InfiniteServerParams(lam=SineDrive(100.0, 20.0), mu=1.0)
        init = MomentState(mean=0.0, variance=0.0)
        grid = TimeGrid(t0=0.0, T=2.0, dt_out=1e-3, dt_int=1e-3)
        tr = solve_closure("infinite_server", p, "zeroth", init, grid)
        assert 2 * tr.meta["n_floor"] < tr.meta["n_steps"] < 2000
        stepped = solve_closure("infinite_server", p, "zeroth", init, grid,
                                h_max=None)
        assert np.max(np.abs(tr.mean - stepped.mean)) < 1e-8

    @pytest.mark.parametrize("order", ["zeroth", "first"])
    def test_n_rhs_counts_every_evaluation(self, order, monkeypatch):
        # beta << mu makes the Erlang-A state over-dispersed
        build = solve.closure_evaluator
        calls = []

        def counted(g, d, first):
            evaluate = build(g, d, first)

            def wrapper(s):
                calls.append((first, s.over_dispersed))
                return evaluate(s)
            return wrapper
        monkeypatch.setattr(solve, "closure_evaluator", counted)
        p = ErlangAParams(lam=lam_const(20.0), mu=1.0, beta=0.1, c=10)
        tr = solve_closure("erlang_a", p, order,
                           MomentState(mean=20.0, variance=20.0),
                           TimeGrid(t0=0.0, T=2.0, dt_out=1e-3,
                                    dt_int=1e-3))
        m = tr.meta
        assert m["n_steps"] < 2000
        # each order evaluates only its own rhs: four per step tried, and
        # one at t0
        assert [is_first for is_first, _ in calls] == \
            [order == "first"] * len(calls)
        assert m["n_rhs"] == len(calls) == 1 + 4 * (m["n_steps"]
                                                    + m["n_rejected"])
        frac = m["over_dispersed_fraction"]
        assert frac == sum(over for _, over in calls) / len(calls)
        assert (frac == 0.0) if order == "zeroth" else (0.0 < frac <= 1.0)


class TestSimulate:
    def test_zero_rates_constant_paths(self):
        zero = lambda t, x: 0.0 * np.asarray(x, dtype=float)
        model = BirthDeathModel(birth=zero, death=zero,
                                lam=SineDrive(0.0, 0.0), label="zero")
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.5, dt_int=0.5)
        tr = simulate_paths(model, 50, 3, g, x0=4, x0_dist="point")
        assert np.all(tr.mean == 4.0)
        assert np.all(tr.variance == 0.0)

    @pytest.mark.parametrize("n", [37, 1003])
    def test_zero_rates_keep_exact_poisson_moments(self, n):
        # every path keeps its initial draw, so each output time holds the
        # moments of the seed's Poisson sample, exactly
        zero = lambda t, x: 0.0 * np.asarray(x, dtype=float)
        model = BirthDeathModel(birth=zero, death=zero,
                                lam=SineDrive(0.0, 0.0), label="zero")
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.5, dt_int=0.5)
        tr = simulate_paths(model, n, 17, g, x0=40, x0_dist="poisson")
        draw = np.random.default_rng(17).poisson(40.0, n)
        s1, s2 = sum(draw.tolist()), sum(v * v for v in draw.tolist())
        assert np.all(tr.mean == s1 / n)
        assert np.all(tr.variance
                      == float(Fraction(n * s2 - s1 * s1, n * (n - 1))))
        # delete-a-group jackknife on the (times, paths) matrix of states,
        # over min(100, n) contiguous groups
        vals = np.tile(draw, (g.times.size, 1))
        n_groups = min(100, n)
        sizes = np.array([len(c) for c in
                          np.array_split(np.arange(n), n_groups)])
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        group_sums = np.add.reduceat(vals, starts, axis=1)
        total = group_sums.sum(axis=1, keepdims=True)
        reps = (total - group_sums) / (n - sizes)
        se = np.sqrt((n_groups - 1) / n_groups
                     * ((reps - total / n) ** 2).sum(axis=1))
        assert np.all(tr.se_mean == se)

    def test_seeded_run_is_pinned(self):
        # mean, SE and thinning counts of one seeded run, recorded when the
        # simulator still kept the (times, paths) matrix of states
        g = TimeGrid(t0=0.0, T=4.0, dt_out=0.5, dt_int=0.5)
        tr = simulate_paths(small_erlang_a(), 300, 9, g, x0=3,
                            x0_dist="poisson")
        mean = ["0x1.8d3a06d3a06d4p+1", "0x1.ec5f92c5f92c6p+1",
                "0x1.2258bf258bf26p+2", "0x1.5d0369d0369d0p+2",
                "0x1.892c5f92c5f93p+2", "0x1.9a740da740da7p+2",
                "0x1.a0da740da740ep+2", "0x1.92c5f92c5f92cp+2",
                "0x1.7dddddddddddep+2"]
        se = ["0x1.856ce35b6bb53p-4", "0x1.e232fb7e9b798p-4",
              "0x1.1bde312bd742cp-3", "0x1.4b1d948b8a5eap-3",
              "0x1.681782a9a4678p-3", "0x1.7bac82f5eaa79p-3",
              "0x1.71ea2dea92503p-3", "0x1.53a4d4236b276p-3",
              "0x1.47d395743db65p-3"]
        assert [v.hex() for v in tr.mean.tolist()] == mean
        assert [v.hex() for v in tr.se_mean.tolist()] == se
        assert (tr.meta["n_candidates"], tr.meta["n_jumps"]) == (10185, 9955)

    @staticmethod
    def branch_runs():
        """One seeded run per branch of the thinning loop: (model, grid,
        n_paths, seed, x0, x0_dist)."""
        zero = lambda t, x: 0.0 * np.asarray(x, dtype=float)
        table = TableDrive([0.0, 0.7, 1.3, 2.2, 3.0], [3.0, 6.5, 2.0, 5.0, 4.0])
        return {
            # from 0 under a constant drive: the tables double from top = 2
            "outgrow": (infinite_server(lam_const(50.0)),
                        TimeGrid(t0=0.0, T=4.0, dt_out=0.5, dt_int=0.5),
                        4000, 7, 0, "point"),
            # knots inside the output intervals set the bounds
            "table_drive": (make_model(ErlangAParams(lam=table, mu=1.0,
                                                     beta=0.4, c=3)),
                            TimeGrid(t0=0.0, T=3.0, dt_out=0.5, dt_int=0.5),
                            300, 13, 4, "poisson"),
            # one start state; paths reach T on different passes
            "point": (small_erlang_a(),
                      TimeGrid(t0=0.0, T=2.0, dt_out=0.5, dt_int=0.5),
                      200, 9, 3, "point"),
            # B = 0: every candidate time is infinite
            "zero": (BirthDeathModel(birth=zero, death=zero,
                                     lam=SineDrive(0.0, 0.0), label="zero"),
                     TimeGrid(t0=0.0, T=2.0, dt_out=0.5, dt_int=0.5),
                     37, 17, 40, "poisson"),
        }

    # mean, SE and (n_candidates, n_jumps) of each branch run, recorded
    # before the loop kept per-path interval ends and bounds
    BRANCH_PINS = {
        "outgrow": (
            ["0x0.0p+0", "0x1.3cbd70a3d70a4p+4", "0x1.fa80000000000p+4",
             "0x1.3750e56041893p+5", "0x1.59d26e978d4fep+5",
             "0x1.6ea4dd2f1a9fcp+5", "0x1.7b9ba5e353f7dp+5",
             "0x1.8349ba5e353f8p+5", "0x1.88072b020c49cp+5"],
            ["0x0.0p+0", "0x1.14c34b00015dbp-4", "0x1.55795ee6562e2p-4",
             "0x1.73183b6d6adebp-4", "0x1.88aeca70ed074p-4",
             "0x1.b747039339efbp-4", "0x1.e38bf72e61684p-4",
             "0x1.be74d72eb6bf1p-4", "0x1.7e8fe1c805562p-4"],
            (1405888, 1405888)),
        "table_drive": (
            ["0x1.ec5f92c5f92c6p+1", "0x1.18bf258bf258cp+2",
             "0x1.5a3d70a3d70a4p+2", "0x1.3e81b4e81b4e8p+2",
             "0x1.3b17e4b17e4b1p+2", "0x1.66d3a06d3a06dp+2",
             "0x1.7da740da740dap+2"],
            ["0x1.bd3f918bb126ap-4", "0x1.f991f4cee2addp-4",
             "0x1.42f5892fef63cp-3", "0x1.1d403c10ae6f1p-3",
             "0x1.43afe5a55dc9dp-3", "0x1.5cf46d5a8dfd2p-3",
             "0x1.6b6da1bbf8901p-3"],
            (7798, 7033)),
        "point": (
            ["0x1.8000000000000p+1", "0x1.e7ae147ae147bp+1",
             "0x1.2147ae147ae14p+2", "0x1.451eb851eb852p+2",
             "0x1.7570a3d70a3d7p+2"],
            ["0x0.0p+0", "0x1.14d589a612024p-3", "0x1.25f52c89084b2p-3",
             "0x1.7469ccd1a6293p-3", "0x1.9319147bece19p-3"],
            (3270, 3225)),
        "zero": (
            ["0x1.4183759f22983p+5"] * 5,
            ["0x1.8db3d3698f884p-1"] * 5,
            (0, 0)),
    }

    @pytest.mark.parametrize("name", sorted(BRANCH_PINS))
    def test_every_branch_is_pinned(self, name):
        model, g, n, seed, x0, dist = self.branch_runs()[name]
        tr = simulate_paths(model, n, seed, g, x0, dist)
        mean, se, counts = self.BRANCH_PINS[name]
        assert [v.hex() for v in tr.mean.tolist()] == mean
        assert [v.hex() for v in tr.se_mean.tolist()] == se
        assert (tr.meta["n_candidates"], tr.meta["n_jumps"]) == counts

    def test_memory_does_not_scale_with_times_by_paths(self):
        model = infinite_server(lam_const(1.0))
        g = TimeGrid(t0=0.0, T=2.0, dt_out=1e-3, dt_int=1e-3)
        n = 2000
        tracemalloc.start()
        try:
            simulate_paths(model, n, 1, g, x0=1, x0_dist="point")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.times.size == 2001
        assert peak < g.times.size * n * 8 / 4

    def test_overflowing_sum_of_squares_is_refused(self):
        # 4 paths up to state 2^31 + 2 could sum squares past 2^63
        model = infinite_server(lam_const(1.0))
        with pytest.raises(SolverError, match="overflow"):
            simulate_paths(model, 4, 0, TimeGrid(t0=0.0, T=1.0, dt_out=0.5,
                                                 dt_int=0.5), 2 ** 30, "point")

    def test_stationary_infinite_server(self):
        model = infinite_server(lam_const(6.0))
        g = TimeGrid(t0=0.0, T=3.0, dt_out=0.5, dt_int=0.5)
        tr = simulate_paths(model, 8000, 11, g, x0=6, x0_dist="poisson")
        z = np.abs(tr.mean - 6.0) / tr.se_mean
        assert np.max(z) < 3.0

    def test_deterministic_given_seed(self, caplog):
        caplog.set_level(logging.DEBUG, logger="charlierbd")
        model = small_erlang_a()
        g = TimeGrid(t0=0.0, T=2.0, dt_out=0.5, dt_int=0.5)
        a = simulate_paths(model, 200, 9, g, x0=3, x0_dist="point")
        b = simulate_paths(model, 200, 9, g, x0=3, x0_dist="point")
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.se_mean, b.se_mean)
        assert a.meta["wall_s"] > 0.0
        # one line per run: paths, thinning candidates, jumps, passes of
        # the thinning loop, wall time
        lines = [r.getMessage().rsplit(", ", 1) for r in caplog.records]
        assert len(lines) == 2 and lines[0][0] == lines[1][0]
        assert lines[0][1] == f"{a.meta['wall_s']:.3f} s"
        paths, cands, jumps, passes = lines[0][0].split(", ")
        assert paths == "simulate: 200 paths"
        assert cands == f"{a.meta['n_candidates']} thinning candidates"
        assert jumps == f"{a.meta['n_jumps']} jumps"
        assert passes == f"{a.meta['n_passes']} passes"
        assert a.meta["n_passes"] > 0

    def test_time_varying_mean_matches_reference(self):
        model = infinite_server(SineDrive(6.0, 3.0))
        g = TimeGrid(t0=0.0, T=5.0, dt_out=0.5, dt_int=0.5)
        tr = simulate_paths(model, 20_000, 5, g, x0=2, x0_dist="point")
        ref = solve_reference(model, np.eye(41)[2],
                              TimeGrid(t0=0.0, T=5.0, dt_out=0.5, dt_int=1e-3),
                              None)
        z = np.abs(tr.mean[1:] - ref.mean[1:]) / tr.se_mean[1:]
        assert np.max(z) < 4.0
        # every candidate is a jump or a rejection, and most are jumps
        assert 0.5 * tr.meta["n_candidates"] < tr.meta["n_jumps"] \
            <= tr.meta["n_candidates"]
        assert "window" not in tr.meta

    def test_paths_outgrow_the_rate_table(self, monkeypatch):
        # from 0 towards Poisson(50): the rate tables, first on {0..2},
        # double each time a path reaches their top state
        tables = []

        def counted(model, times, X_max):
            tables.append(X_max)
            return affine_rates(model, times, X_max)
        monkeypatch.setattr("charlierbd.solve.affine_rates", counted)
        model = infinite_server(lam_const(50.0))
        g = TimeGrid(t0=0.0, T=4.0, dt_out=0.5, dt_int=0.5)
        tr = simulate_paths(model, 4000, 7, g, x0=0, x0_dist="point")
        assert tables[:5] == [2, 4, 8, 16, 32]
        ref = solve_reference(model, np.eye(151)[0],
                              TimeGrid(t0=0.0, T=4.0, dt_out=0.5, dt_int=1e-3),
                              None)
        z = np.abs(tr.mean[1:] - ref.mean[1:]) / tr.se_mean[1:]
        assert np.max(z) < 4.0

    def test_under_reporting_sup_is_caught(self):
        class LowSup(SineDrive):
            def sup(self, a, b):
                return 0.5 * super().sup(a, b)

        model = infinite_server(LowSup(6.0, 3.0))
        with pytest.raises(RateBoundError, match="sup under-reports"):
            simulate_paths(model, 50, 0, TimeGrid(t0=0.0, T=1.0, dt_out=0.5,
                                                  dt_int=0.5), 0, "point")

    def test_non_affine_model_is_refused(self):
        lam = SineDrive(4.0, 1.0)
        model = BirthDeathModel(
            birth=lambda t, x: lam(t) + 0.0 * np.asarray(x, dtype=float),
            death=lambda t, x: (1.0 + 0.2 * t) * np.asarray(x, dtype=float),
            lam=lam, label="t-death")
        with pytest.raises(ValueError, match="death rate depends on t"):
            simulate_paths(model, 50, 0, TimeGrid(t0=0.0, T=1.0, dt_out=0.5,
                                                  dt_int=0.5), 3, "point")

    def test_death_out_of_state_zero_is_refused(self):
        # no path may die out of state 0, so the loop needs no clamp at 0
        lam = lam_const(5.0)
        model = BirthDeathModel(
            birth=lambda t, x: lam(t) + 0.0 * np.asarray(x, dtype=float),
            death=lambda t, x: 1.0 + np.asarray(x, dtype=float),
            lam=lam, label="leaky")
        with pytest.raises(ValueError, match="death rate 1 in state 0"):
            simulate_paths(model, 50, 0, TimeGrid(t0=0.0, T=1.0, dt_out=0.5,
                                                  dt_int=0.5), 0, "point")

    def test_needs_two_paths(self):
        model = small_erlang_a()
        with pytest.raises(ValueError):
            simulate_paths(model, 1, 0, TimeGrid(t0=0.0, T=1.0, dt_out=0.5,
                                                 dt_int=0.5), 0, "point")
