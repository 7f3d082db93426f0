import math

import numpy as np
import pytest

from charlierbd import closure, solve
from charlierbd.closure import (SurrogateParams, closure_evaluator,
                                covariance_terms, delay_probability,
                                expected_indicator_below, expected_min,
                                expected_overflow,
                                expected_q_times_indicator_below,
                                expected_q_times_min,
                                expected_q_times_overflow, moment_match,
                                surrogate_moment, surrogate_moments,
                                surrogate_pmf)
from charlierbd.harness import ExperimentConfig
from charlierbd.solve import TimeGrid, solve_closure
from charlierbd.special import adaptive_support_bound, lower_tail

Q_GRID = [0.3, 1.0, 4.5, 20.0, 75.0]
C_GRID = [0, 1, 3, 10, 40]
A1_GRID = [0.0, 0.15, 0.6]


def surrogates():
    for q in Q_GRID:
        yield SurrogateParams(q=q, order="zeroth")
        for a1 in A1_GRID[1:]:
            yield SurrogateParams(q=q, a1=a1, order="first")


def brute(s, f):
    x_max = adaptive_support_bound(max(s.q, 1.0), tail_tol=1e-16) + 80
    p = surrogate_pmf(s, x_max)
    xs = np.arange(x_max + 1)
    return float(np.sum(f(xs) * p))


def check(got, want):
    if abs(want) < 1e-9:
        assert got == pytest.approx(want, abs=1e-9)
    else:
        assert got == pytest.approx(want, rel=1e-9)


def check_cov(got, exy, ex, ey):
    # covariances cancel two like-sized products, so the achievable
    # float64 accuracy is 1e-9 of the gross (pre-cancellation) scale
    want = exy - ex * ey
    scale = max(abs(exy), abs(ex * ey), 1.0)
    assert got == pytest.approx(want, abs=1e-9 * scale)


class TestClosedFormsAgainstBruteSums:
    """Every rate-function closed form against direct summation of the
    tabulated surrogate density. This is the anti-typo gate for all the
    incomplete-gamma and Touchard reductions."""

    def test_moments(self):
        for s in surrogates():
            for k in range(5):
                check(surrogate_moment(s, k), brute(s, lambda x: x**k * 1.0))

    def test_overflow(self):
        for s in surrogates():
            for c in C_GRID:
                check(expected_overflow(s, c),
                      brute(s, lambda x: np.maximum(x - c, 0.0)))

    def test_min(self):
        for s in surrogates():
            for c in C_GRID:
                check(expected_min(s, c),
                      brute(s, lambda x: np.minimum(x, c) * 1.0))

    def test_indicator_below(self):
        for s in surrogates():
            for z in C_GRID:
                check(expected_indicator_below(s, z),
                      brute(s, lambda x: (x < z) * 1.0))

    def test_q_weighted_forms(self):
        for s in surrogates():
            for c in C_GRID:
                check(expected_q_times_overflow(s, c),
                      brute(s, lambda x: x * np.maximum(x - c, 0.0)))
                check(expected_q_times_min(s, c),
                      brute(s, lambda x: x * np.minimum(x, c) * 1.0))
                check(expected_q_times_indicator_below(s, c),
                      brute(s, lambda x: x * (x < c) * 1.0))

    def test_covariances(self):
        for s in surrogates():
            for c in C_GRID:
                terms = covariance_terms(s, c, z=c)
                mean = brute(s, lambda x: x * 1.0)
                check_cov(terms.overflow,
                          brute(s, lambda x: x * np.maximum(x - c, 0.0)),
                          mean, brute(s, lambda x: np.maximum(x - c, 0.0)))
                check_cov(terms.minimum,
                          brute(s, lambda x: x * np.minimum(x, c) * 1.0),
                          mean, brute(s, lambda x: np.minimum(x, c) * 1.0))
                check_cov(terms.below,
                          brute(s, lambda x: x * (x < c) * 1.0),
                          mean, brute(s, lambda x: (x < c) * 1.0))

    def test_delay_probability(self):
        for s in surrogates():
            for c in C_GRID:
                check(delay_probability(s, c), brute(s, lambda x: (x >= c) * 1.0))

    # the evaluator's six functionals, each a coefficient-1.0 rate on its
    # own, so that (E_s[f], Cov_s[Q, f]) come from the code the closure
    # solver runs
    FUNCTIONALS = [(("1",), lambda x: 1.0 + 0.0 * x),
                   (("x",), lambda x: x * 1.0),
                   (("x2",), lambda x: x * x * 1.0)] + [
        (f, fx) for c in C_GRID for f, fx in (
            (("min", c), lambda x, c=c: np.minimum(x, c) * 1.0),
            (("over", c), lambda x, c=c: np.maximum(x - c, 0.0)),
            (("below", c), lambda x, c=c: (x < c) * 1.0))]

    @pytest.mark.parametrize("first", [False, True])
    def test_evaluator_functionals(self, first):
        for s in surrogates():
            mean = brute(s, lambda x: x * 1.0)
            for f, fx in self.FUNCTIONALS:
                e, _, cov, _ = closure_evaluator(((f, 1.0),), (), first)(s)
                ef = brute(s, fx)
                check(e, ef)
                if not first:
                    assert cov is None
                    continue
                check_cov(cov, brute(s, lambda x: x * fx(x)), mean, ef)


@pytest.mark.parametrize("q", [1e-9, 0.3, 4.5, 100.3, 600.0])
@pytest.mark.parametrize("z", [0, 1, 5, 100, 700])
def test_indicator_below_at_zero_a1_skips_the_weighted_tail(monkeypatch,
                                                             q, z):
    # the a1 term a1 (e1 - q e0) is exactly zero at a1 = 0, so only the
    # unweighted tail is read and the value is bit for bit that of the
    # full closed form, e0 = P(Q <= z - 1) and e1 = q P(Q <= z - 2)
    e0 = lower_tail(q, z - 1)
    want = e0 + 0.0 * (q * lower_tail(q, z - 2) - q * e0)
    calls = []
    tail = closure.lower_tail
    monkeypatch.setattr(closure, "lower_tail",
                        lambda *args: calls.append(args) or tail(*args))
    for s in (SurrogateParams(q=q, order="zeroth"),
              SurrogateParams(q=q, order="first", over_dispersed=True)):
        calls.clear()
        assert expected_indicator_below(s, z) == want
        assert calls == [(q, z - 1)]
        assert delay_probability(s, z) == 1.0 - want


class TestMomentMatch:
    def test_zeroth(self):
        s = moment_match(3.2, None)
        assert s.q == 3.2 and s.a1 == 0.0 and not s.over_dispersed
        assert s.order == "zeroth"

    def test_first_reproduces_targets(self):
        for mean, var in [(5.0, 3.0), (10.0, 9.5), (2.0, 2.0), (40.0, 12.0)]:
            s = moment_match(mean, var)
            assert s.order == "first"
            got_mean = surrogate_moment(s, 1)
            got_var = surrogate_moment(s, 2) - got_mean**2
            assert got_mean == pytest.approx(mean, rel=1e-12)
            assert got_var == pytest.approx(var, rel=1e-10)

    def test_over_dispersed_fallback(self):
        s = moment_match(3.0, 5.0)
        assert s.over_dispersed and s.order == "first"
        assert s.q == 3.0 and s.a1 == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            moment_match(0.0, None)


class TestSurrogateParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SurrogateParams(q=0.0, order="zeroth")
        with pytest.raises(ValueError):
            SurrogateParams(q=1.0, a1=0.2, order="zeroth")
        with pytest.raises(ValueError):
            SurrogateParams(q=1.0, order="second")


def single(f, s, first):
    """(E_s[f], Cov_s[Q, f]) of one functional, through the evaluator
    with g = d = f: a coefficient of 1.0 changes no bit."""
    e_f, e_d, cov_f, cov_d = closure_evaluator(((f, 1.0),), ((f, 1.0),),
                                               first)(s)
    assert (e_f, cov_f) == (e_d, cov_d)
    return e_f, cov_f


class TestQueueTermsBlock:
    """The closure evaluator's queue functionals equal the single closed
    forms exactly, and each rhs evaluation reads each Poisson value it
    needs once, and no other."""

    @pytest.mark.parametrize("q", [1e-9, 0.8, 30.0, 100.3])
    @pytest.mark.parametrize("a1", [0.0, 0.3])
    @pytest.mark.parametrize("first", [False, True])
    @pytest.mark.parametrize("z", [None, 0, 1, 2, 5, 104])
    def test_equals_single_closed_forms(self, q, a1, first, z):
        s = SurrogateParams(q=q, a1=a1,
                            order="zeroth" if a1 == 0.0 else "first")
        admit = ("1",) if z is None else ("below", z)
        mean, _ = single(("x",), s, first)
        assert mean == surrogate_moment(s, 1)
        for c in (0, 1, 2, 3, 9, 100):
            minimum, cov_minimum = single(("min", c), s, first)
            overflow, cov_overflow = single(("over", c), s, first)
            assert minimum == expected_min(s, c)
            assert overflow == expected_overflow(s, c)
            e_admit, cov_below = single(admit, s, first)
            assert e_admit == (1.0 if z is None
                               else expected_indicator_below(s, z))
            if not first:
                assert (cov_overflow, cov_minimum, cov_below) \
                    == (None, None, None)
                continue
            cov = covariance_terms(s, c, z=z)
            assert cov_overflow == cov.overflow
            assert cov_minimum == cov.minimum
            assert cov_below == (0.0 if z is None else cov.below)

    @pytest.mark.parametrize("s", [SurrogateParams(q=4.5, order="zeroth"),
                                   SurrogateParams(q=30.0, a1=0.3,
                                                   order="first")])
    def test_rates_add_their_terms_left_to_right(self, s):
        # the Erlang-A death rate and the unclamped quadratic birth rate:
        # each term's coefficient product, added left to right, bit for bit
        mu, beta, c, Qtilde = 1.5, 0.4, 9, 50
        erlang_a = closure_evaluator(
            ((("1",), 1.0),), ((("min", c), mu), (("over", c), beta)),
            True)(s)
        cov = covariance_terms(s, c, z=None)
        assert erlang_a == (1.0, mu * expected_min(s, c)
                            + beta * expected_overflow(s, c), 0.0,
                            mu * cov.minimum + beta * cov.overflow)
        quadratic = closure_evaluator(
            ((("x",), Qtilde), (("x2",), -1.0)), ((("x",), beta),), True)(s)
        m = surrogate_moments(s, 3)
        assert quadratic == (Qtilde * m[0] - m[1], beta * m[0],
                             Qtilde * (m[1] - m[0] * m[0])
                             - (m[2] - m[0] * m[1]),
                             beta * (m[1] - m[0] * m[0]))

    def test_domain(self):
        with pytest.raises(ValueError):
            closure_evaluator(((("over", -1), 1.0),), ((("x",), 1.0),), True)
        with pytest.raises(ValueError):
            closure_evaluator(((("below", -1), 1.0),), ((("min", 2), 1.0),),
                              True)
        with pytest.raises(ValueError):
            closure_evaluator(((("x3",), 1.0),), ((("x",), 1.0),), True)

    @pytest.mark.parametrize("a1", [0.0, 0.3])
    def test_surrogate_moments_equal_single_moments(self, a1):
        for q in (1e-9, 0.8, 30.0, 100.3):
            s = SurrogateParams(q=q, a1=a1,
                                order="zeroth" if a1 == 0.0 else "first")
            assert surrogate_moments(s, 4) == [surrogate_moment(s, k)
                                               for k in range(1, 5)]

    # Poisson values one rhs evaluation reads when its surrogate has
    # a1 != 0, as (upper tails, lower tails, Touchard values); with
    # a1 = 0 it reads one fewer of each kind it reads
    READS = {
        "erlang_a": {"zeroth": (3, 0, 2), "first": (4, 0, 3)},
        "erlang_loss": {"zeroth": (3, 2, 2), "first": (4, 3, 3)},
        "infinite_server": {"zeroth": (0, 0, 2), "first": (0, 0, 3)},
        "quadratic": {"zeroth": (0, 0, 3), "first": (0, 0, 4)},
    }
    MODELS = {
        "erlang_a": {"mu": 1.0, "beta": 0.5, "c": 10},
        "erlang_loss": {"mu": 1.0, "beta": 0.5, "c": 10, "k": 3},
        "infinite_server": {"mu": 1.0},
        "quadratic": {"Qtilde": 30, "beta": 1.0},
    }

    @pytest.mark.parametrize("order", ["zeroth", "first"])
    @pytest.mark.parametrize("kind", sorted(READS))
    def test_call_counts_per_rhs(self, monkeypatch, kind, order):
        names = ("upper_tail", "lower_tail", "touchard")
        counts = dict.fromkeys(names, 0)

        def counted(name):
            fn = getattr(closure, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name in names:
            monkeypatch.setattr(closure, name, counted(name))
        seen = []   # (first, a1 != 0, reads) per rhs evaluation
        build = solve.closure_evaluator

        def watched(g, d, first):
            evaluate = build(g, d, first)

            def wrapper(s):
                before = [counts[name] for name in names]
                out = evaluate(s)
                seen.append((first, s.a1 != 0.0,
                             tuple(counts[name] - b
                                   for name, b in zip(names, before))))
                return out
            return wrapper
        monkeypatch.setattr(solve, "closure_evaluator", watched)
        drive = {"base": 0.4 if kind == "quadratic" else 12.0,
                 "amplitude": 0.1 if kind == "quadratic" else 2.0}
        cfg = ExperimentConfig(
            model={"kind": kind, "lambda": drive, **self.MODELS[kind]},
            T=1.0, init={"kind": "point", "value": 10})
        grid = TimeGrid(t0=0.0, T=1.0, dt_out=0.1, dt_int=0.01)
        traj = solve_closure(cfg.kind, cfg.params(), order,
                             cfg.initial_state(), grid)
        n_rhs = traj.meta["n_rhs"]
        assert n_rhs == 400 == len(seen)
        for first, corr, reads in seen:
            want = self.READS[kind]["first" if first else "zeroth"]
            assert reads == tuple(n - (n > 0 and not corr) for n in want)
        # every first-order run meets a surrogate with a1 terms
        assert any(corr for _, corr, _ in seen) == (order == "first")
