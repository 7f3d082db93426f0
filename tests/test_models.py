import numpy as np
import pytest

from charlierbd.closure import (_FUNCTIONALS, SurrogateParams,
                                closure_evaluator, surrogate_pmf)
from charlierbd.models import (_VALUES, KINDS, BirthDeathModel,
                               ErlangAParams, ErlangLossParams,
                               InfiniteServerParams, QuadraticParams,
                               SineDrive, TableDrive, affine_rates,
                               generator, generator_apply, make_model)


def lam_const(v):
    return SineDrive(v, 0.0)


def formula_rates(p, x):
    """(g(x), d(x)) of params record p at one state x, each kind's rates
    written out from its definition: a statement independent of the
    module's terms."""
    if p.kind == "quadratic":
        return x * max(p.Qtilde - x, 0), p.beta * x
    g = float(x < p.c + p.k) if p.kind == "erlang_loss" else 1.0
    if p.kind == "infinite_server":
        return g, p.mu * x
    return g, p.mu * min(x, p.c) + p.beta * max(x - p.c, 0)


def check_sup(drive, a, b, attained):
    """sup(a, b) bounds lam on 200 dense samples of [a, b] and equals it
    at `attained`, a point of [a, b] where the maximum sits."""
    dense = np.append(np.linspace(a, b, 200), attained)
    top = float(np.max(drive(dense)))
    sup = float(drive.sup(a, b))
    assert sup >= top
    assert sup == pytest.approx(float(drive(attained)), rel=1e-13)


def check_inf(drive, a, b, attained):
    """inf(a, b) bounds lam from below on 200 dense samples of [a, b] and
    equals it at `attained`, a point of [a, b] where the minimum sits."""
    dense = np.append(np.linspace(a, b, 200), attained)
    bottom = float(np.min(drive(dense)))
    inf = float(drive.inf(a, b))
    assert inf <= bottom
    assert inf == pytest.approx(float(drive(attained)), rel=1e-13)


class TestDrives:
    # intervals shorter than a period, longer than two periods, and a == b
    @pytest.mark.parametrize("amp", [-3.0, 0.0, 2.0])
    @pytest.mark.parametrize("a,b", [(0.3, 1.2), (2.0, 3.5), (4.0, 6.0),
                                     (-1.0, 14.0), (0.7, 0.7)])
    def test_sine_sup(self, amp, a, b):
        drive = SineDrive(5.0, amp)
        crest = np.pi / 2 if amp > 0 else 1.5 * np.pi
        crests = crest + 2 * np.pi * np.arange(-2, 4)
        inside = crests[(crests >= a) & (crests <= b)]
        if amp == 0:
            attained = a
        elif inside.size:
            attained = inside[0]
        else:
            attained = a if drive(a) >= drive(b) else b
        check_sup(drive, a, b, attained)

    @pytest.mark.parametrize("a,b,attained", [
        (-2.0, 0.5, 0.5),     # before the first knot: constant 4
        (5.5, 9.0, 5.5),      # after the last knot: constant 6
        (0.5, 4.0, 2.0),      # across knots, the peak knot inside
        (2.5, 4.5, 4.5),      # across a trough knot, the end wins
        (3.0, 3.0, 3.0),      # a == b on a knot
    ])
    def test_table_sup(self, a, b, attained):
        check_sup(TableDrive([1.0, 2.0, 3.0, 5.0], [4.0, 7.0, 2.0, 6.0]),
                  a, b, attained)

    # inf is the negated sup of the negated drive: its trough is attained
    # where the negated drive has its crest
    @pytest.mark.parametrize("amp", [-3.0, 0.0, 2.0])
    @pytest.mark.parametrize("a,b", [(0.3, 1.2), (2.0, 3.5), (4.0, 6.0),
                                     (-1.0, 14.0), (0.7, 0.7)])
    def test_sine_inf(self, amp, a, b):
        drive = SineDrive(5.0, amp)
        trough = 1.5 * np.pi if amp > 0 else np.pi / 2
        troughs = trough + 2 * np.pi * np.arange(-2, 4)
        inside = troughs[(troughs >= a) & (troughs <= b)]
        if amp == 0:
            attained = a
        elif inside.size:
            attained = inside[0]
        else:
            attained = a if drive(a) <= drive(b) else b
        check_inf(drive, a, b, attained)

    @pytest.mark.parametrize("a,b,attained", [
        (-2.0, 0.5, 0.5),     # before the first knot: constant 4
        (5.5, 9.0, 5.5),      # after the last knot: constant 6
        (0.5, 4.0, 3.0),      # across knots, the trough knot inside
        (1.5, 2.5, 2.5),      # across a peak knot, the lower end wins
        (3.0, 3.0, 3.0),      # a == b on a knot
    ])
    def test_table_inf(self, a, b, attained):
        check_inf(TableDrive([1.0, 2.0, 3.0, 5.0], [4.0, 7.0, 2.0, 6.0]),
                  a, b, attained)

    def test_inf_is_elementwise(self):
        a = np.array([0.0, 1.0, 2.5, 6.0])
        b = np.array([0.5, 2.0, 8.0, 6.0])
        for drive in (SineDrive(3.0, -1.5),
                      TableDrive([1.0, 2.0, 3.0], [1.0, 4.0, 0.5])):
            want = [float(drive.inf(ai, bi)) for ai, bi in zip(a, b)]
            assert np.array_equal(drive.inf(a, b), want)

    def test_sup_is_elementwise(self):
        a = np.array([0.0, 1.0, 2.5, 6.0])
        b = np.array([0.5, 2.0, 8.0, 6.0])
        for drive in (SineDrive(3.0, -1.5),
                      TableDrive([1.0, 2.0, 3.0], [1.0, 4.0, 0.5])):
            want = [float(drive.sup(ai, bi)) for ai, bi in zip(a, b)]
            assert np.array_equal(drive.sup(a, b), want)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TableDrive([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            TableDrive([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("t,v", [([0.0, 1.0], [1.0, np.nan]),
                                     ([0.0, np.nan], [1.0, 2.0]),
                                     ([0.0, 1.0], [np.inf, 2.0]),
                                     ([-np.inf, 1.0], [1.0, 2.0])])
    def test_non_finite_knots_are_refused(self, t, v):
        with pytest.raises(ValueError, match="finite"):
            TableDrive(t, v)


class TestRateConstruction:
    # a drive whose largest sample is 2.0, so affine_rates' division by it
    # is exact; rates that are not integers; states 0..15 beyond every
    # kink: c = 3, c + k = 5 and Qtilde = 7
    DRIVE = TableDrive([0.0, 1.0], [1.0, 2.0])
    PINNED = [InfiniteServerParams(DRIVE, 0.7),
              ErlangAParams(DRIVE, 0.7, 0.3, 3),
              ErlangLossParams(DRIVE, 0.7, 0.3, 3, 2),
              QuadraticParams(DRIVE, 7, 0.3)]

    @pytest.mark.parametrize("p", PINNED, ids=lambda p: p.kind)
    def test_rates_are_each_kinds_formulas_bit_for_bit(self, p):
        g, d = affine_rates(make_model(p), np.linspace(0.0, 1.0, 11), 15)
        g_want, d_want = np.array([formula_rates(p, x)
                                   for x in range(16)], dtype=float).T
        g_want[-1] = 0.0   # no births out of X_max
        assert np.array_equal(g, g_want) and np.array_equal(d, d_want)

    def test_infinite_server_rates(self):
        m = make_model(InfiniteServerParams(lam_const(5.0), 2.0))
        assert m.birth(0.0, 7) == pytest.approx(5.0)
        assert m.death(0.0, 7) == pytest.approx(14.0)
        assert m.death(0.0, 0) == 0.0

    def test_erlang_a_rates(self):
        p = ErlangAParams(lam=lam_const(10.0), mu=1.0, beta=0.5, c=4)
        m = make_model(p)
        # death = mu (x ^ c) + beta (x - c)^+
        assert m.death(0.0, 2) == pytest.approx(2.0)
        assert m.death(0.0, 4) == pytest.approx(4.0)
        assert m.death(0.0, 7) == pytest.approx(4.0 + 0.5 * 3)
        assert m.birth(0.0, 3) == pytest.approx(10.0)

    def test_erlang_loss_blocks_births(self):
        p = ErlangLossParams(lam=lam_const(3.0), mu=1.0, beta=0.5, c=2, k=3)
        m = make_model(p)
        assert m.birth(0.0, 4) == pytest.approx(3.0)
        assert m.birth(0.0, 5) == 0.0
        assert m.birth(0.0, 9) == 0.0
        assert m.death(0.0, 4) == pytest.approx(2.0 + 0.5 * 2)

    def test_quadratic_rates(self):
        p = QuadraticParams(lam=lam_const(0.1), Qtilde=10, beta=1.0)
        m = make_model(p)
        assert m.birth(0.0, 4) == pytest.approx(0.1 * 4 * 6)
        assert m.birth(0.0, 10) == 0.0
        assert m.birth(0.0, 15) == 0.0  # clamped above the carrying level
        assert m.death(0.0, 3) == pytest.approx(3.0)

    def test_array_broadcasting(self):
        m = make_model(ErlangAParams(lam=SineDrive(2.0, 1.0),
                                     mu=1.0, beta=0.3, c=2))
        xs = np.arange(6)
        b = m.birth(0.5, xs)
        d = m.death(0.5, xs)
        assert b.shape == xs.shape and d.shape == xs.shape
        assert np.allclose(b, 2.0 + np.sin(0.5))
        ts = np.array([0.0, 1.0, 2.0])
        bt = m.birth(ts, np.zeros(3))
        assert np.allclose(bt, 2.0 + np.sin(ts))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            InfiniteServerParams(lam=lam_const(1.0), mu=0.0)
        with pytest.raises(ValueError):
            ErlangAParams(lam=lam_const(1.0), mu=0.0, beta=0.1, c=1)
        with pytest.raises(ValueError):
            ErlangAParams(lam=lam_const(1.0), mu=1.0, beta=-0.1, c=1)
        with pytest.raises(ValueError):
            ErlangLossParams(lam=lam_const(1.0), mu=1.0, beta=0.1, c=1, k=-1)
        with pytest.raises(ValueError):
            QuadraticParams(lam=lam_const(0.1), Qtilde=0, beta=1.0)


def test_rates_and_closures_share_one_vocabulary():
    # rate_values evaluates the functionals that closure_evaluator takes
    # expectations of, and every kind's terms use only those
    assert _VALUES.keys() == _FUNCTIONALS.keys()
    records = TestRateConstruction.PINNED
    assert sorted(p.kind for p in records) == sorted(KINDS)
    for p in records:
        assert {f[0] for f, _ in (*p.g_terms, *p.d_terms)} <= _VALUES.keys()


def rates_at(m, t, x_max):
    xs = np.arange(x_max + 1)
    return (np.broadcast_to(m.birth(t, xs), xs.shape),
            np.broadcast_to(m.death(t, xs), xs.shape))


class TestGeneratorApply:
    def test_conserves_mass(self):
        m = make_model(ErlangAParams(lam=lam_const(6.0), mu=1.0,
                                     beta=0.4, c=3))
        rng = np.random.default_rng(5)
        p = rng.random(41)
        p /= p.sum()
        # a nonzero birth rate at X_max must not leak mass
        out = generator_apply(generator(*rates_at(m, 0.9, 40)), p)
        assert abs(out.sum()) < 1e-12

    def test_matches_dense_matrix(self):
        m = make_model(ErlangAParams(lam=lam_const(4.0), mu=1.5,
                                     beta=0.2, c=2))
        x_max = 12
        t = 0.4
        A = np.zeros((x_max + 1, x_max + 1))
        for x in range(x_max + 1):
            b = float(m.birth(t, x)) if x < x_max else 0.0
            d = float(m.death(t, x))
            A[x, x] -= b + d
            if x < x_max:
                A[x + 1, x] += b
            if x > 0:
                A[x - 1, x] += d
        rng = np.random.default_rng(1)
        p = rng.random(x_max + 1)
        stencil = generator(*rates_at(m, t, x_max))
        assert np.allclose(generator_apply(stencil, p), A @ p, atol=1e-12)

    def test_acts_on_the_last_axis(self):
        m = make_model(ErlangAParams(lam=lam_const(6.0), mu=1.0,
                                     beta=0.4, c=3))
        P = np.random.default_rng(3).random((2, 4, 21))
        b, d = rates_at(m, 0.7, 20)
        stencil = generator(b, d)
        out = generator_apply(stencil, P)
        assert out.shape == P.shape
        for i, j in np.ndindex(2, 4):
            assert np.array_equal(out[i, j], generator_apply(stencil, P[i, j]))

    def test_point_mass_flow(self):
        m = make_model(InfiniteServerParams(lam_const(2.0), 1.0))
        p = np.zeros(6)
        p[3] = 1.0
        out = generator_apply(generator(*rates_at(m, 0.0, 5)), p)
        assert out[4] == pytest.approx(2.0)   # birth into 4
        assert out[2] == pytest.approx(3.0)   # death into 2
        assert out[3] == pytest.approx(-5.0)


    @staticmethod
    def textbook(b, d, p):
        # each state's three terms written out, summed in the order of
        # the docstring; no births out of X_max
        n = p.shape[-1]
        out = np.empty_like(p)
        for x in range(n):
            v = -((b[x] if x < n - 1 else 0.0) + d[x]) * p[..., x]
            if x > 0:
                v = v + b[x - 1] * p[..., x - 1]
            if x < n - 1:
                v = v + d[x + 1] * p[..., x + 1]
            out[..., x] = v
        return out

    @pytest.mark.parametrize("shape", [(41,), (3, 41)],
                             ids=["vector", "stack"])
    def test_is_the_textbook_stencil_bit_for_bit(self, shape):
        rng = np.random.default_rng(23)
        b, d = rng.random(41) * 7.0, rng.random(41) * 3.0
        b[rng.random(41) < 0.3] = 0.0
        d[rng.random(41) < 0.3] = 0.0
        b[-1] = 2.5   # ignored: no births out of X_max
        p = rng.random(shape)
        p[..., rng.random(41) < 0.2] = 0.0
        kept = [b.copy(), d.copy(), p.copy()]
        for rates in ((b, d), (np.zeros(41), d), (b, np.zeros(41))):
            assert np.array_equal(generator_apply(generator(*rates), p),
                                  self.textbook(*rates, p))
        assert all(np.array_equal(u, v) for u, v in zip((b, d, p), kept))


class TestAffineRates:
    TIMES = np.linspace(0.0, 3.0, 31)

    def test_built_in_shapes(self):
        lam = SineDrive(2.0, 1.0)
        x = np.arange(31.0)
        cases = [
            (make_model(InfiniteServerParams(lam, 2.0)),
             np.ones(31), 2.0 * x),
            (make_model(ErlangLossParams(lam=lam, mu=1.0, beta=0.5,
                                         c=2, k=3)),
             (x < 5).astype(float),
             np.minimum(x, 2) + 0.5 * np.maximum(x - 2, 0)),
            (make_model(QuadraticParams(lam=lam, Qtilde=10, beta=1.0)),
             x * np.maximum(10 - x, 0), x),
        ]
        for m, g_want, d_want in cases:
            g, d = affine_rates(m, self.TIMES, 30)
            g_want[-1] = 0.0
            assert np.allclose(g, g_want, rtol=1e-14, atol=0)
            assert np.array_equal(d, d_want)

    def test_each_rate_called_once(self):
        calls = []
        base = make_model(ErlangAParams(lam=lam_const(3.0), mu=1.0,
                                        beta=0.5, c=2))

        def counted(fn):
            def rate(t, x):
                calls.append(fn)
                return fn(t, x)
            return rate
        m = BirthDeathModel(counted(base.birth), counted(base.death),
                            base.lam, base.label)
        affine_rates(m, self.TIMES, 20)
        assert calls == [base.birth, base.death]

    def test_zero_drive_gives_zero_g(self):
        m = make_model(InfiniteServerParams(lam_const(0.0), 1.0))
        g, d = affine_rates(m, self.TIMES, 10)
        assert np.array_equal(g, np.zeros(11))
        assert np.array_equal(d, np.arange(11.0))

    def test_broken_contract_raises(self):
        lam = lam_const(2.0)
        linear = lambda t, x: np.asarray(x, dtype=float) + 0.0 * t
        t_death = BirthDeathModel(
            birth=lambda t, x: lam(t) + 0.0 * np.asarray(x, dtype=float),
            death=lambda t, x: (1.0 + 0.1 * t) * np.asarray(x, dtype=float),
            lam=lam, label="t-death")
        with pytest.raises(ValueError, match="death rate depends on t"):
            affine_rates(t_death, self.TIMES, 10)
        t_birth = BirthDeathModel(birth=lambda t, x: lam(t) + t * x,
                                  death=linear, lam=lam, label="t-birth")
        with pytest.raises(ValueError, match="birth"):
            affine_rates(t_birth, self.TIMES, 10)

    def test_negative_rate_raises(self):
        lam = lam_const(2.0)
        linear = lambda t, x: np.asarray(x, dtype=float)
        logistic = BirthDeathModel(   # x (10 - x) unclamped: < 0 above 10
            birth=lambda t, x: lam(t) * linear(t, x) * (10 - linear(t, x)),
            death=linear, lam=lam, label="logistic")
        with pytest.raises(ValueError, match="negative rate"):
            affine_rates(logistic, self.TIMES, 12)
        assert affine_rates(logistic, self.TIMES, 10)[0].min() == 0.0
        shifted = BirthDeathModel(birth=lambda t, x: lam(t) + 0 * linear(t, x),
                                  death=lambda t, x: linear(t, x) - 1.0,
                                  lam=lam, label="shifted")
        with pytest.raises(ValueError, match="negative rate"):
            affine_rates(shifted, self.TIMES, 5)

    def test_death_out_of_state_zero_raises(self):
        # birth 5, death 1 + x: a death from 0 would leave the state space,
        # which the reference would lose as mass and the simulator clamp
        lam = lam_const(5.0)
        leaky = BirthDeathModel(
            birth=lambda t, x: lam(t) + 0.0 * np.asarray(x, dtype=float),
            death=lambda t, x: 1.0 + np.asarray(x, dtype=float),
            lam=lam, label="leaky")
        with pytest.raises(ValueError, match=r"'leaky': death rate 1 in "
                                             r"state 0"):
            affine_rates(leaky, self.TIMES, 10)


class TestClosureTerms:
    """Each record's (E_s[g], E_s[d], Cov_s[Q, g], Cov_s[Q, d]), from its
    g_terms and d_terms, against direct sums over the tabulated surrogate
    density."""

    RECORDS = [InfiniteServerParams(lam_const(5.0), 1.5),
               ErlangAParams(lam_const(5.0), 1.0, 0.4, 6),
               ErlangLossParams(lam_const(5.0), 1.0, 0.4, 6, 3),
               QuadraticParams(lam_const(0.1), 30, 1.0)]

    @pytest.mark.parametrize("p", RECORDS, ids=lambda p: p.kind)
    @pytest.mark.parametrize("s", [SurrogateParams(q=4.0, order="zeroth"),
                                   SurrogateParams(q=7.5, order="first",
                                                   a1=0.2)])
    def test_terms_match_surrogate_sums(self, p, s):
        xs = np.arange(201)
        w = surrogate_pmf(s, 200)
        g, d = np.array([formula_rates(p, x) for x in xs], dtype=float).T
        if p.kind == "quadratic":   # its closure takes g unclamped
            g = xs * (p.Qtilde - xs)
        mean = w @ xs
        want = [w @ g, w @ d, w @ (xs * g) - mean * (w @ g),
                w @ (xs * d) - mean * (w @ d)]
        first = s.order == "first"
        got = closure_evaluator(p.g_terms, p.d_terms, first)(s)
        assert got[:2] == pytest.approx(want[:2], rel=1e-12, abs=1e-12)
        if not first:
            assert got[2:] == (None, None)
            return
        # covariances cancel products of the size of E[Q g], E[Q d]
        scale = max(abs(w @ (xs * g)), abs(w @ (xs * d)))
        assert got[2:] == pytest.approx(want[2:], abs=1e-11 * scale)

