import dataclasses
import json
import math

import numpy as np
import pytest

from charlierbd import harness, solve
from charlierbd.harness import (ConfigError, ExperimentConfig, rel_error,
                                run_figures, run_galerkin, run_reference,
                                run_table, tune_basis_parameter,
                                write_series_csv, write_table_csv)
from charlierbd.models import KINDS, affine_rates, make_model
from charlierbd.solve import IntegrationError
from test_models import formula_rates


def erlang_cfg(**kw):
    base = dict(model={"kind": "erlang_a",
                       "lambda": {"base": 6.0, "amplitude": 1.0},
                       "mu": 1.0, "beta": 0.5, "c": 4},
                T=3.0, init={"kind": "poisson", "value": 5.0},
                orders=[1, 3], X_max=60)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_roundtrip_and_hash(self, tmp_path):
        cfg = erlang_cfg()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = ExperimentConfig.from_file(path)
        assert again.hash() == cfg.hash()

    def test_to_dict_is_a_deep_copy(self):
        cfg = erlang_cfg(model={"kind": "erlang_a", "lambda": {"samples": {
            "t": [0.0, 3.0], "value": [6.0, 7.0]}}, "mu": 1.0, "beta": 0.5,
            "c": 4})
        d = cfg.to_dict()
        assert d == dataclasses.asdict(cfg)
        d["model"]["lambda"]["samples"]["t"][1] = 9.0
        d["orders"].append(5)
        assert cfg.model["lambda"]["samples"]["t"] == [0.0, 3.0]
        assert cfg.orders == [1, 3]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model={"kind": "mm1", "lambda": {"base": 1.0}})

    def test_rejects_missing_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model={"kind": "erlang_a",
                                    "lambda": {"base": 1.0}, "mu": 1.0})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"model": {}, "horizon": 5})

    def test_rejects_bad_schema_version(self):
        with pytest.raises(ConfigError):
            erlang_cfg(schema_version=99)

    def test_tabulated_lambda(self):
        cfg = ExperimentConfig(model={
            "kind": "infinite_server",
            "lambda": {"samples": {"t": [0.0, 1.0, 2.0],
                                   "value": [3.0, 5.0, 3.0]}},
            "mu": 1.0}, T=2.0)
        assert cfg.params().lam(0.5) == pytest.approx(4.0)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_params_is_a_frozen_record(self, kind):
        fields = {"mu": 1.0, "beta": 0.5, "c": 4, "k": 2, "Qtilde": 20}
        names = [f.name for f in dataclasses.fields(KINDS[kind])]
        cfg = ExperimentConfig(model={"kind": kind, "lambda": {"base": 0.5},
                                      **{n: fields[n] for n in names[1:]}},
                               T=1.0)
        p = cfg.params()
        assert type(p) is KINDS[kind] and p.kind == kind
        assert names[0] == "lam" and p.lam(0.3) == 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.lam = None
        assert make_model(p).label == cfg.build_model().label == kind
        # the model's rates come back as the record's g and d
        g, d = affine_rates(make_model(p), cfg.grid().times, 30)
        g_want, d_want = np.array([formula_rates(p, x) for x in range(31)],
                                  dtype=float).T
        g_want[-1] = 0.0
        assert np.array_equal(g, g_want) and np.array_equal(d, d_want)

    def test_default_x_max_sizes_the_abandonment_backlog(self):
        def x_max(beta):
            return ExperimentConfig(model={
                "kind": "erlang_a", "mu": 1.0, "beta": beta, "c": 5,
                "lambda": {"base": 10.0, "amplitude": 2.0}}, T=10.0).x_max()
        # fluid level 5 + 7 / 0.01 = 705, capped at 0 + 12 * 10 by T
        assert x_max(0.01) == int(120 + 12 * math.sqrt(120) + 20)
        assert x_max(0.0) == x_max(0.01)
        # beta >= mu: the fluid level is below lam_max / mu
        assert x_max(1.0) == x_max(3.0) == 73


class TestRelError:
    def test_identical_series(self):
        t = np.linspace(0, 2, 21)
        u = np.cos(t) + 2
        assert rel_error(u, u, t) == 0.0

    def test_constant_relative_offset(self):
        t = np.linspace(0, 5, 501)
        u_star = np.sin(t) + 3
        assert rel_error(1.01 * u_star, u_star, t) == \
            pytest.approx(0.01, abs=1e-12)

    def test_scale_invariance(self):
        t = np.linspace(0, 3, 301)
        rng = np.random.default_rng(2)
        u_star = 2 + rng.random(301)
        u = u_star + 0.1 * rng.standard_normal(301)
        assert rel_error(7.0 * u, 7.0 * u_star, t) == \
            pytest.approx(rel_error(u, u_star, t), rel=1e-12)

    def test_lower_limit_rule(self):
        # reference crosses zero before t=1, clean afterwards
        t = np.linspace(0, 4, 4001)
        u_star = np.where(t < 0.5, 0.0, 1.0)
        u = u_star + np.where(t < 0.5, 0.0, 0.2)
        # hand value: integrand 0.2 on [1, 4], averaged over 3 time units
        assert rel_error(u, u_star, t) == pytest.approx(0.2, rel=1e-6)

    def test_divergence_after_lower_limit(self):
        t = np.linspace(0, 4, 401)
        u_star = np.where(t < 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            rel_error(u_star + 0.1, u_star, t)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rel_error(np.ones(3), np.ones(4), np.arange(4.0))

    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_fallback_past_a_short_horizon(self, T):
        # only t0 is small, and the fallback to t0 + 1 leaves one time
        t = np.linspace(0, T, 11)
        u_star = np.where(t == 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="fewer than two output times"):
            rel_error(u_star + 0.1, u_star, t)

    def test_reference_small_up_to_the_horizon(self):
        # every time is small, and the fallback leaves none
        t = np.linspace(0, 1, 11)
        with pytest.raises(ValueError, match="fewer than two output times"):
            rel_error(np.ones(11), np.zeros(11), t)


class TestRunTable:
    def test_trend_and_provenance(self):
        cfg = erlang_cfg()
        table = run_table(cfg)
        assert [r.N for r in table.rows] == [1, 3]
        assert table.rows[1].err_mean < table.rows[0].err_mean
        assert table.provenance["config_hash"] == cfg.hash()
        assert table.provenance["T"] == cfg.T

    def test_solver_meta_in_provenance(self, tmp_path):
        cfg = erlang_cfg()
        table = run_table(cfg)
        out = tmp_path / "t.csv"
        write_table_csv(table, out)
        head = json.loads(out.read_text().splitlines()[0].split(":", 1)[1])
        rows = head["galerkin_rows"]
        assert [r["N"] for r in rows] == cfg.orders
        # every row passes the first node step, half the shared cap, and
        # its 2H probe is the only discarded run
        for r in rows:
            assert set(r) == {"N", "c0_drift", "n_steps", "failed", "h",
                              "n_probe_steps", "step_err"}
            assert r["c0_drift"] < 1e-9 and r["failed"] is False
            assert r["h"] == solve._STEP_MAX / 2
            assert r["n_steps"] == round((cfg.T - cfg.t0) / r["h"]) == 600
            assert r["n_probe_steps"] == r["n_steps"] // 2
            assert 0 < r["step_err"] <= solve._ROW_TOL
        ref = head["reference"]
        assert set(ref) == {"mass_residual", "boundary_mass"}
        assert ref["mass_residual"] < 1e-10
        assert 0 <= ref["boundary_mass"] < 1e-8

    def test_one_row_solve_per_order(self, monkeypatch):
        # perfbench counts a table's rows by its run_galerkin calls; the
        # step probe runs below solve_galerkin and never re-enters either
        cfg = erlang_cfg(orders=[1, 2, 3])
        calls, depth = [], [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, depth[0]))
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper
        for name in ("run_galerkin", "solve_galerkin"):
            monkeypatch.setattr(harness, name,
                                counted(getattr(harness, name)))
        table = run_table(cfg)
        # the auto basis tunes nothing: each row is one solve
        assert calls == [("run_galerkin", 0), ("solve_galerkin", 1)] \
            * len(cfg.orders)
        assert all(r["h"] > cfg.dt_int
                   for r in table.provenance["galerkin_rows"])

    def test_deterministic_csv(self, tmp_path):
        cfg = erlang_cfg()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_table_csv(run_table(cfg), a)
        write_table_csv(run_table(cfg), b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[1]
        assert header == "N,err_mean,err_variance,err_skewness,err_kurtosis"


class TestRunGalerkin:
    def test_blown_up_row_raises(self):
        # RK4 at dt=0.5 is unstable for the stiff order-12 system
        cfg = erlang_cfg(model={"kind": "erlang_a",
                                "lambda": {"base": 4.0, "amplitude": 1.0},
                                "mu": 1.0, "beta": 0.4, "c": 3},
                         T=150.0, dt_out=0.5, dt_int=0.5, X_max=40,
                         init={"kind": "poisson", "value": 3.0})
        with np.errstate(all="ignore"):
            assert not run_galerkin(cfg, 2, a=4.0).meta["failed"]
            with pytest.raises(IntegrationError,
                               match="^Galerkin row N=12: non-finite state"):
                run_galerkin(cfg, 12, a=4.0)

    @pytest.mark.parametrize("mode", ["auto", "tuned"])
    def test_init_without_mass_raises_before_any_solve(self, monkeypatch,
                                                       mode):
        # Poisson(2000) underflows to zero on all of {0..60}
        cfg = erlang_cfg(init={"kind": "poisson", "value": 2000.0},
                         basis={"mode": mode})

        def solve(*args):
            raise AssertionError("solved before the init was checked")
        monkeypatch.setattr(harness, "basis_parameter_prepass", solve)
        monkeypatch.setattr(harness, "solve_galerkin", solve)
        with pytest.raises(ConfigError, match="no mass representable"):
            run_galerkin(cfg, 1)
        if mode == "tuned":
            with pytest.raises(ConfigError, match="no mass representable"):
                tune_basis_parameter(cfg, 1, [])


class TestTuning:
    def test_value_is_pinned(self):
        # how the candidates are integrated must not move the choice
        assert tune_basis_parameter(erlang_cfg(), 3, []) == 6.872716413144454

    def test_curve_in_provenance(self, tmp_path):
        table = run_table(erlang_cfg(basis={"mode": "tuned"}))
        curve = table.provenance["basis_tuning"]
        assert 14 < len(curve) <= 22
        assert all(v is None or v >= 0 for _, v in curve)
        a, v = min((p for p in curve if p[1] is not None),
                   key=lambda p: p[1])
        assert table.provenance["basis_a"] == a
        assert table.provenance["basis_tuning_fallback"] is False
        out = tmp_path / "t.csv"
        write_table_csv(table, out)
        head = json.loads(out.read_text().splitlines()[0].split(":", 1)[1])
        assert head["basis_tuning"] == curve

    def test_blown_up_candidates_score_inf(self, caplog):
        # the order-8 proxy is too stiff for the search's 5e-3 RK4 step;
        # the config's own 1e-4 step keeps the reference and rows stable
        cfg = erlang_cfg(model={"kind": "erlang_a",
                                "lambda": {"base": 600.0, "amplitude": 50.0},
                                "mu": 150.0, "beta": 100.0, "c": 4},
                         T=4.0, init={"kind": "poisson", "value": 4.0},
                         basis={"mode": "tuned"}, dt_out=1e-2, dt_int=1e-4)
        curve = []
        a = tune_basis_parameter(cfg, 3, curve=curve)
        assert len(curve) == 22
        assert all(v == np.inf for _, v in curve)
        assert a == curve[0][0]
        warned = [r for r in caplog.records if r.levelname == "WARNING"
                  and "every candidate scored inf" in r.getMessage()]
        assert len(warned) == 1
        table = run_table(cfg)
        assert table.provenance["basis_tuning_fallback"] is True
        assert table.provenance["basis_a"] == a

    def test_some_candidates_blow_up(self):
        # the low-a candidates blow up at the search's 5e-3 RK4 step, the
        # others score finite: the failed ones score inf and lose
        cfg = erlang_cfg(model={"kind": "erlang_a",
                                "lambda": {"base": 450.0, "amplitude": 37.5},
                                "mu": 100.0, "beta": 60.0, "c": 4},
                         T=4.0, init={"kind": "poisson", "value": 4.0},
                         dt_out=1e-2, dt_int=1e-4, orders=[3])
        curve = []
        assert tune_basis_parameter(cfg, 3, curve) == 6.620065804682482
        assert len(curve) == 22
        assert sum(v == np.inf for _, v in curve) == 6

    def test_caller_reference_is_kept(self):
        cfg = erlang_cfg()
        ref = run_reference(cfg)
        names = ("times", "mean", "variance", "cum3", "cum4", "delay")
        series = {k: getattr(ref, k) for k in names}
        copies = {k: v.copy() for k, v in series.items()}
        meta = dict(ref.meta)
        run_table(cfg, reference=ref)
        for k in names:
            assert getattr(ref, k) is series[k], k
            assert np.array_equal(series[k], copies[k]), k
        assert ref.meta == meta


class TestRunFigures:
    def test_series_bundle(self, tmp_path):
        cfg = erlang_cfg(orders=[1])
        series, closure_meta = run_figures(cfg)
        assert list(closure_meta) == ["zeroth", "first"]
        assert "_meta" not in series
        for key in ("t", "ref_mean", "ref_delay", "zeroth_mean",
                    "first_mean", "first_delay"):
            assert key in series
            assert len(series[key]) == len(series["t"])
        out = tmp_path / "fig.csv"
        write_series_csv(series, out)
        lines = out.read_text().splitlines()
        assert len(lines) == len(series["t"]) + 1

    def test_series_csv_is_each_cell_in_e_format(self, tmp_path):
        rng = np.random.default_rng(4)
        series = {"t": np.linspace(0.0, 1.0, 7),
                  "a": rng.standard_normal(7) * 1e5,
                  "b": np.array([np.inf, -np.inf, np.nan, 0.0, -0.0,
                                 1e-300, 2.5])}
        out = tmp_path / "s.csv"
        write_series_csv(series, out)
        want = ["t,a,b"] + [",".join("%.6e" % series[c][i] for c in series)
                            for i in range(7)]
        assert out.read_text() == "\n".join(want) + "\n"

    def test_long_series_csv_is_the_row_by_row_format(self, tmp_path):
        rng = np.random.default_rng(5)
        series = {"t": np.linspace(0.0, 25.0, 2500),
                  "a": rng.standard_normal(2500) * 1e3,
                  "b": rng.lognormal(size=2500)}
        out = tmp_path / "s.csv"
        write_series_csv(series, out)
        want = "t,a,b\n" + "".join(
            "%.6e,%.6e,%.6e\n" % (series["t"][i], series["a"][i],
                                  series["b"][i]) for i in range(2500))
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("n_t,n_a", [(1500, 1024), (1024, 1500)])
    def test_series_csv_refuses_columns_of_unequal_length(self, tmp_path,
                                                          n_t, n_a):
        series = {"t": np.zeros(n_t), "a": np.zeros(n_a)}
        with pytest.raises(ValueError, match="differ in length"):
            write_series_csv(series, tmp_path / "s.csv")
        assert not (tmp_path / "s.csv").exists()

    def test_infinite_server_zeroth_matches_reference(self):
        cfg = ExperimentConfig(model={"kind": "infinite_server",
                                      "lambda": {"base": 5.0,
                                                 "amplitude": 1.0},
                                      "mu": 1.0},
                               T=4.0, init={"kind": "poisson", "value": 5.0},
                               X_max=60)
        series, _ = run_figures(cfg)
        assert np.max(np.abs(series["zeroth_mean"] - series["ref_mean"])) \
            < 1e-6
