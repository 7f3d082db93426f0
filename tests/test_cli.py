import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import charlierbd
from charlierbd import cli, harness
from charlierbd.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import output_hashes  # noqa: E402


@pytest.fixture
def cfg_path(tmp_path):
    cfg = {"model": {"kind": "erlang_a",
                     "lambda": {"base": 6.0, "amplitude": 1.0},
                     "mu": 1.0, "beta": 0.5, "c": 4},
           "T": 2.0, "init": {"kind": "poisson", "value": 5.0},
           "orders": [1, 2], "X_max": 60, "n_paths": 300}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_validate_ok(cfg_path, capsys):
    assert main(["validate", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = json.loads(lines[0])
    assert head["config_ok"] and head["kind"] == "erlang_a"
    assert all(line.endswith("pass") for line in lines[1:])
    assert len(lines) == 5


def test_validate_without_config(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "orthonormality: pass" in out


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    for text in ("{not json", "5", "[1, 2]"):
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 2


def test_missing_file_exits_2(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("name,problem", [
    ("", "cannot read config {}: Is a directory"),
    ("cfg.json/x.json", "cannot read config {}: Not a directory"),
    ("c" * 300, "cannot read config {}: File name too long"),
    ("latin1.json", "config {} is not UTF-8 text: invalid start byte"),
], ids=["directory", "under_a_file", "name_too_long", "not_utf8"])
def test_unreadable_config_exits_2_with_one_line(cfg_path, tmp_path, caplog,
                                                 name, problem):
    (tmp_path / "latin1.json").write_bytes(b'{"T": "\xff"}')
    path = str(tmp_path / name)
    with caplog.at_level(logging.INFO, logger="charlierbd"):
        assert main(["validate", path]) == 2
    assert [r.getMessage() for r in caplog.records] == [
        "config error: " + problem.format(path)]


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_table_writes_csv(cfg_path, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table", str(cfg_path), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "N,err_mean,err_variance,err_skewness,err_kurtosis"
    assert len(lines) == 4


def test_solve_reference_and_closure(cfg_path, tmp_path):
    ref = tmp_path / "ref.csv"
    assert main(["solve-reference", str(cfg_path), "-o", str(ref)]) == 0
    assert ref.read_text().startswith("t,mean,variance")
    clo = tmp_path / "clo.csv"
    assert main(["solve-closure", str(cfg_path), "--order", "first",
                 "-o", str(clo)]) == 0
    assert clo.exists()


def test_simulate(cfg_path, tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", str(cfg_path), "--paths", "200",
                 "--dt-out", "0.5", "-o", str(out)]) == 0
    assert out.read_text().startswith("t,mean,variance,se_mean")


def test_galerkin_needs_order(cfg_path, tmp_path):
    assert main(["solve-galerkin", str(cfg_path)]) == 2
    out = tmp_path / "g.csv"
    assert main(["solve-galerkin", str(cfg_path), "-N", "3",
                 "-o", str(out)]) == 0
    assert out.exists()


def test_simulate_past_the_int64_sums_exits_1(cfg_path, tmp_path, caplog):
    # 4 paths from state 2^30 could sum squares past 2^63: refused before
    # any rate table is built
    cfg = json.loads(cfg_path.read_text())
    cfg.update(X_max=2 ** 32, init={"kind": "point", "value": 2 ** 30})
    big = tmp_path / "big.json"
    big.write_text(json.dumps(cfg))
    with caplog.at_level(logging.INFO, logger="charlierbd"):
        assert main(["simulate", str(big), "--paths", "4", "-o",
                     str(tmp_path / "s.csv")]) == 1
    errors = [r.getMessage() for r in caplog.records
              if r.levelname == "ERROR"]
    assert errors == ["numerical failure: 4 paths up to state 2147483650 "
                      "overflow the int64 sum of squared states"]


def test_out_of_memory_exits_1(cfg_path, tmp_path, monkeypatch, caplog):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB")
    monkeypatch.setattr(harness, "simulate_paths", no_memory)
    with caplog.at_level(logging.INFO, logger="charlierbd"):
        assert main(["simulate", str(cfg_path), "-o",
                     str(tmp_path / "s.csv")]) == 1
    errors = [r.getMessage() for r in caplog.records
              if r.levelname == "ERROR"]
    assert errors == ["out of memory: Unable to allocate 72.8 TiB"]


@pytest.mark.parametrize("cmd", ["solve-reference", "validate", "table",
                                 "figures"])
@pytest.mark.parametrize("x_max", [2 ** 60, 2 ** 63 - 1],
                         ids=["2_60", "2_63_minus_1"])
def test_x_max_past_numpys_size_limit_is_out_of_memory(cfg_path, tmp_path,
                                                       capsys, caplog, cmd,
                                                       x_max):
    # numpy refuses these sizes with a ValueError of its own, where 2^40
    # already fails to allocate: both are the one out-of-memory line
    cfg = json.loads(cfg_path.read_text())
    cfg["X_max"] = x_max
    cfg_path.write_text(json.dumps(cfg))
    out = [] if cmd == "validate" else ["-o", str(tmp_path / "out.csv")]
    with caplog.at_level(logging.INFO, logger="charlierbd"):
        assert main([cmd, str(cfg_path), *out]) == 1
    error, = [r.getMessage() for r in caplog.records
              if r.levelname == "ERROR"]
    assert error.startswith(f"out of memory: pmf on {{0..X_max={x_max}}}: ")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("cmd,patch,flags", [
    ("solve-reference", {"dt_out": 1e-300, "dt_int": 1e-300}, []),
    ("figures", {"dt_out": 1e-300, "dt_int": 1e-300}, []),
    ("simulate", {}, ["--dt-out", "1e-300"]),
], ids=["solve_reference", "figures", "simulate_flag"])
def test_output_times_past_numpys_size_limit_are_out_of_memory(
        cfg_path, tmp_path, capsys, caplog, cmd, patch, flags):
    # 2e300 output times: numpy refuses the size with a ValueError of its
    # own, which the grid reports as the one out-of-memory line
    cfg = json.loads(cfg_path.read_text())
    cfg.update(patch)
    cfg_path.write_text(json.dumps(cfg))
    with caplog.at_level(logging.INFO, logger="charlierbd"):
        assert main([cmd, str(cfg_path), *flags,
                     "-o", str(tmp_path / "out.csv")]) == 1
    error, = [r.getMessage() for r in caplog.records
              if r.levelname == "ERROR"]
    assert error.startswith("out of memory: 2e+300 output times: ")
    assert capsys.readouterr().out == ""


def test_figures_logs_the_over_dispersion_fallback(cfg_path, tmp_path,
                                                   caplog):
    out = tmp_path / "f.csv"
    with caplog.at_level(logging.INFO, logger="charlierbd"):
        assert main(["figures", str(cfg_path), "-o", str(out)]) == 0
    line, = [r.getMessage() for r in caplog.records
             if "over_dispersed_fraction" in r.getMessage()]
    assert line.startswith(f"figure series written to {out}; "
                           "over_dispersed_fraction (right-hand-side "
                           "evaluations that saw variance > mean and used "
                           "the zeroth-order surrogate): ")
    # each order steps under error control on its own: 202 steps of four
    # right-hand-side evaluations, none rejected, and one more at t0
    zeroth, first = line.split(": ", 1)[1].split(", ")
    assert zeroth == "zeroth-order closure 0 (0 of 809)"
    assert re.fullmatch(r"first-order closure \S+ \(\d+ of 809\)", first)


@pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
def test_cli_takes_one_blas_thread_unless_told_otherwise(preset, want):
    # OpenBLAS reads the count when numpy first loads it, so it must be
    # set before any import of the CLI's loads numpy: the thread count
    # that OpenBLAS reports (-1 where it cannot be read) shows it was
    argv, env = cli_command([])
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    code = ("import os, sys, charlierbd.cli; sys.path.insert(0, sys.argv[1]);"
            " from child import _blas_threads;"
            " print(os.environ['OPENBLAS_NUM_THREADS'], _blas_threads())")
    proc = subprocess.run([sys.executable, "-c", code, perfbench], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    variable, threads = proc.stdout.split()
    assert variable == want and threads in (want, "-1")


def test_debug_log_reports_galerkin_batches(cfg_path, tmp_path):
    src = str(Path(charlierbd.__file__).resolve().parents[1])
    env = dict(os.environ, CHARLIER_LOG="debug",
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "charlierbd.cli", "table", str(cfg_path),
         "-o", str(tmp_path / "t.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    batches = [line for line in proc.stderr.splitlines()
               if "galerkin batch" in line]
    # one row solve per order; the row passes the first node step, 5e-3,
    # over T = 2, and the 2H run of its probe is the discarded one
    assert len(batches) == 2
    assert batches[0].startswith("DEBUG charlierbd: galerkin batch: "
                                 "1 member(s), orders [1], 400 steps at h "
                                 "0.005, 200 probe steps, step_err ")


def test_default_x_max_holds_an_abandonment_backlog(tmp_path):
    # lam_max = 12 exceeds mu c = 5 and beta = 0.01 drains the excess slowly
    cfg = {"model": {"kind": "erlang_a",
                     "lambda": {"base": 10.0, "amplitude": 2.0},
                     "mu": 1.0, "beta": 0.01, "c": 5}, "T": 10.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve-reference", str(path),
                     "-o", str(tmp_path / "ref.csv")]) == 0
    # exit 0 means boundary mass <= 1e-6; no warning means <= 1e-8
    assert not [w for w in caught if "boundary mass" in str(w.message)]


def test_default_x_max_holds_a_tabulated_drive(tmp_path):
    # X_max is sized from the drive's maximum over the horizon, 200 here
    cfg = {"model": {"kind": "infinite_server", "mu": 1.0,
                     "lambda": {"samples": {"t": [0.0, 2.0],
                                            "value": [200.0, 200.0]}}},
           "T": 2.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve-reference", str(path),
                     "-o", str(tmp_path / "ref.csv")]) == 0
    assert not [w for w in caught if "boundary mass" in str(w.message)]


# the prepass asks for steps max(dt_out, T/200) = 0.075 and
# max(dt_int, T/2000) = 0.00525, and 0.075 / 0.00525 is not whole
ODD_GRID = {"model": {"kind": "erlang_a",
                      "lambda": {"base": 10.0, "amplitude": 2.0},
                      "mu": 1.0, "beta": 0.5, "c": 10},
            "T": 10.5, "dt_out": 0.075, "dt_int": 0.00375, "X_max": 60,
            "init": {"kind": "poisson", "value": 10.0}}


@pytest.mark.parametrize("args", [["table"], ["solve-galerkin", "-N", "2"]],
                         ids=["table", "solve_galerkin"])
def test_odd_grid_runs(tmp_path, args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**ODD_GRID, "orders": [1, 2]}))
    out = tmp_path / "out.csv"
    assert main([args[0], str(path), *args[1:], "-o", str(out)]) == 0
    assert out.exists()


LOSS = {"kind": "erlang_loss", "lambda": {"base": 12.0, "amplitude": 2.0},
        "mu": 1.0, "beta": 0.5, "c": 10, "k": 5}
QUADRATIC = {"kind": "quadratic", "lambda": {"base": 0.1, "amplitude": 0.02},
             "Qtilde": 50, "beta": 1.0}
INFINITE = {"kind": "infinite_server",
            "lambda": {"base": 10.0, "amplitude": 2.0}, "mu": 1.0}


@pytest.mark.parametrize("model,init", [
    (LOSS, {"kind": "poisson", "value": 10.0}),
    (LOSS, {"kind": "point", "value": 20}),
    (QUADRATIC, {"kind": "poisson", "value": 60.0}),
    (QUADRATIC, {"kind": "point", "value": 100}),
    (INFINITE, {"kind": "poisson", "value": 500.0}),
    (INFINITE, {"kind": "point", "value": 500}),
], ids=["loss_poisson", "loss_point", "quadratic_poisson", "quadratic_point",
        "infinite_poisson", "infinite_point"])
def test_default_x_max_holds_the_initial_distribution(tmp_path, model, init):
    # each init puts mass at or above its model's own X_max rule
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": model, "T": 2.0, "init": init}))
    assert main(["solve-reference", str(path),
                 "-o", str(tmp_path / "ref.csv")]) == 0


def cli_command(args):
    """argv and environment that run the CLI on this checkout's package
    in a fresh interpreter."""
    src = str(Path(charlierbd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return [sys.executable, "-m", "charlierbd.cli", *args], env


def run_cli(args):
    argv, env = cli_command(args)
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120)


GALERKIN = ["solve-galerkin", "-N", "2"]


@pytest.mark.parametrize("patch,args", [
    ({"init": {"kind": "point", "value": 61}}, GALERKIN),
    ({"basis": {"mode": "fixed"}}, GALERKIN),
    ({"dt_out": 2.5e-3, "dt_int": 1e-3}, GALERKIN),
    ({"model": {"kind": "erlang_a", "lambda": {"base": 6.0},
                "mu": "x", "beta": 0.5, "c": 4}}, GALERKIN),
    ({}, ["simulate", "--paths", "1"]),
    ({}, ["simulate", "--paths", "-5"]),
    ({}, ["simulate", "--dt-out", "0"]),
    ({}, ["simulate", "--dt-out", "-1"]),
    ({}, ["solve-galerkin", "-N", "400"]),
    ({"model": {"kind": "erlang_a", "lambda": {"base": 1.0, "amplitude": 3.0},
                "mu": 1.0, "beta": 0.5, "c": 4}, "T": 5.0},
     ["solve-reference"]),
    ({"n_paths": 1}, ["simulate"]),
    ({"n_paths": 2.5}, ["simulate"]),
    ({"model": {"kind": "erlang_a", "lambda": {"base": 6.0},
                "mu": 1.0, "beta": 0.5, "c": 4.7}}, ["solve-reference"]),
    ({"model": {"kind": "erlang_loss", "lambda": {"base": 6.0},
                "mu": 1.0, "beta": 0.5, "c": 4, "k": 2.9}},
     ["solve-reference"]),
    ({"model": {"kind": "quadratic", "lambda": {"base": 0.1},
                "Qtilde": 20.5, "beta": 1.0}}, ["solve-reference"]),
    ({"model": {"kind": "erlang_a", "lambda": {"base": 0.9, "amplitude": 1.0},
                "mu": 1.0, "beta": 0.5, "c": 4}, "T": 10.0, "dt_out": 2.0},
     ["solve-reference"]),
    ({"seed": 1.5}, ["simulate"]),
    ({"seed": -1}, ["simulate"]),
    ({"model": "x"}, ["solve-reference"]),
    ({"init": "x"}, ["solve-reference"]),
    ({"basis": []}, GALERKIN),
    ({"X_max": -3}, ["solve-reference"]),
    ({"X_max": 40.7}, ["solve-reference"]),
    ({"orders": [1.5]}, ["table"]),
    ({"orders": "12"}, ["table"]),
    ({"model": {"kind": "erlang_a",
                "lambda": {"base": 6.0, "amplitdue": 1.0},
                "mu": 1.0, "beta": 0.5, "c": 4}}, ["solve-reference"]),
    ({"model": {"kind": "erlang_a", "lambda": {"base": 6.0},
                "mu": 1.0, "beta": 0.5, "c": 4, "k": 5}}, ["solve-reference"]),
    ({"model": {"kind": "erlang_a",
                "lambda": {"samples": {"t": [0.0, 2.0], "value": [6.0, 6.0]},
                           "base": 6.0},
                "mu": 1.0, "beta": 0.5, "c": 4}}, ["solve-reference"]),
    ({"model": {"kind": "erlang_a",
                "lambda": {"samples": {"t": [0.0, 2.0], "value": [6.0, 6.0],
                                       "kind": "linear"}},
                "mu": 1.0, "beta": 0.5, "c": 4}}, ["solve-reference"]),
    ({"dt_out": 0.3}, ["solve-reference"]),
    ({}, ["simulate", "--dt-out", "0.3"]),
    ({"T": 1.0}, ["simulate", "--dt-out", "0.3"]),
    ({"orders": [61]}, ["table"]),
    ({"orders": [30], "basis": {"mode": "tuned"}}, ["table"]),
    ({"basis": {"mode": "tuned"}}, ["solve-galerkin", "-N", "40"]),
    ({}, ["solve-galerkin", "-N", "-1"]),
    ({}, ["solve-galerkin", "-N", "0"]),
    ({"T": float("inf")}, ["solve-reference"]),
    ({"T": True}, ["solve-reference"]),
    ({"t0": float("-inf")}, ["solve-reference"]),
    ({"dt_out": float("inf")}, ["solve-reference"]),
    ({"dt_int": float("nan")}, ["solve-reference"]),
    ({}, ["simulate", "--dt-out", "inf"]),
    ({}, ["simulate", "--dt-out", "nan"]),
    ({"dt_out": 1e-310, "dt_int": 1e-310}, ["solve-reference"]),
    ({}, ["simulate", "--dt-out", "1e-310"]),
    ({"model": {"kind": "erlang_a",
                "lambda": {"samples": {"t": [0.0, 2.0],
                                       "value": [6.0, float("nan")]}},
                "mu": 1.0, "beta": 0.5, "c": 4}}, ["solve-reference"]),
    ({"model": {"kind": "erlang_a",
                "lambda": {"samples": {"t": [0.0, float("nan")],
                                       "value": [6.0, 6.0]}},
                "mu": 1.0, "beta": 0.5, "c": 4}}, ["solve-reference"]),
    ({"init": {"kind": "poisson", "value": 5.0, "vlaue": 5.0}},
     ["solve-reference"]),
    ({"basis": {"mdoe": "fixed", "a": 3.0}}, GALERKIN),
    ({"basis": {"mode": "auto", "a": 3.0}}, GALERKIN),
    ({"basis": {"mode": "tuned", "a": 3.0}}, GALERKIN),
    ({"init": {"kind": "point"}}, ["solve-reference"]),
    ({"schema_version": True}, ["solve-reference"]),
    ({"T": 10**400}, ["solve-reference"]),
    ({"init": {"kind": "poisson", "value": 2000.0}}, ["solve-reference"]),
    ({"init": {"kind": "poisson", "value": 2000.0}}, ["table"]),
    ({"init": {"kind": "poisson", "value": 2000.0}}, GALERKIN),
    ({"init": {"kind": "poisson", "value": 2000.0},
      "basis": {"mode": "tuned"}}, GALERKIN),
    # counts the solvers would hold in int64, given or derived
    ({"X_max": None, "init": {"kind": "point", "value": 10**30}},
     ["simulate"]),
    ({"X_max": 10**30}, ["solve-reference"]),
    ({"X_max": 2**63}, ["solve-reference"]),
    ({"X_max": None, "model": {"kind": "quadratic",
                               "lambda": {"base": 0.1}, "Qtilde": 10**20,
                               "beta": 1.0}}, ["solve-reference"]),
    ({"n_paths": 2**70}, ["simulate"]),
    ({"n_paths": 2**63}, ["simulate"]),
    ({}, ["simulate", "--paths", str(10**20)]),
    ({}, ["simulate", "--paths", str(2**63)]),
], ids=["point_init_beyond_X_max", "fixed_basis_without_a",
        "dt_out_not_a_multiple", "non_numeric_model_field", "one_path",
        "negative_paths", "zero_dt_out", "negative_dt_out",
        "order_beyond_X_max", "negative_drive", "config_one_path",
        "config_non_integer_paths", "non_integer_servers",
        "non_integer_waiting_spaces", "non_integer_carrying_capacity",
        "negative_drive_between_output_times", "non_integer_seed",
        "negative_seed", "model_not_an_object", "init_not_an_object", "basis_not_an_object",
        "negative_X_max", "non_integer_X_max", "non_integer_order",
        "orders_not_a_list", "misspelt_lambda_key", "unknown_model_key",
        "lambda_samples_beside_base", "unknown_lambda_samples_key",
        "horizon_not_whole_output_steps", "dt_out_flag_not_whole_steps",
        "dt_out_flag_not_whole_steps_of_a_unit_horizon",
        "order_beyond_X_max_in_config", "tuned_proxy_beyond_X_max",
        "tuned_proxy_of_order_flag_beyond_X_max", "negative_order_flag",
        "zero_order_flag",
        "infinite_horizon", "boolean_horizon", "infinite_t0",
        "infinite_dt_out", "nan_dt_int", "infinite_dt_out_flag",
        "nan_dt_out_flag", "uncountable_steps", "uncountable_steps_flag",
        "nan_lambda_sample", "nan_lambda_knot_time",
        "unknown_init_key", "misspelt_basis_key", "a_with_auto_basis",
        "a_with_tuned_basis", "init_without_value", "boolean_schema_version",
        "horizon_beyond_float_range", "poisson_init_without_mass",
        "poisson_init_without_mass_table",
        "poisson_init_without_mass_galerkin",
        "poisson_init_without_mass_tuned_galerkin",
        "point_init_beyond_int64", "X_max_beyond_int64", "X_max_at_2_63",
        "derived_X_max_beyond_int64", "n_paths_beyond_int64",
        "n_paths_at_2_63", "paths_flag_beyond_int64",
        "paths_flag_at_2_63"])
def test_bad_config_exits_2_without_traceback(cfg_path, tmp_path, patch,
                                              args):
    cfg = json.loads(cfg_path.read_text())
    cfg.update(patch)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    proc = run_cli([args[0], str(bad), *args[1:],
                    "-o", str(tmp_path / "out.csv")])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("ERROR charlierbd: config error: ")
    assert proc.stderr.count("\n") == 1


def test_validate_refuses_a_poisson_init_without_mass(cfg_path, capsys,
                                                      caplog):
    # Poisson(2000) underflows to zero on all of {0..60}: no pmf to run
    cfg = json.loads(cfg_path.read_text())
    cfg["init"] = {"kind": "poisson", "value": 2000.0}
    cfg_path.write_text(json.dumps(cfg))
    assert main(["validate", str(cfg_path)]) == 2
    assert capsys.readouterr().out == ""
    assert [r.getMessage() for r in caplog.records] == [
        "config error: poisson init value 2000.0 has no mass representable "
        "in floats on {0..X_max=60}"]


@pytest.mark.parametrize("kind", [["erlang_a"], {"name": "erlang_a"},
                                  "erlang_b"],
                         ids=["list", "object", "unknown_name"])
def test_bad_model_kind_names_the_allowed_kinds(cfg_path, tmp_path, kind):
    from charlierbd.models import KINDS
    cfg = json.loads(cfg_path.read_text())
    cfg["model"]["kind"] = kind
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    proc = run_cli(["validate", str(bad)])
    assert proc.returncode == 2
    assert proc.stderr == ("ERROR charlierbd: config error: model kind "
                           f"{kind!r} is not one of {sorted(KINDS)}\n")


def test_integral_float_counts_match_their_integer_form(cfg_path, tmp_path):
    cfg = json.loads(cfg_path.read_text())
    csvs = []
    for i, (seed, n_paths) in enumerate(((7, 300), (7.0, 300.0))):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(dict(cfg, seed=seed, n_paths=n_paths)))
        out = tmp_path / f"sim{i}.csv"
        assert main(["simulate", str(path), "--dt-out", "0.5",
                     "-o", str(out)]) == 0
        csvs.append(out.read_text())
    assert csvs[0] == csvs[1]


# the infinite-server queue started empty: its mean is 0 at t0, so the
# error average starts at t0 + 1, at or past the last output time
@pytest.mark.parametrize("lam,T", [
    ({"base": 10.0, "amplitude": 2.0}, 1.0),
    ({"base": 10.0, "amplitude": 2.0}, 0.5),
    ({"base": 0.0}, 1.0),
], ids=["unit_horizon", "half_horizon", "no_arrivals"])
def test_table_on_a_short_horizon_exits_1_with_one_line(tmp_path, lam, T):
    cfg = {"model": {"kind": "infinite_server", "lambda": lam, "mu": 1.0},
           "T": T, "orders": [1, 2]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["table", str(path), "-o", str(tmp_path / "t.csv")])
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR charlierbd: reference magnitude")
    assert proc.stderr.count("\n") == 1


# explicit RK4 at the default 1e-3 step is unstable for this queue
STIFF = {"model": {"kind": "erlang_a",
                   "lambda": {"base": 600.0, "amplitude": 50.0},
                   "mu": 150.0, "beta": 100.0, "c": 4},
         "T": 2.0, "init": {"kind": "point", "value": 0}}


@pytest.mark.parametrize("cmd", ["solve-reference", "figures", "table"])
def test_blow_up_exits_1_with_one_line(tmp_path, cmd):
    # numpy's overflow warnings on the way to it are not printed; each
    # command runs the reference first, and the line names it
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(STIFF))
    proc = run_cli([cmd, str(path), "-o", str(tmp_path / "out.csv")])
    assert proc.returncode == 1
    assert proc.stderr == ("ERROR charlierbd: numerical failure: reference: "
                           "non-finite state at t=0.125\n")


@pytest.mark.parametrize("level", ["error", "ERROR"])
def test_log_level_error_silences_info(cfg_path, tmp_path, level):
    argv, env = cli_command(["solve-closure", str(cfg_path),
                             "-o", str(tmp_path / "c.csv")])
    proc = subprocess.run(argv, env=dict(env, CHARLIER_LOG=level),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_unknown_log_level_exits_2_with_one_line(cfg_path, tmp_path):
    argv, env = cli_command(["solve-closure", str(cfg_path),
                             "-o", str(tmp_path / "c.csv")])
    proc = subprocess.run(argv, env=dict(env, CHARLIER_LOG="loud"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == ("ERROR charlierbd: CHARLIER_LOG='loud' is not one "
                           "of debug, info, warning, error\n")
    assert not (tmp_path / "c.csv").exists()


# every subcommand that writes a CSV, and the entry point it would call
WRITERS = [(["solve-reference"], harness, "run_reference"),
           (["solve-galerkin", "-N", "2"], harness, "run_galerkin"),
           (["solve-closure"], cli, "solve_closure"),
           (["simulate"], harness, "run_simulation"),
           (["table"], harness, "run_table"),
           (["figures"], harness, "run_figures")]


@pytest.mark.parametrize("args,owner,entry", WRITERS,
                         ids=[w[0][0] for w in WRITERS])
@pytest.mark.parametrize("where,problem", [
    ("missing/dir/x.csv", "is in a missing directory"),
    ("", "is a directory"),
    ("cfg.json/x.csv", "cannot be written: Not a directory"),
    ("c" * 300 + ".csv", "cannot be written: File name too long"),
], ids=["missing_directory", "directory", "under_a_file", "name_too_long"])
def test_unwritable_output_exits_2_before_any_solve(
        cfg_path, tmp_path, monkeypatch, caplog, args, owner, entry, where,
        problem):
    def never(*a, **k):
        raise AssertionError(f"{entry} ran")
    monkeypatch.setattr(owner, entry, never)
    out = str(tmp_path / where)
    with caplog.at_level(logging.INFO, logger="charlierbd"):
        assert main([args[0], str(cfg_path), *args[1:], "-o", out]) == 2
    assert [r.getMessage() for r in caplog.records] == [
        f"config error: output path {out} {problem}"]


def test_empty_output_path_exits_2(cfg_path, caplog):
    with caplog.at_level(logging.INFO, logger="charlierbd"):
        assert main(["table", str(cfg_path), "-o", ""]) == 2
    assert [r.getMessage() for r in caplog.records] == [
        "config error: output path is empty"]


def test_failed_write_exits_1_with_one_line(cfg_path, tmp_path, monkeypatch,
                                            caplog):
    def full(*a, **k):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli, "solve_closure", full)
    with caplog.at_level(logging.INFO, logger="charlierbd"):
        assert main(["solve-closure", str(cfg_path),
                     "-o", str(tmp_path / "c.csv")]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        "I/O failure: [Errno 28] No space left on device"]


def test_closed_stdout_prints_no_traceback():
    argv, env = cli_command(["validate"])
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


# sha256 of each CSV that output_hashes.RUNS writes on output_hashes.SMALL;
# a change that moves any printed digit of these outputs fails here
SMALL_HASHES = {
    "table": "3100209ff051b9dc2185512301f316b3c5b821d073dbcf53f28273812fdb5ef4",
    "figures":
        "a216c97b659ad6f655acf9a5d0adff885871f2883cf1ebbf24b8c6eccee2c4b5",
    "solve-reference":
        "cc37728f650b416a0f26e1f9d5e0ec97e9d042ddfe740fc6bfac059c5f965129",
    "solve-closure-zeroth":
        "97626bfd363031d0256e3996e1e7da4a4b7464196dc36b90b5d021fe9fdc9a6f",
    "solve-closure-first":
        "e912590c3730a0f75b2e68791244890fd33aef73820dc7e7318deaba1cbcea77",
    "solve-galerkin-3":
        "4d868630ba2e08b60b5437d0b0fb4e1e6835323c5a19ba3bcad0b8388345b427",
    "simulate":
        "4e81faf44371863c27ea7eedf6e681bdbc5c1aee22be0624ab31b8d134bf31bb",
}


def test_small_config_outputs_are_pinned(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(output_hashes.SMALL))
    got = {}
    for run, args in output_hashes.RUNS.items():
        out = tmp_path / f"{run}.csv"
        assert main([args[0], str(path), *args[1:], "-o", str(out)]) == 0
        got[run] = output_hashes.sha256(out)
    assert got == SMALL_HASHES
