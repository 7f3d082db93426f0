"""Tests of the benchmark itself, on small configs that take the same code
paths as the shipped ones in a few seconds each.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import re
import shutil

import numpy as np
import pytest

import run
import suite

ROOT = run.HERE.parent
SMALL = {
    "model": {"kind": "erlang_a", "lambda": {"base": 10.0, "amplitude": 2.0},
              "mu": 1.0, "beta": 0.5, "c": 10},
    "T": 1.0, "dt_out": 0.01, "dt_int": 0.01, "X_max": 60,
    "init": {"kind": "poisson", "value": 10.0},
    "orders": [1, 2, 3], "basis": {"mode": "tuned"}, "seed": 7,
    "n_paths": 2000,
}
COUNTS = ["solve.integrate.rhs_calls", "solve.galerkin.tune.calls",
          "solve.galerkin.rows.calls", "special.upper_tail.calls",
          "models.rate.calls"]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """Small versions of every workload, keyed by command."""
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(json.dumps(SMALL))
    paths = {"simulate": ["--paths", "2000"]}
    return {wl.command: run.Workload(f"small-{wl.command}", wl.command,
                                     str(path), paths.get(wl.command, []),
                                     wl.expected)
            for wl in run.WORKLOADS.values()}


@pytest.fixture(scope="module")
def traced(small, tmp_path_factory):
    return {cmd: run.run_workload(ROOT, wl, 3, 0, True,
                                  tmp_path_factory.mktemp(cmd))
            for cmd, wl in small.items()}


@pytest.fixture(scope="module")
def plain(small, tmp_path_factory):
    """One checked untraced call per command: (runner, result)."""
    out = {}
    for cmd, wl in small.items():
        runner = run.Runner(ROOT, tmp_path_factory.mktemp(cmd), wl, 5)
        res = runner.child("plain")
        assert runner.check(res)[0] == []
        out[cmd] = runner, res
    return out


def test_benchmark_json_matches_the_runner():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("cmd", ["table", "figures", "simulate"])
def test_traced_run_is_correct_and_fires_its_wrappers(small, traced, cmd):
    # run_workload fails the traced call when the two CSVs differ, an
    # expected wrapper never fired or the top-level spans cover too little
    res = traced[cmd]
    assert res["problems"] == []
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 2, 0)
    layers = {k: v["value"] for k, v in res["metrics"].items()}
    assert all(layers[m] > 0 for m in small[cmd].expected)
    assert layers["trace.top_level_coverage"] <= 1.0


def test_counts_repeat_exactly(small, traced, tmp_path):
    again = run.run_workload(ROOT, small["table"], 3, 0, True, tmp_path)
    first = traced["table"]["metrics"]
    assert all(again["metrics"][m]["value"] == first[m]["value"] > 0
               for m in COUNTS)


def _corrupt(path, fn):
    lines = open(path).read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(fn(lines)) + "\n")


def _replace_cell(col, row, value):
    def fn(lines):
        body = [i for i, x in enumerate(lines) if not x.startswith("#")]
        head = lines[body[0]].split(",")
        cells = lines[body[row + 1]].split(",")
        cells[head.index(col)] = value
        lines[body[row + 1]] = ",".join(cells)
        return lines
    return fn


@pytest.mark.parametrize("cmd,col,row,value", [
    ("table", "err_variance", 1, "nan"),
    ("table", "err_mean", 2, "1.0e+00"),
    ("figures", "first_delay", 5, "1.5"),
    ("figures", "ref_mean", 3, "nan"),
    ("simulate", "mean", 100, None),
])
def test_corrupted_output_fails_its_check(plain, tmp_path, cmd, col, row,
                                         value):
    runner, res = plain[cmd]
    res = dict(res, csv=str(tmp_path / "out.csv"))
    shutil.copy(plain[cmd][1]["csv"], res["csv"])
    if value is None:
        # shift the mean at t=1 by ten standard errors
        _, cols = run.read_csv(res["csv"])
        value = "%.6e" % (cols[col][row] + 10 * cols["se_mean"][row])
    _corrupt(res["csv"], _replace_cell(col, row, value))
    assert runner.check(res)[0] != []


def test_broken_conservation_fails_its_check(plain):
    runner, res = plain["table"]
    res = copy.deepcopy(res)
    res["meta"]["reference"][0]["mass_residual"] = 1e-6
    assert any("mass residual" in p for p in runner.check(res)[0])
    res["meta"]["reference"][0]["mass_residual"] = 0.0
    res["meta"]["galerkin_rows"][-1]["c0_drift"] = 1e-6
    assert any("c0 drift" in p for p in runner.check(res)[0])


def test_traced_pair_check_fails_on_a_broken_pair(plain, tmp_path):
    _, res = plain["figures"]
    layers = {"solve.closure.calls": 3, "trace.top_level_coverage": 0.999}
    pair = dict(res, layers=layers)
    assert run.check_traced_pair(res, pair, ["solve.closure.calls"]) == []
    low = dict(pair, layers=dict(layers, **{"trace.top_level_coverage": 0.9}))
    assert any("cover" in p for p in run.check_traced_pair(res, low, []))
    assert any("never fired" in p for p in
               run.check_traced_pair(res, pair, ["special.touchard.calls"]))
    other = dict(pair, csv=str(tmp_path / "other.csv"))
    shutil.copy(res["csv"], other["csv"])
    _corrupt(other["csv"], _replace_cell("ref_mean", 0, "0.0"))
    assert any("differ" in p for p in run.check_traced_pair(res, other, []))


def test_one_command_prints_every_metric(small):
    lines = []
    attempted, failed = suite.report([small["figures"]], 3, 0, lines.append)
    assert (attempted, failed) == (3, 0)
    text = "\n".join(lines)
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert re.search(rf"^  {re.escape(name)}: \S+ {re.escape(unit)} "
                         rf"\(n=\d+\)$", text, re.M), name


def test_reference_mean_matches_a_stationary_queue():
    # with lambda constant and beta = mu the Erlang-A queue is M/M/inf
    cfg = {"model": {"lambda": {"base": 5.0, "amplitude": 0.0}, "mu": 1.0,
                     "beta": 1.0, "c": 3},
           "init": {"kind": "point", "value": 0}}
    means = run.erlang_a_reference_means(cfg, [1.0, 3.0], x_max=60)
    assert means[1.0] == pytest.approx(5 * (1 - np.exp(-1.0)), rel=1e-9)
    assert means[3.0] == pytest.approx(5 * (1 - np.exp(-3.0)), rel=1e-9)
