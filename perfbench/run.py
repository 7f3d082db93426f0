"""charlierbd benchmark: the CLI end to end, and per layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Each CLI call runs in a fresh Python
process (`child.py`), so every sample pays what a CLI user pays: the
imports, the config parse and a cold `lru_cache` in `special`.

- `--trace 0` repeats the call until S seconds have passed (at least
  once) and reports the end-to-end metrics `wall_s`, `setup_s` and
  `peak_rss_mb` as medians over the calls. Extra set-up-only processes
  bring `setup_s` to at least SETUP_SAMPLES samples.
- `--trace 1` makes one untraced and one traced call, requires their CSVs
  to be byte-identical, and reports the per-layer metrics of the traced
  call plus numerical fingerprints of the untraced one.

Every call's outputs are checked; a call that fails a check counts as a
failed operation. The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
give each metric with its unit and sample count. Exit code 2, with no
result, when the checkout lacks the program or its configs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaln

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 170.0
# acceptance bounds of the program's own criteria 7-9
MASS_RESIDUAL_MAX = 1e-10
C0_DRIFT_MAX = 1e-9
# how much worse than the committed baseline an accuracy figure may get
ACCURACY_BOUND = 0.10
# share of the traced cli.main span its direct child spans must cover
TOP_LEVEL_COVERAGE_MIN = 0.95
SIM_Z_MAX = 4.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

FINGERPRINTS = (["fp.tuned_a"]
                + [f"fp.err_mean.N{n}" for n in range(1, 8)]
                + ["fp.err_mean_top", "fp.mass_residual", "fp.c0_drift_max",
                   "fp.over_dispersed.zeroth", "fp.over_dispersed.first",
                   "fp.closure_err_mean", "fp.closure_err_delay",
                   "fp.sim_mean_T", "fp.sim_z_max", "fp.max_rel_drift"])


def _layer_units():
    names = ["harness.tune.s", "harness.tune.galerkin_solves",
             "harness.rel_error.calls", "harness.rel_error.s", "harness.csv.s",
             "solve.integrate.calls", "solve.integrate.steps",
             "solve.integrate.rhs_calls", "solve.integrate.rhs_s",
             "solve.integrate.loop_self_s",
             "solve.reference.s", "solve.reference.rhs_calls"]
    for part in ("tune", "rows"):
        names += [f"solve.galerkin.{part}.{x}" for x in ("calls", "s", "rhs_s")]
    names += ["solve.closure.calls", "solve.closure.s",
              "solve.closure.rhs_calls", "solve.closure.post_s",
              "solve.prepass.s", "solve.simulate.s"]
    for solver in ("", "reference.", "galerkin.", "simulate."):
        names += [f"models.rate.{solver}{x}" for x in ("calls", "elems", "s")]
    for layer in ("models.generator_apply", "closure.moment_match",
                  "closure.closed_form", "special.upper_tail",
                  "special.lower_tail", "special.touchard",
                  "basis.charlier_table", "basis.project_density"):
        names += [f"{layer}.calls", f"{layer}.s"]
    names += ["special.upper_tail.distinct_ratio", "trace.wall_s",
              "trace.overhead_s", "trace.top_level_coverage", "trace.spans"]

    def unit(n):
        if n.endswith("_s") or n.endswith(".s"):
            return "s"
        if n.endswith(("distinct_ratio", "coverage")):
            return "1"
        return "count"
    return [(n, unit(n)) for n in names] + [(n, "1") for n in FINGERPRINTS]


PER_LAYER = _layer_units()


# --- output checks -------------------------------------------------------

def read_csv(path):
    """(comment lines, {column: float array}) of a CLI output CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [x for x in lines if x.startswith("#")]
    body = [x for x in lines if x and not x.startswith("#")]
    cols = body[0].split(",")
    if len(body) < 2:
        return comments, {c: np.empty(0) for c in cols}
    data = np.array([[float(v) for v in row.split(",")] for row in body[1:]],
                    ndmin=2)
    return comments, {c: data[:, i] for i, c in enumerate(cols)}


def time_avg_rel_error(u, ref, t):
    """(1/(t_end - t_0)) * integral |u - ref| / |ref| dt, trapezoidal."""
    f = np.abs(u - ref) / np.abs(ref)
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t)) / (t[-1] - t[0]))


def _baseline_check(problems, fps, base, keys):
    for k in keys:
        if k in base and fps[k] > (1 + ACCURACY_BOUND) * base[k]:
            problems.append(f"{k} {fps[k]:.4e} worse than baseline "
                            f"{base[k]:.4e} by more than {ACCURACY_BOUND:.0%}")


def check_table(csv_path, meta, cfg, base):
    """Problems found in a `table` run, and its fingerprints."""
    problems, fps = [], {}
    comments, cols = read_csv(csv_path)
    orders = [int(n) for n in cfg.get("orders", [1, 2, 3, 4, 5, 6, 7])]
    if cols["N"].astype(int).tolist() != orders:
        return [f"rows for N={cols['N'].tolist()}, expected {orders}"], fps
    # +inf is the program's marker for a skewness or kurtosis taken from a
    # nonpositive variance (low orders); NaN is never valid
    if any(np.any(np.isnan(v)) for v in cols.values()):
        problems.append("NaN in the error table")
    if not all(np.all(np.isfinite(cols[c])) for c in ("err_mean",
                                                      "err_variance")):
        problems.append("non-finite err_mean or err_variance")
    err = dict(zip(orders, cols["err_mean"]))
    for n, e in err.items():
        fps[f"fp.err_mean.N{n}"] = float(e)
    fps["fp.err_mean_top"] = float(err[max(orders)])
    if 1 in err and not err[max(orders)] < err[1]:
        problems.append(f"top-order err_mean {err[max(orders)]:.3e} is not "
                        f"below the N=1 value {err[1]:.3e}")
    prov = json.loads(comments[0].split(":", 1)[1]) if comments else {}
    fps["fp.tuned_a"] = float(prov.get("basis_a", math.nan))
    problems += _conservation(meta, fps)
    rows = meta.get("galerkin_rows", [])
    if len(rows) != len(orders):
        problems.append(f"{len(rows)} Galerkin rows seen, expected "
                        f"{len(orders)}")
    drift = max((r["c0_drift"] for r in rows), default=math.inf)
    fps["fp.c0_drift_max"] = drift
    if not drift < C0_DRIFT_MAX:
        problems.append(f"largest c0 drift {drift:.3e} >= {C0_DRIFT_MAX:g}")
    _baseline_check(problems, fps, base, ["fp.err_mean_top"])
    return problems, fps


def _conservation(meta, fps):
    refs = meta.get("reference", [])
    mass = refs[0]["mass_residual"] if len(refs) == 1 else math.inf
    fps["fp.mass_residual"] = mass
    if not mass < MASS_RESIDUAL_MAX:
        return [f"reference mass residual {mass:.3e} >= {MASS_RESIDUAL_MAX:g}"
                f" ({len(refs)} reference runs seen)"]
    return []


def check_figures(csv_path, meta, cfg, base):
    """Problems found in a `figures` run, and its fingerprints."""
    problems, fps = [], {}
    _, cols = read_csv(csv_path)
    if cols["t"].size < 2:
        return ["figure series has fewer than two rows"], fps
    if not all(np.all(np.isfinite(v)) for v in cols.values()):
        problems.append("non-finite value in the figure series")
    for name in (c for c in cols if c.endswith("_delay")):
        if np.any((cols[name] < 0) | (cols[name] > 1)):
            problems.append(f"{name} leaves [0, 1]")
    problems += _conservation(meta, fps)
    for m in meta.get("closure", []):
        fps[f"fp.over_dispersed.{m['order']}"] = m["over_dispersed_fraction"]
    t = cols["t"]
    for key, col, ref in (("fp.closure_err_mean", "first_mean", "ref_mean"),
                          ("fp.closure_err_delay", "first_delay",
                           "ref_delay")):
        if col in cols and ref in cols and np.all(cols[ref] != 0):
            fps[key] = time_avg_rel_error(cols[col], cols[ref], t)
        else:
            fps[key] = math.inf
            problems.append(f"cannot compare {col} with {ref}")
    _baseline_check(problems, fps, base,
                    ["fp.closure_err_mean", "fp.closure_err_delay"])
    return problems, fps


def check_simulate(csv_path, ref_means):
    """Problems found in a `simulate` run: the mean must lie within
    SIM_Z_MAX standard errors of the reference mean at each integer time."""
    problems, fps = [], {}
    _, cols = read_csv(csv_path)
    if not all(np.all(np.isfinite(v)) for v in cols.values()):
        problems.append("non-finite value in the simulated moments")
    zs = []
    for t_k, ref in ref_means.items():
        i = np.nonzero(np.abs(cols["t"] - t_k) < 1e-9)[0]
        if i.size != 1 or not cols["se_mean"][i[0]] > 0:
            problems.append(f"no simulated mean with a positive SE at t={t_k}")
            continue
        zs.append(abs(cols["mean"][i[0]] - ref) / cols["se_mean"][i[0]])
    z = max(zs, default=math.inf)
    fps["fp.sim_mean_T"] = float(cols["mean"][-1]) if cols["t"].size else math.nan
    fps["fp.sim_z_max"] = z
    if not z <= SIM_Z_MAX:
        problems.append(f"simulated mean {z:.2f} SE from the reference")
    return problems, fps


def erlang_a_reference_means(cfg, times, x_max=400, dt=1e-3):
    """Mean of an Erlang-A process at `times` from the truncated forward
    equations, RK4 at step dt; independent of the program under test."""
    m = cfg["model"]
    base, amp = m["lambda"]["base"], m["lambda"]["amplitude"]
    mu, beta, c = m["mu"], m["beta"], m["c"]
    xs = np.arange(x_max + 1, dtype=float)
    death = mu * np.minimum(xs, c) + beta * np.maximum(xs - c, 0.0)
    can_grow = (xs < x_max).astype(float)
    v = float(cfg["init"]["value"])
    if cfg["init"]["kind"] == "poisson":
        p = np.exp(xs * math.log(v) - v - gammaln(xs + 1))
        p /= p.sum()
    else:
        p = np.zeros(x_max + 1)
        p[int(v)] = 1.0

    def rhs(t, p):
        b = (base + amp * math.sin(t)) * can_grow
        out = -(b + death) * p
        out[1:] += b[:-1] * p[:-1]
        out[:-1] += death[1:] * p[1:]
        return out

    out, t = {}, float(cfg.get("t0", 0.0))
    for t_k in sorted(times):
        n = int(round((t_k - t) / dt))
        for _ in range(n):
            k1 = rhs(t, p)
            k2 = rhs(t + dt / 2, p + dt / 2 * k1)
            k3 = rhs(t + dt / 2, p + dt / 2 * k2)
            k4 = rhs(t + dt, p + dt * k3)
            p = p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        out[t_k] = float(xs @ p)
    return out


def check_traced_pair(plain, traced, expected):
    """Problems with an untraced/traced pair of calls that both passed
    their output checks: the CSVs must be byte-identical, every `expected`
    layer metric nonzero, and the top-level spans must cover at least
    TOP_LEVEL_COVERAGE_MIN of the traced call."""
    problems = []
    with open(plain["csv"], "rb") as a, open(traced["csv"], "rb") as b:
        if a.read() != b.read():
            problems.append("traced and untraced CSVs differ")
    layers = traced["layers"]
    missing = [m for m in expected if not layers.get(m)]
    if missing:
        problems.append(f"wrappers never fired: {missing}")
    coverage = layers.get("trace.top_level_coverage", 0.0)
    if not coverage >= TOP_LEVEL_COVERAGE_MIN:
        problems.append(f"top-level spans cover {coverage:.1%} of the "
                        f"traced call, below {TOP_LEVEL_COVERAGE_MIN:.0%}")
    return problems


# --- workloads -------------------------------------------------------------

@dataclass
class Workload:
    name: str
    command: str
    config: str
    extra: list = field(default_factory=list)
    # per-layer metrics that must be nonzero in a traced run
    expected: list = field(default_factory=list)


_TABLE_LAYERS = ["harness.tune.galerkin_solves", "harness.rel_error.calls",
                 "solve.reference.rhs_calls", "solve.galerkin.rows.calls",
                 "solve.closure.calls", "solve.prepass.s",
                 "models.rate.reference.calls", "models.rate.galerkin.calls",
                 "models.generator_apply.calls", "closure.moment_match.calls",
                 "closure.closed_form.calls", "special.upper_tail.calls",
                 "special.touchard.calls", "basis.charlier_table.calls",
                 "basis.project_density.calls", "harness.csv.s"]

WORKLOADS = {wl.name: wl for wl in [
    Workload("table-erlang_a", "table", "configs/erlang_a_benchmark.json",
             expected=_TABLE_LAYERS),
    # runnable, but not in BENCHMARK.json: see perfbench/README.md
    Workload("table-quadratic", "table", "configs/quadratic_benchmark.json",
             expected=_TABLE_LAYERS),
    Workload(
        "figures-erlang_a", "figures", "configs/erlang_a_benchmark.json",
        expected=["solve.reference.rhs_calls", "solve.closure.rhs_calls",
                  "solve.closure.post_s", "models.rate.reference.calls",
                  "models.generator_apply.calls",
                  "closure.moment_match.calls", "closure.closed_form.calls",
                  "special.upper_tail.calls", "special.lower_tail.calls",
                  "special.touchard.calls", "harness.csv.s"]),
    Workload(
        "simulate-erlang_a", "simulate", "configs/erlang_a_benchmark.json",
        extra=["--paths", "10000"],
        expected=["solve.simulate.s", "models.rate.simulate.calls"]),
]}


class Runner:
    """Runs the CLI children of one workload inside `workdir`."""

    def __init__(self, root: Path, workdir: Path, wl: Workload, seed: int):
        self.root, self.workdir, self.wl = root, workdir, wl
        self.n = 0
        with open(HERE / "baseline.json") as fh:
            self.base = json.load(fh).get(wl.name, {})
        with open(root / wl.config) as fh:
            self.cfg = json.load(fh)
        self.config = root / wl.config
        if wl.command == "simulate":
            # the benchmark's seed replaces the config's seed in a copy
            self.cfg["seed"] = seed
            self.config = workdir / "config.json"
            with open(self.config, "w") as fh:
                json.dump(self.cfg, fh)
            t0, T = float(self.cfg.get("t0", 0.0)), float(self.cfg["T"])
            self.ref_means = erlang_a_reference_means(
                self.cfg, [float(k) for k in range(math.ceil(t0) + 1,
                                                   int(T) + 1)])

    def child(self, mode):
        """One fresh process; returns its result dict (with `csv`)."""
        self.n += 1
        tag = self.workdir / f"{mode}-{self.n}"
        csv = f"{tag}.csv"
        spec = {"src": str(self.root / "src"), "config": str(self.config),
                "mode": mode, "result": f"{tag}.json",
                "argv": [self.wl.command, str(self.config), "-o", csv]
                + self.wl.extra}
        with open(f"{tag}.spec.json", "w") as fh:
            json.dump(spec, fh)
        with open(f"{tag}.log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"),
                     f"{tag}.spec.json"], stdout=log, stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S, cwd=self.workdir)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        try:
            with open(f"{tag}.json") as fh:
                res = json.load(fh)
        except FileNotFoundError:
            with open(f"{tag}.log") as fh:
                res = {"error": f"child exit {code}: {fh.read()[-2000:]}"}
        res["csv"] = csv
        return res

    def check(self, res):
        """Problems with one CLI call, and its fingerprints."""
        if "error" in res or res.get("rc") != 0:
            return [f"cli exit {res.get('rc')}: {res.get('error', '')}"], {}
        src = str(self.root / "src")
        if not res["module"].startswith(src):
            return [f"imported {res['module']}, not the checkout's"], {}
        if self.wl.command == "simulate":
            return check_simulate(res["csv"], self.ref_means)
        check = check_table if self.wl.command == "table" else check_figures
        return check(res["csv"], res["meta"], self.cfg, self.base)


def run_workload(root: Path, wl: Workload, seed: int, seconds: float,
                 trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns correct/attempted/failed/metrics plus
    `samples` (per metric), `problems` and `blas_threads`."""
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, workdir, wl, seed)
    calls, problems = [], []
    fps = {}

    def call(mode):
        res = runner.child(mode)
        found, fp = runner.check(res)
        problems.extend(f"{mode} call {len(calls) + 1}: {p}" for p in found)
        res["ok"] = not found
        calls.append(res)
        fps.update(fp)
        return res

    if trace:
        plain = call("plain")
        traced = call("trace")
        if plain["ok"] and traced["ok"]:
            found = check_traced_pair(plain, traced, wl.expected)
            traced["ok"] = not found
            problems.extend(found)
        layers = dict(traced.get("layers", {}))
        layers["trace.overhead_s"] = (traced.get("wall_s", math.nan)
                                      - plain.get("wall_s", math.nan))
        drift = [abs(fps[k] - v) / abs(v) for k, v in runner.base.items()
                 if k in fps and v]
        fps["fp.max_rel_drift"] = max(drift, default=0.0)
        values = {**layers, **fps}
        metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u}
                   for n, u in PER_LAYER}
        samples = {n: 1 for n, _ in PER_LAYER}
    else:
        start = time.perf_counter()
        while True:
            call("plain")
            if time.perf_counter() - start >= seconds:
                break
        setups = [c["setup_s"] for c in calls if "setup_s" in c]
        while len(setups) < SETUP_SAMPLES:
            res = runner.child("setup")
            if "setup_s" not in res:
                problems.append(f"setup call: {res.get('error')}")
                break
            setups.append(res["setup_s"])
        walls = [c["wall_s"] for c in calls if c["ok"]]
        rss = [c["peak_rss_mb"] for c in calls if c["ok"]]
        med = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        metrics = {n: {"value": statistics.median(med[n]) if med[n]
                       else math.nan, "unit": u} for n, u in END_TO_END}
        samples = {n: len(med[n]) for n, _ in END_TO_END}
    failed = sum(not c["ok"] for c in calls)
    blas = next((c["blas_threads"] for c in calls if "blas_threads" in c), -1)
    return {"correct": failed == 0 and not problems, "attempted": len(calls),
            "failed": failed, "metrics": metrics, "samples": samples,
            "problems": problems, "blas_threads": blas}


def run_in_checkout(root: Path, wl: Workload, seed: int, seconds: float,
                    trace: bool) -> dict:
    """`run_workload` in a scratch directory under the checkout's
    `.bench_work`, removed afterwards."""
    scratch = root / ".bench_work"
    workdir = scratch / f"{wl.name}-{os.getpid()}-{int(trace)}"
    try:
        return run_workload(root, wl, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def format_metrics(result) -> list[str]:
    return [f"{n}: {m['value']:.6g} {m['unit']} (n={result['samples'][n]})"
            for n, m in result["metrics"].items()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = HERE.parent
    need = [root / "src" / "charlierbd" / "cli.py",
            root / WORKLOADS[args.workload].config]
    missing = [str(x) for x in need if not x.exists()]
    if missing:
        print(f"perfbench: not a charlierbd checkout, missing {missing}",
              file=sys.stderr)
        return 2
    res = run_in_checkout(root, WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={res['blas_threads']}")
    for line in format_metrics(res) + [f"problem: {x}" for x in res["problems"]]:
        print("# " + line)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
