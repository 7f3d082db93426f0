"""sha256 of every CSV that 36 CLI runs write: seven runs on each of five
configs, and `table` on a sixth; and of the solves behind them at full
precision.

    python3 tools/output_hashes.py CHECKOUT OUTDIR

Runs the CLI of the checkout at CHECKOUT (its `src`, in a fresh
interpreter per run) on both shipped configs, on the small config of
perfbench's tests and on small infinite-server and Erlang-loss configs,
so that every model kind's closure runs; runs `table` on a config whose
basis search loses 6 of its 22 candidates to blow-ups; and writes
OUTDIR/hashes.json, mapping "<config>/<run>" to the sha256 of that run's
CSV. A CSV cell keeps 7 significant digits, so for each config a fresh
interpreter also runs the reference, both closures, `run_galerkin` at
N=3 and a 2000-path simulation, and "<config>/full/<solve>" maps to the
`digest` of each result: its float arrays byte for byte and its integer
meta. Run it on two checkouts and diff the two files: a change that keeps
every output bit-identical leaves them equal. Takes about 60 s on 2
vCPUs.

    python3 tools/output_hashes.py --diff OLD_DIR NEW_DIR

compares two such OUTDIRs: it prints each key whose hash moved (or that
only one side has) and, for a moved CSV, the count of changed data
cells and the largest relative and absolute change among them, and
whether its comment lines (a table's provenance) moved. Exits 1 when a
key moved, else 0.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# the config `SMALL` of perfbench/test_perfbench.py
SMALL = {
    "model": {"kind": "erlang_a", "lambda": {"base": 10.0, "amplitude": 2.0},
              "mu": 1.0, "beta": 0.5, "c": 10},
    "T": 1.0, "dt_out": 0.01, "dt_int": 0.01, "X_max": 60,
    "init": {"kind": "poisson", "value": 10.0},
    "orders": [1, 2, 3], "basis": {"mode": "tuned"}, "seed": 7,
    "n_paths": 2000,
}

# the config of tests/test_harness.py's partial-failure tuning test
PARTIAL = {
    "model": {"kind": "erlang_a", "lambda": {"base": 450.0, "amplitude": 37.5},
              "mu": 100.0, "beta": 60.0, "c": 4},
    "T": 4.0, "dt_out": 1e-2, "dt_int": 1e-4, "X_max": 60,
    "init": {"kind": "poisson", "value": 4.0},
    "orders": [3], "basis": {"mode": "tuned"},
}

# small configs of the other two kinds; the first-order Erlang-loss
# closure meets an over-dispersed target in about 29% of its rhs
# evaluations, the infinite-server one, started from a point, in none
INFINITE = {
    "model": {"kind": "infinite_server",
              "lambda": {"base": 20.0, "amplitude": 5.0}, "mu": 2.0},
    "T": 2.0, "init": {"kind": "point", "value": 5},
    "orders": [1, 2, 3], "basis": {"mode": "tuned"}, "seed": 7,
}
LOSS = {
    "model": {"kind": "erlang_loss",
              "lambda": {"base": 14.0, "amplitude": 3.0},
              "mu": 1.0, "beta": 0.1, "c": 10, "k": 8},
    "T": 2.0, "init": {"kind": "poisson", "value": 10.0},
    "orders": [1, 2, 3], "basis": {"mode": "tuned"}, "seed": 7,
}

# run name -> CLI arguments before the config
RUNS = {
    "table": ["table"],
    "figures": ["figures"],
    "solve-reference": ["solve-reference"],
    "solve-closure-zeroth": ["solve-closure", "--order", "zeroth"],
    "solve-closure-first": ["solve-closure", "--order", "first"],
    "solve-galerkin-3": ["solve-galerkin", "-N", "3"],
    "simulate": ["simulate", "--paths", "2000"],
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest(traj) -> str:
    """sha256 of a solver result's float arrays, each named, shaped and
    byte for byte, and of its integer meta (its float meta holds wall
    times)."""
    h = hashlib.sha256()
    for name, v in vars(traj).items():
        if isinstance(v, np.ndarray) and v.dtype.kind == "f":
            h.update(f"{name} {v.dtype} {v.shape}".encode())
            h.update(v.tobytes())
    h.update(json.dumps({k: int(v) for k, v in traj.meta.items()
                         if isinstance(v, (int, np.integer))},
                        sort_keys=True).encode())
    return h.hexdigest()


def full_precision(cfg_path) -> dict:
    """Solve name -> `digest` of the solves behind one config's CSVs, run
    as the CLI runs them; imports the charlierbd on the path."""
    from charlierbd import harness
    from charlierbd.solve import TimeGrid, solve_closure

    cfg = harness.ExperimentConfig.from_file(cfg_path)
    out = {"reference": harness.run_reference(cfg)}
    for order in ("zeroth", "first"):
        out[f"closure-{order}"] = solve_closure(
            cfg.kind, cfg.params(), order, cfg.initial_state(), cfg.grid())
    out["galerkin-3"] = harness.run_galerkin(cfg, 3)
    cfg.n_paths = 2000
    out["simulation"] = harness.run_simulation(
        cfg, TimeGrid(cfg.t0, cfg.T, 0.01, 0.01))
    return {name: digest(traj) for name, traj in out.items()}


def cell_changes(old_csv, new_csv) -> str:
    """One line on how the data cells of two CSVs differ, cells compared
    as text and their changes as floats (a change to or from a non-finite
    value counts as infinite)."""
    def read(path):
        lines = Path(path).read_text().splitlines()
        comments = [x for x in lines if x.startswith("#")]
        rows = [x.split(",") for x in lines if not x.startswith("#")]
        return comments, rows

    (c_old, old), (c_new, new) = read(old_csv), read(new_csv)
    tail = "; comment lines moved" if c_old != c_new else ""
    if not old or old[0] != new[0] or [len(r) for r in old] \
            != [len(r) for r in new]:
        return "columns or rows differ" + tail
    old, new = np.array(old[1:]), np.array(new[1:])
    changed = old != new
    if not changed.any():
        return f"0 of {changed.size} cells changed" + tail
    a, b = old[changed].astype(float), new[changed].astype(float)
    with np.errstate(all="ignore"):
        dif = np.abs(a - b)
        rel = dif / np.abs(a)
    dif, rel = (np.where(np.isnan(x), np.inf, x) for x in (dif, rel))
    return (f"{changed.sum()} of {changed.size} cells changed, largest "
            f"relative {rel.max():.3g}, absolute {dif.max():.3g}" + tail)


def diff(old_dir, new_dir) -> int:
    """Print the keys whose hashes differ between two OUTDIRs, each moved
    CSV with its `cell_changes`; 1 if any moved, else 0."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    old, new = (json.loads((d / "hashes.json").read_text())
                for d in (old_dir, new_dir))
    moved = sorted(k for k in old.keys() | new.keys()
                   if old.get(k) != new.get(k))
    for key in moved:
        if key not in old or key not in new:
            print(f"{key}: only in {old_dir if key in old else new_dir}")
        elif "/full/" in key:
            print(f"{key}: full-precision digest moved")
        else:
            csv = key.replace("/", "-", 1) + ".csv"
            print(f"{key}: {cell_changes(old_dir / csv, new_dir / csv)}")
    return int(bool(moved))


def main(argv) -> int:
    if argv[:1] == ["--full"]:   # the child run of one config
        print(json.dumps(full_precision(argv[1])))
        return 0
    if argv[:1] == ["--diff"] and len(argv) == 3:
        return diff(argv[1], argv[2])
    if len(argv) != 2:
        print("usage: python3 tools/output_hashes.py CHECKOUT OUTDIR\n"
              "       python3 tools/output_hashes.py --diff OLD_DIR NEW_DIR",
              file=sys.stderr)
        return 2
    checkout, outdir = Path(argv[0]).resolve(), Path(argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, cfg in (("small", SMALL), ("partial", PARTIAL),
                      ("infinite_server", INFINITE), ("erlang_loss", LOSS)):
        written[name] = outdir / f"{name}.json"
        written[name].write_text(json.dumps(cfg))
    # config name -> (path, runs)
    configs = {
        "erlang_a": (checkout / "configs" / "erlang_a_benchmark.json", RUNS),
        "quadratic": (checkout / "configs" / "quadratic_benchmark.json",
                      RUNS),
        "small": (written["small"], RUNS),
        "partial": (written["partial"], {"table": RUNS["table"]}),
        "infinite_server": (written["infinite_server"], RUNS),
        "erlang_loss": (written["erlang_loss"], RUNS),
    }
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               CHARLIER_LOG="warning")
    hashes = {}
    for name, (cfg, runs) in configs.items():
        for run, args in runs.items():
            csv = outdir / f"{name}-{run}.csv"
            subprocess.run([sys.executable, "-m", "charlierbd.cli", args[0],
                            str(cfg), *args[1:], "-o", str(csv)],
                           env=env, check=True)
            hashes[f"{name}/{run}"] = sha256(csv)
        full = subprocess.run([sys.executable, __file__, "--full", str(cfg)],
                              env=env, check=True, stdout=subprocess.PIPE,
                              text=True).stdout
        for solve, h in json.loads(full).items():
            hashes[f"{name}/full/{solve}"] = h
    (outdir / "hashes.json").write_text(json.dumps(hashes, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
