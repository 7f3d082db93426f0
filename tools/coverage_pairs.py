"""Top-level coverage of perfbench's small traced runs on two checkouts.

    python3 tools/coverage_pairs.py PARENT CHANGE --runs 30

A run is what `perfbench/test_perfbench.py::
test_traced_run_is_correct_and_fires_its_wrappers` does: for table,
figures and simulate, `run.run_workload(root, workload, 3, 0, True,
workdir)` on the workloads that the test's `small` fixture builds (the
fixture's own function is called), one untraced and one traced CLI call
each. Every run takes place in a fresh interpreter that imports the
checkout's own perfbench. Run i (from 0) runs the
parent first when i is even and the change first when i is odd. Each
run's record goes to stderr as one JSON line; stdout gets, per command
and side, the median and quartiles of `trace.top_level_coverage`, the
runs below that checkout's `TOP_LEVEL_COVERAGE_MIN` and the runs that
read `correct: false` for any reason, the gate included. Takes about
2 x RUNS x 5 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_pairs import SIDES, spread

COMMANDS = ("table", "figures", "simulate")

# run in the checkout's perfbench directory; prints one JSON object
CHILD = r"""
import json, sys, tempfile
from pathlib import Path
import run, test_perfbench


class Factory:
    # what the fixture uses of pytest's tmp_path_factory
    def __init__(self, root):
        self.root = root

    def mktemp(self, name):
        (self.root / name).mkdir()
        return self.root / name


out = {"gate": run.TOP_LEVEL_COVERAGE_MIN, "runs": {}}
with tempfile.TemporaryDirectory() as tmp:
    # the workloads of test_perfbench's `small` fixture, built by its code
    small = test_perfbench.small.__wrapped__(Factory(Path(tmp)))
    for cmd in sys.argv[1:]:
        res = run.run_workload(run.HERE.parent, small[cmd], 3, 0, True,
                               Path(tmp) / cmd)
        out["runs"][cmd] = {
            "coverage": res["metrics"]["trace.top_level_coverage"]["value"],
            "correct": res["correct"]}
print(json.dumps(out))
"""


def run_once(root: Path) -> dict:
    """One run of every command in the checkout at root: {"gate": float,
    "runs": {command: {"coverage", "correct"}}}."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *COMMANDS],
                          cwd=root / "perfbench", capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list, gate: float) -> dict:
    """The spread of one command's coverages on one side (`runs`, its
    records), with `below`, the runs under `gate`, and `incorrect`, the
    runs that failed any check."""
    stats = spread([r["coverage"] for r in runs])
    stats["below"] = sum(r["coverage"] < gate for r in runs)
    stats["incorrect"] = sum(not r["correct"] for r in runs)
    return stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--runs", type=int, default=30)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records = {side: [] for side in SIDES}
    gates = {}
    for i in range(args.runs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            rec = run_once(roots[side])
            gates[side] = rec["gate"]
            records[side].append(rec["runs"])
            print(json.dumps({"run": i, "side": side, **rec}),
                  file=sys.stderr, flush=True)
    for cmd in COMMANDS:
        for side in SIDES:
            s = summarise([r[cmd] for r in records[side]], gates[side])
            print(f"{cmd:<9}{side:<7}median {s['median']:.4f} "
                  f"[{s['q1']:.4f}, {s['q3']:.4f}]  below {gates[side]:g}: "
                  f"{s['below']} of {s['n']}  incorrect: {s['incorrect']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
