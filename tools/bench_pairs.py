"""Alternating pairs of perfbench end-to-end runs on two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --out BENCH_<label>.json \
        [--commits PARENT_SHA CHANGE_SHA] [--workload W ...] [--first-seed N]

For every workload in CHANGE's BENCHMARK.json, or only those named by
--workload (repeatable), runs each checkout's own
`perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0` from
that checkout's root, SECONDS being BENCHMARK.json's run_seconds. Pair i
(from 0) uses seed N + i, N being --first-seed (default 1), and runs the
parent first when i is even and the change first when i is odd; seeds
not used while writing a change re-check a claim on fresh runs. The JSON
written to --out holds, per workload and end-to-end metric, each side's
median and quartiles over the per-run medians that perfbench reports,
the number of pairs in which the change read lower (ties count for
neither side), a verdict (see `verdict`) and every pair's results, in
the layout of the committed BENCH_*.json files. Its `commits` names
each checkout by `git describe`; a checkout that is no git work tree,
such as a `git archive` copy, takes its --commits entry instead. A run
that exits non-zero or prints no result counts as one failed call.
Takes about 2 x PAIRS x (SECONDS + 5) s per workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def describe(root: Path) -> str | None:
    """`git describe --always --dirty` of the checkout, or None."""
    proc = subprocess.run(["git", "-C", str(root), "describe", "--always",
                           "--dirty", "--abbrev=40"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def commits(roots: dict, given: list | None) -> dict:
    """Each side's `describe`, or where that fails its entry of `given`
    (parent, change), or None without one."""
    given = dict(zip(SIDES, given or (None, None)))
    return {side: describe(root) or given[side]
            for side, root in roots.items()}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its end-to-end medians, call counts and
    BLAS threads, or a failed record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        res = None
    if proc.returncode != 0 or res is None:
        err = proc.stderr.strip().splitlines() or ["no result"]
        return {"correct": False, "attempted": 0, "failed": 1,
                "error": err[-1]}
    out = {k: v["value"] for k, v in res["metrics"].items()}
    out.update({k: res[k] for k in ("attempted", "failed", "correct")})
    head = next((x for x in lines if "blas_threads=" in x), "")
    out["blas_threads"] = head.rsplit("blas_threads=", 1)[-1] or None
    return out


def spread(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1), "n": len(values)}


def verdict(stats: dict, bound: float) -> str:
    """One lower-is-better metric's reading by the choosing-metrics guide,
    from its `summarise` entry and its BENCHMARK.json bound: "gain" when
    the change read lower in at least nine tenths of the pairs and its
    median is below the parent's by more than the parent's IQR; otherwise
    "regression" when its median is above the parent's by more than the
    bound, a fraction of the parent's median; otherwise "unresolved" when
    the parent's IQR is wider than that bound; and "within bound" when
    none of these holds."""
    parent, change = stats["parent"], stats["change"]
    ahead = parent["median"] - change["median"]   # > 0: the change is lower
    allowed = bound * abs(parent["median"])
    if (stats["change_lower_in"] >= math.ceil(0.9 * parent["n"])
            and ahead > parent["iqr"]):
        return "gain"
    if -ahead > allowed:
        return "regression"
    if parent["iqr"] > allowed:
        return "unresolved"
    return "within bound"


def summarise(pairs: list, metrics: list) -> dict:
    """Per end-to-end metric of BENCHMARK.json (`metrics`, its entries,
    all lower-is-better): each side's spread, change_lower_in and the
    verdict."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        if metric["better"] != "lower":
            raise ValueError(f"{name} is not lower-is-better")
        ok = [p for p in pairs if all(name in p[side] for side in SIDES)]
        if not ok:
            continue
        vals = {side: [p[side][name] for p in ok] for side in SIDES}
        stats = {side: spread(vals[side]) for side in SIDES}
        stats["change_lower_in"] = sum(
            c < p for p, c in zip(vals["parent"], vals["change"]))
        stats["verdict"] = verdict(stats, metric["bound"])
        summary[name] = stats
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--commits", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="commit names for checkouts without git metadata")
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run only this workload (repeatable)")
    ap.add_argument("--first-seed", type=int, default=1, metavar="N",
                    help="seed of the first pair (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(roots["change"] / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        ap.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json "
                 f"has {', '.join(names)}")
    names = [n for n in names if n in (args.workload or names)]
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    label = args.out.stem.removeprefix("BENCH_")
    command = (f"python3 perfbench/run.py --workload W --seed S --seconds "
               f"{seconds:g} --trace 0, run from the root of each checkout")
    doc = {
        "label": label,
        "command": command,
        "protocol": (f"{args.pairs} pairs per workload of "
                     f"{', '.join(names)} at seeds {seeds[0]}..{seeds[-1]}; "
                     "in pair i (from 0) the parent runs first when i is "
                     "even and the change first when i is odd"),
        "quartiles": "numpy.percentile 25/50/75 (linear) over the per-run "
                     "medians that perfbench reports",
        "commits": commits(roots, args.commits),
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "platform": platform.platform()},
        "workloads": {},
    }
    blas = set()
    for name in names:
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], name, seed, seconds)
                blas.add(pair[side].pop("blas_threads", None))
            pairs.append(pair)
            print(f"{name} pair {i}: {json.dumps(pair)}", file=sys.stderr,
                  flush=True)
        failed = {side: sum(p[side]["failed"] for p in pairs)
                  for side in SIDES}
        doc["workloads"][name] = {
            "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
            "failed": failed,
            "summary": summarise(pairs, metrics),
            "pairs": pairs,
        }
    doc["machine"]["blas_threads"] = sorted(b for b in blas if b)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
