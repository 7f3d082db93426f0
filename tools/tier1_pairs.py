"""Alternating pairs of Tier-1 test runs on two checkouts.

    python3 tools/tier1_pairs.py PARENT CHANGE --pairs 3 [--out FILE] \
        [-- COMMAND ...]

Runs the Tier-1 command of ROADMAP.md,
`python -m pytest -q --continue-on-collection-errors` with the checkout's
`src` first on PYTHONPATH, or COMMAND if given, from the root of each
checkout. Pair i (from 0) runs the parent first when i is even and the
change first when i is odd. Each run records its wall time, its exit
code and the counts of the last pytest summary line it prints (passed,
failed, errors, ...); a run that prints none records no counts. stdout
gets, per side, the median and quartiles of the wall time and each run's
passed/failed counts; --out also gets every run as JSON. Takes about
2 x PAIRS Tier-1 runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import SIDES, spread

TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]
# "694 passed, 1 failed, 2 warnings in 40.81s" and the like
_COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed"
                    r"|deselected|warnings?)\b")


def counts(output: str) -> dict:
    """The counts of the last line of `output` that reads like pytest's
    summary ("N passed ... in S s"), keyed by word; {} if none does."""
    for line in reversed(output.splitlines()):
        if " in " in line and (found := _COUNT.findall(line)):
            return {word: int(n) for n, word in found}
    return {}


def run_once(root: Path, command: list) -> dict:
    """One run of `command` from the checkout at root, its `src` first on
    PYTHONPATH: wall time, exit code and summary counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])])
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "returncode": proc.returncode,
            "counts": counts(proc.stdout)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--out", type=Path)
    argv = sys.argv[1:] if argv is None else list(argv)
    # everything after "--" is the command
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    args.command = argv[cut + 1:] or TIER1
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            rec = run_once(roots[side], args.command)
            runs[side].append(rec)
            print(json.dumps({"pair": i, "side": side, **rec}),
                  file=sys.stderr, flush=True)
    for side in SIDES:
        s = spread([r["wall_s"] for r in runs[side]])
        tally = ", ".join(f"{r['counts'].get('passed', 0)}/"
                          f"{r['counts'].get('failed', 0)}"
                          for r in runs[side])
        print(f"{side:<7}wall median {s['median']:.1f} s "
              f"[{s['q1']:.1f}, {s['q3']:.1f}]  passed/failed per run: "
              f"{tally}")
    if args.out:
        args.out.write_text(json.dumps(
            {"command": args.command, "pairs": args.pairs, "runs": runs},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
