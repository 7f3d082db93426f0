"""Every workload of BENCHMARK.json, untraced and then traced, in one command.

    python3 perfbench/suite.py

Run it from the root of a checkout. It uses seed 1 and BENCHMARK.json's
`run_seconds`. For each workload it prints every end-to-end metric with
its unit and sample count, then the per-layer metrics of the traced run,
any failed check, and at the end the failed operations against those
attempted. Exits 1 if any operation failed.
"""

from __future__ import annotations

import json
import sys

import run


def report(workloads, seed, seconds, emit=print):
    """Run each workload in both modes; returns (attempted, failed)."""
    attempted = failed = 0
    for wl in workloads:
        for trace in (False, True):
            res = run.run_in_checkout(run.HERE.parent, wl, seed, seconds,
                                      trace)
            attempted += res["attempted"]
            failed += res["failed"]
            emit(f"== {wl.name} ({'traced' if trace else 'untraced'}): "
                 f"{res['failed']} of {res['attempted']} operations failed, "
                 f"blas_threads={res['blas_threads']}")
            for line in run.format_metrics(res):
                emit("  " + line)
            for problem in res["problems"]:
                emit("  problem: " + problem)
    emit(f"== total: {failed} of {attempted} operations failed")
    return attempted, failed


def main() -> int:
    with open(run.HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [run.WORKLOADS[w["name"]] for w in bench["workloads"]]
    _, failed = report(workloads, 1, bench["run_seconds"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
