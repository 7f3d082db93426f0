import json
import sys
from pathlib import Path

import numpy as np
import pytest

from charlierbd.cli import _write_traj_csv
from charlierbd.solve import Trajectory

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402
import coverage_pairs  # noqa: E402
import output_hashes  # noqa: E402
import tier1_pairs  # noqa: E402

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}


def pairs(parent, change):
    return [{"parent": {"wall_s": p}, "change": {"wall_s": c}}
            for p, c in zip(parent, change)]


PARENT = [2.50, 2.52, 2.54, 2.56, 2.58, 2.60, 2.62, 2.64, 2.66, 2.68]


@pytest.mark.parametrize("change,want", [
    # better in all ten pairs, by far more than the parent's IQR
    ([p - 0.5 for p in PARENT], "gain"),
    # better in eight of ten pairs only
    ([p - 0.5 for p in PARENT[:8]] + [3.0, 3.0], "within bound"),
    # better in every pair, by less than the parent's IQR (0.09)
    ([p - 0.01 for p in PARENT], "within bound"),
    # the median worse by 40%, past the 25% bound
    ([p * 1.4 for p in PARENT], "regression"),
], ids=["gain", "eight_of_ten", "inside_iqr", "regression"])
def test_verdict_follows_the_pair_rules(change, want):
    summary = bench_pairs.summarise(pairs(PARENT, change), [WALL])["wall_s"]
    assert summary["verdict"] == want


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0] * 5
    summary = bench_pairs.summarise(pairs(parent, [1.6] * 10), [WALL])
    assert summary["wall_s"]["verdict"] == "unresolved"


def test_coverage_summary_counts_the_runs_below_the_gate():
    runs = [{"coverage": c, "correct": ok} for c, ok in
            [(0.96, True), (0.949, False), (0.97, True), (0.95, True),
             (0.955, False)]]
    summary = coverage_pairs.summarise(runs, 0.95)
    assert (summary["q1"], summary["median"], summary["q3"]) \
        == (0.95, 0.955, 0.96)
    # a run at the gate passes it; one failed another check
    assert (summary["n"], summary["below"], summary["incorrect"]) == (5, 1, 2)


def test_commits_fall_back_to_the_given_names(tmp_path):
    # a `git archive` copy has no git metadata, so `git describe` fails
    roots = {side: tmp_path / side for side in bench_pairs.SIDES}
    for root in roots.values():
        root.mkdir()
    assert bench_pairs.commits(roots, ["abc", "def"]) \
        == {"parent": "abc", "change": "def"}
    assert bench_pairs.commits(roots, None) \
        == {"parent": None, "change": None}


def test_pairs_run_the_named_workloads_from_the_first_seed(tmp_path,
                                                          monkeypatch):
    bench = {"run_seconds": 10, "end_to_end": [WALL],
             "workloads": [{"name": n} for n in ("table-x", "sim-x")]}
    roots = [tmp_path / side for side in bench_pairs.SIDES]
    for root in roots:
        root.mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps(bench))
    runs = []

    def fake_run(root, workload, seed, seconds):
        runs.append((root.name, workload, seed))
        return {"wall_s": 1.0, "correct": True, "attempted": 1, "failed": 0}
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main([*map(str, roots), "--pairs", "3", "--out",
                             str(out), "--workload", "sim-x",
                             "--first-seed", "101"]) == 0
    # the parent runs first in even pairs, the change in odd ones
    assert runs == [("parent", "sim-x", 101), ("change", "sim-x", 101),
                    ("change", "sim-x", 102), ("parent", "sim-x", 102),
                    ("parent", "sim-x", 103), ("change", "sim-x", 103)]
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["sim-x"]
    assert doc["protocol"].startswith("3 pairs per workload of sim-x at "
                                      "seeds 101..103; ")
    with pytest.raises(SystemExit):
        bench_pairs.main([*map(str, roots), "--out", str(out),
                          "--workload", "nope"])


def test_full_precision_digest_sees_what_the_csv_rounds_away(tmp_path):
    # two series one ulp apart print the same %.6e cells
    times = np.linspace(0.0, 1.0, 11)
    mean = 10.0 + np.sin(times)
    twins = [Trajectory(times=times, meta={"n_steps": 10}, mean=m,
                        variance=mean.copy())
             for m in (mean, np.nextafter(mean, np.inf))]
    csvs = []
    for i, traj in enumerate(twins):
        _write_traj_csv(traj, tmp_path / f"{i}.csv", cols=("mean",
                                                           "variance"))
        csvs.append(output_hashes.sha256(tmp_path / f"{i}.csv"))
    assert csvs[0] == csvs[1]
    digests = [output_hashes.digest(traj) for traj in twins]
    assert digests[0] != digests[1]
    assert digests[0] == output_hashes.digest(Trajectory(
        times=times.copy(), meta={"n_steps": 10, "wall_s": 0.5},
        mean=mean.copy(), variance=mean.copy()))


def test_diff_names_moved_keys_and_their_cells(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
    same = "N,err_mean\n1,1.000000e-01\n2,2.000000e-02\n"
    (old / "a-table.csv").write_text("# provenance: {}\n" + same)
    (new / "a-table.csv").write_text(
        '# provenance: {"h": 0.005}\n' + same.replace("2.000000e-02",
                                                       "2.000100e-02"))
    for d in (old, new):
        (d / "a-figures.csv").write_text("t,mean\n0.0,1.0\n1.0,inf\n")
    (new / "a-figures.csv").write_text("t,mean\n0.0,1.0\n1.0,3.0\n")
    hashes = {key: output_hashes.sha256(old / f"a-{key[2:]}.csv")
              for key in ("a/table", "a/figures")}
    (old / "hashes.json").write_text(json.dumps(
        {**hashes, "a/full/reference": "x", "a/full/closure": "y"}))
    (new / "hashes.json").write_text(json.dumps({
        "a/table": output_hashes.sha256(new / "a-table.csv"),
        "a/figures": output_hashes.sha256(new / "a-figures.csv"),
        "a/full/reference": "z", "a/full/galerkin": "w"}))
    assert output_hashes.main(["--diff", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "a/figures: 1 of 4 cells changed, largest relative inf, "
        "absolute inf",
        f"a/full/closure: only in {old}",
        f"a/full/galerkin: only in {new}",
        "a/full/reference: full-precision digest moved",
        "a/table: 1 of 4 cells changed, largest relative 5e-05, "
        "absolute 1e-06; comment lines moved",
    ]
    assert output_hashes.main(["--diff", str(old), str(old)]) == 0
    assert capsys.readouterr().out == ""


def test_tier1_pairs_alternate_and_read_the_summary_line(tmp_path, capsys):
    # a stub command: each checkout reports its own counts and logs that it
    # ran, with its src first on PYTHONPATH
    log = tmp_path / "order.txt"
    roots = [tmp_path / side for side in bench_pairs.SIDES]
    for root, summary in zip(roots, ("12 passed in 0.01s",
                                     "11 passed, 1 failed in 0.02s")):
        (root / "src").mkdir(parents=True)
        (root / "src" / "summary.txt").write_text(summary)
    stub = ("import os, pathlib, sys; src = os.environ['PYTHONPATH']"
            ".split(os.pathsep)[0]; open(sys.argv[1], 'a').write("
            "pathlib.Path(src).parent.name + ' '); print('noise in 3 s'); "
            "print(pathlib.Path(src, 'summary.txt').read_text())")
    out = tmp_path / "tier1.json"
    assert tier1_pairs.main([*map(str, roots), "--pairs", "3", "--out",
                             str(out), "--", sys.executable, "-c", stub,
                             str(log)]) == 0
    assert log.read_text().split() == ["parent", "change", "change",
                                       "parent", "parent", "change"]
    doc = json.loads(out.read_text())
    assert [r["counts"] for r in doc["runs"]["parent"]] \
        == [{"passed": 12}] * 3
    assert [r["counts"] for r in doc["runs"]["change"]] \
        == [{"passed": 11, "failed": 1}] * 3
    assert all(r["returncode"] == 0 and r["wall_s"] > 0
               for side in doc["runs"].values() for r in side)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("parent wall median ")
    assert lines[0].endswith("passed/failed per run: 12/0, 12/0, 12/0")
    assert lines[1].endswith("passed/failed per run: 11/1, 11/1, 11/1")


def test_tier1_counts_read_the_last_summary_line():
    out = ("5 passed in 1.0s\nFAILED x\n== 3 failed, 690 passed, "
           "2 warnings in 40.81s ==\n")
    assert tier1_pairs.counts(out) == {"failed": 3, "passed": 690,
                                       "warnings": 2}
    assert tier1_pairs.counts("no tests ran\n") == {}
