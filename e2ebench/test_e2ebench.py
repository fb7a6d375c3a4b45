"""Tests of the benchmark's output check; run with ``python3 -m pytest e2ebench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker

HERE = Path(__file__).resolve().parent
PINNED = json.loads((HERE / "pinned.json").read_text())


def iteration(workload, **overrides):
    """A report as ``worker.py`` prints it for a correct iteration."""
    it = {"attempted": 10, "ok": 10, "unexpected": 0,
          "digest": PINNED["digests"][workload]}
    if workload == "search":
        it["winners"] = [
            {"key": key, "params": best["params"], "bandwidth_gbs": best["bandwidth_gbs"],
             "spent": 21}
            for key, best in PINNED["search_optima"].items()
        ]
    it.update(overrides)
    return it


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pinned_outputs_pass(workload):
    assert run.check(workload, iteration(workload), PINNED) == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tampered_digest_is_rejected(workload):
    digest = PINNED["digests"][workload]
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    problems = run.check(workload, iteration(workload, digest=flipped), PINNED)
    assert len(problems) == 1 and "digest" in problems[0]


def test_unvalidated_point_is_rejected():
    problems = run.check("dse_sweep", iteration("dse_sweep", unexpected=1), PINNED)
    assert len(problems) == 1 and "unvalidated" in problems[0]


def test_search_winner_below_the_optimum_is_rejected():
    it = iteration("search")
    it["winners"][3]["bandwidth_gbs"] *= 0.99
    problems = run.check("search", it, PINNED)
    assert len(problems) == 1 and it["winners"][3]["key"] in problems[0]


class Result:
    def __init__(self, fp):
        self.fp = fp

    def fingerprint(self):
        return self.fp


def test_digest_is_order_independent():
    results = [Result(f"point-{i}") for i in range(5)]
    assert worker.digest(results) == worker.digest(results[::-1])
    assert worker.digest(results) != worker.digest(results[:4])


def copy_bench(tmp_path, *, with_program):
    """The benchmark's files in a fresh tree, with or without the program."""
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "layers.py", "pinned.json"):
        shutil.copy(HERE / name, bench / name)
    if with_program:
        for name in ("src", "benchmarks"):
            (tmp_path / name).symlink_to(HERE.parent / name)
    return bench


def bench_run(bench, workload):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bench.parent, capture_output=True, text=True, timeout=170,
    )


def test_run_against_a_tampered_pin_reports_a_failure(tmp_path):
    bench = copy_bench(tmp_path, with_program=True)
    pinned = json.loads((bench / "pinned.json").read_text())
    pinned["digests"]["search"] = "0" * 64
    (bench / "pinned.json").write_text(json.dumps(pinned))
    proc = bench_run(bench, "search")
    assert proc.returncode == 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is False and report["metrics"] == {}
    assert "CHECK FAILED" in proc.stderr and "digest" in proc.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bench = copy_bench(tmp_path, with_program=False)
    proc = bench_run(bench, "dse_sweep")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
