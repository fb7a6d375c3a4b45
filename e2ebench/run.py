"""End-to-end MP-STREAM benchmark: one workload, measured and checked.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload dse_sweep --seed 3 --seconds 25 --trace 0

Every iteration of the workload runs in a fresh interpreter
(``worker.py``) until ``--seconds`` have passed; at least one always
runs. With ``--trace 0`` the iterations are untraced and the run
reports the end-to-end metrics. With ``--trace 1`` untraced and traced
iterations alternate, and the run reports the per-layer split of the
traced ones and the tracing overhead against the untraced ones.

Every iteration's results are checked against ``pinned.json``: each
successful point validated, the digest of the result fingerprints, and
for ``search`` the exhaustive optimum per (target, size). A run that
fails the check prints ``"correct": false`` without numbers and exits 1.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(worker.WORKLOADS)
SEED_NOTES = {
    "paper_figs": "ignored: the points are fixed by the paper's figures",
    "dse_sweep": "permutes the target order and the grid's point order",
    "search": "ignored: the pool is fixed by the grid and the searcher is deterministic",
}
#: set-up is sampled at least this often per run: set-up-only
#: interpreters, half before the iterations and the rest after them, top
#: up the set-ups of the measured iterations
MIN_SETUP_SAMPLES = 11
#: a whole run ends within this many seconds
DEADLINE_S = 170.0
#: relative tolerance for "the same bandwidth" (ties at the optimum)
OPTIMUM_RTOL = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "point_p50_s": "s",
    "point_p90_s": "s",
    "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, *, trace: bool = False, setup_only: bool = False,
          deadline: float) -> dict:
    """Run ``worker.py`` once and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for another {workload} iteration")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} iteration exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{workload} worker printed no report")
    return json.loads(lines[-1])


def check(workload: str, it: dict, pinned: dict) -> list[str]:
    """What is wrong with one iteration's outputs (empty when correct)."""
    problems = []
    if it["attempted"] < 1:
        problems.append("no design point ran")
    if it["unexpected"]:
        problems.append(
            f"{it['unexpected']} point(s) unvalidated or failed for a reason "
            "other than a build that does not fit"
        )
    want = pinned["digests"][workload]
    if it["digest"] != want:
        problems.append(f"result digest {it['digest']} != pinned {want}")
    if workload == "search":
        keys = sorted(w["key"] for w in it["winners"])
        if keys != sorted(pinned["search_optima"]):
            problems.append(f"searched {keys}, pinned {sorted(pinned['search_optima'])}")
    for win in it.get("winners", ()):
        best = pinned["search_optima"][win["key"]]
        if not math.isclose(win["bandwidth_gbs"], best["bandwidth_gbs"],
                            rel_tol=OPTIMUM_RTOL):
            problems.append(
                f"search {win['key']} found {win['params']} at "
                f"{win['bandwidth_gbs']!r} GB/s, exhaustive optimum is "
                f"{best['params']} at {best['bandwidth_gbs']!r} GB/s"
            )
    return problems


def end_to_end(iterations: list[dict], setups: list[float]) -> dict[str, tuple[float, str]]:
    """Each end-to-end metric: (value, how it was sampled)."""
    n = len(iterations)
    points = iterations[0]["attempted"]
    med = statistics.median
    # deciles of each iteration's completion gaps: [p10, ..., p90]
    deciles = [statistics.quantiles(it["gaps_s"], n=10, method="inclusive")
               for it in iterations]
    gaps = f"of {points} completion gaps per iteration, median of {n} iteration(s)"
    return {
        "setup_s": (med(setups), f"median of {len(setups)} set-ups"),
        "wall_s": (med(it["wall_s"] for it in iterations), f"median of {n} iteration(s)"),
        "points_per_s": (
            med(it["attempted"] / it["wall_s"] for it in iterations),
            f"{points} points per iteration, median of {n} iteration(s)",
        ),
        "point_p50_s": (med(d[4] for d in deciles), "p50 " + gaps),
        "point_p90_s": (med(d[8] for d in deciles), "p90 " + gaps),
        "peak_rss_mib": (med(it["peak_rss_mib"] for it in iterations),
                         f"ru_maxrss, median of {n} iteration(s)"),
    }


def outcome_lines(workload: str, it: dict, pinned: dict) -> list[str]:
    """The workload's outcome metrics: fixed by the check, so not timed."""
    lines = [
        f"  failed_ratio        {(it['attempted'] - it['ok']) / it['attempted']:.4f} ratio"
        f"  ({it['attempted'] - it['ok']}/{it['attempted']} points did not build:"
        " designs that do not fit are data points)"
    ]
    if "cells" in it:
        cells = it["cells"]
        errors = [abs(math.log(r)) for r in cells.values()]
        out = sorted(name for name, r in cells.items() if not 0.5 <= r <= 2.0)
        lines.append(f"  paper_err_p50       {statistics.median(errors):.4f} |ln ratio|"
                     f"  (median |ln(model/paper)| over {len(cells)} paired cells)")
        lines.append(f"  paper_cells_out_2x  {len(out)} count  (of {len(cells)}: {', '.join(out)})")
        lines.append("  model/paper per cell (* = outside 2x):")
        for name, r in cells.items():
            lines.append(f"    {name:<28} {r:8.4f}{' *' if name in out else ''}")
    if "winners" in it:
        regrets = [
            1 - w["bandwidth_gbs"] / pinned["search_optima"][w["key"]]["bandwidth_gbs"]
            for w in it["winners"]
        ]
        lines.append(f"  search_evals        {sum(w['spent'] for w in it['winners'])} count"
                     f"  (measured evaluations over {len(it['winners'])} searches)")
        lines.append(f"  search_regret       {max(regrets):.6f} ratio"
                     f"  (worst 1 - search best / exhaustive best of {len(regrets)})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "pinned.json").read_text())

    run_start = time.monotonic()
    deadline = run_start + DEADLINE_S
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []

    def sample_setup() -> None:
        setups.append(spawn(args.workload, args.seed, setup_only=True,
                            deadline=deadline)["setup_s"])

    try:
        # set-up is an end-to-end metric, so a traced run does not sample it
        for _ in range(0 if args.trace else MIN_SETUP_SAMPLES // 2):
            sample_setup()
        start = time.monotonic()
        # whole iterations (or untraced+traced pairs), as many as fit in
        # --seconds at the pace so far; the first always runs
        rounds: list[float] = []
        while not rounds or (time.monotonic() - start
                             + statistics.median(rounds) <= args.seconds):
            began = time.monotonic()
            order = (False, True) if len(rounds) % 2 == 0 else (True, False)
            for trace in order if args.trace else (False,):
                it = spawn(args.workload, args.seed, trace=trace, deadline=deadline)
                (traced if trace else untraced).append(it)
            rounds.append(time.monotonic() - began)
        iterations = untraced + traced
        setups += [it["setup_s"] for it in iterations]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            sample_setup()
    except WorkerError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - run_start

    problems = [
        f"iteration {i}: {p}"
        for i, it in enumerate(iterations)
        for p in check(args.workload, it, pinned)
    ]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["unexpected"] for it in iterations)
    mode = "traced" if args.trace else "untraced"
    print(f"e2ebench {args.workload}: seed {args.seed} {SEED_NOTES[args.workload]}; "
          f"{len(untraced)} untraced + {len(traced)} traced iteration(s), each in a "
          f"fresh interpreter, {elapsed:.1f} s ({mode} run)")
    if problems:
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    print(f"  check: {len(iterations)} iteration(s) match digest "
          f"{pinned['digests'][args.workload][:16]}, every successful point validated")

    metrics: dict[str, dict[str, object]] = {}
    if args.trace:
        medians = {
            name: statistics.median(it["layers"][name] for it in traced)
            for name in traced[0]["layers"]
        }
        untraced_wall = statistics.median(it["wall_s"] for it in untraced)
        traced_wall = statistics.median(it["wall_s"] for it in traced)
        medians["trace.untraced_wall_s"] = untraced_wall
        medians["trace.traced_wall_s"] = traced_wall
        medians["trace.overhead_s"] = traced_wall - untraced_wall
        medians["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
        self_total = sum(v for k, v in medians.items()
                         if k.endswith("self_s") and not k.startswith("trace."))
        print(f"  per-layer medians of {len(traced)} traced iteration(s):")
        for name, value in medians.items():
            share = (f"  {100 * value / self_total:5.1f}% of self time"
                     if name.endswith("self_s") and self_total else "")
            print(f"    {name:<28} {value:.6g} {layer_unit(name)}{share}")
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    else:
        for name, (value, how) in end_to_end(untraced, setups).items():
            unit = END_TO_END_UNITS[name]
            print(f"  {name:<19} {value:.6g} {unit}  ({how})")
            metrics[name] = {"value": value, "unit": unit}
    for line in outcome_lines(args.workload, untraced[0], pinned):
        print(line)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
