#!/usr/bin/env python
"""Chaos harness: kill real campaigns mid-sweep, prove resume loses nothing.

The crash-consistency contract (docs/SCHEDULING.md) is that a campaign
killed at *any* instant — between points, mid-journal-append, or while
draining after SIGTERM — resumes from its journal to a final ResultSet
whose ordered fingerprints are identical to an uninterrupted run's.
Unit tests exercise the journal in-process; this harness is the
end-to-end proof against a **real operating-system process**:

1. run the campaign uninterrupted, in-process, and keep its ordered
   result fingerprints (the baseline);
2. launch ``python -m repro.cli sweep --journal J --durable-journal``
   as a subprocess and interrupt it mid-sweep:

   - ``--mode kill``: SIGKILL (``kill -9``) once the journal holds
     ``--kill-at`` records — no handler runs, whatever hit the disk is
     all that survives;
   - ``--mode term``: SIGTERM at the same instant — the scheduler
     drains in-flight points, checkpoints the journal, and exits with
     code 130;
   - ``--mode torn``: no signal at all — a searched-seed
     ``journal_write`` fault tears a journal append partway through a
     record and hard-exits (exit code 5), the worst-case crash a
     power loss can produce;

3. ``fsck`` the survivor journal (both in-process and through the
   ``mp-stream journal fsck`` CLI) — a crash may leave a torn tail,
   but never a corrupt or stale record;
4. resume the campaign in-process from the survivor journal and
   compare its ordered fingerprints against the baseline.

The child runs in its own session, so everything it starts (the
process backend's workers) shares its process group. A scenario also
fails when any live process of that group outlives the child by
``SURVIVOR_GRACE_S`` seconds; whatever is left is then SIGKILLed, so
even a failing run leaks nothing.

Used by ``tests/test_chaos.py`` (as a library) and the CI chaos smoke
job (as a CLI). Run from the repository root::

    python tools/chaos.py --jobs 2 --mode kill
    python tools/chaos.py --mode torn
    python tools/chaos.py --jobs 2 --mode term \
        --faults worker_crash=0.4,seed=11
    python tools/chaos.py --jobs 2 --mode search

``--jobs 1`` (the default) runs the campaign in-process; ``--jobs N``
runs it on N worker processes, exactly as ``mp-stream`` picks.

``--mode search`` kills ``mp-stream autotune`` (the multi-fidelity
search) mid-rung instead and compares rung fingerprints.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import (  # noqa: E402
    ParameterSweep,
    TORN_WRITE_EXIT_CODE,
    SweepJournal,
    explore,
    fsck_journal,
    point_fingerprint,
)
from repro.core.history import JournalFsck  # noqa: E402
from repro.core.params import LoopManagement, TuningParameters  # noqa: E402
from repro.core.runner import BenchmarkRunner  # noqa: E402
from repro.faults import FaultPlan, FaultSpec  # noqa: E402
from repro.units import parse_size  # noqa: E402

__all__ = [
    "ChaosOutcome",
    "DEFAULT_AXES",
    "child_argv",
    "find_torn_seed",
    "journal_records",
    "main",
    "run_chaos",
    "run_search_chaos",
    "run_uninterrupted",
    "search_child_argv",
    "strip_journal_faults",
]

#: grid the chaos campaigns sweep: 12 cpu points, ~0.1 s each — slow
#: enough that a poller reliably interrupts mid-sweep, fast enough for CI
DEFAULT_AXES: dict[str, list[object]] = {
    "loop": [LoopManagement.FLAT, LoopManagement.NESTED],
    "vector_width": [1, 2, 4],
    "unroll": [1, 2],
}
DEFAULT_TARGET = "cpu"
DEFAULT_SIZE = "8MiB"
DEFAULT_NTIMES = 3
DEFAULT_KILL_AT = 3

#: what the scheduler's graceful SIGTERM/SIGINT path exits with
EXIT_INTERRUPTED = 130

#: fault sites that target the journal itself — stripped from baseline
#: and resume runs, which must see only the campaign-level faults
_JOURNAL_SITES = ("journal_write", "journal_fsync", "disk_full")

_POLL_S = 0.015

#: how long the child's process group may outlive the child
SURVIVOR_GRACE_S = 10.0


def strip_journal_faults(faults: FaultPlan | None) -> FaultPlan | None:
    """The same plan without journal-site faults (None when empty).

    Baseline and resume runs share the crashed run's *engine* faults
    (a ``worker_crash`` failure is a data point and must reproduce)
    but not its journal faults: a torn-write draw is keyed on the
    journal sequence number, and replaying it against the resumed
    journal would tear the same append forever.
    """
    if faults is None:
        return None
    rates = tuple(
        (site, rate)
        for site, rate in faults.spec.rates
        if site not in _JOURNAL_SITES
    )
    if not rates:
        return None
    return FaultPlan(
        FaultSpec(rates=rates, seed=faults.spec.seed, stall_s=faults.spec.stall_s)
    )


def _build_sweep(size: str, axes: dict) -> ParameterSweep:
    base = TuningParameters(array_bytes=parse_size(size))
    return ParameterSweep(base=base, axes=axes)


def run_uninterrupted(
    *,
    target: str = DEFAULT_TARGET,
    size: str = DEFAULT_SIZE,
    ntimes: int = DEFAULT_NTIMES,
    axes: dict | None = None,
    faults: FaultPlan | None = None,
) -> list[str]:
    """Ordered result fingerprints of the never-interrupted campaign.

    Serial and in-process: fingerprints are backend-independent, so one
    baseline serves every chaos scenario over the same grid and faults.
    """
    runner = BenchmarkRunner(
        target, ntimes=ntimes, faults=strip_journal_faults(faults)
    )
    results = explore(runner, _build_sweep(size, axes or DEFAULT_AXES))
    return [r.fingerprint() for r in results]


def child_argv(
    journal: str | Path,
    *,
    target: str = DEFAULT_TARGET,
    size: str = DEFAULT_SIZE,
    ntimes: int = DEFAULT_NTIMES,
    axes: dict | None = None,
    jobs: int = 1,
    faults_spec: str | None = None,
) -> list[str]:
    """The real command line the chaos subprocess runs."""
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "sweep",
        "--target",
        target,
        "--size",
        size,
        "--ntimes",
        str(ntimes),
        "--journal",
        str(journal),
        "--durable-journal",
        "--jobs",
        str(jobs),
    ]
    for name, values in (axes or DEFAULT_AXES).items():
        argv += ["--axis", f"{name}={','.join(str(v) for v in values)}"]
    if faults_spec:
        argv += ["--inject-faults", faults_spec]
    return argv


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def journal_records(path: str | Path) -> int:
    """Complete (newline-terminated) records currently in the live file."""
    try:
        return Path(path).read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def find_torn_seed(
    *,
    target: str = DEFAULT_TARGET,
    axes: dict | None = None,
    tear_at: int = 1,
    rate: float = 0.5,
    limit: int = 20000,
) -> int:
    """A fault seed whose first ``journal_write`` tear lands at ``tear_at``.

    Journal fault draws are keyed on the journal *sequence number*, and
    a serial campaign appends in grid order, so the draw schedule is
    fully predictable: search seeds until the tear fires exactly at
    record ``tear_at`` (>= 1, so the crashed journal is non-empty) and
    at no earlier record.
    """
    if tear_at < 1:
        raise ValueError(f"tear_at must be >= 1, got {tear_at}")
    engine_target = BenchmarkRunner(target, ntimes=1).engine.target
    points = list(_build_sweep(DEFAULT_SIZE, axes or DEFAULT_AXES).points())
    if tear_at >= len(points):
        raise ValueError(f"tear_at {tear_at} >= grid size {len(points)}")
    keys = [point_fingerprint(engine_target, p) for p in points]
    for seed in range(limit):
        plan = FaultPlan(FaultSpec(rates=(("journal_write", rate),), seed=seed))
        draws = [
            plan.should_fire("journal_write", keys[i], i)
            for i in range(tear_at + 1)
        ]
        if draws[tear_at] and not any(draws[:tear_at]):
            return seed
    raise RuntimeError(
        f"no journal_write seed under {limit} tears exactly at record {tear_at}"
    )


@dataclass
class ChaosOutcome:
    """Everything one chaos scenario observed, plus the verdict."""

    mode: str
    jobs: int
    interrupted: bool
    returncode: int | None
    records_at_interrupt: int
    restored: int
    fsck: JournalFsck | None
    baseline: list[str]
    resumed: list[str]
    #: violated expectations; empty means the scenario passed
    notes: list[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.baseline == self.resumed

    @property
    def ok(self) -> bool:
        return not self.notes

    def describe(self) -> str:
        lines = [
            f"chaos {self.mode} on {self.jobs} job(s):",
            f"  child: returncode={self.returncode} "
            f"interrupted={self.interrupted} "
            f"journal records at interrupt={self.records_at_interrupt}",
        ]
        if self.fsck is not None:
            lines.append(
                f"  fsck: {self.fsck.valid} valid, "
                f"{self.fsck.torn_tail} torn, {self.fsck.corrupt} corrupt, "
                f"{self.fsck.stale} stale"
            )
        lines.append(
            f"  resume: {self.restored} restored, "
            f"{len(self.resumed)}/{len(self.baseline)} fingerprints, "
            f"identical={self.identical}"
        )
        for note in self.notes:
            lines.append(f"  FAIL: {note}")
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _group_members(pgid: int) -> list[int]:
    """Pids of the live (non-zombie) processes in process group ``pgid``.

    Reads ``/proc``; where there is none, reports nothing.
    """
    proc_root = Path("/proc")
    if not proc_root.is_dir():  # pragma: no cover - non-Linux hosts
        return []
    members = []
    for entry in proc_root.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited while we looked
            continue
        # after the parenthesised command name: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat[stat.rindex(")") + 2 :].split()[:3]
        if state != "Z" and int(pgrp) == pgid:
            members.append(int(entry.name))
    return sorted(members)


def _reap_group(pgid: int, grace: float = SURVIVOR_GRACE_S) -> list[int]:
    """Give the exited child's process group ``grace`` seconds to empty,
    then SIGKILL it. Returns the pids still alive when the grace ran out."""
    deadline = time.monotonic() + grace
    survivors = _group_members(pgid)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.1)
        survivors = _group_members(pgid)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    return survivors


def _run_child(
    argv: list[str],
    journal: Path,
    *,
    mode: str,
    kill_at: int,
    timeout: float,
) -> tuple[int | None, bool, int, list[int]]:
    """Run the subprocess, interrupting per ``mode``.

    Returns ``(returncode, interrupted, records_when_interrupted,
    survivors)``, where ``survivors`` lists the processes of the
    child's group that outlived it by :data:`SURVIVOR_GRACE_S`.
    """
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    sig = {"kill": signal.SIGKILL, "term": signal.SIGTERM}.get(mode)
    fired = False
    records_at = 0
    deadline = time.monotonic() + timeout
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            if sig is not None and not fired:
                records = journal_records(journal)
                if records >= kill_at:
                    records_at = records
                    proc.send_signal(sig)
                    fired = True
            time.sleep(_POLL_S)
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
            return proc.returncode, fired, records_at, _reap_group(proc.pid)
    finally:
        if proc.poll() is None:  # pragma: no cover - emergency cleanup
            proc.kill()
    if mode == "torn":
        # the child interrupts itself: death by injected torn write
        fired = proc.returncode == TORN_WRITE_EXIT_CODE
        records_at = journal_records(journal)
    return proc.returncode, fired, records_at, _reap_group(proc.pid)


def _survivor_note(survivors: list[int]) -> list[str]:
    if not survivors:
        return []
    return [
        f"{len(survivors)} process(es) of the child's group outlived it "
        f"by {SURVIVOR_GRACE_S:g} s (pids {survivors}; now SIGKILLed)"
    ]


def run_chaos(
    *,
    mode: str = "kill",
    jobs: int = 1,
    target: str = DEFAULT_TARGET,
    size: str = DEFAULT_SIZE,
    ntimes: int = DEFAULT_NTIMES,
    axes: dict | None = None,
    faults_spec: str | None = None,
    kill_at: int = DEFAULT_KILL_AT,
    timeout: float = 120.0,
    workdir: str | Path | None = None,
    baseline: list[str] | None = None,
) -> ChaosOutcome:
    """One full chaos scenario: baseline, interrupted child, fsck, resume.

    ``baseline`` short-circuits the uninterrupted run when the caller
    already has fingerprints for this grid + faults (tests share one).
    """
    if mode not in ("kill", "term", "torn"):
        raise ValueError(f"unknown chaos mode {mode!r}")
    axes = axes or DEFAULT_AXES
    import tempfile

    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="mp-stream-chaos-")
        workdir = tmp.name
    journal = Path(workdir) / f"chaos-{mode}-jobs{jobs}.jsonl"

    try:
        faults = FaultPlan.parse(faults_spec) if faults_spec else None
        if mode == "torn":
            if faults is not None:
                raise ValueError("torn mode chooses its own fault spec")
            seed = find_torn_seed(target=target, axes=axes, tear_at=kill_at - 1)
            faults_spec = f"journal_write=0.5,seed={seed}"
            faults = FaultPlan.parse(faults_spec)
        if baseline is None:
            baseline = run_uninterrupted(
                target=target, size=size, ntimes=ntimes, axes=axes, faults=faults
            )

        argv = child_argv(
            journal,
            target=target,
            size=size,
            ntimes=ntimes,
            axes=axes,
            jobs=jobs,
            faults_spec=faults_spec,
        )
        returncode, interrupted, records_at, survivors = _run_child(
            argv, journal, mode=mode, kill_at=kill_at, timeout=timeout
        )

        notes = _survivor_note(survivors)
        expected = {
            "kill": -signal.SIGKILL,
            "term": EXIT_INTERRUPTED,
            "torn": TORN_WRITE_EXIT_CODE,
        }[mode]
        if not interrupted:
            notes.append(
                f"child was never interrupted (returncode {returncode}); "
                "the grid finished before the chaos landed — widen it"
            )
        elif returncode != expected:
            notes.append(
                f"child exited {returncode}, expected {expected} for {mode}"
            )

        report = None
        if journal.exists():
            # the CLI must agree with the library view of the damage
            cli = subprocess.run(
                [sys.executable, "-m", "repro.cli", "journal", "fsck",
                 str(journal)],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=60,
            )
            if cli.returncode not in (0, 1):
                notes.append(
                    f"journal fsck CLI exited {cli.returncode}: {cli.stderr}"
                )
            report = fsck_journal(journal)
            if report.corrupt or report.stale:
                notes.append(
                    f"crash left {report.corrupt} corrupt / {report.stale} "
                    "stale record(s); only a torn tail is acceptable"
                )
        else:
            notes.append(f"child never created the journal {journal}")

        resumed: list[str] = []
        restored = 0
        if journal.exists():
            resume_journal = SweepJournal(journal)
            runner = BenchmarkRunner(
                target, ntimes=ntimes, faults=strip_journal_faults(faults)
            )
            results = explore(
                runner,
                _build_sweep(size, axes),
                jobs=jobs,
                journal=resume_journal,
                resume=True,
            )
            resumed = [r.fingerprint() for r in results]
            restored = resume_journal.reused
            if restored == 0:
                notes.append("resume restored nothing from the journal")
            if resumed != baseline:
                notes.append(
                    "resumed fingerprints differ from the uninterrupted run"
                )

        return ChaosOutcome(
            mode=mode,
            jobs=jobs,
            interrupted=interrupted,
            returncode=returncode,
            records_at_interrupt=records_at,
            restored=restored,
            fsck=report,
            baseline=baseline,
            resumed=resumed,
            notes=notes,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()


def search_child_argv(
    journal: str | Path,
    *,
    target: str = DEFAULT_TARGET,
    size: str = DEFAULT_SIZE,
    ntimes: int = DEFAULT_NTIMES,
    axes: dict | None = None,
    jobs: int = 2,
    budget: int = 8,
) -> list[str]:
    """The ``mp-stream autotune`` command line the chaos subprocess runs."""
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "autotune",
        "--target",
        target,
        "--size",
        size,
        "--ntimes",
        str(ntimes),
        "--budget",
        str(budget),
        "--journal",
        str(journal),
        "--durable-journal",
        "--jobs",
        str(jobs),
    ]
    for name, values in (axes or DEFAULT_AXES).items():
        argv += ["--axis", f"{name}={','.join(str(v) for v in values)}"]
    return argv


def run_search_chaos(
    *,
    jobs: int = 2,
    target: str = DEFAULT_TARGET,
    size: str = DEFAULT_SIZE,
    ntimes: int = DEFAULT_NTIMES,
    axes: dict | None = None,
    budget: int = 8,
    kill_at: int = DEFAULT_KILL_AT,
    timeout: float = 120.0,
    workdir: str | Path | None = None,
) -> ChaosOutcome:
    """Kill a multi-fidelity search mid-rung, then resume from the journal.

    The searcher's invariant: restored evaluations count against the
    budget, so the resumed search walks the identical rung-by-rung
    trajectory — pinned here as the list of rung fingerprints plus the
    overall trajectory hash and winning point.
    """
    from repro.core import multifidelity_search

    axes = axes or DEFAULT_AXES

    def run_search(journal: SweepJournal | None) -> list[str]:
        seed = TuningParameters(array_bytes=parse_size(size))
        out = multifidelity_search(
            BenchmarkRunner(target, ntimes=ntimes),
            axes,
            seed=seed,
            budget=budget,
            jobs=jobs,
            journal=journal,
            resume=journal is not None,
        )
        return out.rung_fingerprints() + [
            out.trajectory_fingerprint(),
            out.best.fingerprint(),
        ]

    import tempfile

    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="mp-stream-chaos-")
        workdir = tmp.name
    journal = Path(workdir) / f"chaos-search-jobs{jobs}.jsonl"

    try:
        baseline = run_search(None)
        argv = search_child_argv(
            journal,
            target=target,
            size=size,
            ntimes=ntimes,
            axes=axes,
            jobs=jobs,
            budget=budget,
        )
        returncode, interrupted, records_at, survivors = _run_child(
            argv, journal, mode="kill", kill_at=kill_at, timeout=timeout
        )

        notes = _survivor_note(survivors)
        if not interrupted:
            notes.append(
                f"search was never interrupted (returncode {returncode})"
            )
        elif returncode != -signal.SIGKILL:
            notes.append(f"search exited {returncode}, expected -SIGKILL")

        report = None
        resumed: list[str] = []
        restored = 0
        if journal.exists():
            report = fsck_journal(journal)
            if report.corrupt or report.stale:
                notes.append(
                    f"crash left {report.corrupt} corrupt / {report.stale} "
                    "stale record(s)"
                )
            resume_journal = SweepJournal(journal)
            resumed = run_search(resume_journal)
            restored = resume_journal.reused
            if restored == 0:
                notes.append("resume restored nothing from the journal")
            if resumed != baseline:
                notes.append(
                    "resumed search trajectory differs from the "
                    "uninterrupted run"
                )
        else:
            notes.append(f"search never created the journal {journal}")

        return ChaosOutcome(
            mode="search-kill",
            jobs=jobs,
            interrupted=interrupted,
            returncode=returncode,
            records_at_interrupt=records_at,
            restored=restored,
            fsck=report,
            baseline=baseline,
            resumed=resumed,
            notes=notes,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="kill a real campaign mid-sweep and verify lossless resume"
    )
    parser.add_argument("--mode",
                        choices=("kill", "term", "torn", "search"),
                        default="kill")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run the campaign on N worker processes "
                        "(default: 1, in-process)")
    parser.add_argument("--target", default=DEFAULT_TARGET)
    parser.add_argument("--size", default=DEFAULT_SIZE)
    parser.add_argument("--ntimes", type=int, default=DEFAULT_NTIMES)
    parser.add_argument("--kill-at", type=int, default=DEFAULT_KILL_AT,
                        metavar="N", help="interrupt once the journal holds "
                        f"N records (default: {DEFAULT_KILL_AT})")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="engine fault spec shared by all three runs, "
                        "e.g. worker_crash=0.4,seed=11")
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    if args.mode == "search":
        outcome = run_search_chaos(
            jobs=args.jobs,
            target=args.target,
            size=args.size,
            ntimes=args.ntimes,
            kill_at=args.kill_at,
            timeout=args.timeout,
        )
    else:
        outcome = run_chaos(
            mode=args.mode,
            jobs=args.jobs,
            target=args.target,
            size=args.size,
            ntimes=args.ntimes,
            faults_spec=args.faults,
            kill_at=args.kill_at,
            timeout=args.timeout,
        )
    print(outcome.describe())
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
