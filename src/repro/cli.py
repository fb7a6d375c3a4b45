"""The ``mp-stream`` command-line interface.

Mirrors the original benchmark's build-script flags::

    mp-stream devices
    mp-stream run --target aocl --kernel copy --size 4MiB --vec 8
    mp-stream sweep --target sdaccel --axis vector_width=1,2,4,8,16
    mp-stream figure fig1b
    mp-stream host-stream --size 64MiB
    mp-stream source --kernel triad --loop nested --vec 4
    mp-stream verify --grid small
"""

from __future__ import annotations

import argparse
import signal
import sys
from contextlib import contextmanager
from typing import Sequence

from . import figures, obs
from .core import (
    AccessPattern,
    BenchmarkRunner,
    CampaignScheduler,
    DataType,
    FaultPlan,
    KernelName,
    LoopManagement,
    ParameterSweep,
    StreamLocus,
    SweepJournal,
    TuningParameters,
    Watchdog,
    ascii_chart,
    compact_journal,
    explore,
    failure_table,
    fsck_journal,
    generate,
    metrics_table,
    multifidelity_search,
    results_table,
    series_table,
    stream_table,
)
from .core.search import DEFAULT_BUDGET
from .errors import ReproError
from .faults import FAULT_SITES
from .ocl.platform import get_platforms
from .units import format_bandwidth, format_size, parse_size

__all__ = ["main", "build_parser"]

#: exit status of a campaign drained by SIGTERM/SIGINT (the shell
#: convention for "terminated by signal", distinguishing a graceful
#: drain from both success (0) and usage errors (2))
EXIT_INTERRUPTED = 130

_FIGURES = {
    "fig1a": lambda: figures.fig1a_array_size(),
    "fig1b": lambda: figures.fig1b_vector_width(),
    "fig2": lambda: figures.fig2_contiguity(),
    "fig3": lambda: figures.fig3_loop_management(),
    "fig4a": lambda: figures.fig4a_all_kernels(),
    "fig4b": lambda: figures.fig4b_aocl_optimizations(),
    "pcie": lambda: figures.pcie_streams(),
    "unroll": lambda: figures.ablation_unroll(),
    "dtype": lambda: figures.ablation_dtype(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mp-stream",
        description="MP-STREAM: memory-performance design-space exploration "
        "on simulated heterogeneous targets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the simulated platforms and devices")

    run = sub.add_parser("run", help="run the benchmark at one parameter point")
    _add_point_args(run)
    _add_cache_arg(run)
    _add_obs_args(run)
    run.add_argument("--all-kernels", action="store_true", help="run all four kernels")
    run.add_argument("--ntimes", type=int, default=5)
    run.add_argument(
        "--verify",
        action="store_true",
        help="differentially verify the output after the timed launches "
        "(mismatches fail the point as 'verify_mismatch')",
    )
    run.add_argument("--csv", metavar="PATH", help="append results to a CSV file")
    run.add_argument(
        "--save",
        metavar="PATH",
        help="append results to a result file (journal records, readable "
        "by 'compare' and 'journal fsck')",
    )

    sweep = sub.add_parser("sweep", help="cartesian design-space sweep")
    _add_point_args(sweep)
    _add_cache_arg(sweep)
    _add_obs_args(sweep)
    sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="sweep axis, e.g. vector_width=1,2,4,8,16 (repeatable)",
    )
    sweep.add_argument("--ntimes", type=int, default=3)
    sweep.add_argument(
        "--verify",
        action="store_true",
        help="differentially verify every point's output after its timed "
        "launches (mismatches become 'verify_mismatch' data points)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run sweep points on N crash-surviving worker processes; "
        "1 runs them in-process (results stay in grid order)",
    )
    sweep.add_argument(
        "--max-worker-restarts",
        type=int,
        default=2,
        metavar="N",
        help="requeue a point whose worker crashed up to N times before "
        "recording it as a 'worker_crash' failure (default: 2)",
    )
    sweep.add_argument("--csv", metavar="PATH")
    sweep.add_argument(
        "--journal",
        metavar="PATH",
        help="stream each completed point to a resumable JSONL journal",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip points already completed in --journal (restored, not "
        "re-run); fails if the journal is missing or empty — resuming "
        "nothing usually means a typo'd path",
    )
    sweep.add_argument(
        "--resume-or-start",
        action="store_true",
        help="like --resume, but fall back to a fresh sweep when the "
        "journal is missing or empty (for idempotent wrappers)",
    )
    sweep.add_argument(
        "--durable-journal",
        action="store_true",
        help="fsync the journal (and, once, its directory) after every "
        "point, so it survives hard worker/host kills and power loss "
        "(slower; implies --journal is trustworthy after a crash)",
    )
    sweep.add_argument(
        "--rotate-journal",
        type=int,
        default=None,
        metavar="N",
        help="seal the journal into a .seg-NNNNN segment every N records "
        "(checkpoint with 'mp-stream journal compact')",
    )
    sweep.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help="deterministic fault injection, e.g. 'build=0.3,launch=0.2,seed=7' "
        f"(sites: {', '.join(FAULT_SITES)})",
    )
    sweep.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog: cancel a point after this much wall time "
        "(recorded as a 'timeout' failure)",
    )
    sweep.add_argument(
        "--virtual-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog: cancel a point whose modelled device time exceeds this",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="max retries per point for transient failures (default: 2)",
    )

    fig = sub.add_parser("figure", help="reproduce a paper figure")
    fig.add_argument("name", choices=sorted(_FIGURES) + ["targets"])
    fig.add_argument("--chart", action="store_true", help="also draw an ASCII chart")
    fig.add_argument("--csv", metavar="PATH", help="write the series as CSV")

    host = sub.add_parser("host-stream", help="run real numpy STREAM on this host")
    host.add_argument("--size", default="64MiB")
    host.add_argument("--ntimes", type=int, default=10)

    source = sub.add_parser("source", help="print the generated kernel source")
    _add_point_args(source)

    tune = sub.add_parser(
        "autotune",
        help="model-guided multi-fidelity search instead of a full grid "
        "(docs/AUTOTUNE.md)",
    )
    _add_point_args(tune)
    _add_cache_arg(tune)
    _add_obs_args(tune)
    tune.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="axis to tune over (repeatable; default: loop + vector_width + unroll)",
    )
    tune.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"max measured evaluations (default: {DEFAULT_BUDGET})",
    )
    tune.add_argument("--ntimes", type=int, default=3)
    tune.add_argument(
        "--eta",
        type=int,
        default=2,
        metavar="N",
        help="halving rate: keep ceil(n/N) survivors per rung (default: 2)",
    )
    tune.add_argument(
        "--no-refine",
        action="store_true",
        help="skip local refinement, spend the whole budget on halving",
    )
    tune.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate each rung's candidates on N worker processes "
        "(the trajectory is unchanged)",
    )
    tune.add_argument(
        "--journal",
        metavar="PATH",
        help="stream each evaluation to a resumable JSONL journal",
    )
    tune.add_argument(
        "--resume",
        action="store_true",
        help="restore evaluations already in --journal instead of re-running "
        "them (the trajectory replays identically); fails if the journal "
        "is missing or empty",
    )
    tune.add_argument(
        "--resume-or-start",
        action="store_true",
        help="like --resume, but fall back to a fresh tuning run when the "
        "journal is missing or empty",
    )
    tune.add_argument(
        "--durable-journal",
        action="store_true",
        help="fsync the journal after every evaluation (see sweep "
        "--durable-journal)",
    )

    energy = sub.add_parser(
        "energy", help="energy-efficiency report for one parameter point"
    )
    _add_point_args(energy)
    _add_cache_arg(energy)
    energy.add_argument("--ntimes", type=int, default=3)

    comp = sub.add_parser(
        "compare",
        help="diff two result files or journals (run --save, sweep --journal)",
    )
    comp.add_argument("before", help="result file or journal (baseline)")
    comp.add_argument("after", help="result file or journal (new run)")

    jr = sub.add_parser(
        "journal", help="inspect and maintain campaign journals (WAL v2)"
    )
    jr_sub = jr.add_subparsers(dest="journal_command", required=True)
    jr_fsck = jr_sub.add_parser(
        "fsck",
        help="verify every record of a journal family (CRC framing, "
        "fingerprints, torn tail); read-only, exit 1 when damaged",
    )
    jr_fsck.add_argument("path", help="the journal's live file path")
    jr_compact = jr_sub.add_parser(
        "compact",
        help="checkpoint-compact a journal family into one live file "
        "(dedups superseded records, quarantines damaged ones, unlinks "
        "segments)",
    )
    jr_compact.add_argument("path", help="the journal's live file path")
    jr_compact.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsyncs during compaction (faster, less durable)",
    )

    ob = sub.add_parser(
        "obs",
        help="observability utilities: serve campaign health from a journal",
    )
    ob_sub = ob.add_subparsers(dest="obs_command", required=True)
    ob_serve = ob_sub.add_parser(
        "serve",
        help="watch a campaign from outside its process: derive health "
        "from the on-disk journal (read-only) and expose /metrics, "
        "/health and /campaign over HTTP",
    )
    ob_serve.add_argument(
        "--journal",
        required=True,
        metavar="PATH",
        help="the campaign journal's live file path",
    )
    ob_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: 0 = ephemeral; the bound URL is printed)",
    )
    ob_serve.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: localhost)"
    )
    ob_serve.add_argument(
        "--once",
        action="store_true",
        help="print one /metrics rendering to stdout and exit instead of "
        "serving (for scripts and CI)",
    )

    gs = sub.add_parser(
        "gpustream", help="run the GPU-STREAM baseline (the paper's ref. [3])"
    )
    gs.add_argument("--target", default="gpu")
    gs.add_argument("--size", default="32MiB")
    gs.add_argument("--ntimes", type=int, default=10)
    gs.add_argument("--dot", action="store_true", help="include the DOT kernel")

    sub.add_parser(
        "selfcheck",
        help="fast consistency check: run tiny benchmarks on every target "
        "and verify the paper's qualitative orderings",
    )

    ver = sub.add_parser(
        "verify",
        help="differential verification suite: cross-model conformance, "
        "metamorphic invariants, engine integration and the golden "
        "regression corpus",
    )
    _add_obs_args(ver)
    ver.add_argument(
        "--grid",
        default="small",
        choices=["small", "default"],
        help="how much of the parameter space to cover (default: small)",
    )
    ver.add_argument(
        "--target",
        action="append",
        default=[],
        metavar="NAME",
        help="device targets for the engine-integration leg "
        "(repeatable; default: cpu+gpu for --grid small, all four otherwise)",
    )
    ver.add_argument(
        "--golden",
        metavar="PATH",
        default=None,
        help="golden corpus file (default: tests/golden/corpus.json)",
    )
    ver.add_argument(
        "--update-golden",
        action="store_true",
        help="re-pin the golden corpus to current behaviour instead of "
        "diffing against it",
    )
    ver.add_argument(
        "--skip-golden",
        action="store_true",
        help="skip the golden-corpus pillar (for environments without "
        "the checked-in corpus)",
    )
    ver.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help="run the engine-integration leg under deterministic fault "
        "injection (e.g. 'verify=1.0,seed=7'); injected verify-site "
        "miscompiles must surface as 'verify_mismatch' data points",
    )

    bench = sub.add_parser(
        "bench",
        help="fast-lane microbenchmarks: time the vectorized hot paths "
        "against their scalar oracles, emit BENCH_PERF.json and gate "
        "against a previous report",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads and fewer repeats (CI smoke mode)",
    )
    bench.add_argument(
        "--only",
        metavar="NAME[,NAME...]",
        default=None,
        help="run only these benchmarks (comma-separated)",
    )
    bench.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_PERF.json",
        help="where to write the report (default: BENCH_PERF.json)",
    )
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="report to compare against (default: the previous --out "
        "file, when one exists)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="tolerated regression in percent (default: 25)",
    )
    bench.add_argument(
        "--no-compare",
        action="store_true",
        help="write the report without gating against any baseline",
    )
    return parser


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--target", default="cpu", help="aocl|sdaccel|cpu|gpu")
    parser.add_argument(
        "--kernel", default="copy", choices=[k.value for k in KernelName]
    )
    parser.add_argument("--size", default="4MiB", help="bytes per array, e.g. 4MiB")
    parser.add_argument(
        "--dtype", default="int", choices=[d.cname for d in DataType]
    )
    parser.add_argument("--vec", type=int, default=1, help="vector width")
    parser.add_argument(
        "--pattern",
        default="contiguous",
        choices=[p.value for p in AccessPattern],
    )
    parser.add_argument(
        "--loop", default=None, choices=[mode.value for mode in LoopManagement],
        help="loop management (default: the target's optimal mode)",
    )
    parser.add_argument("--unroll", type=int, default=1)
    parser.add_argument("--wg", type=int, default=None, help="reqd_work_group_size")
    parser.add_argument("--simd", type=int, default=1, help="AOCL SIMD work-items")
    parser.add_argument("--cu", type=int, default=1, help="AOCL compute units")
    parser.add_argument(
        "--host-streams",
        action="store_true",
        help="measure host<->device (PCIe) streams instead of global memory",
    )


def _add_cache_arg(parser: argparse.ArgumentParser) -> None:
    """For the commands that run points through a benchmark runner."""
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the compile/plan artifact cache (every point pays "
        "the full front-end and device build)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace-event JSON of nested sweep/point/stage/"
        "queue spans (open in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a metrics-registry snapshot JSON (cache hits, stage "
        "seconds, retries, memsim byte counters) and print the table",
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        help="append structured JSONL events (per-point records carry the "
        "journal's point fingerprint)",
    )
    parser.add_argument(
        "--serve-obs",
        metavar="PORT",
        type=int,
        default=None,
        help="serve live /metrics (Prometheus text), /health and /campaign "
        "on localhost:PORT for the duration of the command (0 = pick an "
        "ephemeral port; implies an in-memory metrics registry)",
    )
    level = parser.add_mutually_exclusive_group()
    level.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more per-point output (stage wall times, attempt counts)",
    )
    level.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress per-point output; summaries only",
    )


def _verbosity(args: argparse.Namespace) -> int:
    if getattr(args, "quiet", False):
        return 0
    return 1 + getattr(args, "verbose", 0)


@contextmanager
def _obs_session(args: argparse.Namespace):
    """The observability sinks this invocation asked for, as a context."""
    with obs.session(
        trace=getattr(args, "trace", None),
        metrics=getattr(args, "metrics", None),
        log_json=getattr(args, "log_json", None),
        serve=getattr(args, "serve_obs", None),
    ) as session:
        if session.server is not None:
            # stderr, so scripts scraping stdout tables are unaffected
            print(f"serving observability at {session.server.url}", file=sys.stderr)
        yield session


def _report_obs(session: obs.ObsSession) -> None:
    """Print the metrics table and the artifact paths a session wrote."""
    if session.registry is not None:
        print()
        print(metrics_table(session.registry.snapshot()))
    for label, path in session.written:
        print(f"wrote {label} -> {path}")


def _params_from(args: argparse.Namespace) -> TuningParameters:
    from .core import optimal_loop_for

    loop = (
        LoopManagement(args.loop)
        if args.loop is not None
        else optimal_loop_for(args.target)
    )
    return TuningParameters(
        kernel=KernelName(args.kernel),
        array_bytes=parse_size(args.size),
        dtype=next(d for d in DataType if d.cname == args.dtype),
        vector_width=args.vec,
        pattern=AccessPattern(args.pattern),
        loop=loop,
        unroll=args.unroll,
        reqd_work_group_size=args.wg,
        num_simd_work_items=args.simd,
        num_compute_units=args.cu,
        locus=StreamLocus.HOST if args.host_streams else StreamLocus.DEVICE,
    )


def _parse_axis(text: str) -> tuple[str, list[object]]:
    if "=" not in text:
        raise ReproError(f"bad --axis {text!r}: expected FIELD=V1,V2,...")
    field, _, raw = text.partition("=")
    field = field.strip()
    if not raw.strip():
        raise ReproError(f"bad --axis {text!r}: axis {field!r} has no values")
    values: list[object] = []
    converters = {
        "kernel": KernelName,
        "pattern": AccessPattern,
        "loop": LoopManagement,
        "dtype": lambda v: next(d for d in DataType if d.cname == v),
        "array_bytes": parse_size,
        "locus": StreamLocus,
    }
    conv = converters.get(field, int)
    for token in raw.split(","):
        token = token.strip()
        if not token:
            raise ReproError(
                f"bad --axis {text!r}: empty value in {raw!r}"
            )
        try:
            values.append(conv(token))  # type: ignore[operator]
        except ReproError:
            raise
        except (ValueError, KeyError, StopIteration):
            raise ReproError(
                f"bad --axis {text!r}: cannot parse {token!r} as a "
                f"{field!r} value"
            ) from None
    return field, values


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_devices(_: argparse.Namespace) -> int:
    for platform in get_platforms():
        print(f"{platform.name}  (vendor: {platform.vendor})")
        for device in platform.devices:
            info = device.info()
            print(
                f"  [{device.short_name:8s}] {info['name']}\n"
                f"             type={info['type']}  "
                f"CUs={info['max_compute_units']}  "
                f"peak={info['peak_global_bandwidth_gbs']} GB/s  "
                f"mem={format_size(int(info['global_mem_size']))}"
            )
    return 0


def _make_runner(args: argparse.Namespace, ntimes: int) -> BenchmarkRunner:
    faults = None
    if getattr(args, "inject_faults", None):
        faults = FaultPlan.parse(args.inject_faults)
    watchdog = None
    wall = getattr(args, "point_timeout", None)
    virtual = getattr(args, "virtual_timeout", None)
    if wall is not None or virtual is not None:
        watchdog = Watchdog(wall_s=wall, virtual_s=virtual)
    return BenchmarkRunner(
        args.target,
        ntimes=ntimes,
        verify=getattr(args, "verify", False),
        cache=not args.no_cache,
        faults=faults,
        watchdog=watchdog,
        retries=getattr(args, "retries", 2),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    params = _params_from(args)
    runner = _make_runner(args, args.ntimes)
    with _obs_session(args) as session:
        if args.all_kernels:
            results = runner.run_all_kernels(params)
            print(stream_table(results))
            failed = any(not r.ok for r in results)
        else:
            result = runner.run(params)
            print(result.summary())
            failed = not result.ok
    _report_obs(session)
    if args.csv:
        from .core import ResultSet

        rs = ResultSet(results if args.all_kernels else [result])
        rs.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.save:
        from .core import save_results

        n = save_results(results if args.all_kernels else [result], args.save)
        print(f"appended {n} results to {args.save}")
    return 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _params_from(args)
    axes = dict(_parse_axis(a) for a in args.axis)
    sweep = ParameterSweep(base=base, axes=axes)
    runner = _make_runner(args, args.ntimes)
    journal = (
        SweepJournal(
            args.journal,
            durable=args.durable_journal,
            rotate_records=args.rotate_journal,
        )
        if args.journal
        else None
    )
    with _obs_session(args) as session:
        reporter = obs.SweepProgress(total=len(sweep), verbosity=_verbosity(args))
        # the CLI is a scheduler client like explore(): the
        # scheduler handle is kept so crash/requeue counters can be shown
        scheduler = CampaignScheduler(
            runner,
            jobs=args.jobs,
            journal=journal,
            resume=args.resume,
            resume_or_start=args.resume_or_start,
            progress=reporter,
            max_worker_restarts=args.max_worker_restarts,
            handle_signals=True,
        )
        points = list(sweep.points())
        results = scheduler.run(points, skipped=len(sweep.skipped))
        campaign_status = reporter.finish()
        # inside the session so the warnings also land in --log-json
        _warn_journal_health(journal, scheduler)
    print()
    print(results_table(results))
    best = results.best()
    if best is not None:
        print(
            f"\nbest: {best.params.describe()} -> "
            f"{format_bandwidth(best.bandwidth_gbs * 1e9)}"
        )
    for changes, reason in sweep.skipped:
        print(f"skipped {changes}: {reason}")
    stats = runner.engine.stats_snapshot()
    stage_s = stats["stage_s"]
    print(
        f"\n{len(results)} point(s) on {args.jobs} job(s) "
        f"({scheduler.backend_used} backend), "
        f"{len(sweep.skipped)} invalid point(s) skipped; "
        f"cache: front-end {stats['frontend_hits']} hit"
        f"/{stats['frontend_misses']} miss, "
        f"plans {stats['plan_hits']} hit/{stats['plan_misses']} miss"
    )
    if scheduler.crashes or scheduler.deduped or scheduler.progress_errors:
        print(
            f"scheduler: {scheduler.crashes} worker crash(es), "
            f"{scheduler.requeues} requeued, "
            f"{scheduler.crash_failures} failed on crash, "
            f"{scheduler.deduped} deduped"
        )
    print(
        "stage wall time: "
        + ", ".join(f"{name} {stage_s[name]:.3f}s" for name in sorted(stage_s))
    )
    print(f"campaign: {campaign_status}")
    if stats["retries"]:
        print(f"transient retries: {stats['retries']}")
    if results.failure_kinds():
        print()
        print(failure_table(results))
    if journal is not None:
        print(
            f"journal: {journal.reused} restored, {journal.executed} executed"
            + (f", {journal.discarded} discarded" if journal.discarded else "")
            + f" -> {journal.path}"
        )
    _report_obs(session)
    if args.csv:
        results.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if scheduler.interrupted is not None:
        print(
            f"interrupted by {scheduler.interrupted}: "
            f"{scheduler.cancelled} point(s) cancelled, journal "
            f"checkpointed — rerun with --resume to finish",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return 0


def _warn_journal_health(
    journal: SweepJournal | None, scheduler: CampaignScheduler | None = None
) -> None:
    """Operator-facing warnings for journal data loss/degradation.

    Routed through :func:`repro.obs.warn` (one structured ``warning``
    event plus the stderr line), so the warnings land in ``--log-json``
    too — call this *inside* the obs session block.
    """
    if journal is not None and journal.discarded:
        report = journal.load_report
        breakdown = (
            f" (torn tail: {report.torn_tail}, corrupt: {report.corrupt}, "
            f"stale: {report.stale})"
            if report is not None
            else ""
        )
        obs.warn(
            f"{journal.discarded} journal record(s) dropped on "
            f"load{breakdown}; damaged lines are preserved in "
            f"{journal.path}.quarantine and the affected points re-ran "
            f"— see 'mp-stream journal fsck'",
            kind="journal_records_dropped",
            path=str(journal.path),
            dropped=journal.discarded,
        )
    if scheduler is not None and scheduler.journal_degraded:
        obs.warn(
            f"journal failed mid-sweep and was quarantined "
            f"({scheduler.journal_error}); the campaign finished "
            f"in-memory without durability",
            kind="journal_degraded",
            error=scheduler.journal_error,
        )


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name == "targets":
        rows = figures.targets_table()
        for row in rows:
            print(
                f"{row['target']:8s} {row['device']}\n"
                f"         platform={row['platform']}  "
                f"peak={row['peak_bw_gbs']} GB/s"
            )
        return 0
    series = _FIGURES[args.name]()
    print(series_table(series, x_label="x"))
    if args.chart:
        print()
        print(ascii_chart(series, title=args.name))
    if args.csv:
        import csv

        xs: list[object] = []
        for pts in series.values():
            for x, _ in pts:
                if x not in xs:
                    xs.append(x)
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x"] + list(series))
            lookup = {name: dict(pts) for name, pts in series.items()}
            for x in xs:
                writer.writerow(
                    [x] + [lookup[name].get(x, "") for name in series]
                )
        print(f"wrote {args.csv}")
    return 0


def _cmd_host_stream(args: argparse.Namespace) -> int:
    from .hoststream import classic_report, run_host_stream

    results = run_host_stream(
        array_bytes=parse_size(args.size), ntimes=args.ntimes
    )
    print(classic_report(results))
    return 0


def _cmd_source(args: argparse.Namespace) -> int:
    gen = generate(_params_from(args))
    print(f"// kernel: {gen.kernel_name}")
    print(f"// defines: {gen.defines}")
    print(f"// global_size: {gen.global_size}  local_size: {gen.local_size}")
    print(gen.source)
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    seed = _params_from(args)
    if args.axis:
        axes = dict(_parse_axis(a) for a in args.axis)
    else:
        axes = {
            "loop": list(LoopManagement),
            "vector_width": [1, 2, 4, 8, 16],
            "unroll": [1, 2, 4],
        }
    runner = _make_runner(args, args.ntimes)
    journal = (
        SweepJournal(args.journal, durable=args.durable_journal)
        if args.journal
        else None
    )
    with _obs_session(args) as session:
        out = multifidelity_search(
            runner,
            axes,
            seed=seed,
            budget=args.budget,
            eta=args.eta,
            refine=not args.no_refine,
            jobs=args.jobs,
            journal=journal,
            resume=args.resume,
            resume_or_start=args.resume_or_start,
        )
        # inside the session so the warnings also land in --log-json
        _warn_journal_health(journal)
    _report_obs(session)
    print(
        f"evaluated {out.spent}/{out.pool_size} pool points "
        f"({len(out.rungs)} rungs, trajectory "
        f"{out.trajectory_fingerprint()})"
    )
    for rung in out.rungs:
        print(
            f"  rung {rung.index} [{rung.tier}]: "
            f"{len(rung.candidates)} candidate(s) -> "
            f"{len(rung.survivors)} survivor(s), spent {rung.spent}"
        )
    if journal is not None:
        print(
            f"journal: {journal.reused} restored, {journal.executed} executed"
            f" -> {journal.path}"
        )
    for desc, bw in out.trajectory:
        print(f"  -> {desc}: {bw:.3f} GB/s")
    best = out.best
    print(
        f"\nbest: {best.params.describe()} = "
        f"{format_bandwidth(best.bandwidth_gbs * 1e9)}"
    )
    return 0 if best.ok else 1


def _cmd_journal(args: argparse.Namespace) -> int:
    from pathlib import Path

    path = Path(args.path)
    if args.journal_command == "fsck":
        report = fsck_journal(path)
        print(report.describe())
        if not report.files:
            print(f"error: no journal found at {path}", file=sys.stderr)
            return 2
        return 0 if report.clean else 1
    assert args.journal_command == "compact"
    if not fsck_journal(path).files:
        print(f"error: no journal found at {path}", file=sys.stderr)
        return 2
    kept = compact_journal(path, durable=not args.no_fsync)
    print(f"compacted {path} -> {kept} record(s), single live file")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """``mp-stream obs serve``: journal-watcher exposition server.

    Read-only against the journal family (never truncates or
    quarantines), so it is safe to point at a *live* campaign's journal
    from another terminal — each scrape re-derives
    :class:`~repro.obs.CampaignHealth` from the records on disk.
    """
    assert args.obs_command == "serve"
    from pathlib import Path

    path = Path(args.journal)
    if not fsck_journal(path).files:
        print(f"error: no journal found at {path}", file=sys.stderr)
        return 2

    def health_source() -> obs.CampaignHealth:
        return obs.health_from_journal(path)

    if args.once:
        print(obs.prometheus_text(None, health_source()), end="")
        return 0
    server = obs.ObsServer(
        port=args.port, host=args.host, health_source=health_source
    )
    print(f"serving observability at {server.url} (Ctrl-C to stop)")
    print(f"watching journal {path} (read-only; re-read per scrape)")
    try:
        while True:
            signal.pause()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from .devices.energy import energy_report

    params = _params_from(args)
    result = _make_runner(args, args.ntimes).run(params)
    if not result.ok:
        print(f"error: {result.error}", file=sys.stderr)
        return 1
    print(result.summary())
    report = energy_report(result)
    print(report.summary())
    print(
        f"  static {report.static_j * 1e3:.2f} mJ + "
        f"transfer {report.transfer_j * 1e3:.2f} mJ"
    )
    return 0


def _cmd_selfcheck(_: argparse.Namespace) -> int:
    """Cheap end-to-end health check of the whole stack."""
    from .core import optimal_loop_for

    n = 256 * 1024
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))

    print("running self-check (256 KiB arrays)...")
    bw: dict[str, float] = {}
    for target in ("aocl", "sdaccel", "cpu", "gpu"):
        runner = BenchmarkRunner(target, ntimes=2)
        result = runner.run(
            TuningParameters(array_bytes=n, loop=optimal_loop_for(target))
        )
        bw[target] = result.bandwidth_gbs
        check(
            f"{target}: copy runs and validates",
            result.ok and result.validated,
            f"{result.bandwidth_gbs:.3f} GB/s",
        )
    check(
        "cross-target ordering gpu > cpu > aocl > sdaccel",
        bw["gpu"] > bw["cpu"] > bw["aocl"] > bw["sdaccel"],
    )
    aocl16 = BenchmarkRunner("aocl", ntimes=2).run(
        TuningParameters(array_bytes=n, loop=LoopManagement.FLAT, vector_width=16)
    )
    check(
        "vectorization lifts the FPGA",
        aocl16.ok and aocl16.bandwidth_gbs > 2 * bw["aocl"],
        f"{bw['aocl']:.2f} -> {aocl16.bandwidth_gbs:.2f} GB/s",
    )
    strided = BenchmarkRunner("sdaccel", ntimes=2).run(
        TuningParameters(
            array_bytes=n,
            loop=LoopManagement.NESTED,
            pattern=AccessPattern.STRIDED,
        )
    )
    check(
        "strided access collapses on sdaccel",
        strided.ok and strided.bandwidth_gbs < 0.05,
        f"{strided.bandwidth_gbs:.4f} GB/s",
    )
    failed = [name for name, ok, _ in checks if not ok]
    print()
    if failed:
        print(f"self-check FAILED: {failed}", file=sys.stderr)
        return 1
    print(f"self-check passed ({len(checks)} checks)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run the three-pillar verification suite as a gate.

    Exit 0 when everything holds, 1 when any pillar fails. With
    ``--inject-faults`` the engine-integration leg instead asserts that
    injected miscompiles surface as classified ``verify_mismatch`` data
    points (the negative path), not as crashes.
    """
    from pathlib import Path

    from . import verify as V
    from .core import optimal_loop_for, verify_table

    quick = args.grid == "small"
    sections: dict[str, list[tuple[str, bool, str]]] = {}
    with _obs_session(args) as session:
        # pillar 1: cross-model conformance over every kernel variant
        rows: list[tuple[str, bool, str]] = []
        for kernel, dtype, nbytes in V.conformance_combos(args.grid):
            rep = V.check_variants(kernel, dtype, nbytes)
            rows.append((rep.describe(), rep.ok, ""))
        sections["conformance"] = rows

        # pillar 2: metamorphic laws over the performance models
        rows = []
        for law in V.check_all(quick=quick):
            detail = "; ".join(v.describe() for v in law.violations[:2])
            rows.append((law.describe(), law.ok, detail))
        sections["metamorphic"] = rows

        # engine integration: sweep a small grid end-to-end with the
        # verify stage enabled (under fault injection when asked)
        faults = (
            FaultPlan.parse(args.inject_faults) if args.inject_faults else None
        )
        targets = args.target or (
            ["cpu", "gpu"] if quick else ["cpu", "gpu", "aocl", "sdaccel"]
        )
        rows = []
        for target in targets:
            sweep = ParameterSweep(
                base=TuningParameters(
                    array_bytes=4096, loop=optimal_loop_for(target)
                ),
                axes={
                    "kernel": list(KernelName),
                    "dtype": [DataType.INT, DataType.DOUBLE],
                },
            )
            runner = BenchmarkRunner(target, ntimes=2, verify=True, faults=faults)
            results = explore(runner, sweep)
            kinds = results.failure_kinds()
            if faults is None:
                ok = all(r.ok for r in results)
                detail = f"{len(results)} points verified" if ok else str(kinds)
            else:
                # negative path: every failure must be *classified* —
                # an injected miscompile is a data point, not a crash
                ok = all(r.ok or r.failure_kind for r in results) and bool(kinds)
                detail = f"injected faults classified as {kinds}"
            rows.append((f"{target}: sweep --verify", ok, detail))
        sections["engine"] = rows

        # pillar 3: golden regression corpus (+ pinned search trajectories)
        if not args.skip_golden:
            golden_path = (
                Path(args.golden) if args.golden else V.DEFAULT_GOLDEN_PATH
            )
            search_path = (
                golden_path.with_name("search_trajectories.json")
                if args.golden
                else V.DEFAULT_SEARCH_GOLDEN_PATH
            )
            current = V.compute_corpus()
            search_current = V.compute_search_corpus()
            n = len(current["entries"])
            n_search = len(search_current["entries"])
            if args.update_golden:
                V.save_corpus(golden_path, current)
                V.save_corpus(search_path, search_current)
                sections["golden"] = [
                    (f"re-pinned {n} entries -> {golden_path}", True, ""),
                    (
                        f"re-pinned {n_search} trajectories -> {search_path}",
                        True,
                        "",
                    ),
                ]
            else:
                pinned = V.load_corpus(golden_path)
                diff = V.diff_corpus(pinned, current)
                drift = V.format_drift(diff, pinned, current)
                search_pinned = V.load_corpus(search_path)
                search_diff = V.diff_corpus(
                    search_pinned,
                    search_current,
                    fields=V.SEARCH_COMPARED_FIELDS,
                )
                search_drift = V.format_drift(
                    search_diff, search_pinned, search_current
                )
                sections["golden"] = [
                    (drift.splitlines()[0], diff.clean, ""),
                    (
                        "search trajectories: "
                        + search_drift.splitlines()[0].removeprefix(
                            "golden corpus"
                        ).lstrip(": "),
                        search_diff.clean,
                        "",
                    ),
                ]
                if not diff.clean:
                    print(drift)
                    print()
                if not search_diff.clean:
                    print(search_drift)
                    print()
    print(verify_table(sections))
    _report_obs(session)
    failed = any(not ok for rows in sections.values() for _, ok, _ in rows)
    return 1 if failed else 0


def _cmd_gpustream(args: argparse.Namespace) -> int:
    from .gpustream import run_gpu_stream

    results = run_gpu_stream(
        args.target,
        array_bytes=parse_size(args.size),
        ntimes=args.ntimes,
        with_dot=args.dot,
    )
    print(f"GPU-STREAM on {args.target} ({args.size}/array, {args.ntimes} iterations)")
    print(f"{'Function':<10}{'Best Rate':>14}{'Avg time':>12}")
    print("-" * 36)
    for name, r in results.items():
        print(
            f"{name:<10}{format_bandwidth(r.bandwidth_gbs * 1e9):>14}"
            f"{r.avg_time * 1e3:>10.3f}ms"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .core import compare_results, load_results

    entries = compare_results(load_results(args.before), load_results(args.after))
    if not entries:
        print("(nothing to compare)")
        return 0
    width = max(len(e.description) for e in entries)
    for e in entries:
        ratio = f"{e.ratio:.2f}x" if e.ratio is not None else "  -  "
        before = f"{e.before_gbs:.3f}" if e.before_gbs is not None else "  -  "
        after = f"{e.after_gbs:.3f}" if e.after_gbs is not None else "  -  "
        print(f"{e.status:>9}  {e.description:<{width}}  {before:>9} -> {after:>9}  {ratio}")
    regressed = sum(1 for e in entries if e.status == "regressed")
    return 1 if regressed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .perf import compare, format_report, load_report, run_benchmarks, save_report

    only = None
    if args.only is not None:
        # strip + reject empties here so `--only ""` or `--only a,,b`
        # errors instead of silently running everything / nothing;
        # unknown names are rejected by run_benchmarks with the valid
        # list in the message
        only = [token.strip() for token in args.only.split(",")]
        only = [token for token in only if token]
        if not only:
            raise ReproError(
                f"bad --only {args.only!r}: expected a comma-separated "
                "list of benchmark names"
            )
    baseline = None
    baseline_path = args.baseline
    if not args.no_compare:
        if baseline_path is None and Path(args.out).exists():
            baseline_path = args.out
        if baseline_path is not None:
            baseline = load_report(baseline_path)
    report = run_benchmarks(quick=args.quick, only=only)
    print(format_report(report))
    problems = [] if args.no_compare else compare(
        report, baseline, threshold=args.threshold / 100.0
    )
    save_report(report, args.out)
    print(f"wrote {args.out}")
    if baseline_path is not None and not args.no_compare:
        print(f"compared against {baseline_path} (threshold {args.threshold:g}%)")
    for problem in problems:
        print(f"REGRESSION: {problem}")
    return 1 if problems else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "devices": _cmd_devices,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "host-stream": _cmd_host_stream,
        "source": _cmd_source,
        "autotune": _cmd_autotune,
        "energy": _cmd_energy,
        "compare": _cmd_compare,
        "journal": _cmd_journal,
        "obs": _cmd_obs,
        "gpustream": _cmd_gpustream,
        "selfcheck": _cmd_selfcheck,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
