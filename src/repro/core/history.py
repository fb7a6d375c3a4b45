"""Result persistence, sweep journals and run-to-run comparison.

DSE campaigns accumulate over days (a real FPGA compile is hours); this
module stores :class:`~repro.core.results.ResultSet` runs as JSON-lines
files and diffs two runs — the "did the new toolchain/model change the
picture?" question the paper's planned results-sharing website was
meant to answer.

There is one on-disk result format, the journal record (format v2, see
:data:`JOURNAL_SCHEMA`): one flat JSON object per line carrying the
point key, the result with its full ``detail``, the measurement
fingerprint, and CRC32 + length framing over its canonical
serialization. :func:`~repro.core.sweep.explore` streams every
completed point to a :class:`SweepJournal` as it finishes, so a
campaign killed mid-sweep resumes exactly where it died;
:func:`save_results` (``mp-stream run --save``) appends the same
records, so ``compare``, ``journal fsck|compact`` and ``obs serve``
accept either file. The loader verifies that a restored point is
byte-identical to re-running it — a record that fails that check is
treated as absent and the point simply re-runs.

The journal is a small write-ahead log: the loader truncates exactly a
torn final record (the signature a ``kill -9`` mid-``write`` leaves
behind) and **quarantines** — never silently drops — mid-file
corruption (including records of any other schema) to a
``<journal>.quarantine`` sidecar, long campaigns rotate the live file
into sealed ``.seg-NNNNN`` segments, and
:func:`compact_journal`/:func:`fsck_journal` (CLI:
``mp-stream journal compact|fsck``) checkpoint and audit a journal
family offline. Durable journals additionally ``fsync`` the parent
directory on creation and every rotation, so a power loss cannot lose
the whole file to an unsynced directory entry.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..errors import BenchmarkError, DiskFullError, JournalError
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults ⇄ core)
    from ..faults import FaultPlan
from .params import (
    AccessPattern,
    DataType,
    KernelName,
    LoopManagement,
    StreamLocus,
    TuningParameters,
)
from .results import ResultSet, RunResult

__all__ = [
    "save_results",
    "load_results",
    "point_fingerprint",
    "params_to_record",
    "params_from_record",
    "result_to_record",
    "result_from_record",
    "SweepJournal",
    "JournalFsck",
    "fsck_journal",
    "compact_journal",
    "JOURNAL_SCHEMA",
    "TORN_WRITE_EXIT_CODE",
    "CompareEntry",
    "compare_results",
]

#: journal WAL format: flat JSONL records framed with ``crc32``/``nbytes``
JOURNAL_SCHEMA = 2

#: exit code of a process killed by an injected ``journal_write`` torn
#: append — distinct from the executors' worker-crash code so chaos
#: harnesses can tell "died mid-point" from "died mid-journal-append"
TORN_WRITE_EXIT_CODE = 5


# The record codec. The scheduler's process backend ships results and
# parameters across the worker pipe in exactly this format: the JSON
# roundtrip is proven fingerprint-stable (it is what journal resume
# relies on), which is what makes a process-backend campaign
# byte-identical to a serial one.


def params_to_record(p: TuningParameters) -> dict:
    """Canonical JSON form of a parameter point (wire/journal format)."""
    return {
        "kernel": p.kernel.value,
        "array_bytes": p.array_bytes,
        "dtype": p.dtype.cname,
        "vector_width": p.vector_width,
        "pattern": p.pattern.value,
        "loop": p.loop.value,
        "unroll": p.unroll,
        "reqd_work_group_size": p.reqd_work_group_size,
        "num_simd_work_items": p.num_simd_work_items,
        "num_compute_units": p.num_compute_units,
        "xcl_pipeline_loop": p.xcl_pipeline_loop,
        "xcl_pipeline_workitems": p.xcl_pipeline_workitems,
        "xcl_max_memory_ports": p.xcl_max_memory_ports,
        "xcl_memory_port_width": p.xcl_memory_port_width,
        "locus": p.locus.value,
    }


def params_from_record(data: dict) -> TuningParameters:
    """Inverse of :func:`params_to_record`."""
    return TuningParameters(
        kernel=KernelName(data["kernel"]),
        array_bytes=int(data["array_bytes"]),
        dtype=next(d for d in DataType if d.cname == data["dtype"]),
        vector_width=int(data["vector_width"]),
        pattern=AccessPattern(data["pattern"]),
        loop=LoopManagement(data["loop"]),
        unroll=int(data["unroll"]),
        reqd_work_group_size=data.get("reqd_work_group_size"),
        num_simd_work_items=int(data.get("num_simd_work_items", 1)),
        num_compute_units=int(data.get("num_compute_units", 1)),
        xcl_pipeline_loop=bool(data.get("xcl_pipeline_loop", False)),
        xcl_pipeline_workitems=bool(data.get("xcl_pipeline_workitems", False)),
        xcl_max_memory_ports=bool(data.get("xcl_max_memory_ports", False)),
        xcl_memory_port_width=data.get("xcl_memory_port_width"),
        locus=StreamLocus(data.get("locus", "device")),
    )


def _jsonify(value: object) -> object:
    """Reduce a detail payload to pure-JSON types, recursively.

    Numpy scalars become Python numbers, tuples become lists; anything
    exotic falls back to ``repr``. Applied before a record is written
    so a loaded result's ``detail`` compares equal (and fingerprints
    identically) to the in-memory original.
    """
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return repr(value)


def result_to_record(r: RunResult) -> dict:
    """Canonical JSON form of a result (wire format, journal record core).

    The record carries the JSON-reduced ``detail``, so it reconstructs
    a result whose :meth:`~repro.core.results.RunResult.fingerprint`
    equals the original's.
    """
    return {
        "target": r.target,
        "params": params_to_record(r.params),
        "times_s": list(r.times),
        "moved_bytes": r.moved_bytes,
        "validated": r.validated,
        "error": r.error,
        "failure_kind": r.failure_kind,
        "detail": _jsonify(r.detail),
    }


def result_from_record(record: dict) -> RunResult:
    """Inverse of :func:`result_to_record`."""
    return RunResult(
        target=record["target"],
        params=params_from_record(record["params"]),
        times=tuple(record["times_s"]),
        moved_bytes=int(record["moved_bytes"]),
        validated=bool(record["validated"]),
        error=record.get("error", ""),
        failure_kind=record.get("failure_kind", ""),
        detail=record.get("detail", {}) or {},
    )


# --------------------------------------------------------------------------
# Sweep journals (resumable campaigns)
# --------------------------------------------------------------------------


def point_fingerprint(target: str, params: TuningParameters) -> str:
    """Deterministic identity of one grid point on one target.

    A short hash of the canonical parameter serialization — the journal
    key :func:`~repro.core.sweep.explore` uses to skip already-completed
    points on resume, and the key fault injection derives its per-point
    decisions from.
    """
    payload = json.dumps(
        {"target": target, "params": params_to_record(params)}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- WAL v2 record framing ---------------------------------------------------


def _journal_core(key: str, result: RunResult) -> dict:
    """The v2 record *before* framing: result + schema, point key, fingerprint."""
    record = result_to_record(result)
    record["schema"] = JOURNAL_SCHEMA
    record["point"] = key
    record["fingerprint"] = result.fingerprint()
    return record


def _journal_payload(record: dict) -> bytes:
    """Canonical bytes the CRC/length framing covers (framing fields out)."""
    core = {k: v for k, v in record.items() if k not in ("crc32", "nbytes")}
    return json.dumps(core, sort_keys=True).encode()


def _frame_error(record: dict) -> str:
    """Why a v2 record fails its framing checks (empty string = intact)."""
    crc = record.get("crc32")
    nbytes = record.get("nbytes")
    if not isinstance(crc, str) or not isinstance(nbytes, int):
        return "missing crc32/nbytes framing"
    payload = _journal_payload(record)
    if nbytes != len(payload):
        return f"length mismatch (framed {nbytes}, actual {len(payload)})"
    actual = format(zlib.crc32(payload) & 0xFFFFFFFF, "08x")
    if crc != actual:
        return f"crc32 mismatch (framed {crc}, actual {actual})"
    return ""


#: the encoder ``json.dumps(..., sort_keys=True)`` builds on every call
_CANONICAL = json.JSONEncoder(sort_keys=True)


def _framed_line(record: dict) -> bytes:
    """The journal line of ``record``: its canonical JSON plus framing.

    Byte-identical to ``json.dumps(record + {crc32, nbytes},
    sort_keys=True)`` and a newline, but the record is encoded once.
    It is encoded as three sorted runs of members (keys before
    ``crc32``, between ``crc32`` and ``nbytes``, after ``nbytes``): the
    runs joined form the CRC payload, and the framing members spliced
    between them form the line. Framing fields already in ``record``
    are replaced.
    """
    runs: tuple[dict, dict, dict] = ({}, {}, {})
    for k, v in record.items():
        if k not in ("crc32", "nbytes"):
            runs[(k > "crc32") + (k > "nbytes")][k] = v
    before, between, after = (_CANONICAL.encode(run)[1:-1] for run in runs)
    payload = ("{" + ", ".join(filter(None, (before, between, after))) + "}").encode()
    crc32 = f'"crc32": "{zlib.crc32(payload) & 0xFFFFFFFF:08x}"'
    nbytes = f'"nbytes": {len(payload)}'
    members = (before, crc32, between, nbytes, after)
    return ("{" + ", ".join(filter(None, members)) + "}\n").encode()


def _journal_line(key: str, result: RunResult) -> bytes:
    return _framed_line(_journal_core(key, result))


# -- journal family scanning (shared by load / fsck / compact) ---------------


@dataclass
class _Entry:
    """One classified journal line."""

    file: Path
    lineno: int
    raw: str
    status: str  # ok | torn | corrupt | stale
    reason: str = ""
    key: str | None = None
    result: RunResult | None = None


@dataclass
class _FamilyScan:
    files: list[Path]
    entries: list[_Entry]
    #: live file exists, is non-empty and lacks a trailing newline
    live_unterminated: bool = False
    #: byte length of the unterminated final line of the live file
    live_tail_bytes: int = 0


def _segments(path: Path) -> list[Path]:
    return sorted(path.parent.glob(path.name + ".seg-*"))


def _family_files(path: Path) -> list[Path]:
    """Scan order: sealed segments (oldest first), then the live file."""
    files = [seg for seg in _segments(path) if seg.is_file()]
    if path.is_file():
        files.append(path)
    return files


def _classify_line(
    file: Path, lineno: int, raw: str, *, may_be_torn: bool
) -> _Entry:
    try:
        record = json.loads(raw)
        if not isinstance(record, dict):
            raise ValueError("not a JSON object")
    except ValueError:
        if may_be_torn:
            return _Entry(file, lineno, raw, "torn", "truncated mid-append")
        return _Entry(file, lineno, raw, "corrupt", "unparsable JSON")
    schema = record.get("schema")
    if schema != JOURNAL_SCHEMA:
        return _Entry(
            file, lineno, raw, "corrupt", f"unsupported schema {schema!r}"
        )
    err = _frame_error(record)
    if err:
        return _Entry(file, lineno, raw, "corrupt", err)
    try:
        key = record["point"]
        result = result_from_record(record)
    except (ValueError, KeyError, TypeError) as exc:
        return _Entry(file, lineno, raw, "corrupt", f"unreconstructable ({exc})")
    if record.get("fingerprint") != result.fingerprint():
        return _Entry(
            file, lineno, raw, "stale",
            "measurement fingerprint mismatch", key=key,
        )
    return _Entry(file, lineno, raw, "ok", key=key, result=result)


def _scan_family(path: Path) -> _FamilyScan:
    scan = _FamilyScan(files=_family_files(path), entries=[])
    for file in scan.files:
        data = file.read_bytes()
        if not data:
            continue
        terminated = data.endswith(b"\n")
        is_live = file == path
        if is_live and not terminated:
            scan.live_unterminated = True
            scan.live_tail_bytes = len(data) - data.rfind(b"\n") - 1
        lines = data.decode("utf-8", errors="replace").split("\n")
        if terminated:
            lines.pop()
        last = len(lines)
        for lineno, raw in enumerate(lines, start=1):
            if not raw.strip():
                continue
            # only the unterminated final line of the *live* file can be
            # a torn append; segments are sealed, so damage there is
            # corruption, not an interrupted write
            may_be_torn = is_live and not terminated and lineno == last
            scan.entries.append(
                _classify_line(file, lineno, raw, may_be_torn=may_be_torn)
            )
    return scan


def _latest_results(entries: "Iterable[_Entry]") -> dict[str, RunResult]:
    """The latest valid result per point key, in first-seen key order."""
    latest: dict[str, RunResult] = {}
    for e in entries:
        if e.status == "ok":
            assert e.key is not None and e.result is not None
            latest[e.key] = e.result
    return latest


@dataclass(frozen=True)
class JournalFsck:
    """Read-only integrity report over a journal family.

    Produced by :func:`fsck_journal` (CLI: ``mp-stream journal fsck``).
    ``clean`` means every record verified: no torn tail, no corrupt
    lines, no stale fingerprints.
    """

    path: str
    files: tuple[str, ...]
    records: int
    valid: int
    torn_tail: int
    corrupt: int
    stale: int
    notes: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not (self.torn_tail or self.corrupt or self.stale)

    @property
    def dropped(self) -> int:
        """Records a :meth:`SweepJournal.load` would not restore."""
        return self.torn_tail + self.corrupt + self.stale

    def describe(self) -> str:
        lines = [f"journal fsck: {self.path}"]
        if not self.files:
            lines.append("  no journal files found")
            lines.append("status: missing")
            return "\n".join(lines)
        lines.append(f"  files: {len(self.files)} ({', '.join(self.files)})")
        lines.append(f"  records: {self.records}  valid: {self.valid}")
        lines.append(
            f"  torn tail: {self.torn_tail}"
            f"  corrupt: {self.corrupt}  stale: {self.stale}"
        )
        for note in self.notes:
            lines.append(f"  - {note}")
        status = "clean" if self.clean else "damaged (resume re-runs what fsck flags)"
        lines.append(f"status: {status}")
        return "\n".join(lines)


def _fsck_from_scan(path: Path, scan: _FamilyScan) -> JournalFsck:
    notes: list[str] = []
    torn = corrupt = stale = valid = 0
    for e in scan.entries:
        if e.status == "ok":
            valid += 1
        elif e.status == "torn":
            torn += 1
            notes.append(
                f"{e.file.name}:{e.lineno}: {e.reason}"
                f" ({len(e.raw.encode())} bytes; load truncates it)"
            )
        else:
            if e.status == "corrupt":
                corrupt += 1
            else:
                stale += 1
            notes.append(f"{e.file.name}:{e.lineno}: {e.reason}")
    if scan.live_unterminated and not torn:
        # the tear landed exactly on the newline: the record is intact
        # but the file must be terminated before the next append
        torn += 1
        notes.append(
            f"{path.name}: final record intact but unterminated"
            " (load repairs it without data loss)"
        )
    return JournalFsck(
        path=str(path),
        files=tuple(f.name for f in scan.files),
        records=len(scan.entries),
        valid=valid,
        torn_tail=torn,
        corrupt=corrupt,
        stale=stale,
        notes=tuple(notes),
    )


def fsck_journal(path: str | Path) -> JournalFsck:
    """Verify every record of a journal family without modifying it.

    Checks, per line: JSON parsability, schema, CRC32/length framing,
    result reconstruction, and the stored measurement
    fingerprint. Detects a torn final record on the live file. Never
    writes — safe to run against the journal of a live campaign.
    """
    path = Path(path)
    return _fsck_from_scan(path, _scan_family(path))


def scan_results(path: str | Path) -> dict[str, RunResult]:
    """Read-only restorable view of a journal family: the latest valid
    result per point key.

    Unlike :meth:`SweepJournal.load` this never truncates a torn tail
    or writes a quarantine sidecar, so it is safe to run repeatedly
    against the journal of a *live* campaign — it is what
    ``mp-stream obs serve --journal`` scrapes on.
    """
    return _latest_results(_scan_family(Path(path)).entries)


def _fsync_dir(path: Path) -> None:
    """Best-effort fsync of ``path``'s parent directory entry."""
    try:
        fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


def _append_quarantine(
    path: Path, entries: "list[_Entry]", *, durable: bool
) -> Path:
    """Preserve bad lines in the ``<journal>.quarantine`` sidecar."""
    side = Path(str(path) + ".quarantine")
    with side.open("a") as fh:
        for e in entries:
            fh.write(
                json.dumps(
                    {
                        "file": e.file.name,
                        "lineno": e.lineno,
                        "reason": e.reason,
                        "line": e.raw,
                    }
                )
                + "\n"
            )
        fh.flush()
        if durable:
            os.fsync(fh.fileno())
    return side


def _rewrite_without(file: Path, bad_linenos: "set[int]", *, durable: bool) -> None:
    """Atomically rewrite ``file`` keeping good lines verbatim."""
    data = file.read_bytes()
    lines = data.split(b"\n")
    if data.endswith(b"\n"):
        lines.pop()
    kept = [ln for i, ln in enumerate(lines, start=1) if i not in bad_linenos]
    tmp = file.with_name(file.name + ".tmp")
    with tmp.open("wb") as fh:
        for ln in kept:
            fh.write(ln + b"\n")
        fh.flush()
        if durable:
            os.fsync(fh.fileno())
    os.replace(tmp, file)
    if durable:
        _fsync_dir(file)


def _quarantine_entries(
    path: Path, entries: "list[_Entry]", *, durable: bool
) -> Path:
    side = _append_quarantine(path, entries, durable=durable)
    by_file: dict[Path, set[int]] = {}
    for e in entries:
        by_file.setdefault(e.file, set()).add(e.lineno)
    for file, bad in by_file.items():
        _rewrite_without(file, bad, durable=durable)
    return side


def compact_journal(path: str | Path, *, durable: bool = True) -> int:
    """Checkpoint-compact a journal family into one live file.

    Replays the family (segments then live, later records win per
    point key), rewrites the latest record of every point as a freshly
    framed line into a temp file that
    atomically replaces the live journal (``os.replace``), then unlinks
    the sealed segments and fsyncs the directory. Corrupt/stale lines
    are quarantined to the sidecar first, torn tails included: nothing
    is silently dropped. Returns the number of records kept.
    """
    path = Path(path)
    scan = _scan_family(path)
    if not scan.files:
        return 0
    bad = [e for e in scan.entries if e.status in ("torn", "corrupt", "stale")]
    if bad:
        _append_quarantine(path, bad, durable=durable)
    latest = _latest_results(scan.entries)
    tmp = path.with_name(path.name + ".compact-tmp")
    with tmp.open("wb") as fh:
        for key, result in latest.items():
            fh.write(_journal_line(key, result))
        fh.flush()
        if durable:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    for seg in _segments(path):
        seg.unlink()
    if durable:
        _fsync_dir(path)
    obs_events.emit(
        "journal_compacted",
        path=str(path),
        records=len(latest),
        quarantined=len(bad),
    )
    return len(latest)


class SweepJournal:
    """Crash-consistent WAL of completed sweep points (format v2).

    Each record is :func:`result_to_record` (with the full,
    JSON-reduced ``detail``) plus the schema, the point key, the
    measurement fingerprint, and CRC32 + length framing over the
    canonical serialization — one flat JSON object per line, so `jq`
    reads it. Appends are flushed per point under a lock; a
    campaign killed mid-append leaves at most one torn final line,
    which :meth:`load` truncates exactly (counted in
    :attr:`discarded`/:attr:`repaired`). Mid-file damage — corrupt
    framing, stale fingerprints — is quarantined to the
    ``<journal>.quarantine`` sidecar and reported via a
    ``journal_dropped_records`` event, never silently dropped.

    ``durable=True`` additionally ``fsync``\\ s after every append *and*
    fsyncs the parent directory once on creation: a flush only hands
    the line to the OS, which a power loss — or the hard ``os._exit``
    a ``worker_crash`` fault injects — can still discard, and a synced
    file in an unsynced directory can vanish whole. The
    process-executor restart path trusts the journal after exactly
    such kills, so campaigns that lean on it should opt in
    (``--durable-journal`` on the CLI) and pay the per-point fsync.

    ``rotate_records=N`` seals the live file into a ``.seg-NNNNN``
    segment every N records; :meth:`compact` (CLI: ``mp-stream journal
    compact``) folds a family back into one deduplicated live file.

    ``faults`` wires the journal into a seeded
    :class:`~repro.faults.FaultPlan` for the ``journal_write`` (torn
    append + hard exit :data:`TORN_WRITE_EXIT_CODE`), ``journal_fsync``
    and ``disk_full`` sites; draws are keyed on the journal *sequence
    number*, so crash schedules are reproducible yet do not re-fire
    eternally across resumes. The campaign scheduler auto-wires the
    engine's plan here.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        durable: bool = False,
        faults: "FaultPlan | None" = None,
        rotate_records: int | None = None,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        self.faults = faults
        if rotate_records is not None and rotate_records < 1:
            raise BenchmarkError(
                f"rotate_records must be >= 1, got {rotate_records}"
            )
        self.rotate_records = rotate_records
        self._lock = threading.Lock()
        self._dir_synced = False
        self._tail_checked = False
        #: records ever appended to the family — the fault-draw key
        self._seq = 0
        self._live_records = 0
        #: points restored from the journal instead of re-executed
        self.reused = 0
        #: points actually executed (and appended) this campaign
        self.executed = 0
        #: journal records dropped on load (torn / corrupt / stale)
        self.discarded = 0
        #: tail repairs applied on load (truncation or re-termination)
        self.repaired = 0
        #: fsck-style breakdown of the last :meth:`load`
        self.load_report: JournalFsck | None = None

    # -- lifecycle ---------------------------------------------------------------

    def exists(self) -> bool:
        """Does any file of the journal family exist?"""
        return bool(_family_files(self.path))

    def load(self) -> dict[str, RunResult]:
        """Completed points by key, healing the family as it goes.

        A torn final record (the mark of a crash mid-append) is
        truncated *exactly*; corrupt or stale records are quarantined
        to the sidecar and the damaged file atomically rewritten
        without them. Every unusable record is counted in
        :attr:`discarded` and reported via a
        ``journal_dropped_records`` event — the affected points simply
        re-run, so a damaged journal degrades to extra work, never to
        wrong data or silent loss.
        """
        torn_n = corrupt_n = stale_n = 0
        with self._lock:
            scan = _scan_family(self.path)
            self.load_report = _fsck_from_scan(self.path, scan)
            self._tail_checked = True
            if not scan.files:
                return {}
            torn = [e for e in scan.entries if e.status == "torn"]
            if torn:
                size = self.path.stat().st_size
                os.truncate(self.path, size - scan.live_tail_bytes)
                self.discarded += 1
                self.repaired += 1
                torn_n = 1
            elif scan.live_unterminated:
                with self.path.open("ab") as fh:
                    fh.write(b"\n")
                    fh.flush()
                    if self.durable:
                        os.fsync(fh.fileno())
                self.repaired += 1
            bad = [e for e in scan.entries if e.status in ("corrupt", "stale")]
            if bad:
                _quarantine_entries(self.path, bad, durable=self.durable)
                corrupt_n = sum(1 for e in bad if e.status == "corrupt")
                stale_n = len(bad) - corrupt_n
                self.discarded += len(bad)
            valid = [e for e in scan.entries if e.status == "ok"]
            self._seq = len(valid)
            self._live_records = sum(1 for e in valid if e.file == self.path)
            done = _latest_results(valid)
            dropped = torn_n + corrupt_n + stale_n
        if dropped:
            obs_events.emit(
                "journal_dropped_records",
                path=str(self.path),
                dropped=dropped,
                torn=torn_n,
                corrupt=corrupt_n,
                stale=stale_n,
            )
            obs_metrics.count("journal.dropped_records", dropped)
        return done

    # -- appending ---------------------------------------------------------------

    def record(self, key: str, result: RunResult) -> None:
        """Append one completed point (thread-safe, flushed; fsynced
        when the journal is ``durable``).

        Raises :class:`~repro.errors.JournalError` (or
        :class:`~repro.errors.DiskFullError` on ``ENOSPC``) when the
        append cannot be made durable — the campaign scheduler treats
        that as journal *degradation*, not campaign death.
        """
        line = _journal_line(key, result)
        with self._lock:
            seq = self._seq
            self._seq += 1
            faults = self.faults
            try:
                if faults is not None and faults.should_fire(
                    "disk_full", key, seq
                ):
                    raise DiskFullError(
                        f"injected disk_full fault appending {key}"
                        f" to {self.path} (record {seq})"
                    )
                if not self._tail_checked:
                    self._heal_tail_for_append()
                    self._tail_checked = True
                torn = (
                    faults.torn_write(key, seq, len(line))
                    if faults is not None
                    else None
                )
                with self.path.open("ab") as fh:
                    if torn is not None:
                        # a torn append is a *crash*, not an error: write
                        # the prefix a dying process would leave, force it
                        # to disk so the tear is observable, and die hard
                        fh.write(line[:torn])
                        fh.flush()
                        os.fsync(fh.fileno())
                        os._exit(TORN_WRITE_EXIT_CODE)
                    fh.write(line)
                    fh.flush()
                    if (
                        faults is not None
                        and self.durable
                        and faults.should_fire("journal_fsync", key, seq)
                    ):
                        raise JournalError(
                            f"injected journal_fsync fault appending {key}"
                            f" to {self.path} (record {seq})"
                        )
                    if self.durable:
                        os.fsync(fh.fileno())
                if self.durable and not self._dir_synced:
                    _fsync_dir(self.path)
                    self._dir_synced = True
            except OSError as exc:
                if exc.errno == errno.ENOSPC:
                    raise DiskFullError(
                        f"journal append to {self.path} hit ENOSPC: {exc}"
                    ) from exc
                raise JournalError(
                    f"journal append to {self.path} failed: {exc}"
                ) from exc
            self.executed += 1
            self._live_records += 1
            obs_metrics.count("journal.records")
            if (
                self.rotate_records is not None
                and self._live_records >= self.rotate_records
            ):
                self._rotate()

    def _heal_tail_for_append(self) -> None:
        """Repair an unterminated live tail before the first append.

        Appending after a torn final line would merge the new record
        into the garbage; truncate the tear (or just terminate an
        intact-but-unterminated record) first.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        if not data or data.endswith(b"\n"):
            return
        idx = data.rfind(b"\n")
        tail = data[idx + 1:]
        try:
            record = json.loads(tail.decode("utf-8", errors="replace"))
            intact = isinstance(record, dict)
        except ValueError:
            intact = False
        with self.path.open("ab") as fh:
            if intact:
                fh.write(b"\n")
            else:
                fh.truncate(idx + 1)
                self.discarded += 1
            fh.flush()
            if self.durable:
                os.fsync(fh.fileno())
        self.repaired += 1

    def _rotate(self) -> None:
        """Seal the live file into the next ``.seg-NNNNN`` segment."""
        segs = _segments(self.path)
        indices = []
        for seg in segs:
            suffix = seg.name.rsplit(".seg-", 1)[-1]
            if suffix.isdigit():
                indices.append(int(suffix))
        next_index = max(indices, default=0) + 1
        seg = self.path.with_name(f"{self.path.name}.seg-{next_index:05d}")
        try:
            os.replace(self.path, seg)
        except OSError as exc:
            raise JournalError(
                f"journal rotation {self.path} -> {seg.name} failed: {exc}"
            ) from exc
        if self.durable:
            _fsync_dir(self.path)
        rotated = self._live_records
        self._live_records = 0
        obs_events.emit(
            "journal_rotated",
            path=str(self.path),
            segment=seg.name,
            records=rotated,
        )
        obs_metrics.count("journal.rotations")

    # -- maintenance -------------------------------------------------------------

    def sync(self) -> None:
        """fsync the live file and directory — a shutdown checkpoint.

        Best-effort: called on the graceful-shutdown path, where an
        fsync failure must not mask the interrupt itself.
        """
        with self._lock:
            try:
                if self.path.exists():
                    fd = os.open(self.path, os.O_RDONLY)
                    try:
                        os.fsync(fd)
                    finally:
                        os.close(fd)
                _fsync_dir(self.path)
            except OSError:  # pragma: no cover - best-effort by design
                pass

    def quarantine(self) -> Path | None:
        """Set the whole family aside as ``*.quarantined`` (best-effort).

        The scheduler calls this when the journal fails mid-sweep: the
        campaign keeps running in-memory and the on-disk state is
        preserved for post-mortem instead of being appended to by a
        journal known to be failing. Returns the quarantined live path,
        or ``None`` if the rename failed.
        """
        with self._lock:
            target = Path(str(self.path) + ".quarantined")
            try:
                for seg in _segments(self.path):
                    os.replace(seg, str(seg) + ".quarantined")
                if self.path.exists():
                    os.replace(self.path, target)
                _fsync_dir(self.path)
                return target
            except OSError:
                return None

    def compact(self) -> int:
        """Checkpoint-compact this journal's family; see :func:`compact_journal`."""
        with self._lock:
            count = compact_journal(self.path, durable=self.durable)
            self._live_records = count
            self._seq = count
            return count

    def fsck(self) -> JournalFsck:
        """Read-only integrity report; see :func:`fsck_journal`."""
        return fsck_journal(self.path)

    def note_reused(self, count: int = 1) -> None:
        with self._lock:
            self.reused += count


def save_results(results: Iterable[RunResult], path: str | Path) -> int:
    """Append results to a journal file; returns the count written.

    Each result is one framed journal record keyed by its point, so a
    saved file is a journal: ``compare``, ``journal fsck|compact`` and
    :func:`load_results` read it, and a point saved twice loads as its
    latest record. Missing parent directories are created.
    """
    journal = SweepJournal(path)
    count = 0
    for r in results:
        journal.record(point_fingerprint(r.target, r.params), r)
        count += 1
    return count


def load_results(path: str | Path) -> ResultSet:
    """Load a result file or journal family into a :class:`ResultSet`.

    Returns the latest record per point, in first-seen order. Strict,
    unlike :meth:`SweepJournal.load`: any torn, corrupt or stale line
    raises :class:`~repro.errors.BenchmarkError` naming
    ``file:lineno: reason`` instead of being quarantined, and so does a
    path with no journal files. Never writes.
    """
    path = Path(path)
    scan = _scan_family(path)
    if not scan.files:
        raise BenchmarkError(f"{path}: no result file or journal found")
    for e in scan.entries:
        if e.status != "ok":
            raise BenchmarkError(f"{e.file}:{e.lineno}: {e.reason}")
    return ResultSet(_latest_results(scan.entries).values())


@dataclass(frozen=True)
class CompareEntry:
    """One configuration's before/after."""

    target: str
    description: str
    before_gbs: float | None
    after_gbs: float | None

    @property
    def ratio(self) -> float | None:
        if not self.before_gbs or self.after_gbs is None:
            return None
        return self.after_gbs / self.before_gbs

    @property
    def status(self) -> str:
        if self.before_gbs is None:
            return "new"
        if self.after_gbs is None:
            return "removed"
        r = self.ratio or 0.0
        if r > 1.05:
            return "improved"
        if r < 0.95:
            return "regressed"
        return "unchanged"


def compare_results(
    before: ResultSet, after: ResultSet
) -> list[CompareEntry]:
    """Match configurations across two runs and classify the changes."""

    def key(r: RunResult) -> tuple:
        return (r.target, r.params)

    before_map = {key(r): r for r in before if r.ok}
    after_map = {key(r): r for r in after if r.ok}
    entries = []
    for k in sorted(set(before_map) | set(after_map), key=str):
        b = before_map.get(k)
        a = after_map.get(k)
        some = b or a
        assert some is not None
        entries.append(
            CompareEntry(
                target=some.target,
                description=some.params.describe(),
                before_gbs=b.bandwidth_gbs if b else None,
                after_gbs=a.bandwidth_gbs if a else None,
            )
        )
    return entries
