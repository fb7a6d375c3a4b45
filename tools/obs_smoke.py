#!/usr/bin/env python
"""Observability smoke: scrape a live campaign's exposition server.

Launches a real ``mp-stream sweep --jobs 2 --serve-obs 0`` subprocess
whose two worker processes are being killed by injected ``worker_crash``
faults, then — while the sweep is still running — scrapes ``/metrics``,
``/health`` and ``/campaign`` over HTTP and asserts:

1. every ``/metrics`` response is well-formed Prometheus text
   exposition format 0.0.4 (``# TYPE`` lines, parseable samples,
   ``up 1``) with the right content type;
2. after a worker is crash-killed, ``scheduler_worker_restarts_total``
   is visible on ``/metrics`` while the campaign is still running —
   the restart surfaces within one point-completion, not at shutdown;
3. ``/health`` stays a valid liveness payload throughout;
4. the sweep itself still exits 0 with every point finished.

Used by the CI observability smoke job. Run from the repository root::

    python tools/obs_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

URL_RE = re.compile(r"serving observability at (http://\S+)")
SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]* -?\d+(\.\d+)?(e-?\d+)?$")

SWEEP_ARGV = [
    sys.executable, "-m", "repro.cli", "sweep",
    "--target", "cpu", "--size", "256KiB",
    "--axis", "vector_width=1,2,4,8",
    "--axis", "array_bytes=256KiB,512KiB",
    "--ntimes", "2",
    "--jobs", "2",
    "--max-worker-restarts", "3",
    "--inject-faults", "worker_crash=0.6,seed=11",
    "--serve-obs", "0",
]


def parse_exposition(text: str) -> dict[str, float]:
    """Strictly parse Prometheus text format 0.0.4; raise on malformed."""
    if not text.endswith("\n"):
        raise AssertionError("exposition must end with a newline")
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in {"counter", "gauge", "summary"}:
                raise AssertionError(f"malformed TYPE line: {line!r}")
            continue
        if not SAMPLE_RE.match(line):
            raise AssertionError(f"malformed sample line: {line!r}")
        name, value = line.split()
        samples[name] = float(value)
    if samples.get("up") != 1.0:
        raise AssertionError(f"missing 'up 1' sample; got {samples.get('up')}")
    return samples


def scrape(url: str) -> tuple[str, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode(), response.headers.get("Content-Type", "")


def wait_for_url(proc: subprocess.Popen) -> str:
    """The server URL is announced on the subprocess's stderr."""
    assert proc.stderr is not None
    deadline = time.monotonic() + 30
    lines = []
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        lines.append(line)
        match = URL_RE.search(line)
        if match:
            return match.group(1)
    raise AssertionError(f"no server URL announced on stderr: {lines!r}")


def main() -> int:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{env['PYTHONPATH']}" \
        if env.get("PYTHONPATH") else str(SRC)
    proc = subprocess.Popen(
        SWEEP_ARGV,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        base = wait_for_url(proc)
        print(f"scraping {base}")
        scrapes = 0
        restart_seen_live = False
        last_samples: dict[str, float] = {}
        while proc.poll() is None:
            try:
                metrics_body, ctype = scrape(base + "/metrics")
                health_body, _ = scrape(base + "/health")
            except (urllib.error.URLError, OSError):
                break  # the session closed between poll() and the scrape
            assert ctype.startswith("text/plain; version=0.0.4"), ctype
            last_samples = parse_exposition(metrics_body)
            health = json.loads(health_body)
            assert health["status"] == "ok", health
            scrapes += 1
            if (
                last_samples.get("scheduler_worker_restarts_total", 0) >= 1
                and proc.poll() is None
            ):
                restart_seen_live = True
                break
            time.sleep(0.02)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    print(f"{scrapes} live scrape(s); last samples: "
          f"restarts={last_samples.get('scheduler_worker_restarts_total')} "
          f"queue={last_samples.get('campaign_queue_depth')} "
          f"done={last_samples.get('campaign_points_done')}")
    if proc.returncode != 0:
        print(stdout)
        print(stderr, file=sys.stderr)
        raise AssertionError(f"sweep exited {proc.returncode}")
    if scrapes == 0:
        raise AssertionError("sweep finished before a single scrape landed")
    if not restart_seen_live:
        raise AssertionError(
            "scheduler_worker_restarts_total never appeared on /metrics "
            "while the campaign was live (restarts must surface within "
            "one point-completion, not at shutdown)"
        )
    # the campaign itself must have finished every point despite the chaos
    assert "8 point(s)" in stdout, stdout
    print("obs smoke ok: live exposition valid, worker restart visible mid-sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
