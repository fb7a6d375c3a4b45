"""Recompute the reference data ``run.py`` checks against.

    python3 e2ebench/pin.py            # print pinned.json as it should be
    python3 e2ebench/pin.py --write    # and overwrite e2ebench/pinned.json

The digests come from one untraced iteration of each workload. The
search optima come from an exhaustive ``explore()`` of the search pool
at each (target, size), independently of the searcher. Re-pin only when
a change is meant to alter what the model measures, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import run
import worker


def exhaustive_optima() -> dict[str, dict[str, object]]:
    worker.import_repro()
    from repro import core

    optima = {}
    for size in worker.SEARCH_SIZES:
        for target in worker.TARGETS:
            sweep = core.ParameterSweep(
                base=core.TuningParameters(array_bytes=size), axes=worker.paper_axes(core)
            )
            best = core.explore(core.BenchmarkRunner(target), sweep, backend="serial").best()
            optima[f"{target}@{size}"] = {
                "params": best.params.describe(),
                "bandwidth_gbs": best.bandwidth_gbs,
            }
    return optima


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + 900
    pinned = {
        "digests": {
            w: run.spawn(w, 0, deadline=deadline)["digest"] for w in run.WORKLOADS
        },
        "search_optima": exhaustive_optima(),
    }
    text = json.dumps(pinned, indent=2) + "\n"
    print(text, end="")
    if args.write:
        (Path(__file__).resolve().parent / "pinned.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
