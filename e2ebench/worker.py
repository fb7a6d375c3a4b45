"""One workload iteration in a fresh interpreter.

``run.py`` starts this script once per measured iteration, so every
iteration pays the import, device-registry and runner set-up cost and
starts with cold process-wide caches (``figures``' devices and build
caches, the front-end memo, device plan caches, the queue's
specialization cache, the vectorize plan cache)::

    python3 e2ebench/worker.py --workload dse_sweep --seed 3 [--trace] [--setup-only]

It prints one JSON object on stdout: set-up and wall seconds, the
completion time of every design point, the order-independent digest of
the results, the figures' model/paper cells or the search winners, peak
RSS, and with ``--trace`` the per-layer split from :mod:`layers`.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".e2ebench_work"

TARGETS = ("cpu", "gpu", "aocl", "sdaccel")
KIB = 1024
MIB = 1024 * KIB
#: the paper's array-size axis, 1 KiB ... 64 MiB per array
PAPER_SIZES = tuple(KIB * 4**i for i in range(9))
#: search array sizes: one inside and one beyond the modeled L2/LLC reach
SEARCH_SIZES = (64 * KIB, MIB)
SEARCH_BUDGET = 24
DSE_BYTES = 64 * KIB


def import_repro():
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "benchmarks"))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"e2ebench: imported repro from {repro.__file__}, not {src}")
    return repro


def paper_axes(core):
    """The 420-valid-point DSE grid per target (540 combinations)."""
    return {
        "kernel": list(core.KernelName),
        "loop": list(core.LoopManagement),
        "vector_width": [1, 2, 4, 8, 16],
        "unroll": [1, 2, 4],
        "dtype": list(core.DataType),
    }


class Completions:
    """Stamps the return of every ``ExecutionEngine.run`` call.

    ``ExecutionEngine.run`` is the one entry every design point passes
    through, whether a figure function, ``explore()`` or the searcher
    issued it; its return is the point's completion.
    """

    def __init__(self, engine_cls):
        self.stamps: list[float] = []
        self.results: list = []
        original = engine_cls.run
        clock = time.perf_counter

        def run(engine, *args, **kwargs):
            result = original(engine, *args, **kwargs)
            self.stamps.append(clock())
            self.results.append(result)
            return result

        engine_cls.run = run


# -- workloads: setup(seed) -> state, run(state) -> extra report -------------


def setup_paper_figs(seed):
    import repro.figures  # noqa: F401  (set-up cost: imports)
    import paper_data  # noqa: F401
    from repro.ocl.platform import get_platforms

    # the figures build their runners lazily, on their first point
    get_platforms()
    return {}


def run_paper_figs(state):
    import paper_data as paper
    from repro import figures

    fig1a = figures.fig1a_array_size(sizes=PAPER_SIZES, ntimes=3)
    fig1b = figures.fig1b_vector_width(ntimes=3)
    fig2 = figures.fig2_contiguity(sizes=PAPER_SIZES, ntimes=3)
    figures.fig3_loop_management(ntimes=3)
    figures.fig4a_all_kernels(ntimes=3)
    figures.fig4b_aocl_optimizations(ntimes=3)
    figures.pcie_streams(sizes=PAPER_SIZES, ntimes=3)
    return {"cells": fidelity_cells(paper, fig1a, fig1b, fig2)}


def fidelity_cells(paper, fig1a, fig1b, fig2):
    """Model/paper ratio of every paired figure cell, by name.

    Cells are matched by x value, not position, so a failed point leaves
    its cell missing instead of shifting the pairing; cells the paper
    plots as 0 have no ratio and are skipped.
    """
    cells = {}

    def pair(prefix, points, xs, labels, refs):
        model = dict(points)
        for x, label, ref in zip(xs, labels, refs):
            if ref > 0 and x in model:
                cells[f"{prefix}.{label}"] = model[x] / ref

    sizes = paper.FIG1A_SIZES_BYTES
    size_x = [s / MIB for s in sizes]
    size_labels = [f"{s // MIB}MiB" if s >= MIB else f"{s // KIB}KiB" for s in sizes]
    for target, refs in paper.FIG1A_PAPER.items():
        pair(f"fig1a.{target}", fig1a[target], size_x, size_labels, refs)
    for target, refs in paper.FIG1B_PAPER.items():
        widths = paper.FIG1B_WIDTHS
        pair(f"fig1b.{target}", fig1b[target], [float(w) for w in widths],
             [f"w{w}" for w in widths], refs)
    for target, refs in paper.FIG2_STRIDED_PAPER.items():
        pair(f"fig2.{target}.strided", fig2[f"{target}-strided"], size_x,
             size_labels, refs)
    return cells


def _runners(core, targets):
    return {t: core.BenchmarkRunner(t) for t in targets}


def setup_dse_sweep(seed):
    from repro import core

    rng = random.Random(seed)
    targets = list(TARGETS)
    rng.shuffle(targets)
    # the seed permutes the grid order: axis order and each axis' values
    axes = list(paper_axes(core).items())
    rng.shuffle(axes)
    for _, values in axes:
        rng.shuffle(values)
    return {"core": core, "axes": dict(axes), "runners": _runners(core, targets)}


def run_dse_sweep(state):
    core = state["core"]
    WORK_DIR.mkdir(exist_ok=True)
    journal_dir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        for target, runner in state["runners"].items():
            sweep = core.ParameterSweep(
                base=core.TuningParameters(array_bytes=DSE_BYTES), axes=state["axes"]
            )
            journal = core.SweepJournal(Path(journal_dir) / f"{target}.jsonl")
            core.explore(runner, sweep, backend="serial", journal=journal)
    finally:
        shutil.rmtree(journal_dir)
    return {}


def setup_search(seed):
    from repro import core

    return {"core": core, "runners": _runners(core, TARGETS)}


def run_search(state):
    core = state["core"]
    axes = paper_axes(core)
    winners = []
    for size in SEARCH_SIZES:
        for target, runner in state["runners"].items():
            out = core.multifidelity_search(
                runner, axes, seed=core.TuningParameters(array_bytes=size),
                budget=SEARCH_BUDGET, backend="serial",
            )
            winners.append({
                "key": f"{target}@{size}",
                "params": out.best.params.describe(),
                "bandwidth_gbs": out.best.bandwidth_gbs,
                "spent": out.spent,
            })
    return {"winners": winners}


WORKLOADS = {
    "paper_figs": (setup_paper_figs, run_paper_figs),
    "dse_sweep": (setup_dse_sweep, run_dse_sweep),
    "search": (setup_search, run_search),
}


def digest(results) -> str:
    """sha256 over the sorted result fingerprints: order-independent."""
    h = hashlib.sha256()
    for fp in sorted(r.fingerprint() for r in results):
        h.update(fp.encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_repro()
    setup, run = WORKLOADS[args.workload]
    state = setup(args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from repro.core.engine import ExecutionEngine

    completions = Completions(ExecutionEngine)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.LayerTracer()
        layers.install(tracer)
    start = time.perf_counter()
    extra = run(state)
    wall_s = time.perf_counter() - start

    results = completions.results
    stamps = [start] + completions.stamps
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "gaps_s": [b - a for a, b in zip(stamps, stamps[1:])],
        "attempted": len(results),
        "ok": sum(r.ok for r in results),
        # a point fails the check if it succeeded unvalidated, or failed
        # for any reason but its build (a design that does not fit)
        "unexpected": sum(
            (r.ok and not r.validated) or (not r.ok and r.failure_kind != "build")
            for r in results
        ),
        "digest": digest(results),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **extra,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layers.per_layer_metrics(tracer, wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
