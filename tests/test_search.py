"""Multi-fidelity search: the search-vs-sweep differential harness.

The headline guarantee of :mod:`repro.core.search`: on the paper's
per-device tuning grids, model-guided successive halving finds the
*exhaustive sweep's* optimum while measuring under 10% of the grid.
A search that silently finds a worse optimum is the failure mode, so
every device model gets the full differential treatment, and the
halving/promotion helpers carry hypothesis property tests for the
invariants the golden trajectories then pin end-to-end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BenchmarkRunner,
    KernelName,
    LoopManagement,
    ParameterSweep,
    StreamLocus,
    TuningParameters,
    explore,
    multifidelity_search,
)
from repro.core.search import LowFidelityScorer, halving_widths, promote
from repro.errors import SweepError
from repro.units import KIB

#: the paper's tuning axes: kernel x loop management x vector width x
#: unroll — 90 combinations, 70 valid points per device
PAPER_AXES = {
    "kernel": [KernelName.COPY, KernelName.TRIAD],
    "loop": list(LoopManagement),
    "vector_width": [1, 2, 4, 8, 16],
    "unroll": [1, 2, 4],
}

SMALL_AXES = {
    "loop": [LoopManagement.FLAT, LoopManagement.NESTED, LoopManagement.NDRANGE],
    "vector_width": [1, 2, 4, 8],
    "unroll": [1, 2],
}

SEED = TuningParameters(array_bytes=64 * KIB)


# ---------------------------------------------------------------------------
# the differential harness: search vs exhaustive explore()
# ---------------------------------------------------------------------------


class TestSearchVsSweepDifferential:
    @pytest.mark.parametrize("target", ["cpu", "gpu", "aocl", "sdaccel"])
    def test_finds_exhaustive_optimum_under_tenth_budget(self, target):
        """The core acceptance criterion, per device model.

        One shared runner: the sweep rides the caches the search
        warmed, so the comparison is about *evaluations*, not wall
        time. Budget 6 over a 70-point pool is 8.6% of the grid.
        """
        runner = BenchmarkRunner(target, ntimes=1)
        out = multifidelity_search(runner, PAPER_AXES, seed=SEED, budget=6)
        grid = explore(runner, ParameterSweep(base=SEED, axes=PAPER_AXES))
        grid_best = grid.best()

        assert grid_best is not None and out.best.ok
        assert out.spent < 0.1 * out.pool_size, (
            f"{target}: spent {out.spent} of pool {out.pool_size}"
        )
        # same optimum — identical point, or (tie tolerance) identical
        # bandwidth to within 1e-6 relative
        if out.best.fingerprint() != grid_best.fingerprint():
            assert out.best.bandwidth_gbs == pytest.approx(
                grid_best.bandwidth_gbs, rel=1e-6
            ), (
                f"{target}: search found {out.best.params.describe()} "
                f"({out.best.bandwidth_gbs:.6f}), sweep found "
                f"{grid_best.params.describe()} "
                f"({grid_best.bandwidth_gbs:.6f})"
            )

    def test_budget_respected_and_accounted(self):
        runner = BenchmarkRunner("cpu", ntimes=1)
        out = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=4)
        assert out.spent <= 4
        assert out.evaluations_used == out.spent
        assert out.rungs[-1].spent == out.spent

    def test_rung_structure(self):
        """Rung 0 is the free model tier over the whole pool; measured
        rungs admit prefixes of the model ranking."""
        runner = BenchmarkRunner("aocl", ntimes=1)
        out = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=6)
        model = out.rungs[0]
        assert model.tier == "model"
        assert len(model.candidates) == out.pool_size
        assert model.spent == 0
        assert all(r.tier in ("measured", "refine") for r in out.rungs[1:])
        # the model ranking orders its survivors best-first
        scores = dict(zip(model.candidates, model.scores))
        ranked = [scores[key] for key in model.survivors]
        assert ranked == sorted(ranked, reverse=True)

    def test_no_admission_below_an_unadmitted_candidate(self):
        """Successive halving admits the model ranking in prefix order:
        no measured candidate was ranked strictly below a never-measured
        one by the low-fidelity tier."""
        runner = BenchmarkRunner("gpu", ntimes=1)
        out = multifidelity_search(
            runner, SMALL_AXES, seed=SEED, budget=6, refine=False
        )
        model = out.rungs[0]
        scores = dict(zip(model.candidates, model.scores))
        measured = {
            key for rung in out.rungs[1:] for key in rung.candidates
        }
        unmeasured = set(model.survivors) - measured
        if measured and unmeasured:
            worst_measured = min(scores[k] for k in measured)
            best_unmeasured = max(scores[k] for k in unmeasured)
            assert worst_measured >= best_unmeasured

    def test_trajectory_fingerprint_is_stable(self):
        runner = BenchmarkRunner("cpu", ntimes=1)
        a = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=6)
        b = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=6)
        assert a.trajectory_fingerprint() == b.trajectory_fingerprint()
        assert a.rung_fingerprints() == b.rung_fingerprints()

    def test_build_failures_do_not_win(self):
        """On sdaccel, vec=16 + 3-array kernels overflow; the model tier
        scores the failed build None, so it is never measured."""
        runner = BenchmarkRunner("sdaccel", ntimes=1)
        out = multifidelity_search(
            runner,
            {"vector_width": [1, 8, 16]},
            seed=TuningParameters(
                array_bytes=256 * KIB,
                kernel=KernelName.ADD,
                loop=LoopManagement.NESTED,
            ),
            budget=10,
        )
        assert out.pool_size == 3 and out.spent == 2
        assert out.best.ok
        assert out.best.params.vector_width == 8

    def test_illegal_points_skipped(self):
        """unroll>1 is illegal for NDRange; the pool drops it instead
        of crashing."""
        runner = BenchmarkRunner("cpu", ntimes=1)
        out = multifidelity_search(
            runner,
            {"unroll": [1, 4], "vector_width": [1, 4]},
            seed=TuningParameters(array_bytes=64 * KIB),  # NDRange seed
            budget=10,
        )
        assert out.pool_size == 2
        assert out.best.ok
        assert out.best.params.unroll == 1


# ---------------------------------------------------------------------------
# validation: uniform SweepError at entry
# ---------------------------------------------------------------------------


class TestSearchValidation:
    def runner(self):
        return BenchmarkRunner("cpu", ntimes=1)

    def test_budget_below_one(self):
        with pytest.raises(SweepError, match="budget must be >= 1"):
            multifidelity_search(self.runner(), SMALL_AXES, budget=0)

    def test_eta_below_two(self):
        with pytest.raises(SweepError, match="eta must be >= 2"):
            multifidelity_search(self.runner(), SMALL_AXES, eta=1)

    def test_no_axes(self):
        with pytest.raises(SweepError, match="at least one axis"):
            multifidelity_search(self.runner(), {})

    def test_empty_axis_values(self):
        with pytest.raises(SweepError, match="has no values"):
            multifidelity_search(self.runner(), {"vector_width": []})

    def test_unknown_axis(self):
        with pytest.raises(SweepError, match="unknown sweep axes"):
            multifidelity_search(self.runner(), {"warp_size": [32]})

    def test_host_locus_not_scorable(self):
        axes = {"locus": [StreamLocus.DEVICE, StreamLocus.HOST]}
        with pytest.raises(SweepError, match="host-locus"):
            multifidelity_search(self.runner(), axes, seed=SEED, budget=4)


# ---------------------------------------------------------------------------
# the low-fidelity tier
# ---------------------------------------------------------------------------


class TestLowFidelityScorer:
    def test_scores_match_model_ordering_currency(self):
        """Scores are GB/s: positive for buildable points, None for
        build failures, memoized per point."""
        runner = BenchmarkRunner("aocl", ntimes=1)
        scorer = LowFidelityScorer(runner)
        ok = SEED
        score = scorer.score(ok)
        assert score is not None and score > 0
        assert scorer.score(ok) == score  # memo

    def test_build_failure_scores_none(self):
        """An FPGA resource overflow in the model tier is a None score,
        not an exception — mirrors failed points in a sweep."""
        runner = BenchmarkRunner("aocl", ntimes=1)
        scorer = LowFidelityScorer(runner)
        monster = TuningParameters(
            array_bytes=64 * KIB,
            loop=LoopManagement.FLAT,
            vector_width=16,
            unroll=16,
            num_compute_units=8,
        )
        assert scorer.score(monster) is None

    def test_cached_failure_identical_to_engine_failure(self):
        """The scorer shares the engine's plan cache, so the failure it
        caches must classify exactly like an engine-run failure."""
        monster = TuningParameters(
            array_bytes=64 * KIB,
            loop=LoopManagement.FLAT,
            vector_width=16,
            unroll=16,
            num_compute_units=8,
        )
        # scorer first: poisons the shared plan cache if wrapping differs
        runner = BenchmarkRunner("aocl", ntimes=1)
        LowFidelityScorer(runner).score(monster)
        via_scorer_first = runner.run(monster)
        # fresh engine, engine first
        control = BenchmarkRunner("aocl", ntimes=1, cache=False).run(monster)
        assert not via_scorer_first.ok and not control.ok
        assert via_scorer_first.failure_kind == control.failure_kind


# ---------------------------------------------------------------------------
# hypothesis properties over the pure halving/promotion helpers
# ---------------------------------------------------------------------------


scores_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=63),
    st.one_of(st.none(), st.floats(min_value=0, max_value=1e3)),
    min_size=1,
    max_size=24,
)


class TestHalvingProperties:
    @given(scores=scores_strategy, keep=st.integers(min_value=1, max_value=24))
    @settings(max_examples=200, deadline=None)
    def test_promote_never_picks_below_an_eliminated(self, scores, keep):
        """The satellite property: promotion never keeps a candidate
        scored strictly below an eliminated one at the same rung."""
        candidates = sorted(scores)
        kept = promote(candidates, scores, keep)
        eliminated = [c for c in candidates if c not in kept]

        def rank(i):
            s = scores.get(i)
            return s if s is not None else 0.0

        for k in kept:
            for e in eliminated:
                assert not rank(k) < rank(e)

    @given(scores=scores_strategy, keep=st.integers(min_value=1, max_value=24))
    @settings(max_examples=200, deadline=None)
    def test_promote_tie_break_keeps_earlier_pool_index(self, scores, keep):
        candidates = sorted(scores)
        kept = promote(candidates, scores, keep)

        def rank(i):
            s = scores.get(i)
            return s if s is not None else 0.0

        for e in (c for c in candidates if c not in kept):
            for k in kept:
                if rank(k) == rank(e):
                    assert k < e  # equal score: earlier index survives

    @given(scores=scores_strategy, keep=st.integers(min_value=0, max_value=24))
    @settings(max_examples=100, deadline=None)
    def test_promote_is_deterministic_and_bounded(self, scores, keep):
        candidates = sorted(scores)
        a = promote(candidates, scores, keep)
        b = promote(list(reversed(candidates)), scores, keep)
        assert a == b  # input order never matters
        assert len(a) == min(keep, len(candidates))

    @given(
        budget=st.integers(min_value=1, max_value=200),
        eta=st.integers(min_value=2, max_value=5),
        pool=st.integers(min_value=1, max_value=500),
        refine=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_halving_widths_fit_the_budget(self, budget, eta, pool, refine):
        widths = halving_widths(budget, eta, pool, refine)
        assert widths, "at least one rung"
        assert widths[0] <= pool or pool == 0
        assert sum(widths) <= max(budget, 1)
        assert widths[-1] == 1
        # geometric: each tranche is the previous over eta (floored, min 1)
        for a, b in zip(widths, widths[1:]):
            assert b == max(1, a // eta)
        if refine and budget >= 2:
            # refinement held back at least one evaluation
            assert sum(widths) < budget or sum(widths) == 1


# ---------------------------------------------------------------------------
# golden trajectory corpus
# ---------------------------------------------------------------------------


class TestGoldenSearchTrajectories:
    def test_pinned_trajectories_have_no_drift(self):
        """Every pinned scenario replays to the identical rung-by-rung
        trajectory; drift is reported by name, not just failed."""
        from repro import verify as V

        pinned = V.load_corpus(V.DEFAULT_SEARCH_GOLDEN_PATH)
        current = V.compute_search_corpus()
        diff = V.diff_corpus(pinned, current, fields=V.SEARCH_COMPARED_FIELDS)
        assert diff.clean, V.format_drift(diff, pinned, current)

    def test_corpus_covers_every_target(self):
        from repro import verify as V

        pinned = V.load_corpus(V.DEFAULT_SEARCH_GOLDEN_PATH)
        targets = {e["target"] for e in pinned["entries"].values()}
        assert targets == {"cpu", "gpu", "aocl", "sdaccel"}
        for entry in pinned["entries"].values():
            assert entry["spent"] <= entry["budget"]
            assert len(entry["rung_fingerprints"]) >= 2
