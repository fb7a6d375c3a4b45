"""Model-guided multi-fidelity search over the tuning space.

The paper frames MP-STREAM as fuel for "both a manual and automated
design-space exploration route". Grid sweeps (:func:`~repro.core.sweep.
explore`) are the manual route; this module is the automated one: find
the exhaustive sweep's optimum while *measuring* under 10% of the grid.

Three fidelity tiers:

1. **Model tier (free).** The analytic device model scores every
   candidate in the pool (:class:`~repro.core.search.lowfi.
   LowFidelityScorer`) — generate → cached build → closed-form predicted
   GB/s, no execution. Build failures score ``None`` and are never
   admitted.
2. **Measured tier (successive halving).** The model ranking is
   admitted in geometric tranches: the top ``w0`` candidates are
   engine-measured, the best ``ceil(w0/eta)`` survivors carry into the
   next rung where the next ``w1 = w0 // eta`` ranked candidates join
   them, and so on down to a single survivor. Survivors are promoted by
   *measured* bandwidth; the model only decides admission order.
3. **Refinement tier.** Remaining budget walks ±1 axis steps around the
   incumbent, accepting strict improvements, until no neighbour wins or
   the budget is gone.

Determinism is load-bearing (the differential harness and golden
trajectories pin it): every ordering is by ``(-score, pool_index)`` —
ties keep the earlier candidate in pool (row-major grid) order — and is
computed from *values*, never from completion order. The searcher is a
thin :class:`~repro.core.scheduler.CampaignScheduler` client exactly
like ``explore()``: measured rungs are scheduler batches, so journaling
and ``resume=`` (restored evaluations still count against the budget —
that is what keeps a resumed trajectory identical), serial and
worker-process backends, and crash-requeue all come for free.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from ...errors import SweepError
from ...obs import events, metrics
from ..engine import ExecutionEngine
from ..history import SweepJournal
from ..params import TuningParameters
from ..results import ResultSet, RunResult
from ..runner import BenchmarkRunner
from ..scheduler import CampaignScheduler
from ..sweep import ParameterSweep
from .lowfi import LowFidelityScorer

__all__ = [
    "DEFAULT_BUDGET",
    "SearchRung",
    "SearchResult",
    "halving_widths",
    "promote",
    "multifidelity_search",
]

#: Measured evaluations a search spends unless told otherwise. Over the
#: paper and CLI-default grids on all four targets, 12 finds the
#: exhaustive optimum every time at about 9 evaluations on average.
DEFAULT_BUDGET = 12


@dataclass(frozen=True)
class SearchRung:
    """One rung of the search, recorded for fingerprinting.

    ``candidates``/``scores`` are aligned: the points considered at this
    rung in pool order and the score each received (model GB/s for the
    model rung, measured GB/s for measured/refine rungs; ``None`` for a
    point that failed to build or run). ``survivors`` is the ordered
    subset promoted to the next rung.
    """

    index: int
    tier: str  # "model" | "measured" | "refine"
    candidates: tuple[str, ...]
    scores: tuple[Optional[float], ...]
    survivors: tuple[str, ...]
    spent: int  # cumulative measured evaluations after this rung

    def doc(self) -> dict[str, object]:
        return {
            "index": self.index,
            "tier": self.tier,
            "candidates": list(self.candidates),
            "scores": [
                None if s is None else round(s, 6) for s in self.scores
            ],
            "survivors": list(self.survivors),
            "spent": self.spent,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class SearchResult:
    """Outcome of a multi-fidelity search."""

    best: RunResult
    evaluations: ResultSet
    rungs: list[SearchRung]
    #: improvement path: (params description, bandwidth) per accepted move
    trajectory: list[tuple[str, float]] = field(default_factory=list)
    budget: int = 0
    spent: int = 0
    pool_size: int = 0
    grid_size: int = 0
    model_scored: int = 0

    @property
    def evaluations_used(self) -> int:
        return len(self.evaluations)

    @property
    def efficiency(self) -> float:
        """Pool points per measured evaluation (higher = cheaper search)."""
        return self.pool_size / max(1, self.spent)

    def rung_fingerprints(self) -> list[str]:
        return [r.fingerprint() for r in self.rungs]

    def trajectory_fingerprint(self) -> str:
        """One hash over the whole rung-by-rung trajectory."""
        blob = json.dumps(
            [r.doc() for r in self.rungs], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _schedule(first: int, eta: int) -> list[int]:
    """Tranche widths for successive halving starting at ``first``."""
    widths = [first]
    while widths[-1] > 1:
        widths.append(max(1, widths[-1] // eta))
    return widths


def halving_widths(budget: int, eta: int, pool: int, refine: bool) -> list[int]:
    """Admission-tranche widths fitting the measured budget.

    When ``refine`` is on, a quarter of the budget (at least one
    evaluation) is held back for local refinement; halving gets the
    rest. The first tranche is the largest ``w <= min(pool, ceiling)``
    whose geometric schedule ``[w, w//eta, ..., 1]`` fits the ceiling,
    so small budgets degrade gracefully to a single one-wide rung.
    """
    ceiling = budget
    if refine:
        ceiling = max(1, budget - max(1, budget // 4))
    ceiling = min(ceiling, pool)
    for first in range(ceiling, 0, -1):
        widths = _schedule(first, eta)
        if sum(widths) <= max(ceiling, 1):
            return widths
    return [1]


def promote(
    candidates: Sequence[int],
    scores: Mapping[int, Optional[float]],
    keep: int,
) -> list[int]:
    """The ``keep`` best candidates by ``(-score, pool_index)``.

    Unscored / failed candidates (``None``) rank as 0.0 — below any
    successful measurement, but still deterministically ordered by pool
    index so an all-failed rung has a stable survivor.
    """
    def key(i: int) -> tuple[float, int]:
        s = scores.get(i)
        return (-(s if s is not None else 0.0), i)

    return sorted(candidates, key=key)[: max(0, keep)]


def multifidelity_search(
    runner: BenchmarkRunner | ExecutionEngine,
    axes: Mapping[str, Sequence[object]],
    *,
    seed: TuningParameters | None = None,
    budget: int = DEFAULT_BUDGET,
    eta: int = 2,
    refine: bool = True,
    jobs: int = 1,
    backend: str | None = None,
    journal: SweepJournal | str | Path | None = None,
    resume: bool = False,
    resume_or_start: bool = False,
    max_worker_restarts: int = 2,
) -> SearchResult:
    """Model-guided successive halving over ``axes``.

    ``axes`` maps :class:`TuningParameters` fields to candidate values;
    the pool is the cartesian product grounded on ``seed`` (defaults to
    ``TuningParameters()``), in row-major grid order, invalid
    combinations skipped. ``budget`` caps *measured* evaluations only —
    model scores are free. ``eta`` is the halving rate (keep
    ``ceil(n/eta)`` survivors per rung); ``refine=False`` spends the
    whole budget on halving.

    Scheduling semantics are ``explore()``'s: ``jobs > 1`` runs each
    rung on its own pool of ``jobs`` worker processes, ``journal``/``resume`` checkpoint every
    measured evaluation (restored evaluations count against ``budget``,
    so a resumed search replays an identical trajectory). The
    trajectory is backend- and parallelism-independent by construction.
    """
    if budget < 1:
        raise SweepError(f"budget must be >= 1, got {budget}")
    if eta < 2:
        raise SweepError(f"eta must be >= 2, got {eta}")
    if not axes:
        raise SweepError("search needs at least one axis")

    base = seed if seed is not None else TuningParameters()
    sweep = ParameterSweep(base=base, axes=dict(axes))  # validates axes
    pool: list[TuningParameters] = list(sweep.points())
    if not pool:
        raise SweepError(
            "search pool is empty: every axis combination is invalid"
        )

    scorer = LowFidelityScorer(runner)
    for point in pool:
        scorer.check_scorable(point)

    scheduler = CampaignScheduler(
        runner,
        backend=backend,
        jobs=jobs,
        journal=journal,
        resume=resume,
        resume_or_start=resume_or_start,
        max_worker_restarts=max_worker_restarts,
    )

    keys = [p.describe() for p in pool]
    events.emit(
        "search_started",
        pool=len(pool),
        grid=len(sweep),
        budget=budget,
        eta=eta,
        refine=refine,
    )

    # -- rung 0: the model tier scores the whole pool (free) ------------------
    model_scores: dict[int, Optional[float]] = {
        i: scorer.score(p) for i, p in enumerate(pool)
    }
    metrics.count("search.model_scores", len(pool))
    scoreable = [i for i in range(len(pool)) if model_scores[i] is not None]
    ranking = promote(scoreable, model_scores, len(scoreable))
    rungs: list[SearchRung] = []

    def record(tier: str, candidates: list[int], scores, survivors, spent):
        rung = SearchRung(
            index=len(rungs),
            tier=tier,
            candidates=tuple(keys[i] for i in candidates),
            scores=tuple(scores.get(i) for i in candidates),
            survivors=tuple(keys[i] for i in survivors),
            spent=spent,
        )
        rungs.append(rung)
        metrics.count("search.rungs")
        events.emit(
            "search_rung",
            index=rung.index,
            tier=tier,
            candidates=len(candidates),
            survivors=len(survivors),
            spent=spent,
            fingerprint=rung.fingerprint(),
        )
        return rung

    record("model", list(range(len(pool))), model_scores, ranking, 0)
    if not ranking:
        raise SweepError(
            "low-fidelity tier could not score any pool point: every "
            "candidate failed to build for "
            f"{scorer.device.short_name!r}"
        )

    # -- measured tier: successive halving over the model ranking -------------
    evaluations = ResultSet()
    measured: dict[int, RunResult] = {}
    spent = 0

    def measure(indices: Sequence[int]) -> None:
        """Engine-measure the given pool indices, up to the budget.

        Points go to the scheduler in pool order (sorted indices), so
        the journal sequence — and therefore resume — is deterministic.
        """
        nonlocal spent
        fresh = [i for i in sorted(indices) if i not in measured]
        fresh = fresh[: budget - spent]
        if not fresh:
            return
        for i, result in zip(fresh, scheduler.run([pool[i] for i in fresh])):
            measured[i] = result
            evaluations.add(result)
            events.emit(
                "search_candidate",
                point=result.fingerprint(),
                params=keys[i],
                ok=result.ok,
                bandwidth_gbs=result.bandwidth_gbs if result.ok else None,
            )
        metrics.count("search.evaluations", len(fresh))
        spent += len(fresh)

    def measured_score(i: int) -> Optional[float]:
        r = measured.get(i)
        if r is None or not r.ok:
            return None
        return r.bandwidth_gbs

    widths = halving_widths(budget, eta, len(ranking), refine)
    survivors: list[int] = []
    admitted = 0
    for width in widths:
        tranche = ranking[admitted : admitted + width]
        admitted += len(tranche)
        measure(tranche)
        contenders = sorted(set(survivors) | {i for i in tranche if i in measured})
        if not contenders:
            break  # budget exhausted before this rung admitted anything
        keep = max(1, -(-len(contenders) // eta))  # ceil
        scores = {i: measured_score(i) for i in contenders}
        survivors = promote(contenders, scores, keep)
        record("measured", contenders, scores, survivors, spent)
        if spent >= budget:
            break

    if not measured:  # pragma: no cover - budget >= 1 admits one point
        raise SweepError("budget exhausted before any point was measured")

    # Incumbent: best measured point overall (promotion order already
    # encodes the tie-break; an all-failed search keeps the first
    # survivor so the result is still deterministic).
    ok_indices = [i for i in measured if measured[i].ok]
    if ok_indices:
        incumbent = promote(ok_indices, {i: measured_score(i) for i in ok_indices}, 1)[0]
    else:
        incumbent = survivors[0] if survivors else sorted(measured)[0]
    best = measured[incumbent]
    trajectory: list[tuple[str, float]] = [
        (keys[incumbent], best.bandwidth_gbs if best.ok else 0.0)
    ]

    # -- refinement tier: ±1 axis steps around the incumbent ------------------
    index_of: dict[TuningParameters, int] = {}
    for i, p in enumerate(pool):
        index_of.setdefault(p, i)

    while refine and spent < budget and best.ok:
        current = pool[incumbent]
        neighbours: list[int] = []
        for axis, values in axes.items():
            values = list(values)
            try:
                at = values.index(getattr(current, axis))
            except ValueError:  # pragma: no cover - pool points come from axes
                continue
            for step in (at - 1, at + 1):
                if not 0 <= step < len(values):
                    continue
                try:
                    candidate = current.with_(**{axis: values[step]})
                except SweepError:
                    continue  # invalid combination: not a legal move
                j = index_of.get(candidate)
                if j is None or j in measured or model_scores.get(j) is None:
                    continue
                if j not in neighbours:
                    neighbours.append(j)
        neighbours.sort()
        fresh = [j for j in neighbours if j not in measured][: budget - spent]
        if not fresh:
            break
        measure(fresh)
        contenders = sorted({incumbent, *[j for j in fresh if j in measured]})
        scores = {i: measured_score(i) for i in contenders}
        winner = promote(contenders, scores, 1)[0]
        record("refine", contenders, scores, [winner], spent)
        winner_score = measured_score(winner)
        best_score = measured_score(incumbent)
        if (
            winner != incumbent
            and winner_score is not None
            and (best_score is None or winner_score > best_score)
        ):
            incumbent = winner
            best = measured[incumbent]
            trajectory.append((keys[incumbent], best.bandwidth_gbs))
            metrics.count("search.refine_moves")
        else:
            break

    result = SearchResult(
        best=best,
        evaluations=evaluations,
        rungs=rungs,
        trajectory=trajectory,
        budget=budget,
        spent=spent,
        pool_size=len(pool),
        grid_size=len(sweep),
        model_scored=len(scoreable),
    )
    events.emit(
        "search_finished",
        best=keys[incumbent],
        bandwidth_gbs=best.bandwidth_gbs if best.ok else None,
        spent=spent,
        pool=len(pool),
        rungs=len(rungs),
        trajectory=result.trajectory_fingerprint(),
    )
    return result
