"""Pluggable campaign scheduling: one scheduler, many execution backends.

This package separates *what a campaign runs* from *where it runs*:

* :class:`CampaignScheduler` (:mod:`~repro.core.scheduler.campaign`) —
  ordering, dedup, journal/resume, crash-requeue policy, progress and
  obs instrumentation;
* :class:`Executor` implementations
  (:mod:`~repro.core.scheduler.executors`) — serial and
  crash-surviving process-pool backends behind one submit/outcome
  protocol, picked from ``jobs``.

:func:`repro.core.sweep.explore` and
:func:`repro.core.search.multifidelity_search` are thin clients of this
layer; see ``docs/SCHEDULING.md`` for the backend matrix and semantics.
"""

from .campaign import CampaignScheduler
from .executors import (
    BACKENDS,
    Executor,
    Outcome,
    ProcessExecutor,
    SerialExecutor,
    Task,
    make_executor,
)

__all__ = [
    "BACKENDS",
    "CampaignScheduler",
    "Executor",
    "Outcome",
    "ProcessExecutor",
    "SerialExecutor",
    "Task",
    "make_executor",
]
