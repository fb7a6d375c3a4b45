"""Model-guided multi-fidelity search (the automated DSE route).

See :mod:`repro.core.search.multifidelity` for the algorithm and
:mod:`repro.core.search.lowfi` for the analytic-model scoring tier.
"""

from .lowfi import LowFidelityScorer
from .multifidelity import (
    DEFAULT_BUDGET,
    SearchResult,
    SearchRung,
    halving_widths,
    multifidelity_search,
    promote,
)

__all__ = [
    "DEFAULT_BUDGET",
    "LowFidelityScorer",
    "SearchResult",
    "SearchRung",
    "halving_widths",
    "multifidelity_search",
    "promote",
]
