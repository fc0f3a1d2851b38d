"""Design-space search: rank every part assignment of a Boolean function.

The layered counterpart of a single replicate study.  The **enumeration**
layer (:mod:`repro.gates.assignment`) streams candidate part assignments;
the **scoring** layer (:class:`repro.analysis.CandidateScore`) aggregates
replicate analyses refinably; this package adds the **search** layer — a
canonical :class:`SearchSpec` plus a racing (successive-halving) replicate
allocator over the simulation engine — and returns a ranked, serializable
:class:`SearchFrontier`.  Entry points: :func:`run_design_search`, the
``genlogic search`` CLI and ``POST /v1/search`` on the HTTP service.
"""

from .engine import FrontierEntry, SearchFrontier, run_design_search
from .spec import SEARCH_SPEC_SCHEMA, SearchSpec

__all__ = [
    "SEARCH_SPEC_SCHEMA",
    "SearchSpec",
    "FrontierEntry",
    "SearchFrontier",
    "run_design_search",
]
