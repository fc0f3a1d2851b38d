"""The design-space search engine: enumerate → simulate → score → rank.

:func:`run_design_search` evaluates every candidate part assignment of a
Boolean function (repressor permutations × variant overrides, from
:func:`repro.gates.enumerate_assignments`) and returns a ranked
:class:`SearchFrontier`.  Replicates are allocated by the spec's policy:

* ``"fixed"`` — every candidate gets exactly ``fixed_replicates``; the
  exhaustive baseline.
* ``"racing"`` (successive halving) — every candidate starts at ``n0``
  replicates; each round, the frontier cut is placed between rank ``top_k``
  and rank ``top_k + 1``, and only candidates whose confidence interval
  still overlaps the ambiguity band ``[ci_lo(rank k), ci_hi(rank k+1)]``
  receive another ``refine_step`` replicates (up to ``fixed_replicates``
  each, never beyond ``budget_replicates`` total).  Clearly-in and
  clearly-out candidates stop consuming budget, so the total replicate count
  grows sublinearly with the candidate count.

Determinism is bit-exact at any ``workers=`` / ``batch_size=`` and on any
backend (serial, process pool, distributed fabric):

* every candidate owns one child :class:`~numpy.random.SeedSequence` spawned
  from the spec seed, and each refinement batch spawns *its* next children in
  order — so candidate ``i``'s replicate ``j`` has the same seed whether it
  was scheduled in round 1 or round 5, and the racing replicates are a
  prefix of the fixed-N replicates for the same spec;
* each round is one flat :func:`repro.engine.run_ensemble` call whose
  reducer output is assembled by job index, and replicate analyses land in
  explicit :class:`~repro.analysis.CandidateScore` slots — aggregation order
  never depends on completion order;
* ranking and the band test are pure functions of the slot-ordered scores.

Hence the same spec yields the same frontier everywhere, and the frontier
payload (minus its ``engine`` timing block) is content-addressable under
:meth:`SearchSpec.cache_key`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.scoring import CandidateScore
from ..core.analyzer import LogicAnalyzer
from ..engine.api import replicate_jobs, run_ensemble
from ..engine.executors import get_executor
from ..errors import EngineError
from ..gates.assignment import PartAssignment
from ..gates.circuits import build_circuit
from ..vlab.experiment import LogicExperiment
from .spec import SearchSpec

__all__ = [
    "FrontierEntry",
    "SearchFrontier",
    "run_design_search",
]


@dataclass
class FrontierEntry:
    """One ranked candidate: its part assignment plus aggregated score."""

    rank: int
    candidate: PartAssignment
    score: CandidateScore
    ci_level: float

    @property
    def mean_design_fitness(self) -> float:
        return self.score.mean_design_fitness

    @property
    def n_replicates(self) -> int:
        return self.score.n_replicates

    def design_ci(self) -> Tuple[float, float]:
        return self.score.design_ci(self.ci_level)

    def to_dict(self) -> Dict[str, Any]:
        lo, hi = self.design_ci()
        payload: Dict[str, Any] = {
            "rank": self.rank,
            "candidate": self.candidate.to_dict(),
            "label": self.candidate.label(),
            "ci_level": self.ci_level,
            "design_ci": [lo, hi],
        }
        payload.update(self.score.to_payload())
        return payload

    def summary(self) -> str:
        return (
            f"{self.rank}. {self.candidate.label()}: design fitness "
            f"{self.score.mean_design_fitness:.2f}% "
            f"(raw {self.score.mean_fitness:.2f} ± {self.score.std_fitness:.2f}, "
            f"n={self.score.n_replicates}, "
            f"margin={self.score.worst_combination_margin():.2f})"
        )


@dataclass
class SearchFrontier:
    """The ranked outcome of one design-space search.

    ``entries`` covers *every* evaluated candidate in rank order (rank 1 is
    best); :meth:`top` slices the frontier the allocator separated.  The
    ranking key is ``(-mean_design_fitness, -worst_combination_margin,
    enumeration index)`` — correctness-weighted fitness first (see
    :attr:`repro.analysis.CandidateScore.design_values`), robustness breaking
    ties, enumeration order making the ranking total and deterministic.
    """

    spec: SearchSpec
    entries: List[FrontierEntry]
    total_replicates: int
    rounds: int
    #: Aggregated execution statistics (timing, cache counters).  Excluded
    #: from result identity: two runs of the same spec on different backends
    #: produce equal payloads apart from this block.
    engine_stats: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def n_candidates(self) -> int:
        return len(self.entries)

    @property
    def exhaustive_replicates(self) -> int:
        """What the fixed-N baseline would have cost on this space."""
        return self.n_candidates * self.spec.fixed_replicates

    @property
    def replicates_fraction(self) -> float:
        """Fraction of the exhaustive cost actually spent (≤ 1.0)."""
        exhaustive = self.exhaustive_replicates
        if exhaustive <= 0:
            return 0.0
        return self.total_replicates / exhaustive

    def top(self, k: Optional[int] = None) -> List[FrontierEntry]:
        """The best ``k`` entries (default: the spec's ``top_k``)."""
        return self.entries[: self.spec.top_k if k is None else k]

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready frontier (the ``POST /v1/search`` result shape).

        Everything except the ``engine`` block is a pure function of the
        spec, so payloads from different backends/worker counts compare
        equal field-for-field apart from ``engine`` — the property the
        service's content-addressed cache relies on.
        """
        payload: Dict[str, Any] = {
            "function": self.spec.function.lower(),
            "allocator": self.spec.allocator,
            "n_candidates": self.n_candidates,
            "top_k": self.spec.top_k,
            "total_replicates": self.total_replicates,
            "exhaustive_replicates": self.exhaustive_replicates,
            "replicates_fraction": self.replicates_fraction,
            "rounds": self.rounds,
            "entries": [entry.to_dict() for entry in self.entries],
            "spec": self.spec.to_dict(),
        }
        if self.engine_stats is not None:
            payload["engine"] = dict(self.engine_stats)
        return payload

    def summary(self) -> str:
        header = (
            f"search {self.spec.function.lower()}: {self.n_candidates} candidates, "
            f"{self.total_replicates}/{self.exhaustive_replicates} replicates "
            f"({self.replicates_fraction * 100:.0f}% of exhaustive) in "
            f"{self.rounds} round(s) [{self.spec.allocator}]"
        )
        lines = [header]
        lines.extend(f"  {entry.summary()}" for entry in self.top())
        return "\n".join(lines)


def _as_search_spec(spec: Union[SearchSpec, Mapping, str, bytes]) -> SearchSpec:
    if isinstance(spec, SearchSpec):
        return spec
    if isinstance(spec, Mapping):
        return SearchSpec.from_dict(spec)
    if isinstance(spec, (str, bytes)):
        return SearchSpec.from_json(spec)
    raise EngineError(
        f"expected a SearchSpec, dict or JSON string, got {type(spec).__name__}",
    )


class _CandidateState:
    """Per-candidate execution state: job template, score, seed stream."""

    __slots__ = ("candidate", "experiment", "template", "score", "seed")

    def __init__(self, candidate, experiment, template, score, seed):
        self.candidate = candidate
        self.experiment = experiment
        self.template = template
        self.score = score
        self.seed = seed


def _build_states(spec: SearchSpec) -> List[_CandidateState]:
    """Materialize the candidate space into runnable per-candidate state.

    Candidates sharing a repressor permutation share one built circuit (and
    thus one compiled model downstream): variant overrides ride on the job,
    not in the model.  Each candidate gets its own child SeedSequence from
    the spec seed, spawned in enumeration order.
    """
    library = spec.parts()
    candidates = spec.candidates()
    if not candidates:
        raise EngineError(
            f"the search space of {spec.function!r} is empty (not enough "
            "repressors for the assignable gates?)",
        )
    root = np.random.SeedSequence(spec.seed)
    seeds = root.spawn(len(candidates))
    shared: Dict[Tuple, Tuple] = {}
    states: List[_CandidateState] = []
    for candidate, seed in zip(candidates, seeds):
        entry = shared.get(candidate.repressors)
        if entry is None:
            circuit = build_circuit(
                spec.netlist(),
                library,
                output_protein=spec.output_protein,
                assignment=candidate,
            )
            experiment = LogicExperiment.for_circuit(
                circuit,
                simulator=spec.simulator,
                sample_interval=spec.sample_interval,
            )
            entry = (circuit, experiment)
            shared[candidate.repressors] = entry
        circuit, experiment = entry
        template = experiment.job(
            hold_time=spec.hold_time,
            repeats=spec.repeats,
            overrides=dict(candidate.overrides) if candidate.overrides else None,
        )
        states.append(
            _CandidateState(
                candidate=candidate,
                experiment=experiment,
                template=template,
                score=CandidateScore(circuit.expected_table),
                seed=seed,
            ),
        )
    return states


def _rank(states: Sequence[_CandidateState]) -> List[int]:
    """Candidate indices best-first: design fitness, robustness, then index."""
    return sorted(
        range(len(states)),
        key=lambda i: (
            -states[i].score.mean_design_fitness,
            -states[i].score.worst_combination_margin(),
            i,
        ),
    )


def run_design_search(
    spec: Union[SearchSpec, Mapping, str, bytes],
    executor=None,
    progress=None,
) -> SearchFrontier:
    """Execute a design-space search and return its ranked frontier.

    Parameters
    ----------
    spec:
        A :class:`SearchSpec` (or its dict / JSON form).
    executor:
        An opened engine executor (serial, pool, or distributed fabric) to
        run every round's ensemble on; its lifecycle belongs to the caller.
        Without it, an ephemeral executor is built from ``spec.workers``.
    progress:
        Engine progress hook ``(done, total, job)``, called per completed
        replicate within each round.

    The frontier is bit-identical for the same spec on every backend and at
    any ``batch_size`` — see the module docstring for why.
    """
    spec = _as_search_spec(spec)
    spec.check_budget()
    states = _build_states(spec)
    n = len(states)
    budget = spec.total_budget()
    initial = spec.initial_replicates()
    analyzer = LogicAnalyzer(threshold=spec.threshold, fov_ud=spec.fov_ud)

    owns_executor = executor is None
    runner = executor if executor is not None else get_executor(spec.workers)
    total_replicates = 0
    rounds = 0
    wall_seconds = 0.0
    cache_hits = 0
    cache_misses = 0
    executor_name = None
    executor_workers = None

    def _run_round(allocation: Sequence[Tuple[int, int]]) -> None:
        """Simulate and score one ``(candidate index, n new replicates)`` batch."""
        nonlocal total_replicates, rounds, wall_seconds
        nonlocal cache_hits, cache_misses, executor_name, executor_workers
        jobs = []
        owner: List[int] = []
        slots: List[int] = []
        for index, extra in allocation:
            state = states[index]
            base = state.score.n_replicates
            # The per-candidate SeedSequence is stateful: each spawn continues
            # where the last round stopped, so replicate j's seed is the same
            # whichever round scheduled it.
            jobs.extend(replicate_jobs(state.template, extra, seed=state.seed))
            owner.extend([index] * extra)
            slots.extend(range(base, base + extra))

        def _analyze(job_index, job, trajectory):
            state = states[owner[job_index]]
            data = state.experiment.datalog_from(job, trajectory)
            return analyzer.analyze(data, expected=state.score.expected)

        ensemble = run_ensemble(
            jobs,
            executor=runner,
            progress=progress,
            reduce=_analyze,
            batch_size=spec.batch_size,
        )
        for job_index, result in enumerate(ensemble.reduced):
            states[owner[job_index]].score.add(result, slot=slots[job_index])
        total_replicates += len(jobs)
        rounds += 1
        stats = ensemble.stats
        wall_seconds += stats.wall_seconds
        cache_hits += stats.cache_hits
        cache_misses += stats.cache_misses
        executor_name = stats.executor
        executor_workers = stats.workers

    try:
        _run_round([(i, initial) for i in range(n)])
        if spec.allocator == "racing" and n > spec.top_k:
            cap = spec.fixed_replicates
            while True:
                order = _rank(states)
                kth = states[order[spec.top_k - 1]].score
                challenger = states[order[spec.top_k]].score
                band_lo = kth.design_ci(spec.ci_level)[0]
                band_hi = challenger.design_ci(spec.ci_level)[1]
                if band_lo > band_hi:
                    break  # the frontier cut is statistically separated
                remaining = budget - total_replicates
                if remaining <= 0:
                    break
                allocation: List[Tuple[int, int]] = []
                for index in order:  # best-ranked candidates refine first
                    score = states[index].score
                    if score.n_replicates >= cap:
                        continue
                    lo, hi = score.design_ci(spec.ci_level)
                    if hi < band_lo or lo > band_hi:
                        continue  # clearly outside the ambiguity band
                    extra = min(spec.refine_step, cap - score.n_replicates, remaining)
                    if extra <= 0:
                        continue
                    allocation.append((index, extra))
                    remaining -= extra
                    if remaining <= 0:
                        break
                if not allocation:
                    break  # every ambiguous candidate is at its cap
                _run_round(allocation)
    finally:
        if owns_executor:
            runner.close()

    order = _rank(states)
    entries = [
        FrontierEntry(
            rank=position + 1,
            candidate=states[index].candidate,
            score=states[index].score,
            ci_level=spec.ci_level,
        )
        for position, index in enumerate(order)
    ]
    engine_stats: Dict[str, Any] = {
        "executor": executor_name,
        "workers": executor_workers,
        "wall_seconds": wall_seconds,
        "replicates_per_second": (
            total_replicates / wall_seconds if wall_seconds > 0 else float("inf")
        ),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
    }
    return SearchFrontier(
        spec=spec,
        entries=entries,
        total_replicates=total_replicates,
        rounds=rounds,
        engine_stats=engine_stats,
    )
