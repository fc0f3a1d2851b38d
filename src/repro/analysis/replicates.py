"""Replicate studies: how repeatable is the recovered logic?

The paper interprets the percentage fitness as an indication of "how likely
it is that the circuit will actually work after implementation in the
laboratory".  A single stochastic run gives one fitness number; a replicate
study runs the same experiment under independent random seeds and reports

* how often the correct Boolean expression is recovered (the recovery rate),
* the distribution of the fitness score, and
* the per-combination agreement across replicates,

which is the statistically honest version of that reliability argument and a
natural extension the paper's conclusion points towards.

A study is named by one frozen :class:`~repro.engine.StudySpec` — the
serializable object naming the circuit, protocol, seed, analyzer
configuration and execution knobs — consumed identically by
:func:`run_replicate_study`, the CLI (``genlogic verify``) and the HTTP
service (:mod:`repro.service`).  A live circuit object enters through
:meth:`StudySpec.for_circuit <repro.engine.StudySpec.for_circuit>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.analyzer import LogicAnalysisResult, LogicAnalyzer
from ..engine.api import replicate_jobs, run_ensemble
from ..engine.jobs import EnsembleStats
from ..engine.spec import StudySpec
from ..errors import AnalysisError, EngineError
from ..logic.truthtable import TruthTable
from ..vlab.experiment import LogicExperiment
from .scoring import CandidateScore

__all__ = ["ReplicateStudy", "run_replicate_study"]


@dataclass
class ReplicateStudy:
    """Aggregated outcome of repeated experiments on one circuit."""

    circuit_name: str
    expected: TruthTable
    results: List[LogicAnalysisResult]
    #: Execution statistics of the simulation ensemble (None for studies
    #: assembled from pre-existing results).
    stats: Optional[EnsembleStats] = None
    #: The canonical spec this study executed (None for studies assembled
    #: from pre-existing results).
    spec: Optional[StudySpec] = None

    def __post_init__(self) -> None:
        if not self.results:
            raise AnalysisError("a replicate study needs at least one result")

    @property
    def n_replicates(self) -> int:
        return len(self.results)

    def score(self) -> CandidateScore:
        """The study's aggregation as a reusable :class:`CandidateScore`.

        Every statistic below delegates here; the score object itself is what
        the search layer keeps per candidate, because it can be *refined* by
        adding replicates instead of recomputing a study from scratch.
        """
        return CandidateScore.from_results(self.expected, self.results)

    @property
    def recovery_rate(self) -> float:
        """Fraction of replicates that recovered exactly the expected table."""
        return self.score().recovery_rate

    @property
    def fitness_values(self) -> List[float]:
        return [r.fitness for r in self.results]

    @property
    def mean_fitness(self) -> float:
        return self.score().mean_fitness

    @property
    def std_fitness(self) -> float:
        """Population standard deviation (``ddof=0``), the historical number.

        Reported in summaries and payloads since the first replicate studies;
        pinned to ``numpy.std`` population semantics.  For an interval around
        the mean use :meth:`sem_fitness` / :meth:`fitness_ci`, which use the
        sample variance (``ddof=1``).
        """
        return self.score().std_fitness

    def sem_fitness(self) -> float:
        """Standard error of the mean fitness (sample variance, ``ddof=1``).

        ``inf`` for a single replicate — see
        :meth:`repro.analysis.scoring.CandidateScore.sem_fitness`.
        """
        return self.score().sem_fitness()

    def fitness_ci(self, level: float = 0.95) -> tuple:
        """Normal-approximation CI for the mean fitness (``(-inf, inf)`` at n=1)."""
        return self.score().fitness_ci(level)

    def combination_agreement(self) -> Dict[str, float]:
        """Per-combination fraction of replicates agreeing with the expectation."""
        return self.score().combination_agreement()

    def worst_combination(self) -> str:
        """The input combination most often recovered incorrectly."""
        return self.score().worst_combination()

    def summary(self) -> str:
        return (
            f"{self.circuit_name}: {self.n_replicates} replicates, recovery rate "
            f"{self.recovery_rate * 100:.0f}%, fitness {self.mean_fitness:.2f}% ± "
            f"{self.std_fitness:.2f}"
        )

    def to_payload(self) -> Dict[str, object]:
        """A JSON-serializable summary of the study (the service result shape).

        ``fitness_values`` and ``recovered_tables`` carry the full
        per-replicate outcome, so the result fields (everything except the
        ``engine`` timing block) compare equal exactly when the underlying
        studies were bit-identical — the property the service's
        content-addressed cache (and its tests) rely on.
        """
        payload: Dict[str, object] = {
            "circuit": self.circuit_name,
            "expected": self.expected.to_hex(),
            "n_replicates": self.n_replicates,
            "recovery_rate": self.recovery_rate,
            "mean_fitness": self.mean_fitness,
            "std_fitness": self.std_fitness,
            "fitness_values": [float(v) for v in self.fitness_values],
            "recovered_tables": [r.truth_table.to_hex() for r in self.results],
            "combination_agreement": self.combination_agreement(),
            "worst_combination": self.worst_combination(),
        }
        if self.stats is not None:
            payload["engine"] = {
                "executor": self.stats.executor,
                "workers": self.stats.workers,
                "wall_seconds": self.stats.wall_seconds,
                "runs_per_second": self.stats.runs_per_second,
                "cache_hits": self.stats.cache_hits,
                "cache_misses": self.stats.cache_misses,
            }
        if self.spec is not None:
            payload["spec"] = self.spec.to_dict()
        return payload


def run_replicate_study(
    spec: StudySpec,
    *,
    executor=None,
    progress=None,
    **keywords,
) -> ReplicateStudy:
    """Run the study ``spec`` describes and aggregate the analyses.

    ``run_replicate_study(StudySpec(circuit="0x0B", n_replicates=20, seed=7,
    workers=4))``; the returned study records the spec at ``.spec``.  A live
    circuit object enters through ``StudySpec.for_circuit(circuit, ...)``;
    anything else, keywords included, raises
    :class:`~repro.errors.EngineError`.

    The replicate simulations are submitted as one batch to the ensemble
    engine: ``spec.workers=N`` runs them on ``N`` worker processes, with
    bit-identical results to the serial path because the per-replicate seeds
    are fanned out from the spec's seed before dispatch, and
    ``spec.batch_size=B`` dispatches them in batches of up to B per worker
    call (same trajectories, less dispatch and transport overhead).
    Execution streams: each trajectory is analyzed (datalog statistics,
    logic recovery) the moment its run completes and then discarded, so peak
    memory holds a bounded window of trajectories rather than all
    ``n_replicates`` of them.  Pass an opened ``executor`` to reuse one live
    worker pool across several studies (it overrides ``spec.workers``); an
    event loop runs a study with ``await asyncio.to_thread(
    run_replicate_study, spec, executor=executor)``.
    """
    if not isinstance(spec, StudySpec) or keywords:
        raise EngineError(
            "run_replicate_study takes one StudySpec (plus executor= and "
            "progress=); build it with StudySpec.for_circuit(circuit, "
            "n_replicates=..., seed=...) or spec.replace(...)",
        )
    resolved = spec.resolve_circuit()
    experiment = LogicExperiment.for_spec(spec)
    template = experiment.job(
        hold_time=spec.hold_time,
        repeats=spec.repeats,
        overrides=dict(spec.overrides) if spec.overrides else None,
    )
    batch = replicate_jobs(template, spec.n_replicates, seed=spec.seed)
    analyzer = LogicAnalyzer(threshold=spec.threshold, fov_ud=spec.fov_ud)

    def _analyze(index, job, trajectory) -> LogicAnalysisResult:
        data = experiment.datalog_from(job, trajectory)
        return analyzer.analyze(data, expected=resolved.expected_table)

    ensemble = run_ensemble(
        batch,
        workers=spec.workers,
        executor=executor,
        progress=progress,
        reduce=_analyze,
        batch_size=spec.batch_size,
    )
    results: List[LogicAnalysisResult] = list(ensemble.reduced)
    return ReplicateStudy(
        circuit_name=resolved.name,
        expected=resolved.expected_table,
        results=results,
        stats=ensemble.stats,
        spec=spec,
    )
