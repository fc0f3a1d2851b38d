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

The canonical request form is a frozen :class:`~repro.engine.StudySpec` —
one serializable object naming the circuit, protocol, seed, analyzer
configuration and execution knobs — consumed identically by
:func:`run_replicate_study`, the CLI (``genlogic verify --spec``) and the
HTTP service (:mod:`repro.service`).
The legacy keyword form (circuit object plus scattered kwargs) is kept as a
thin shim that constructs a spec.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.analyzer import LogicAnalysisResult, LogicAnalyzer
from ..engine.api import replicate_jobs, run_ensemble
from ..engine.cache import model_blob, worker_model_from_blob
from ..engine.executors import get_executor
from ..engine.jobs import EnsembleStats
from ..engine.spec import StudySpec
from ..errors import AnalysisError, EngineError
from ..gates.circuits import GeneticCircuit
from ..logic.truthtable import TruthTable
from ..stochastic.rng import RandomState
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


def _analyze_replicate_payload(payload) -> LogicAnalysisResult:
    """Analyze one replicate's trajectory (module-level, so executors can
    dispatch it to worker processes through the engine's generic ``map``).

    The study context (experiment, analyzer settings, expected table) is
    shared by every replicate, so it travels as one pre-pickled blob keyed on
    its content fingerprint — each worker deserializes it once per study (via
    the same blob memo the simulation payloads use), and the per-payload
    cost reduces to the job shell and its trajectory.
    """
    fingerprint, bundle, job, trajectory = payload
    experiment, threshold, fov_ud, expected = worker_model_from_blob(fingerprint, bundle)
    analyzer = LogicAnalyzer(threshold=threshold, fov_ud=fov_ud)
    data = experiment.datalog_from(job, trajectory)
    return analyzer.analyze(data, expected=expected)


_STUDY_FIELD_DEFAULTS = {
    "n_replicates": 5,
    "threshold": 15.0,
    "fov_ud": 0.25,
    "hold_time": 200.0,
    "repeats": 1,
    "simulator": "ssa",
}


def _as_study_spec(
    circuit: Union[StudySpec, GeneticCircuit, str],
    *,
    n_replicates: Optional[int],
    threshold: Optional[float],
    fov_ud: Optional[float],
    hold_time: Optional[float],
    repeats: Optional[int],
    simulator: Optional[str],
    rng: RandomState,
    workers: Optional[int],
    analysis_jobs: Optional[int],
    batch_size: Optional[int],
) -> StudySpec:
    """The spec a (possibly legacy-keyword) call describes.

    Given a ready :class:`StudySpec`, study-defining keywords may not also be
    set (a spec *is* the study; silently merging the two would make one of
    them lie), while the execution knobs — ``workers``, ``batch_size``,
    ``analysis_jobs`` — may still be overridden at the call site, since they
    never change the result.  Given a circuit, the keywords are folded into a
    fresh spec with the documented defaults.
    """
    study_fields = {
        "n_replicates": n_replicates,
        "threshold": threshold,
        "fov_ud": fov_ud,
        "hold_time": hold_time,
        "repeats": repeats,
        "simulator": simulator,
    }
    if isinstance(circuit, StudySpec):
        conflicting = sorted(name for name, value in study_fields.items() if value is not None)
        if rng is not None:
            conflicting.append("rng")
        if conflicting:
            raise AnalysisError(
                f"got both a StudySpec and study-defining keyword(s) {conflicting}; "
                "build the spec with those values (spec.replace(...)) instead",
            )
        knobs = {
            name: int(value)
            for name, value in (
                ("workers", workers),
                ("analysis_jobs", analysis_jobs),
                ("batch_size", batch_size),
            )
            if value is not None and int(value) != getattr(circuit, name)
        }
        return circuit.replace(**knobs) if knobs else circuit
    fields = {
        name: value if value is not None else _STUDY_FIELD_DEFAULTS[name]
        for name, value in study_fields.items()
    }
    for name, value in (
        ("workers", workers),
        ("analysis_jobs", analysis_jobs),
        ("batch_size", batch_size),
    ):
        if value is not None:
            fields[name] = int(value)
    attach_rng = None
    if rng is None or isinstance(rng, (int, np.integer)):
        fields["seed"] = None if rng is None else int(rng)
    else:
        # A live Generator / SeedSequence cannot live in a frozen, serializable
        # spec; carry it alongside for execution (such a spec has no cache key).
        attach_rng = rng
    try:
        spec = StudySpec.for_circuit(circuit, **fields)
    except EngineError as error:
        # Legacy keyword callers predate StudySpec and expect AnalysisError
        # for invalid study parameters.
        raise AnalysisError(str(error)) from None
    if attach_rng is not None:
        object.__setattr__(spec, "_rng", attach_rng)
    return spec


def run_replicate_study(
    circuit: Union[StudySpec, GeneticCircuit, str],
    n_replicates: Optional[int] = None,
    threshold: Optional[float] = None,
    fov_ud: Optional[float] = None,
    hold_time: Optional[float] = None,
    repeats: Optional[int] = None,
    simulator: Optional[str] = None,
    rng: RandomState = None,
    workers: Optional[int] = None,
    executor=None,
    progress=None,
    analysis_jobs: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> ReplicateStudy:
    """Run ``n_replicates`` independent experiments and aggregate the analyses.

    The canonical call passes one :class:`~repro.engine.StudySpec` (or a
    circuit name) — ``run_replicate_study(StudySpec(circuit="0x0B",
    n_replicates=20, seed=7, workers=4))`` — and the returned study records
    that spec at ``.spec``.  The legacy form (a circuit object plus keywords:
    ``n_replicates=5``, ``threshold=15.0``, ``fov_ud=0.25``,
    ``hold_time=200.0``, ``repeats=1``, ``simulator="ssa"``) is a shim that
    constructs the same spec, so both forms execute identically, bit for
    bit.

    The replicate simulations are submitted as one batch to the ensemble
    engine: ``workers=N`` runs them on ``N`` worker processes, with
    bit-identical results to the serial path because the per-replicate seeds
    are fanned out from the spec's seed before dispatch.  Execution streams:
    each trajectory is analyzed (datalog statistics, logic recovery) the
    moment its run completes and then discarded, so peak memory holds a
    bounded window of trajectories rather than all ``n_replicates`` of them.
    Pass an opened ``executor`` to reuse one live worker pool across several
    studies (it overrides ``workers``).

    ``analysis_jobs=N > 1`` fans the *analysis* out to worker processes too,
    through the engine's generic ``map`` path: the trajectories are
    materialized first and every replicate's logic recovery runs in parallel
    (on the simulation executor when one is shared, else on an ephemeral
    pool), instead of serializing in the parent.  Worth it when analysis
    dominates (long hold times, many samples); it trades the streamed path's
    bounded memory for parallel analysis, and the recovered results are
    identical either way.

    ``batch_size=B`` dispatches the replicates in batches of up to B per
    worker call — same trajectories, same analyses, less dispatch and
    result-transport overhead per replicate.
    """
    spec = _as_study_spec(
        circuit,
        n_replicates=n_replicates,
        threshold=threshold,
        fov_ud=fov_ud,
        hold_time=hold_time,
        repeats=repeats,
        simulator=simulator,
        rng=rng,
        workers=workers,
        analysis_jobs=analysis_jobs,
        batch_size=batch_size,
    )
    resolved = spec.resolve_circuit()
    seed = spec.__dict__.get("_rng", spec.seed)
    experiment = LogicExperiment.for_spec(spec)
    template = experiment.job(
        hold_time=spec.hold_time,
        repeats=spec.repeats,
        overrides=dict(spec.overrides) if spec.overrides else None,
    )
    batch = replicate_jobs(template, spec.n_replicates, seed=seed)

    if spec.analysis_jobs > 1:
        owns_executor = executor is None
        runner = (
            executor
            if executor is not None
            else get_executor(max(spec.workers, spec.analysis_jobs))
        )
        try:
            ensemble = run_ensemble(
                batch, executor=runner, progress=progress, batch_size=spec.batch_size
            )
            bundle, fingerprint = model_blob(
                (experiment, spec.threshold, spec.fov_ud, resolved.expected_table),
            )
            payloads = [
                # The job ships without its model: the analysis only needs the
                # schedule and metadata, and the heavy model graph is already
                # inside the shared bundle's experiment.
                (fingerprint, bundle, dataclasses.replace(job, model=None), trajectory)
                for job, trajectory in ensemble
            ]
            results = runner.map(_analyze_replicate_payload, payloads)
        finally:
            if owns_executor:
                runner.close()
        return ReplicateStudy(
            circuit_name=resolved.name,
            expected=resolved.expected_table,
            results=results,
            stats=ensemble.stats,
            spec=spec,
        )

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
