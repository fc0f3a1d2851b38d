"""Threshold sweeps (the paper's Figure 5 experiment).

The paper re-runs circuit ``0x0B`` with the threshold value of the input
concentrations set "to very low (3 molecules) and very high (40 molecules)"
and observes that the recovered logic changes: too-weak inputs cannot trigger
the circuit (it degenerates towards a different function), while too-strong
inputs leave the input and output levels indistinguishable, producing heavy
output oscillation and wrong states.

:func:`threshold_sweep` reproduces that protocol: for each threshold value
the inputs are clamped at that level (as D-VASim does when the user adopts
the analysed threshold) and the analog-to-digital conversion uses the same
level, then the standard analysis runs and is verified against the circuit's
intended behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.analyzer import LogicAnalysisResult, LogicAnalyzer
from ..engine.api import run_ensemble
from ..errors import AnalysisError
from ..gates.circuits import GeneticCircuit
from ..logic.compare import LogicComparison
from ..stochastic.rng import RandomState, fan_out_seeds
from ..vlab.experiment import LogicExperiment

__all__ = ["ThresholdSweepEntry", "threshold_sweep"]


@dataclass
class ThresholdSweepEntry:
    """Outcome of analysing one circuit at one threshold / input level."""

    threshold: float
    input_high: float
    result: LogicAnalysisResult
    comparison: LogicComparison

    @property
    def wrong_states(self) -> List[str]:
        """Input combinations whose recovered output disagrees with the intent."""
        return self.comparison.wrong_states

    @property
    def n_wrong_states(self) -> int:
        return len(self.comparison.wrong_states)

    @property
    def matches(self) -> bool:
        return self.comparison.matches

    @property
    def total_variation(self) -> int:
        """Total output oscillation count across all input combinations."""
        return sum(c.variation_count for c in self.result.combinations)

    def summary(self) -> str:
        verdict = "correct" if self.matches else f"{self.n_wrong_states} wrong state(s)"
        return (
            f"threshold {self.threshold:g}: recovered {self.result.truth_table.to_hex()} "
            f"({verdict}), fitness {self.result.fitness:.2f}%, "
            f"total variation {self.total_variation}"
        )


def threshold_sweep(
    circuit: GeneticCircuit,
    thresholds: Sequence[float],
    hold_time: float = 250.0,
    repeats: int = 1,
    simulator: str = "ssa",
    rng: RandomState = None,
    fov_ud: float = 0.25,
    input_high_equals_threshold: bool = True,
    input_high: Optional[float] = None,
    workers: int = 1,
    executor=None,
    progress=None,
) -> List[ThresholdSweepEntry]:
    """Analyse ``circuit`` once per threshold value.

    With ``input_high_equals_threshold`` (the default, matching the paper's
    protocol) the input species are clamped to the threshold value itself at
    digital 1; otherwise they are clamped to ``input_high`` (or the circuit's
    library level) regardless of the analysis threshold.

    All per-threshold simulations are submitted as one batch to the ensemble
    engine (compiling the circuit model once for the whole sweep);
    ``workers=N`` runs them on ``N`` worker processes with results identical
    to the serial path.  Each run is analyzed as it completes and its
    trajectory discarded, so the sweep never materializes more than the
    executor's in-flight window.  An opened ``executor`` is reused (and left
    open) so several sweeps can share one warm worker pool.
    """
    thresholds = list(thresholds)
    if not thresholds:
        raise AnalysisError("threshold_sweep needs at least one threshold value")
    experiments: List[LogicExperiment] = []
    sweep_jobs = []
    seeds = fan_out_seeds(rng, len(thresholds))
    for threshold, seed in zip(thresholds, seeds):
        if threshold <= 0:
            raise AnalysisError("threshold values must be positive")
        if input_high_equals_threshold:
            level = float(threshold)
        elif input_high is not None:
            level = float(input_high)
        else:
            level = max(v["high"] for v in circuit.input_levels().values())
        experiment = LogicExperiment.for_circuit(
            circuit,
            simulator=simulator,
            input_high=level,
        )
        experiments.append(experiment)
        sweep_jobs.append(
            experiment.job(hold_time=hold_time, repeats=repeats, seed=seed),
        )

    def _entry(index, job, trajectory) -> ThresholdSweepEntry:
        experiment = experiments[index]
        data = experiment.datalog_from(job, trajectory)
        analyzer = LogicAnalyzer(threshold=float(thresholds[index]), fov_ud=fov_ud)
        result = analyzer.analyze(data)
        comparison = result.verify(circuit.expected_table)
        return ThresholdSweepEntry(
            threshold=float(thresholds[index]),
            input_high=experiment.input_high,
            result=result,
            comparison=comparison,
        )

    ensemble = run_ensemble(
        sweep_jobs,
        workers=workers,
        executor=executor,
        progress=progress,
        reduce=_entry,
    )
    return list(ensemble.reduced)
