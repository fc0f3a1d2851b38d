"""Propagation-delay analysis.

The second circuit parameter the paper's methodology needs: "Propagation
delay specifies the time required to reflect the changes in input species
concentrations on the concentration of output species."  Each input
combination must be held for at least this long, otherwise the recovered
logic is wrong (the paper demonstrates exactly this failure on circuit
``0x0B``'s ``011 → 100`` transition).

The delay is measured the same way D-VASim's timing analysis does: start from
the settled state of one input combination, switch to another combination
that flips the output, and record how long the output takes to cross the
digital threshold.  The reported propagation delay of the circuit is the
maximum (worst case) over the examined transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..engine.api import run_ensemble
from ..engine.executors import get_executor
from ..engine.jobs import SimulationJob
from ..errors import AnalysisError, SimulationError, ThresholdError
from ..logic.truthtable import TruthTable
from ..sbml.model import Model
from ..stochastic import canonical_simulator_name
from ..stochastic.events import InputSchedule
from ..stochastic.rng import RandomState, fan_out_seeds

__all__ = ["PropagationDelayAnalysis", "estimate_propagation_delay"]


@dataclass
class PropagationDelayAnalysis:
    """Per-transition and worst-case propagation delays of a circuit output."""

    delays: Dict[Tuple[str, str], float]
    threshold: float
    output_species: str
    settle_time: float

    @property
    def worst_case(self) -> float:
        """The circuit's propagation delay: the slowest observed transition."""
        if not self.delays:
            return 0.0
        return max(self.delays.values())

    @property
    def mean_delay(self) -> float:
        if not self.delays:
            return 0.0
        return float(np.mean(list(self.delays.values())))

    def recommended_hold_time(self, safety_factor: float = 3.0) -> float:
        """A hold time comfortably above the worst-case delay."""
        if safety_factor <= 1.0:
            raise AnalysisError("safety_factor must exceed 1")
        return self.worst_case * safety_factor

    def summary(self) -> str:
        return (
            f"propagation delay({self.output_species}) worst-case {self.worst_case:.1f}, "
            f"mean {self.mean_delay:.1f} over {len(self.delays)} transitions "
            f"(threshold {self.threshold:g})"
        )


def _first_crossing_time(
    times: np.ndarray,
    values: np.ndarray,
    threshold: float,
    rising: bool,
) -> Optional[float]:
    """First time the trace crosses the threshold in the requested direction."""
    if rising:
        hits = np.nonzero(values >= threshold)[0]
    else:
        hits = np.nonzero(values < threshold)[0]
    if hits.size == 0:
        return None
    return float(times[hits[0]])


def estimate_propagation_delay(
    model: Model,
    input_species: Sequence[str],
    output_species: str,
    threshold: float,
    input_high: float = 40.0,
    input_low: float = 0.0,
    settle_time: float = 300.0,
    observation_time: float = 300.0,
    simulator: str = "ode",
    rng: RandomState = None,
    expected_table: Optional[TruthTable] = None,
    transitions: Optional[Sequence[Tuple[str, str]]] = None,
    workers: int = 1,
    executor=None,
) -> PropagationDelayAnalysis:
    """Measure output propagation delays across input-combination switches.

    By default every pair of combinations that flips the *expected* output is
    examined (the expected table is computed from settled levels when not
    supplied); pass ``transitions`` (pairs of combination strings such as
    ``("011", "100")``) to restrict the measurement.

    The analysis runs (up to) two ensemble-engine batches — the settled-levels
    phase and the transition phase — on **one** executor: with ``workers=N``
    a single worker pool is opened for the whole analysis, so the transition
    batch hits the compiled-model caches the settle batch warmed up.  Pass
    an opened ``executor`` to extend
    that reuse across several analyses; it is left open for the caller.  Each
    transition trace is reduced to its crossing time as it completes, so no
    batch is ever materialized.
    """
    if threshold <= 0:
        raise ThresholdError("threshold must be positive")
    try:
        simulator = canonical_simulator_name(simulator)
    except SimulationError as error:
        raise AnalysisError(str(error)) from None
    input_species = list(input_species)
    n = len(input_species)

    # The settled-levels phase and the transition phase both fan seeds out;
    # give each its own child root so an integer seed does not make the two
    # phases replay identical streams pairwise.
    if isinstance(rng, np.random.Generator):
        settle_seed = transition_seed = rng
    else:
        root = rng if isinstance(rng, np.random.SeedSequence) else (
            np.random.SeedSequence(int(rng) if rng is not None else None)
        )
        settle_seed, transition_seed = root.spawn(2)

    # One executor serves both batches of the analysis: the transition batch
    # reuses the (still-live) worker pool — and therefore the worker-side
    # compiled-model caches — that the settled-levels batch warmed up.
    owns_executor = executor is None
    runner = executor if executor is not None else get_executor(workers)
    try:
        if expected_table is None:
            from .threshold import settled_output_levels

            levels = settled_output_levels(
                model,
                input_species,
                output_species,
                input_high=input_high,
                input_low=input_low,
                settle_time=settle_time,
                simulator=simulator,
                rng=settle_seed,
                executor=runner,
            )
            outputs = [1 if levels[format(i, f"0{n}b")] >= threshold else 0 for i in range(2**n)]
            expected_table = TruthTable(input_species, outputs)

        if transitions is None:
            transitions = []
            for source in range(2**n):
                for target in range(2**n):
                    if source == target:
                        continue
                    if expected_table.outputs[source] != expected_table.outputs[target]:
                        transitions.append(
                            (format(source, f"0{n}b"), format(target, f"0{n}b")),
                        )

        total = settle_time + observation_time
        transition_jobs = []
        seeds = fan_out_seeds(transition_seed, len(transitions))
        for (source_label, target_label), seed in zip(transitions, seeds):
            source_bits = [int(b) for b in source_label]
            target_bits = [int(b) for b in target_label]
            if len(source_bits) != n or len(target_bits) != n:
                raise AnalysisError(
                    f"transition ({source_label!r}, {target_label!r}) does not match "
                    f"{n} inputs",
                )
            source_settings = {
                sid: (input_high if bit else input_low)
                for sid, bit in zip(input_species, source_bits)
            }
            target_settings = {
                sid: (input_high if bit else input_low)
                for sid, bit in zip(input_species, target_bits)
            }
            schedule = InputSchedule().add(0.0, source_settings).add(settle_time, target_settings)
            transition_jobs.append(
                SimulationJob(
                    model=model,
                    t_end=total,
                    simulator=simulator,
                    schedule=schedule,
                    sample_interval=max(total / 600.0, 0.25),
                    seed=seed,
                    tag=(source_label, target_label),
                ),
            )

        def _delay(index, job, trajectory) -> Tuple[Tuple[str, str], float]:
            source_label, target_label = job.tag
            after = trajectory.slice_time(settle_time, total)
            rising = expected_table.output_for(target_label) == 1
            crossing = _first_crossing_time(
                after.times,
                after[output_species],
                threshold,
                rising,
            )
            if crossing is None:
                # The output never crossed within the observation window: report
                # the full window as a lower bound rather than dropping the
                # transition silently.
                return (source_label, target_label), float(observation_time)
            return (source_label, target_label), float(crossing - settle_time)

        delays: Dict[Tuple[str, str], float] = {}
        if transition_jobs:
            ensemble = run_ensemble(transition_jobs, executor=runner, reduce=_delay)
            delays = dict(ensemble.reduced)

        return PropagationDelayAnalysis(
            delays=delays,
            threshold=float(threshold),
            output_species=output_species,
            settle_time=float(settle_time),
        )
    finally:
        if owns_executor:
            runner.close()
