"""Threshold-value analysis.

The paper's algorithm needs "the threshold value of I/O species" — the
concentration that separates digital 0 from digital 1 — and obtains it from
D-VASim's threshold-analysis feature (Baig & Madsen, IWBDA 2016).  This
module provides the equivalent: settle the circuit under every input
combination, collect the settled output levels, split them into a low and a
high group at the largest gap, and put the threshold in the middle of that
gap.

The settling runs use the deterministic ODE integrator by default (fast and
noise-free); a stochastic estimate averaged over the tail of SSA runs is also
available for studying how noise shifts the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence


from ..engine.api import run_ensemble
from ..engine.jobs import SimulationJob
from ..errors import SimulationError, ThresholdError
from ..sbml.model import Model
from ..stochastic import canonical_simulator_name
from ..stochastic.events import InputSchedule
from ..stochastic.rng import RandomState, fan_out_seeds

__all__ = [
    "ThresholdAnalysis",
    "estimate_threshold",
    "settled_output_levels",
]


@dataclass
class ThresholdAnalysis:
    """Result of a threshold estimation.

    ``levels`` maps each input combination (as a bit string, e.g. ``"011"``)
    to the settled output level observed under that combination.  ``low`` and
    ``high`` are the groups the levels were split into.
    """

    threshold: float
    levels: Dict[str, float]
    low_group: List[float]
    high_group: List[float]
    output_species: str

    @property
    def separation(self) -> float:
        """Gap between the highest low-group level and the lowest high-group level."""
        if not self.low_group or not self.high_group:
            return 0.0
        return min(self.high_group) - max(self.low_group)

    def is_separable(self) -> bool:
        """True when the low and high groups do not overlap."""
        return self.separation > 0.0

    def summary(self) -> str:
        return (
            f"threshold({self.output_species}) = {self.threshold:.2f} molecules "
            f"(low group max {max(self.low_group) if self.low_group else 0:.2f}, "
            f"high group min {min(self.high_group) if self.high_group else 0:.2f})"
        )


def settled_output_levels(
    model: Model,
    input_species: Sequence[str],
    output_species: str,
    input_high: float = 40.0,
    input_low: float = 0.0,
    settle_time: float = 300.0,
    simulator: str = "ode",
    rng: RandomState = None,
    tail_fraction: float = 0.25,
    workers: int = 1,
    executor=None,
) -> Dict[str, float]:
    """Settled output level for every input combination.

    The model is simulated from its initial state under each clamped input
    combination for ``settle_time`` time units; the level reported is the
    mean over the last ``tail_fraction`` of the run (for the ODE simulator
    this is simply the final value region).  The per-combination settling
    runs execute as one ensemble-engine batch with one independent seed per
    combination; ``workers=N`` spreads them over worker processes.  Each
    run is reduced to its tail mean as it
    completes (the trace itself is dropped), and an opened ``executor`` —
    e.g. the one a propagation-delay analysis holds for its transition batch
    — is reused with its worker caches warm.
    """
    try:
        simulator = canonical_simulator_name(simulator)
    except SimulationError as error:
        raise ThresholdError(str(error)) from None
    if not 0 < tail_fraction <= 1:
        raise ThresholdError("tail_fraction must be in (0, 1]")
    input_species = list(input_species)
    n = len(input_species)
    settle_jobs = []
    seeds = fan_out_seeds(rng, 2**n)
    for index in range(2**n):
        bits = [(index >> (n - 1 - i)) & 1 for i in range(n)]
        label = "".join(str(b) for b in bits)
        settings = {
            sid: (input_high if bit else input_low)
            for sid, bit in zip(input_species, bits)
        }
        settle_jobs.append(
            SimulationJob(
                model=model,
                t_end=settle_time,
                simulator=simulator,
                schedule=InputSchedule().add(0.0, settings),
                sample_interval=max(settle_time / 200.0, 0.5),
                seed=seeds[index],
                tag=label,
            ),
        )
    tail_start = settle_time * (1.0 - tail_fraction)
    ensemble = run_ensemble(
        settle_jobs,
        workers=workers,
        executor=executor,
        reduce=lambda index,
        job,
        trajectory: (
            job.tag,
            trajectory.mean(output_species, t_start=tail_start),
        ),
    )
    return dict(ensemble.reduced)


def estimate_threshold(
    model: Model,
    input_species: Sequence[str],
    output_species: str,
    input_high: float = 40.0,
    input_low: float = 0.0,
    settle_time: float = 300.0,
    simulator: str = "ode",
    rng: RandomState = None,
    workers: int = 1,
    executor=None,
) -> ThresholdAnalysis:
    """Estimate the digital threshold of the output species.

    The settled levels are sorted and split at the largest gap; the threshold
    is the midpoint of that gap.  If every combination settles to (nearly)
    the same level the circuit output is not binary under these input levels
    and a :class:`ThresholdError` is raised — the same situation the paper
    provokes by driving circuit ``0x0B`` with a 3-molecule input level.
    """
    levels = settled_output_levels(
        model,
        input_species,
        output_species,
        input_high=input_high,
        input_low=input_low,
        settle_time=settle_time,
        simulator=simulator,
        rng=rng,
        workers=workers,
        executor=executor,
    )
    values = sorted(levels.values())
    if len(values) < 2:
        raise ThresholdError("threshold estimation needs at least two input combinations")
    gaps = [(values[i + 1] - values[i], i) for i in range(len(values) - 1)]
    best_gap, split_index = max(gaps)
    spread = values[-1] - values[0]
    if spread <= 1e-9 or best_gap < 0.05 * max(values[-1], 1.0):
        raise ThresholdError(
            "settled output levels are not separable into low and high groups; "
            f"levels observed: { {k: round(v, 2) for k, v in levels.items()} }",
        )
    low_group = values[: split_index + 1]
    high_group = values[split_index + 1 :]
    threshold = 0.5 * (low_group[-1] + high_group[0])
    return ThresholdAnalysis(
        threshold=float(threshold),
        levels=levels,
        low_group=low_group,
        high_group=high_group,
        output_species=output_species,
    )
