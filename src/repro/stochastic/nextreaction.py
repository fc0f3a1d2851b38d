"""Gibson–Bruck next-reaction method.

An exact SSA variant that keeps a putative firing time per reaction in an
indexed priority queue and, after each firing, only recomputes the
propensities of reactions that depend on the changed species.  For the small
gate networks used in the paper it produces trajectories statistically
identical to the direct method (property-tested in
``tests/stochastic/test_simulator_agreement.py``); it becomes advantageous
for the larger cascaded circuits of the 15-circuit suite.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from .events import InputSchedule
from .propensity import compile_model
from .rng import RandomState, make_rng
from .sampling import SampleRecorder, make_sample_times
from .trajectory import Trajectory

__all__ = ["simulate_next_reaction", "NextReactionSimulator"]


class _PutativeTimes:
    """Lazy-deletion priority queue of (putative time, reaction index)."""

    def __init__(self, count: int):
        self.times = np.full(count, math.inf, dtype=float)
        self._heap: List[tuple] = []
        self._stamp = np.zeros(count, dtype=np.int64)

    def set(self, reaction: int, time: float) -> None:
        self.times[reaction] = time
        self._stamp[reaction] += 1
        if math.isfinite(time):
            heapq.heappush(self._heap, (time, reaction, int(self._stamp[reaction])))

    def pop_min(self) -> tuple:
        """Return (time, reaction) for the earliest valid entry, or (inf, -1)."""
        while self._heap:
            time, reaction, stamp = self._heap[0]
            if stamp == self._stamp[reaction] and time == self.times[reaction]:
                return time, reaction
            heapq.heappop(self._heap)
        return math.inf, -1


class NextReactionSimulator:
    """Gibson–Bruck simulator bound to one compiled model."""

    def __init__(self, model, parameter_overrides: Optional[Dict[str, float]] = None):
        self.compiled = compile_model(model, parameter_overrides)

    def run(
        self,
        t_end: float,
        sample_interval: float = 1.0,
        schedule: Optional[InputSchedule] = None,
        initial_state: Optional[Dict[str, float]] = None,
        rng: RandomState = None,
        record_species: Optional[Sequence[str]] = None,
        max_events: int = 50_000_000,
    ) -> Trajectory:
        """Simulate until ``t_end``; same contract as the direct method."""
        compiled = self.compiled
        generator = make_rng(rng)
        schedule = schedule or InputSchedule()

        state = compiled.state_from_dict(initial_state or {})

        sample_times = make_sample_times(t_end, sample_interval)
        recorder = SampleRecorder(sample_times, compiled.n_species)

        n_reactions = compiled.n_reactions
        propensities = np.zeros(n_reactions, dtype=float)
        queue = _PutativeTimes(n_reactions)
        events_fired = 0
        # Dependent index arrays, precomputed so the incremental update can
        # snapshot old propensities with one fancy-index read per event.
        dependents_of = [compiled.dependents(r) for r in range(n_reactions)]
        dependent_arrays = [np.asarray(deps, dtype=np.intp) for deps in dependents_of]

        def reschedule_all(now: float) -> None:
            compiled.propensities(state, out=propensities)
            for r in range(n_reactions):
                if propensities[r] > 0.0:
                    queue.set(r, now + generator.exponential(1.0 / propensities[r]))
                else:
                    queue.set(r, math.inf)

        boundaries = schedule.segment_boundaries(t_end)
        segment_start = 0.0
        for segment_end in boundaries:
            for event in schedule.events_between(segment_start, segment_start + 1e-12):
                compiled.clamp(state, event.settings)
            # Input amounts changed discontinuously: all propensities are
            # stale, so redraw every putative time (memoryless property makes
            # this exact).
            t = segment_start
            reschedule_all(t)
            while True:
                fire_time, reaction = queue.pop_min()
                if reaction < 0 or fire_time >= segment_end:
                    break
                recorder.fill_before(fire_time, state)
                t = fire_time
                compiled.apply(reaction, state)
                events_fired += 1
                if events_fired > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} reaction events before t_end",
                    )
                # Recompute every dependent propensity in one fused kernel
                # call, then walk the dependents in the same order as before
                # (the RNG draw sequence is part of the results contract).
                old_values = propensities[dependent_arrays[reaction]]
                compiled.propensities_after(reaction, state, propensities)
                for position, dependent in enumerate(dependents_of[reaction]):
                    old_propensity = old_values[position]
                    new_propensity = propensities[dependent]
                    if dependent == reaction:
                        if new_propensity > 0.0:
                            queue.set(dependent, t + generator.exponential(1.0 / new_propensity))
                        else:
                            queue.set(dependent, math.inf)
                        continue
                    old_time = queue.times[dependent]
                    if new_propensity <= 0.0:
                        queue.set(dependent, math.inf)
                    elif old_propensity <= 0.0 or not math.isfinite(old_time):
                        queue.set(dependent, t + generator.exponential(1.0 / new_propensity))
                    else:
                        # Gibson–Bruck re-use of the previously drawn firing
                        # time, rescaled by the propensity ratio.
                        queue.set(
                            dependent,
                            t + (old_propensity / new_propensity) * (old_time - t),
                        )
            recorder.fill_before(segment_end, state)
            segment_start = segment_end

        recorder.finish(state)
        trajectory = Trajectory(sample_times, list(compiled.species), recorder.data)
        if record_species is not None:
            trajectory = trajectory.select(list(record_species))
        return trajectory


def simulate_next_reaction(
    model,
    t_end: float,
    sample_interval: float = 1.0,
    schedule: Optional[InputSchedule] = None,
    initial_state: Optional[Dict[str, float]] = None,
    rng: RandomState = None,
    record_species: Optional[Sequence[str]] = None,
    parameter_overrides: Optional[Dict[str, float]] = None,
    max_events: int = 50_000_000,
) -> Trajectory:
    """One-shot convenience wrapper around :class:`NextReactionSimulator`."""
    simulator = NextReactionSimulator(model, parameter_overrides)
    return simulator.run(
        t_end,
        sample_interval=sample_interval,
        schedule=schedule,
        initial_state=initial_state,
        rng=rng,
        record_species=record_species,
        max_events=max_events,
    )
