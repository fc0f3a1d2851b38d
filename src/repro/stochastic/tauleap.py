"""Explicit tau-leaping (approximate stochastic simulation).

Tau-leaping fires a Poisson-distributed number of each reaction over a leap
interval instead of simulating every event.  It trades exactness for speed
and is offered as an alternative trace source for the logic analyzer: the
paper's algorithm only needs traces whose logic-level statistics are right,
and for the well-separated gate kinetics used here tau-leaping preserves
those statistics while being several times faster on large circuits (see the
``simulator choice`` ablation in DESIGN.md).

The implementation uses the bounded-relative-change tau selection of Cao,
Gillespie & Petzold (2006) with rejection of leaps that would drive a species
negative.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import NegativeStateError, SimulationError
from .events import InputSchedule
from .propensity import compile_model
from .rng import RandomState, make_rng
from .sampling import SampleRecorder, make_sample_times
from .trajectory import Trajectory

__all__ = ["simulate_tau_leap", "TauLeapSimulator"]


class TauLeapSimulator:
    """Explicit tau-leaping simulator bound to one compiled model."""

    def __init__(
        self,
        model,
        parameter_overrides: Optional[Dict[str, float]] = None,
        epsilon: float = 0.03,
        min_tau: float = 1e-6,
        max_tau: float = 10.0,
    ):
        if not 0 < epsilon < 1:
            raise SimulationError("epsilon must be in (0, 1)")
        self.compiled = compile_model(model, parameter_overrides)
        self.epsilon = float(epsilon)
        self.min_tau = float(min_tau)
        self.max_tau = float(max_tau)

    def _select_tau(self, state: np.ndarray, propensities: np.ndarray) -> float:
        """Bounded-relative-change tau selection (simplified Cao et al.)."""
        compiled = self.compiled
        total = float(propensities.sum())
        if total <= 0.0:
            return self.max_tau
        # Mean and variance of the change of each species over one time unit.
        mean_change = np.zeros(compiled.n_species)
        var_change = np.zeros(compiled.n_species)
        for r in range(compiled.n_reactions):
            a = propensities[r]
            if a <= 0.0:
                continue
            idx = compiled._change_indices[r]
            if idx.size == 0:
                continue
            deltas = compiled._change_deltas[r]
            mean_change[idx] += a * deltas
            var_change[idx] += a * deltas * deltas
        bound = np.maximum(self.epsilon * state, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau_mean = np.where(mean_change != 0.0, bound / np.abs(mean_change), np.inf)
            tau_var = np.where(var_change != 0.0, bound * bound / var_change, np.inf)
        tau = float(min(tau_mean.min(), tau_var.min()))
        return float(np.clip(tau, self.min_tau, self.max_tau))

    def run(
        self,
        t_end: float,
        sample_interval: float = 1.0,
        schedule: Optional[InputSchedule] = None,
        initial_state: Optional[Dict[str, float]] = None,
        rng: RandomState = None,
        record_species: Optional[Sequence[str]] = None,
        max_steps: int = 10_000_000,
    ) -> Trajectory:
        """Simulate until ``t_end``; same contract as the exact simulators."""
        compiled = self.compiled
        generator = make_rng(rng)
        schedule = schedule or InputSchedule()

        state = compiled.state_from_dict(initial_state or {})

        sample_times = make_sample_times(t_end, sample_interval)
        recorder = SampleRecorder(sample_times, compiled.n_species)
        propensities = np.empty(compiled.n_reactions, dtype=float)
        propensities_row = propensities[None, :]  # [1, R] view for the batch kernel
        steps = 0
        # `counts @ change_matrix` is bit-identical to the historical
        # sequential per-reaction loop only when every addition is exact:
        # whole-number stoichiometries AND a whole-number state (a fractional
        # state double-rounds differently under `state + (c1*d1 + c2*d2)`
        # than under `((state + c1*d1) + c2*d2)`).  Stoichiometry is a model
        # constant; state integrality is re-checked per segment below (input
        # clamps can introduce fractional amounts) and is invariant within a
        # segment, because the matmul path only ever adds whole numbers.
        integral_stoichiometry = compiled.has_integral_stoichiometry
        change_matrix = compiled.change_matrix() if integral_stoichiometry else None

        boundaries = schedule.segment_boundaries(t_end)
        segment_start = 0.0
        for segment_end in boundaries:
            for event in schedule.events_between(segment_start, segment_start + 1e-12):
                compiled.clamp(state, event.settings)
            use_matrix = integral_stoichiometry and bool((state == np.floor(state)).all())
            t = segment_start
            while t < segment_end:
                compiled.propensities_batch(state[None, :], out=propensities_row)
                total = float(propensities.sum())
                if total <= 0.0:
                    break
                tau = min(self._select_tau(state, propensities), segment_end - t)
                tau = max(tau, self.min_tau)
                # Draw firing counts; retry with halved tau if any species
                # would go negative (bounded number of retries).
                for _ in range(40):
                    counts = generator.poisson(propensities * tau)
                    if use_matrix:
                        trial = state + counts @ change_matrix
                    else:
                        trial = state.copy()
                        for r in range(compiled.n_reactions):
                            if counts[r]:
                                idx = compiled._change_indices[r]
                                if idx.size:
                                    trial[idx] += counts[r] * compiled._change_deltas[r]
                    if (trial >= 0).all():
                        break
                    tau *= 0.5
                    if tau < self.min_tau:
                        negative = int(np.argmin(trial))
                        raise NegativeStateError(
                            compiled.species[negative],
                            float(trial[negative]),
                            t,
                        )
                else:  # pragma: no cover - requires pathological models
                    negative = int(np.argmin(trial))
                    raise NegativeStateError(
                        compiled.species[negative],
                        float(trial[negative]),
                        t,
                    )
                t += tau
                recorder.fill_before(min(t, segment_end), state)
                state = trial
                steps += 1
                if steps > max_steps:
                    raise SimulationError(
                        f"tau-leaping exceeded {max_steps} steps before t_end",
                    )
            recorder.fill_before(segment_end, state)
            segment_start = segment_end

        recorder.finish(state)
        trajectory = Trajectory(sample_times, list(compiled.species), recorder.data)
        if record_species is not None:
            trajectory = trajectory.select(list(record_species))
        return trajectory


def simulate_tau_leap(
    model,
    t_end: float,
    sample_interval: float = 1.0,
    schedule: Optional[InputSchedule] = None,
    initial_state: Optional[Dict[str, float]] = None,
    rng: RandomState = None,
    record_species: Optional[Sequence[str]] = None,
    parameter_overrides: Optional[Dict[str, float]] = None,
    epsilon: float = 0.03,
) -> Trajectory:
    """One-shot convenience wrapper around :class:`TauLeapSimulator`."""
    simulator = TauLeapSimulator(model, parameter_overrides, epsilon=epsilon)
    return simulator.run(
        t_end,
        sample_interval=sample_interval,
        schedule=schedule,
        initial_state=initial_state,
        rng=rng,
        record_species=record_species,
    )
