"""Deterministic (ODE) integration of the same reaction networks.

The paper argues that standard ODEs are a poor model for the *stochastic*
behaviour of genetic circuits at low molecule counts, but the deterministic
mean-field trajectory is still useful in this toolchain:

* the threshold and propagation-delay analyses of :mod:`repro.vlab` use it to
  find settled low/high output levels quickly and noise-free,
* it serves as the deterministic baseline in the simulator-choice ablation
  (feeding noise-free traces through the same logic analyzer).

A classic fixed-step RK4 integrator is used so the package does not require
scipy (scipy is an optional extra; when present it is not needed here).  The
right-hand side is :meth:`CompiledModel.rates`, which evaluates all reaction
propensities through the model's generated whole-model kernel
(``propensities_all``) in one fused call per stage instead of one Python
call per reaction.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from .events import InputSchedule
from .propensity import compile_model
from .sampling import SampleRecorder, make_sample_times
from .trajectory import Trajectory

__all__ = ["simulate_ode", "OdeSimulator"]


class OdeSimulator:
    """Fixed-step RK4 integrator over the compiled reaction rates."""

    def __init__(
        self,
        model,
        parameter_overrides: Optional[Dict[str, float]] = None,
        step: float = 0.05,
    ):
        if step <= 0:
            raise SimulationError("integration step must be positive")
        self.compiled = compile_model(model, parameter_overrides)
        self.step = float(step)

    def _rk4_step(self, state: np.ndarray, h: float) -> np.ndarray:
        rates = self.compiled.rates
        k1 = rates(state)
        k2 = rates(np.maximum(state + 0.5 * h * k1, 0.0))
        k3 = rates(np.maximum(state + 0.5 * h * k2, 0.0))
        k4 = rates(np.maximum(state + h * k3, 0.0))
        next_state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # Molecule counts cannot be negative; clamp tiny undershoots.
        return np.maximum(next_state, 0.0)

    def run(
        self,
        t_end: float,
        sample_interval: float = 1.0,
        schedule: Optional[InputSchedule] = None,
        initial_state: Optional[Dict[str, float]] = None,
        record_species: Optional[Sequence[str]] = None,
        rng=None,  # accepted for interface compatibility with the SSA simulators
    ) -> Trajectory:
        """Integrate until ``t_end``; same interface as the stochastic simulators."""
        compiled = self.compiled
        schedule = schedule or InputSchedule()

        state = compiled.state_from_dict(initial_state or {})

        sample_times = make_sample_times(t_end, sample_interval)
        recorder = SampleRecorder(sample_times, compiled.n_species)

        boundaries = schedule.segment_boundaries(t_end)
        segment_start = 0.0
        for segment_end in boundaries:
            for event in schedule.events_between(segment_start, segment_start + 1e-12):
                compiled.clamp(state, event.settings)
            t = segment_start
            while t < segment_end - 1e-12:
                h = min(self.step, segment_end - t)
                recorder.fill_before(t + h, state)
                state = self._rk4_step(state, h)
                # Keep the clamped species pinned: the mean-field derivative
                # of a boundary species is forced to zero by the compiled
                # model, but numerical drift from other terms is impossible
                # anyway since change vectors exclude them.
                t += h
            recorder.fill_before(segment_end, state)
            segment_start = segment_end

        recorder.finish(state)
        trajectory = Trajectory(sample_times, list(compiled.species), recorder.data)
        if record_species is not None:
            trajectory = trajectory.select(list(record_species))
        return trajectory


def simulate_ode(
    model,
    t_end: float,
    sample_interval: float = 1.0,
    schedule: Optional[InputSchedule] = None,
    initial_state: Optional[Dict[str, float]] = None,
    record_species: Optional[Sequence[str]] = None,
    parameter_overrides: Optional[Dict[str, float]] = None,
    step: float = 0.05,
    rng=None,  # accepted (and ignored) so all SIMULATORS share one call signature
) -> Trajectory:
    """One-shot convenience wrapper around :class:`OdeSimulator`."""
    simulator = OdeSimulator(model, parameter_overrides, step=step)
    return simulator.run(
        t_end,
        sample_interval=sample_interval,
        schedule=schedule,
        initial_state=initial_state,
        record_species=record_species,
    )
