"""Gillespie's stochastic simulation algorithm (direct method).

This is the default simulator of the reproduction — the equivalent of the SSA
engine inside D-VASim.  It is an *exact* simulation of the chemical master
equation: at each step the time to the next reaction is drawn from an
exponential with rate equal to the total propensity and the reaction to fire
is chosen proportionally to its propensity (Gillespie 1977, the paper's
reference [7]).

Input species are clamped through an :class:`~repro.stochastic.events.InputSchedule`,
mirroring how the virtual laboratory applies input combinations during a run.
Between two clamps the loop runs in the model's generated ``ssa_segment``
(see :mod:`repro.stochastic.codegen`), which rebuilds the generator's
exponential and uniform draws from blocks of raw PCG64 words instead of
calling numpy per event.  A run reads its words through one
:class:`~repro.stochastic.ziggurat.WordBlock`: a block fetched in one
segment serves the next, and the generator is handed back once, when the
run ends or raises.  :func:`_numpy_segment`, the per-event numpy reference
loop, runs instead with ``REPRO_KERNEL=interp``, for a generator whose bit
generator is not PCG64, and when the once-per-process check
:func:`~repro.stochastic.ziggurat.block_draws_verified` fails.  Both loops
produce bit-identical trajectories and leave the generator in the same state.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from .events import InputSchedule
from .propensity import compile_model
from .rng import RandomState, make_rng
from .sampling import SampleRecorder, make_sample_times
from .trajectory import Trajectory
from .ziggurat import WordBlock, block_draws_verified

__all__ = ["simulate_ssa", "DirectMethodSimulator"]


def _numpy_segment(compiled, state, t, t_stop, generator, recorder, events, max_events) -> int:
    """Run the direct method from ``t`` to the segment end ``t_stop``.

    The reference loop: one whole propensity vector per event, its pairwise
    ``.sum()``, a sequential ``cumsum`` and ``searchsorted``.  The generated
    ``ssa_segment`` of every codegen kernel has this signature, minus
    ``compiled`` and with the run's
    :class:`~repro.stochastic.ziggurat.WordBlock` for ``generator``, and
    reproduces it bit for bit.  Updates ``state`` and ``recorder`` in place;
    returns the running event count.
    """
    propensities = np.empty(compiled.n_reactions, dtype=float)
    cumulative = np.empty(compiled.n_reactions, dtype=float)
    while t < t_stop:
        compiled.propensities(state, out=propensities)
        total = float(propensities.sum())
        if total <= 0.0:
            break
        tau = generator.exponential(1.0 / total)
        if t + tau >= t_stop:
            break
        t += tau
        recorder.fill_before(t, state)
        threshold = generator.random() * total
        # np.cumsum accumulates sequentially, so searchsorted picks the same
        # reaction as the historical linear scan did.
        np.cumsum(propensities, out=cumulative)
        chosen = int(np.searchsorted(cumulative, threshold, side="right"))
        if chosen >= compiled.n_reactions:
            # `total` comes from the pairwise .sum() and may exceed the
            # sequential cumulative sum by an ulp; the linear scan fell
            # through to the last reaction in that case.
            chosen = compiled.n_reactions - 1
        compiled.apply(chosen, state)
        events += 1
        if events > max_events:
            raise SimulationError(
                f"simulation exceeded {max_events} reaction events before t_end",
            )
    return events


class DirectMethodSimulator:
    """Reusable direct-method SSA simulator bound to one compiled model.

    :meth:`run` clamps the scheduled inputs at each segment boundary and runs
    the loop between boundaries in one call: the kernel's generated
    ``ssa_segment`` on the codegen backend with a PCG64 generator,
    :func:`_numpy_segment` otherwise (see the module docstring).
    ``last_event_count`` reports the number of reaction firings of the most
    recent run.
    """

    def __init__(self, model, parameter_overrides: Optional[Dict[str, float]] = None):
        self.compiled = compile_model(model, parameter_overrides)
        self.last_event_count = 0

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
        """Simulate until ``t_end`` and return a sampled :class:`Trajectory`.

        Parameters
        ----------
        t_end:
            Final simulation time (time units are abstract, as in the paper).
        sample_interval:
            Spacing of the recorded samples; the paper records one sample per
            time unit.
        schedule:
            Input clamping events (applied in addition to the model's initial
            amounts).
        initial_state:
            Optional ``{species: amount}`` overriding initial amounts.
        rng:
            Seed or generator for reproducible runs.
        record_species:
            Restrict the returned trajectory to these species (default: all).
        max_events:
            Hard cap on the number of reaction firings, as a runaway guard.
        """
        generator = make_rng(rng)
        sample_times = make_sample_times(t_end, sample_interval)
        return self._simulate(
            sample_times, t_end, schedule, initial_state, generator, record_species, max_events
        )

    def _simulate(
        self,
        sample_times: np.ndarray,
        t_end: float,
        schedule: Optional[InputSchedule],
        initial_state: Optional[Dict[str, float]],
        generator: np.random.Generator,
        record_species: Optional[Sequence[str]],
        max_events: int,
    ) -> Trajectory:
        """One run on a given sample grid (the returned trajectory keeps it)."""
        compiled = self.compiled
        schedule = schedule or InputSchedule()

        state = compiled.state_from_dict(initial_state or {})

        recorder = SampleRecorder(sample_times, compiled.n_species)
        if (
            compiled.kernel is not None
            and type(generator.bit_generator) is np.random.PCG64
            and block_draws_verified()
        ):
            segment = compiled.kernel.ssa_segment
            draws = WordBlock(generator)
        else:
            segment = partial(_numpy_segment, compiled)
            draws = nullcontext(generator)

        events_fired = 0
        segment_start = 0.0
        with draws as source:
            for segment_end in schedule.segment_boundaries(t_end):
                # Apply every event scheduled at the start of this segment.
                for event in schedule.events_between(segment_start, segment_start + 1e-12):
                    compiled.clamp(state, event.settings)
                for event in schedule.events_between(segment_start + 1e-12, segment_end):
                    # Events strictly inside a segment cannot happen: boundaries
                    # are derived from the schedule itself.  Guard anyway.
                    compiled.clamp(state, event.settings)
                events_fired = segment(
                    state, segment_start, segment_end, source, recorder, events_fired, max_events
                )
                recorder.fill_before(segment_end, state)
                segment_start = segment_end

        recorder.finish(state)
        self.last_event_count = events_fired
        trajectory = Trajectory(sample_times, list(compiled.species), recorder.data)
        if record_species is not None:
            trajectory = trajectory.select(list(record_species))
        return trajectory


def simulate_ssa(
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
    """One-shot convenience wrapper around :class:`DirectMethodSimulator`."""
    simulator = DirectMethodSimulator(model, parameter_overrides)
    return simulator.run(
        t_end,
        sample_interval=sample_interval,
        schedule=schedule,
        initial_state=initial_state,
        rng=rng,
        record_species=record_species,
        max_events=max_events,
    )
