"""Job and result containers of the ensemble execution engine.

A :class:`SimulationJob` is a *declarative*, picklable description of one
stochastic (or ODE) run: which model, which simulator, which input schedule,
which parameter overrides and which seed.  Because a job carries no compiled
state and no live generator, the same job list can be executed by the serial
executor in this process or shipped to a pool of worker processes — and, with
seeds fanned out from one root :class:`numpy.random.SeedSequence` *before*
dispatch, both paths produce bit-identical trajectories.

An :class:`EnsembleResult` pairs the submitted jobs with their trajectories
(in submission order) and the execution statistics of the batch.

Jobs are also the unit of *grouping* (``batch_size=B`` on the run APIs):
consecutive jobs describing the same configuration — same model object,
frozen overrides, simulator, schedule object, horizon, sampling and
recording choices — pack into groups of up to B, and each group is one
dispatch that runs its replicates one by one on one compiled model and
ships one compact binary result frame back.  Replicate fan-outs built by
:func:`repro.engine.replicate_jobs` satisfy that by construction; jobs that
differ in any configuration field form groups of one, as every job does at
``batch_size=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import EngineError
from ..stochastic import canonical_simulator_name
from ..stochastic.events import InputSchedule
from ..stochastic.trajectory import Trajectory

__all__ = ["SimulationJob", "EnsembleStats", "EnsembleResult", "JobSeed"]

#: Seed accepted by a job: ``None`` / ``int`` / ``SeedSequence`` work with any
#: executor; a live ``Generator`` is accepted by the serial executor only
#: (generators cannot cross a process boundary).
JobSeed = Union[None, int, np.random.SeedSequence, np.random.Generator]


@dataclass
class SimulationJob:
    """One simulation run, described declaratively.

    Parameters
    ----------
    model:
        The :class:`repro.sbml.Model` to simulate (compiled lazily, through
        the engine's compiled-model cache).
    t_end:
        Final simulation time.
    simulator:
        Canonical simulator name or documented alias (``"ssa"``, ``"direct"``,
        ``"next-reaction"``, ``"tau-leap"``, ``"ode"``).
    schedule:
        Input clamping events applied during the run.
    parameter_overrides:
        ``{parameter_id: value}`` applied at compile time; part of the
        compiled-model cache key.
    seed:
        Seed of the run's random stream (see :data:`JobSeed`).
    tag:
        Free-form caller metadata (e.g. replicate index, threshold value);
        carried through to the result untouched.
    meta:
        Metadata attached by the layer that *built* the job (e.g. the
        experiment driver's ``hold_time``).  Unlike ``tag`` it is always
        preserved by :func:`repro.engine.replicate_jobs`, so downstream
        helpers such as :meth:`LogicExperiment.datalog_from` can rely on it.
    """

    model: Any
    t_end: float
    simulator: str = "ssa"
    schedule: Optional[InputSchedule] = None
    sample_interval: float = 1.0
    parameter_overrides: Optional[Dict[str, float]] = None
    initial_state: Optional[Dict[str, float]] = None
    record_species: Optional[Sequence[str]] = None
    seed: JobSeed = None
    tag: Any = None
    meta: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        self.simulator = canonical_simulator_name(self.simulator)
        if self.t_end <= 0:
            raise EngineError("a simulation job needs a positive t_end")
        if self.sample_interval <= 0:
            raise EngineError("sample_interval must be positive")
        if self.parameter_overrides is not None:
            self.parameter_overrides = dict(self.parameter_overrides)

    def frozen_overrides(self) -> Tuple[Tuple[str, float], ...]:
        """The overrides as a hashable, order-independent cache-key component."""
        if not self.parameter_overrides:
            return ()
        return tuple(sorted(self.parameter_overrides.items()))

    def simulate_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments (minus model/seed) for the one-shot simulator."""
        return {
            "sample_interval": self.sample_interval,
            "schedule": self.schedule,
            "initial_state": self.initial_state,
            "record_species": list(self.record_species)
            if self.record_species is not None
            else None,
        }


@dataclass
class EnsembleStats:
    """Execution statistics of one ensemble batch."""

    n_jobs: int
    executor: str
    workers: int
    wall_seconds: float
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def runs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.n_jobs / self.wall_seconds

    def summary(self) -> str:
        return (
            f"{self.n_jobs} runs via {self.executor} (workers={self.workers}) in "
            f"{self.wall_seconds:.2f} s ({self.runs_per_second:.2f} runs/s; "
            f"model cache {self.cache_hits} hits / {self.cache_misses} misses)"
        )


@dataclass
class EnsembleResult:
    """Jobs and results of one executed ensemble, in submission order.

    Two forms exist.  A *materialized* result (the default) holds every
    trajectory.  A *reduced* result — produced by ``run_ensemble(...,
    reduce=fn)`` — holds only the per-run summaries returned by the reducer
    (``reduced[i]`` for job ``i``) and no trajectories at all: each trajectory
    was handed to the reducer as it completed and discarded immediately, so
    peak memory stays bounded by the executor's in-flight window instead of
    growing with the number of runs.
    """

    jobs: List[SimulationJob]
    trajectories: Optional[List[Trajectory]]
    stats: EnsembleStats
    reduced: Optional[List[Any]] = None

    def __post_init__(self) -> None:
        if self.trajectories is None and self.reduced is None:
            raise EngineError(
                "an ensemble result needs trajectories or reduced summaries",
            )
        if self.trajectories is not None and len(self.jobs) != len(self.trajectories):
            raise EngineError(
                f"ensemble result holds {len(self.jobs)} jobs but "
                f"{len(self.trajectories)} trajectories",
            )
        if self.reduced is not None and len(self.jobs) != len(self.reduced):
            raise EngineError(
                f"ensemble result holds {len(self.jobs)} jobs but "
                f"{len(self.reduced)} reduced summaries",
            )

    @property
    def is_reduced(self) -> bool:
        """True when the trajectories were reduced away during execution."""
        return self.trajectories is None

    def _require_trajectories(self) -> List[Trajectory]:
        if self.trajectories is None:
            raise EngineError(
                "this ensemble was executed with a reducer and holds no "
                "trajectories; read .reduced instead",
            )
        return self.trajectories

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Tuple[SimulationJob, Trajectory]]:
        return iter(zip(self.jobs, self._require_trajectories()))

    def __getitem__(self, index: int) -> Tuple[SimulationJob, Trajectory]:
        return self.jobs[index], self._require_trajectories()[index]

    def trajectory(self, index: int) -> Trajectory:
        return self._require_trajectories()[index]

    def tags(self) -> List[Any]:
        return [job.tag for job in self.jobs]

    def summary(self) -> str:
        return self.stats.summary()
