"""Virtual-laboratory experiment driver (the D-VASim workflow, batch style).

A :class:`LogicExperiment` runs a circuit model through a stimulus protocol
with one of the stochastic simulators, records every species at a fixed
sample interval, and returns a :class:`~repro.vlab.datalog.SimulationDataLog`
ready for the logic-analysis algorithm.  It is the programmatic equivalent of
sitting in front of D-VASim, toggling the input species and logging the run.

Execution is delegated to the ensemble engine: :meth:`LogicExperiment.job`
describes the run declaratively and :meth:`LogicExperiment.run` submits it
through :func:`repro.engine.run_job`, so even single runs share the
compiled-model cache, and multi-run studies can batch many jobs from one
experiment through :func:`repro.engine.run_ensemble`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..engine.api import EnsembleStream, iter_ensemble, replicate_jobs, run_job
from ..engine.jobs import SimulationJob
from ..errors import ExperimentError, SimulationError
from ..gates.circuits import GeneticCircuit
from ..sbml.model import Model
from ..stochastic import canonical_simulator_name
from ..stochastic.rng import RandomState
from ..stochastic.trajectory import Trajectory
from .datalog import SimulationDataLog
from .protocol import StimulusProtocol, exhaustive_protocol

__all__ = ["LogicExperiment", "run_logic_experiment"]


@dataclass
class LogicExperiment:
    """Configuration of one logic-characterisation experiment.

    Parameters
    ----------
    model:
        The SBML model to simulate.
    input_species / output_species:
        Which species are the circuit inputs and which single species is the
        output under analysis.
    input_high / input_low:
        Molecule counts used to clamp an input at digital 1 / 0.
    sample_interval:
        Trace sampling interval (the paper samples once per time unit).
    simulator:
        One of ``"ssa"``, ``"next-reaction"``, ``"tau-leap"``, ``"ode"``.
    """

    model: Model
    input_species: List[str]
    output_species: str
    input_high: float = 40.0
    input_low: float = 0.0
    sample_interval: float = 1.0
    simulator: str = "ssa"
    record_species: Optional[List[str]] = None
    circuit_name: str = ""

    def __post_init__(self) -> None:
        self.input_species = list(self.input_species)
        if not self.input_species:
            raise ExperimentError("an experiment needs at least one input species")
        try:
            self.simulator = canonical_simulator_name(self.simulator)
        except SimulationError as error:
            raise ExperimentError(str(error)) from None
        missing = [
            sid
            for sid in self.input_species + [self.output_species]
            if sid not in self.model.species
        ]
        if missing:
            raise ExperimentError(
                f"species {missing} do not exist in model {self.model.sid!r}",
            )
        for sid in self.input_species:
            species = self.model.species[sid]
            if not (species.boundary_condition or species.constant):
                raise ExperimentError(
                    f"input species {sid!r} is not a boundary species; the virtual "
                    "laboratory can only clamp boundary species",
                )
        if self.output_species in self.input_species:
            raise ExperimentError("the output species cannot also be an input")
        if self.input_high <= self.input_low:
            raise ExperimentError("input_high must exceed input_low")
        if self.sample_interval <= 0:
            raise ExperimentError("sample_interval must be positive")

    # -- factory -----------------------------------------------------------------
    @classmethod
    def for_circuit(
        cls,
        circuit: GeneticCircuit,
        simulator: str = "ssa",
        sample_interval: float = 1.0,
        input_high: Optional[float] = None,
        input_low: Optional[float] = None,
        output_species: Optional[str] = None,
    ) -> "LogicExperiment":
        """Build an experiment for a :class:`GeneticCircuit` using its library levels."""
        levels = circuit.input_levels()
        high = input_high if input_high is not None else max(v["high"] for v in levels.values())
        low = input_low if input_low is not None else min(v["low"] for v in levels.values())
        return cls(
            model=circuit.model,
            input_species=list(circuit.inputs),
            output_species=output_species or circuit.output,
            input_high=high,
            input_low=low,
            sample_interval=sample_interval,
            simulator=simulator,
            circuit_name=circuit.name,
        )

    @classmethod
    def for_spec(cls, spec) -> "LogicExperiment":
        """Build the experiment a :class:`~repro.engine.StudySpec` describes.

        The canonical-spec twin of :meth:`for_circuit`: the circuit is
        resolved through the spec (name registry or attached instance), the
        simulator and sampling interval come from the spec's fields, and the
        clamp levels fall back to the circuit's library levels exactly as
        :meth:`for_circuit` does.
        """
        return cls.for_circuit(
            spec.resolve_circuit(),
            simulator=spec.simulator,
            sample_interval=spec.sample_interval,
        )

    # -- execution -----------------------------------------------------------------
    def job(
        self,
        protocol: Optional[StimulusProtocol] = None,
        hold_time: float = 250.0,
        repeats: int = 1,
        seed: RandomState = None,
        total_time: Optional[float] = None,
        overrides: Optional[dict] = None,
    ) -> SimulationJob:
        """Describe this experiment as an engine :class:`SimulationJob`.

        Either pass an explicit ``protocol`` or let the experiment build an
        exhaustive one (every input combination, ascending order, held for
        ``hold_time`` and repeated ``repeats`` times).  ``total_time`` pads
        the simulation past the protocol's end (rarely needed).

        Multi-run studies build one job per run (varying only the seed, via
        :func:`repro.engine.replicate_jobs`) and submit them together through
        :func:`repro.engine.run_ensemble`; :meth:`datalog_from` then turns
        each returned trajectory back into a :class:`SimulationDataLog`.
        """
        if protocol is None:
            protocol = exhaustive_protocol(len(self.input_species), hold_time, repeats)
        if protocol.n_inputs != len(self.input_species):
            raise ExperimentError(
                f"protocol is for {protocol.n_inputs} inputs but the experiment has "
                f"{len(self.input_species)}",
            )
        schedule = protocol.to_schedule(self.input_species, self.input_high, self.input_low)
        t_end = float(total_time) if total_time is not None else protocol.total_time
        if t_end < protocol.total_time:
            raise ExperimentError("total_time is shorter than the protocol")
        return SimulationJob(
            model=self.model,
            t_end=t_end,
            simulator=self.simulator,
            schedule=schedule,
            sample_interval=self.sample_interval,
            parameter_overrides=dict(overrides) if overrides else None,
            record_species=self.record_species,
            seed=seed,
            meta={"hold_time": protocol.hold_time},
        )

    def datalog_from(self, job: SimulationJob, trajectory: Trajectory) -> SimulationDataLog:
        """Package a trajectory produced by ``job`` into a data log."""
        applied = job.schedule.applied_values(self.input_species, trajectory.times)
        hold_time = (job.meta or {}).get("hold_time", 0.0)
        return SimulationDataLog(
            trajectory=trajectory,
            input_species=list(self.input_species),
            output_species=self.output_species,
            applied_inputs=applied,
            input_high=self.input_high,
            input_low=self.input_low,
            hold_time=hold_time,
            circuit_name=self.circuit_name or self.model.sid,
        )

    def iter_replicates(
        self,
        n_replicates: int,
        protocol: Optional[StimulusProtocol] = None,
        hold_time: float = 250.0,
        repeats: int = 1,
        seed: RandomState = None,
        total_time: Optional[float] = None,
        workers: int = 1,
        executor=None,
        progress=None,
        ordered: bool = True,
        batch_size: int = 1,
    ) -> EnsembleStream:
        """Stream ``n_replicates`` independent seeded runs as data logs.

        Returns an :class:`~repro.engine.EnsembleStream` yielding
        ``(index, datalog)`` as each replicate completes (submission order by
        default; ``ordered=False`` for completion order), so callers can
        write out or analyze each log and let it go — peak memory stays
        bounded by the executor's in-flight window, not ``n_replicates``.
        The stream's ``.stats`` carry the batch statistics once exhausted.
        Pass an opened ``executor`` to reuse a live worker pool across
        batches; otherwise ``workers=N`` builds (and afterwards closes) one.
        ``batch_size=B`` dispatches the replicates in batches of up to B
        per worker call (bit-identical, just cheaper dispatch).
        """
        template = self.job(
            protocol=protocol,
            hold_time=hold_time,
            repeats=repeats,
            total_time=total_time,
        )
        stream = iter_ensemble(
            replicate_jobs(template, n_replicates, seed=seed),
            workers=workers,
            executor=executor,
            progress=progress,
            ordered=ordered,
            batch_size=batch_size,
        )
        return stream.transform(
            lambda index,
            job,
            trajectory: (index, self.datalog_from(job, trajectory)),
        )

    def run(
        self,
        protocol: Optional[StimulusProtocol] = None,
        hold_time: float = 250.0,
        repeats: int = 1,
        rng: RandomState = None,
        total_time: Optional[float] = None,
    ) -> SimulationDataLog:
        """Run the experiment through the engine and return the logged data."""
        job = self.job(
            protocol=protocol,
            hold_time=hold_time,
            repeats=repeats,
            seed=rng,
            total_time=total_time,
        )
        return self.datalog_from(job, run_job(job))


def run_logic_experiment(
    circuit: Union[GeneticCircuit, Model],
    input_species: Optional[Sequence[str]] = None,
    output_species: Optional[str] = None,
    hold_time: float = 250.0,
    repeats: int = 1,
    input_high: Optional[float] = None,
    input_low: float = 0.0,
    simulator: str = "ssa",
    sample_interval: float = 1.0,
    protocol: Optional[StimulusProtocol] = None,
    rng: RandomState = None,
) -> SimulationDataLog:
    """One-call convenience wrapper: build the experiment and run it.

    Accepts either a :class:`GeneticCircuit` (inputs/outputs inferred) or a
    raw :class:`Model` plus explicit ``input_species`` / ``output_species``.
    """
    if isinstance(circuit, GeneticCircuit):
        experiment = LogicExperiment.for_circuit(
            circuit,
            simulator=simulator,
            sample_interval=sample_interval,
            input_high=input_high,
            input_low=input_low,
            output_species=output_species,
        )
    else:
        if input_species is None or output_species is None:
            raise ExperimentError(
                "when passing a raw model, input_species and output_species are required",
            )
        experiment = LogicExperiment(
            model=circuit,
            input_species=list(input_species),
            output_species=output_species,
            input_high=input_high if input_high is not None else 40.0,
            input_low=input_low,
            sample_interval=sample_interval,
            simulator=simulator,
        )
    return experiment.run(protocol=protocol, hold_time=hold_time, repeats=repeats, rng=rng)
