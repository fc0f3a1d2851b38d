"""Backend conformance suite: the executor contract, asserted across every transport.

One parametrized module proves that serial, process-pool, distributed-loopback
and distributed-supervised all honour the engine contract — so a future
backend gets the whole contract for free by adding one fixture param.  The
``pool-on-thread`` param drives a process pool the way the HTTP service does:
every call runs on an ``asyncio.to_thread`` worker thread, not on the thread
that opened the executor.  The contract:

* **bit-identity** — the same job list (seeds fanned out before dispatch)
  produces byte-for-byte identical trajectories on every backend;
* **ordering** — ``ordered=True`` streams deliver in submission order,
  ``ordered=False`` covers every index exactly once;
* **statistics** — every run is accounted to exactly one cache hit or miss;
* **cancel-on-failure** — a raising ``map`` payload propagates its exception,
  cancels the not-yet-windowed remainder, and leaves the executor usable.

The run-path tests are additionally parametrized over ``batch_size`` ∈ {1, 3}
— 4 replicates at batch 3 makes the last batch a partial one — so
every backend proves the whole contract (bit-identity included) through the
batched dispatch/transport path too.

The distributed backends here are *real* TCP fabrics (listen + two
supervised dialing workers forked from this process, unkeyed and keyed);
only the machines are local.
"""

import asyncio
import time

import numpy as np
import pytest

import repro.engine.cache as cache_module
from repro.engine import (
    DistributedEnsembleExecutor,
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    iter_ensemble,
    replicate_jobs,
    run_ensemble,
)
from repro.engine.core import batch_job_groups, batch_job_payloads, simulate_batch_payload
from repro.engine.jobs import SimulationJob
from repro.stochastic import CompiledModel, codegen, fan_out_seeds
from repro.stochastic.events import InputSchedule
from repro.stochastic.trajectory import decode_trajectories

BACKENDS = [
    "serial",
    "process-pool",
    "distributed-loopback",
    "distributed-supervised",
    "pool-on-thread",
]


class _Backend:
    """Uniform driver over one executor kind."""

    def __init__(self, name, executor=None, on_thread=False):
        self.name = name
        self.executor = executor
        #: Make every call from an event loop through ``asyncio.to_thread``.
        self.on_thread = on_thread

    def _call(self, fn, *args, **kwargs):
        if self.on_thread:
            return asyncio.run(asyncio.to_thread(fn, *args, **kwargs))
        return fn(*args, **kwargs)

    def materialize(self, jobs, batch_size=1):
        return self._call(run_ensemble, jobs, executor=self.executor, batch_size=batch_size)

    def stream(self, jobs, ordered=True, batch_size=1):
        """``[(index, trajectory), ...]`` in delivery order."""

        def _collect():
            stream = iter_ensemble(
                jobs, executor=self.executor, ordered=ordered, batch_size=batch_size
            )
            return [(index, trajectory) for index, _, trajectory in stream]

        return self._call(_collect)

    def map(self, fn, payloads):
        return self._call(self.executor.map, fn, payloads)


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    """One opened backend per transport; torn down after the module."""
    if request.param == "serial":
        yield _Backend("serial", SerialExecutor())
    elif request.param == "process-pool":
        with ProcessPoolEnsembleExecutor(2) as executor:
            yield _Backend("process-pool", executor)
    elif request.param == "distributed-loopback":
        with DistributedEnsembleExecutor.loopback(2) as executor:
            yield _Backend("distributed-loopback", executor)
    elif request.param == "pool-on-thread":
        with ProcessPoolEnsembleExecutor(2) as executor:
            yield _Backend("pool-on-thread", executor, on_thread=True)
    else:
        # The hardened deployment shape (``genlogic serve --supervise``): an
        # authenticated loopback fabric.  The whole contract must hold on it
        # unchanged.
        with DistributedEnsembleExecutor.loopback(2, key="conformance-secret") as executor:
            yield _Backend("distributed-supervised", executor)


@pytest.fixture(scope="module", params=[1, 3], ids=["batch1", "batch3"])
def batch_size(request):
    """Dispatch granularity: 1 = one replicate per dispatch, 3 = batches of 3.

    The job list holds 4 replicates, so batch 3 exercises a batch count that
    does not divide the replicate count (one full batch + one partial).
    """
    return request.param


@pytest.fixture(scope="module")
def ssa_jobs(and_circuit):
    """A seeded SSA batch (stochastic, so any divergence shows at bit level)."""
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 40.0, 40.0
    )
    template = SimulationJob(
        model=and_circuit.model, t_end=80.0, simulator="ssa", schedule=schedule
    )
    return replicate_jobs(template, 4, seed=11)


@pytest.fixture(scope="module")
def serial_baseline(ssa_jobs):
    """What every backend must reproduce exactly."""
    return run_ensemble(ssa_jobs, workers=1)


@pytest.fixture(scope="module")
def compiled_model_jobs(and_circuit):
    """Jobs whose model is already a ``CompiledModel``, one per case: with or
    without job overrides, on a compiled model with or without overrides
    compiled in; plus their serial baseline."""
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 40.0, 40.0
    )
    kmax = next(name for name in and_circuit.model.parameter_values() if name.endswith("kmax"))
    cases = [
        (compiled_in, job_overrides)
        for compiled_in in (None, {kmax: 3.0})
        for job_overrides in (None, {kmax: 3.0})
    ]
    jobs = [
        SimulationJob(
            model=CompiledModel(and_circuit.model, compiled_in),
            t_end=80.0,
            simulator="ssa",
            schedule=schedule,
            parameter_overrides=job_overrides,
            seed=seed,
        )
        for (compiled_in, job_overrides), seed in zip(cases, fan_out_seeds(13, len(cases)))
    ]
    return jobs, run_ensemble(jobs, workers=1)


class TestBitIdentity:
    def test_materialized_matches_serial_bit_for_bit(
        self, backend, ssa_jobs, serial_baseline, batch_size
    ):
        result = backend.materialize(ssa_jobs, batch_size=batch_size)
        assert len(result) == len(serial_baseline)
        for index, (_, expected) in enumerate(serial_baseline):
            assert np.array_equal(result.trajectory(index).times, expected.times)
            assert np.array_equal(result.trajectory(index).data, expected.data)

    @pytest.mark.parametrize("ordered", [True, False])
    def test_streamed_matches_serial_bit_for_bit(
        self, backend, ssa_jobs, serial_baseline, ordered, batch_size
    ):
        for index, trajectory in backend.stream(
            ssa_jobs, ordered=ordered, batch_size=batch_size
        ):
            expected = serial_baseline.trajectory(index)
            assert np.array_equal(trajectory.times, expected.times)
            assert np.array_equal(trajectory.data, expected.data)

    def test_compiled_model_jobs_match_serial_bit_for_bit(
        self, backend, compiled_model_jobs, batch_size
    ):
        jobs, baseline = compiled_model_jobs
        result = backend.materialize(jobs, batch_size=batch_size)
        for index, (_, expected) in enumerate(baseline):
            assert np.array_equal(result.trajectory(index).times, expected.times)
            assert np.array_equal(result.trajectory(index).data, expected.data)


#: Simulators that read the kernel parts loading leaves out, with short
#: horizons (the ODE is deterministic and the slowest per time unit).
ON_DEMAND_SIMULATORS = {"next-reaction": 60.0, "tau-leap": 60.0, "ode": 20.0}


@pytest.fixture(scope="module")
def on_demand_model(and_circuit):
    """An AND-gate variant no other test ships, so every worker compiles it
    from its payload's model blob."""
    model = and_circuit.model.copy()
    model.set_initial_amount(and_circuit.output, 7.0)
    return model


@pytest.fixture(scope="module", params=list(ON_DEMAND_SIMULATORS))
def on_demand_jobs(request, and_circuit, on_demand_model):
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(1, 0), (1, 1)], ON_DEMAND_SIMULATORS[request.param] / 2, 40.0
    )
    template = SimulationJob(
        model=on_demand_model,
        t_end=ON_DEMAND_SIMULATORS[request.param],
        simulator=request.param,
        schedule=schedule,
    )
    jobs = replicate_jobs(template, 3, seed=23)
    return jobs, run_ensemble(jobs, workers=1)


class TestOnDemandKernelParts:
    def test_a_workers_first_ssa_group_compiles_only_the_loaded_parts(
        self, monkeypatch, and_circuit, on_demand_model
    ):
        # A fresh worker cache, so the model compiles here and no pool forked
        # later inherits the entry.
        monkeypatch.setattr(cache_module, "_WORKER_CACHE", cache_module.CompiledModelCache())
        compiled_parts = []
        compile_part = codegen.compile_part

        def recording(source, name):
            compiled_parts.append(name)
            return compile_part(source, name)

        monkeypatch.setattr(codegen, "compile_part", recording)
        schedule = InputSchedule.from_combinations(
            list(and_circuit.inputs), [(1, 0), (1, 1)], 20.0, 40.0
        )
        template = SimulationJob(
            model=on_demand_model, t_end=40.0, simulator="ssa", schedule=schedule
        )
        jobs = replicate_jobs(template, 2, seed=23)
        (payload,) = batch_job_payloads(jobs, batch_job_groups(jobs, 2))
        frame, cache_hit = simulate_batch_payload(payload)
        assert not cache_hit
        assert len(decode_trajectories(frame)) == 2
        assert compiled_parts == ["", "ssa_segment"]

    def test_non_ssa_simulators_match_serial_bit_for_bit(
        self, backend, on_demand_jobs, batch_size
    ):
        """Workers compile ``propensities_all``/``propensities_after`` from
        their own kernel source when these simulators ask for them."""
        jobs, baseline = on_demand_jobs
        result = backend.materialize(jobs, batch_size=batch_size)
        for index, (_, expected) in enumerate(baseline):
            assert np.array_equal(result.trajectory(index).times, expected.times)
            assert np.array_equal(result.trajectory(index).data, expected.data)


class TestOrdering:
    def test_ordered_stream_delivers_in_submission_order(self, backend, ssa_jobs, batch_size):
        indices = [
            index
            for index, _ in backend.stream(ssa_jobs, ordered=True, batch_size=batch_size)
        ]
        assert indices == list(range(len(ssa_jobs)))

    def test_completion_order_stream_covers_every_index_once(
        self, backend, ssa_jobs, batch_size
    ):
        indices = [
            index
            for index, _ in backend.stream(ssa_jobs, ordered=False, batch_size=batch_size)
        ]
        assert sorted(indices) == list(range(len(ssa_jobs)))


class TestStatistics:
    def test_every_run_is_accounted_to_the_cache_counters(self, backend, ssa_jobs, batch_size):
        result = backend.materialize(ssa_jobs, batch_size=batch_size)
        assert result.stats.n_jobs == len(ssa_jobs)
        assert result.stats.cache_hits + result.stats.cache_misses == len(ssa_jobs)
        assert result.stats.wall_seconds > 0


def _log_or_fail(payload):
    """Conformance map payload: append a marker line, or blow up."""
    action, path = payload
    if action == "fail":
        raise ValueError("payload exploded")
    time.sleep(0.05)
    with open(path, "a") as handle:
        handle.write("ran\n")
    return action


def _double(payload):
    return payload * 2


class TestMapContract:
    def test_map_preserves_payload_order(self, backend):
        assert backend.map(_double, list(range(12))) == [n * 2 for n in range(12)]

    def test_failing_payload_propagates_and_cancels_the_tail(self, backend, tmp_path):
        """The cancel-on-failure contract: the raising payload's exception
        reaches the caller, payloads beyond the in-flight window never run,
        and the executor stays usable for the next batch."""
        marker = tmp_path / "ran.txt"
        payloads = [("fail", str(marker))] + [("log", str(marker))] * 12
        with pytest.raises(ValueError, match="payload exploded"):
            backend.map(_log_or_fail, payloads)
        # Results are still in flight when the failure lands, so anything the
        # window had already dispatched may have run — but no more than that.
        window = 2 * backend.executor.capacity
        ran = marker.read_text().count("ran") if marker.exists() else 0
        assert ran <= window
        # The executor survived the failed batch.
        assert backend.map(_double, [1, 2, 3]) == [2, 4, 6]
