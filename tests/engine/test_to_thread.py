"""Engine calls run through ``asyncio.to_thread``: how an event loop runs studies.

The engine has no async API.  An event loop (the HTTP service's, for one) runs
a study or an ensemble on a worker thread, over an executor it opened itself.
These tests pin what that relies on: the same bits as a direct call, a loop
that keeps running meanwhile, per-run progress, warm worker caches across
offloaded batches, an executor whose lifecycle stays with its caller, and a
failing batch that leaves its sibling batches and the shared pool intact.
The statistics of concurrent studies on one executor are covered in
``test_hardening.py::TestPerIterationBatchStats``.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.analysis import run_replicate_study
from repro.engine import ProcessPoolEnsembleExecutor, StudySpec, replicate_jobs, run_ensemble
from repro.engine.jobs import SimulationJob
from repro.errors import PropensityError
from repro.stochastic.events import InputSchedule


@pytest.fixture()
def ode_job(and_circuit):
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 30.0, 40.0
    )
    return SimulationJob(model=and_circuit.model, t_end=60.0, simulator="ode", schedule=schedule)


@pytest.fixture()
def ssa_job(and_circuit):
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 40.0, 40.0
    )
    return SimulationJob(model=and_circuit.model, t_end=80.0, simulator="ssa", schedule=schedule)


def _offload(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` awaited on a worker thread of a fresh event loop."""
    return asyncio.run(asyncio.to_thread(fn, *args, **kwargs))


def _total(index, job, trajectory):
    return float(trajectory.data.sum())


class TestOffloadedResults:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_ensemble_matches_a_direct_call_bit_for_bit(self, ssa_job, workers):
        direct = run_ensemble(replicate_jobs(ssa_job, 4, seed=11), workers=workers)
        offloaded = _offload(run_ensemble, replicate_jobs(ssa_job, 4, seed=11), workers=workers)
        assert len(offloaded) == 4
        for index, (_, expected) in enumerate(direct):
            assert np.array_equal(offloaded.trajectory(index).times, expected.times)
            assert np.array_equal(offloaded.trajectory(index).data, expected.data)

    def test_reduced_ensemble_matches_a_direct_call(self, ode_job):
        direct = run_ensemble(replicate_jobs(ode_job, 4, seed=7), reduce=_total)
        offloaded = _offload(run_ensemble, replicate_jobs(ode_job, 4, seed=7), reduce=_total)
        assert offloaded.is_reduced
        assert offloaded.trajectories is None
        assert offloaded.reduced == direct.reduced

    def test_progress_fires_once_per_completed_run(self, and_circuit):
        seen = []
        spec = StudySpec.for_circuit(
            and_circuit, n_replicates=3, hold_time=60.0, simulator="ode", seed=2
        )
        _offload(
            run_replicate_study,
            spec,
            progress=lambda done, total, job: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestOffloadedExecutors:
    def test_loop_stays_responsive_during_a_pool_study(self, and_circuit):
        """A coroutine runs on the loop while the study is in flight: the
        study's first progress callback, on the study's thread, waits for it."""
        spec = StudySpec.for_circuit(and_circuit, n_replicates=4, hold_time=80.0, seed=1)
        in_flight, answered, waits = threading.Event(), threading.Event(), []

        def progress(done, total, job):
            if done == 1:
                in_flight.set()
                waits.append(answered.wait(timeout=30))

        async def _answer():
            while not in_flight.is_set():
                await asyncio.sleep(0.001)
            answered.set()

        async def _go(executor):
            study, _ = await asyncio.gather(
                asyncio.to_thread(run_replicate_study, spec, executor=executor, progress=progress),
                _answer(),
            )
            return study

        with ProcessPoolEnsembleExecutor(2) as executor:
            study = asyncio.run(_go(executor))
        assert waits == [True]
        assert study.n_replicates == 4

    def test_warm_cache_across_offloaded_batches(self, ode_job):
        """Two offloaded batches on one 1-worker pool: the second is all hits."""
        with ProcessPoolEnsembleExecutor(1) as executor:
            first = _offload(run_ensemble, replicate_jobs(ode_job, 3, seed=1), executor=executor)
            second = _offload(run_ensemble, replicate_jobs(ode_job, 3, seed=2), executor=executor)
        assert (first.stats.cache_misses, first.stats.cache_hits) == (1, 2)
        assert (second.stats.cache_misses, second.stats.cache_hits) == (0, 3)

    def test_shared_executor_lifecycle_stays_with_the_caller(self, and_circuit):
        """Offloaded studies reuse the caller's one pool and never close it."""
        spec = StudySpec.for_circuit(
            and_circuit, n_replicates=2, hold_time=60.0, simulator="ode", seed=3
        )
        with ProcessPoolEnsembleExecutor(2) as executor:
            first = _offload(run_replicate_study, spec, executor=executor)
            pool = executor._pool
            second = _offload(run_replicate_study, spec, executor=executor)
            assert executor.is_open
            assert executor._pool is pool
        assert second.fitness_values == first.fitness_values

    def test_failing_batch_leaves_siblings_and_the_pool_intact(self, and_circuit, ode_job):
        """A batch that raises on a worker fails alone: a concurrent sibling
        batch on the same pool returns the direct call's bits, and the pool
        serves the next batch."""
        broken = SimulationJob(
            model=and_circuit.model,
            t_end=5.0,
            simulator="ode",
            parameter_overrides={"no_such_parameter": 1.0},
        )
        direct = run_ensemble(replicate_jobs(ode_job, 4, seed=6))

        async def _together(executor):
            return await asyncio.gather(
                asyncio.to_thread(run_ensemble, [broken], executor=executor),
                asyncio.to_thread(
                    run_ensemble, replicate_jobs(ode_job, 4, seed=6), executor=executor
                ),
                return_exceptions=True,
            )

        with ProcessPoolEnsembleExecutor(2) as executor:
            failed, sibling = asyncio.run(_together(executor))
            after = run_ensemble(replicate_jobs(ode_job, 2, seed=9), executor=executor)
        assert isinstance(failed, PropensityError)
        for index, (_, expected) in enumerate(direct):
            assert np.array_equal(sibling.trajectory(index).data, expected.data)
        assert after.stats.n_jobs == 2
