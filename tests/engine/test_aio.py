"""Tests for the engine's asyncio execution layer (engine/aio.py)."""

import asyncio

import numpy as np
import pytest

from repro.analysis import run_replicate_study
from repro.engine import (
    AsyncEnsembleExecutor,
    ProcessPoolEnsembleExecutor,
    aiter_ensemble,
    arun_ensemble,
    gather_studies,
    replicate_jobs,
    run_ensemble,
)
from repro.engine.jobs import SimulationJob
from repro.errors import EngineError
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


class TestAsyncDelivery:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_arun_matches_sync_bit_for_bit(self, ssa_job, workers):
        """The acceptance contract: async trajectories are bit-identical to the
        sync path, on both the serial and pool executors."""
        sync = run_ensemble(replicate_jobs(ssa_job, 4, seed=11), workers=workers)
        as_run = asyncio.run(arun_ensemble(replicate_jobs(ssa_job, 4, seed=11), workers=workers))
        assert len(as_run) == 4
        for index, (_, expected) in enumerate(sync):
            assert np.array_equal(as_run.trajectory(index).times, expected.times)
            assert np.array_equal(as_run.trajectory(index).data, expected.data)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_aiter_matches_sync_bit_for_bit(self, ssa_job, workers):
        sync = run_ensemble(replicate_jobs(ssa_job, 4, seed=11), workers=workers)

        async def _collect():
            collected = {}
            async for index, _, trajectory in aiter_ensemble(
                replicate_jobs(ssa_job, 4, seed=11), workers=workers
            ):
                collected[index] = trajectory
            return collected

        streamed = asyncio.run(_collect())
        assert sorted(streamed) == [0, 1, 2, 3]
        for index, (_, expected) in enumerate(sync):
            assert np.array_equal(streamed[index].data, expected.data)

    def test_aiter_ordered_delivers_in_submission_order(self, ode_job):
        async def _indices(ordered):
            return [
                index
                async for index, _, _ in aiter_ensemble(
                    replicate_jobs(ode_job, 6, seed=3), workers=2, ordered=ordered
                )
            ]

        assert asyncio.run(_indices(True)) == [0, 1, 2, 3, 4, 5]
        assert sorted(asyncio.run(_indices(False))) == [0, 1, 2, 3, 4, 5]

    def test_arun_reduce_keeps_summaries(self, ode_job):
        result = asyncio.run(
            arun_ensemble(
                replicate_jobs(ode_job, 4, seed=7),
                workers=1,
                reduce=lambda index, job, trajectory: float(trajectory.data.sum()),
            )
        )
        assert result.is_reduced
        assert result.trajectories is None
        assert len(result.reduced) == 4
        sync = run_ensemble(
            replicate_jobs(ode_job, 4, seed=7),
            workers=1,
            reduce=lambda index, job, trajectory: float(trajectory.data.sum()),
        )
        assert result.reduced == sync.reduced

    def test_arun_accepts_async_reducer(self, ode_job):
        async def _reduce(index, job, trajectory):
            await asyncio.sleep(0)
            return index * 10

        result = asyncio.run(
            arun_ensemble(replicate_jobs(ode_job, 3, seed=1), workers=1, reduce=_reduce)
        )
        assert result.reduced == [0, 10, 20]

    def test_progress_fires_once_per_completed_run(self, ode_job):
        seen = []

        async def _go():
            async for _ in aiter_ensemble(
                replicate_jobs(ode_job, 3, seed=2),
                workers=1,
                progress=lambda done, total, job: seen.append((done, total)),
            ):
                pass

        asyncio.run(_go())
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_empty_batch_rejected(self):
        async def _go():
            async for _ in aiter_ensemble([]):
                pass

        with pytest.raises(EngineError):
            asyncio.run(_go())
        with pytest.raises(EngineError):
            asyncio.run(arun_ensemble([]))

    def test_loop_stays_responsive_during_pool_batch(self, ode_job):
        """The point of the async layer: other coroutines keep running while a
        pool batch executes."""
        ticks = []

        async def _ticker(stop):
            while not stop.is_set():
                ticks.append(1)
                await asyncio.sleep(0.005)

        async def _go():
            stop = asyncio.Event()
            ticker = asyncio.create_task(_ticker(stop))
            await arun_ensemble(replicate_jobs(ode_job, 6, seed=1), workers=2)
            stop.set()
            await ticker

        asyncio.run(_go())
        assert len(ticks) > 3


class TestAsyncExecutorLifecycle:
    def test_needs_exactly_one_of_workers_or_executor(self):
        with pytest.raises(EngineError):
            AsyncEnsembleExecutor()
        with pytest.raises(EngineError):
            AsyncEnsembleExecutor(workers=2, executor=ProcessPoolEnsembleExecutor(2))

    def test_owned_pool_opens_and_closes_with_context(self, ode_job):
        async def _go():
            async with AsyncEnsembleExecutor(workers=2) as executor:
                assert executor.is_open
                first = await arun_ensemble(replicate_jobs(ode_job, 2, seed=1), executor=executor)
                pool = executor.sync_executor._pool
                second = await arun_ensemble(replicate_jobs(ode_job, 2, seed=2), executor=executor)
                assert executor.sync_executor._pool is pool  # one persistent pool
                return executor, first, second

        executor, first, second = asyncio.run(_go())
        assert not executor.is_open
        assert first.stats.n_jobs == second.stats.n_jobs == 2

    def test_wrapped_executor_lifecycle_stays_with_caller(self, ode_job):
        mine = ProcessPoolEnsembleExecutor(2)

        async def _go():
            async with AsyncEnsembleExecutor(executor=mine) as facade:
                await arun_ensemble(replicate_jobs(ode_job, 2, seed=1), executor=facade)

        asyncio.run(_go())
        assert mine.is_open  # the facade did not close what it does not own
        mine.close()

    def test_warm_cache_across_async_batches(self, ode_job):
        """Two async batches on one facade-owned pool: the second is pure hits."""

        async def _go():
            async with AsyncEnsembleExecutor(workers=1) as executor:
                first = await arun_ensemble(replicate_jobs(ode_job, 3, seed=1), executor=executor)
                second = await arun_ensemble(replicate_jobs(ode_job, 3, seed=2), executor=executor)
            return first, second

        first, second = asyncio.run(_go())
        assert first.stats.cache_misses == 1
        assert first.stats.cache_hits == 2
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits == 3


class TestGatherStudies:
    def test_gather_shares_one_warm_pool_across_studies(self, and_circuit):
        """≥3 studies on one shared executor: after a warm-up study, every
        gathered study reports warm-cache hits only — and their per-study
        statistics stay their own despite running concurrently."""
        n = 3

        def _study(executor):
            return run_replicate_study(
                and_circuit, n_replicates=n, hold_time=80.0, rng=21, executor=executor
            )

        async def _go():
            with ProcessPoolEnsembleExecutor(1) as executor:
                warmup = await asyncio.to_thread(_study, executor)
                studies = await gather_studies([_study, _study, _study], executor=executor)
            return warmup, studies

        warmup, studies = asyncio.run(_go())
        assert warmup.stats.cache_misses == 1
        assert len(studies) == 3
        for study in studies:
            assert study.stats.cache_misses == 0
            assert study.stats.cache_hits == n
            assert study.fitness_values == warmup.fitness_values  # same seed, same pool

    def test_gather_accepts_async_studies(self, ode_job):
        async def _study(executor):
            return await arun_ensemble(replicate_jobs(ode_job, 2, seed=4), executor=executor)

        results = asyncio.run(gather_studies([_study, _study], workers=2))
        assert len(results) == 2
        assert all(result.stats.n_jobs == 2 for result in results)

    def test_gather_preserves_study_order(self, ode_job):
        def _make(tag):
            def _study(executor):
                run_ensemble(replicate_jobs(ode_job, 1, seed=tag), executor=executor)
                return tag

            return _study

        results = asyncio.run(gather_studies([_make(1), _make(2), _make(3)], workers=2))
        assert results == [1, 2, 3]

    def test_gather_return_exceptions(self):
        def _boom(executor):
            raise ValueError("study exploded")

        def _fine(executor):
            return "ok"

        results = asyncio.run(
            gather_studies([_boom, _fine], return_exceptions=True),
        )
        assert isinstance(results[0], ValueError)
        assert results[1] == "ok"

    def test_failing_study_lets_siblings_finish_before_raising(self, ode_job):
        """Thread-borne studies cannot be cancelled, so the shared pool must
        stay alive until every sibling settles — only then does the first
        failure propagate."""
        finished = []

        def _boom(executor):
            raise ValueError("study exploded")

        def _slow(executor):
            result = run_ensemble(replicate_jobs(ode_job, 2, seed=6), executor=executor)
            finished.append(result.stats.n_jobs)
            return result

        with pytest.raises(ValueError, match="study exploded"):
            asyncio.run(gather_studies([_boom, _slow], workers=2))
        assert finished == [2]  # the sibling ran to completion on a live pool

    def test_gather_on_default_serial_executor(self, ode_job):
        """No executor, no workers: studies share one serial executor (and the
        thread-safe process-wide compiled-model cache) without interference."""

        def _study(executor):
            return run_ensemble(replicate_jobs(ode_job, 2, seed=8), executor=executor)

        results = asyncio.run(gather_studies([_study, _study, _study]))
        assert len(results) == 3
        for result in results:
            assert np.array_equal(result.trajectory(0).data, results[0].trajectory(0).data)
            assert result.stats.cache_hits + result.stats.cache_misses == 2

    def test_gather_needs_at_least_one_study(self):
        with pytest.raises(EngineError):
            asyncio.run(gather_studies([]))


class TestAsyncStudyEntryPoints:
    def test_concurrent_replicate_studies_inside_one_loop(self, and_circuit):
        """The web-service shape: several requests' studies awaited together,
        multiplexed over one shared pool, each reporting its own stats."""

        async def _go():
            with ProcessPoolEnsembleExecutor(2) as executor:
                return await asyncio.gather(
                    asyncio.to_thread(
                        run_replicate_study,
                        and_circuit,
                        n_replicates=2,
                        hold_time=80.0,
                        rng=1,
                        executor=executor,
                    ),
                    asyncio.to_thread(
                        run_replicate_study,
                        and_circuit,
                        n_replicates=2,
                        hold_time=80.0,
                        rng=2,
                        executor=executor,
                    ),
                )

        first, second = asyncio.run(_go())
        assert first.n_replicates == second.n_replicates == 2
        assert first.stats.cache_hits + first.stats.cache_misses == 2
        assert second.stats.cache_hits + second.stats.cache_misses == 2
