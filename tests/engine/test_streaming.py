"""Tests for the engine's streamed delivery and persistent executor lifecycle."""

import numpy as np
import pytest

from repro.engine import (
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    SimulationJob,
    iter_ensemble,
    replicate_jobs,
    run_ensemble,
)
from repro.errors import EngineError
from repro.stochastic.events import InputSchedule


@pytest.fixture()
def ode_job(and_circuit):
    """A short deterministic ODE job on the AND gate (fast, exactly comparable)."""
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 30.0, 40.0
    )
    return SimulationJob(model=and_circuit.model, t_end=60.0, simulator="ode", schedule=schedule)


@pytest.fixture()
def ssa_job(and_circuit):
    """A short seeded SSA job on the AND gate (stochastic, bit-level sensitive)."""
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 40.0, 40.0
    )
    return SimulationJob(model=and_circuit.model, t_end=80.0, simulator="ssa", schedule=schedule)


class TestStreamedDelivery:
    def test_serial_stream_arrives_in_submission_order(self, ode_job):
        jobs = replicate_jobs(ode_job, 5, seed=3)
        stream = iter_ensemble(jobs, workers=1)
        indices = [index for index, _, _ in stream]
        assert indices == [0, 1, 2, 3, 4]

    def test_pool_ordered_stream_arrives_in_submission_order(self, ode_job):
        jobs = replicate_jobs(ode_job, 6, seed=3)
        stream = iter_ensemble(jobs, workers=2, ordered=True)
        indices = [index for index, _, _ in stream]
        assert indices == [0, 1, 2, 3, 4, 5]

    def test_pool_completion_order_stream_covers_every_index(self, ode_job):
        jobs = replicate_jobs(ode_job, 6, seed=3)
        stream = iter_ensemble(jobs, workers=2, ordered=False)
        indices = [index for index, _, _ in stream]
        assert sorted(indices) == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_streamed_matches_materialized_bit_for_bit(self, ssa_job, workers):
        """The acceptance contract: streamed trajectories are bit-identical to
        the materialized path on both the serial and pool executors."""
        materialized = run_ensemble(replicate_jobs(ssa_job, 4, seed=11), workers=workers)
        stream = iter_ensemble(replicate_jobs(ssa_job, 4, seed=11), workers=workers)
        streamed = {index: trajectory for index, _, trajectory in stream}
        assert sorted(streamed) == [0, 1, 2, 3]
        for index, (_, expected) in enumerate(materialized):
            assert np.array_equal(streamed[index].times, expected.times)
            assert np.array_equal(streamed[index].data, expected.data)

    def test_unordered_stream_matches_too(self, ssa_job):
        materialized = run_ensemble(replicate_jobs(ssa_job, 4, seed=11), workers=2)
        stream = iter_ensemble(replicate_jobs(ssa_job, 4, seed=11), workers=2, ordered=False)
        for index, _, trajectory in stream:
            assert np.array_equal(trajectory.data, materialized.trajectory(index).data)

    def test_stats_appear_only_after_exhaustion(self, ode_job):
        jobs = replicate_jobs(ode_job, 3, seed=1)
        stream = iter_ensemble(jobs, workers=1)
        assert stream.stats is None
        assert len(stream) == 3
        list(stream)
        assert stream.stats is not None
        assert stream.stats.n_jobs == 3
        assert stream.stats.executor == "serial"

    def test_early_close_finalizes_stats(self, ode_job):
        jobs = replicate_jobs(ode_job, 4, seed=1)
        with iter_ensemble(jobs, workers=1) as stream:
            next(stream)
        assert stream.stats is not None

    def test_close_before_first_result_still_finalizes(self, ode_job):
        """Abandoning an unstarted stream must finalize stats and close the
        ephemeral executor (a never-started generator skips its finally)."""
        jobs = replicate_jobs(ode_job, 4, seed=1)
        with iter_ensemble(jobs, workers=2) as stream:
            pass
        assert stream.stats is not None
        assert stream.stats.n_jobs == 4

    def test_transform_close_before_first_result_finalizes_source(self, ode_job):
        jobs = replicate_jobs(ode_job, 3, seed=1)
        stream = iter_ensemble(jobs, workers=1)
        derived = stream.transform(lambda index, job, trajectory: index)
        derived.close()
        assert derived.stats is not None

    def test_progress_fires_once_per_completed_run(self, ode_job):
        seen = []
        jobs = replicate_jobs(ode_job, 3, seed=2)
        stream = iter_ensemble(
            jobs, workers=1, progress=lambda done, total, job: seen.append((done, total))
        )
        list(stream)
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_empty_batch_rejected(self):
        with pytest.raises(EngineError):
            iter_ensemble([])

    def test_transform_shares_stats_and_jobs(self, ode_job):
        jobs = replicate_jobs(ode_job, 3, seed=5)
        stream = iter_ensemble(jobs, workers=1)
        derived = stream.transform(lambda index, job, trajectory: index * 10)
        assert derived.stats is None
        assert list(derived) == [0, 10, 20]
        assert derived.stats is stream.stats
        assert derived.jobs is stream.jobs


class TestReducedResults:
    def test_reduce_keeps_summaries_not_trajectories(self, ode_job):
        result = run_ensemble(
            replicate_jobs(ode_job, 4, seed=7),
            workers=1,
            reduce=lambda index, job, trajectory: float(trajectory.data.sum()),
        )
        assert result.is_reduced
        assert result.trajectories is None
        assert len(result.reduced) == 4
        assert all(isinstance(value, float) for value in result.reduced)
        assert result.stats.n_jobs == 4

    def test_reduced_summaries_sit_at_their_job_index(self, ode_job):
        result = run_ensemble(
            replicate_jobs(ode_job, 4, seed=7),
            workers=2,
            reduce=lambda index, job, trajectory: index,
        )
        assert result.reduced == [0, 1, 2, 3]

    def test_reduce_matches_materialized_values(self, ssa_job):
        materialized = run_ensemble(replicate_jobs(ssa_job, 3, seed=9), workers=1)
        reduced = run_ensemble(
            replicate_jobs(ssa_job, 3, seed=9),
            workers=1,
            reduce=lambda index, job, trajectory: float(trajectory.data.sum()),
        )
        assert reduced.reduced == [float(t.data.sum()) for t in materialized.trajectories]

    def test_override_sweep_reduces_on_a_shared_executor(self, toy_model):
        jobs = [
            SimulationJob(
                model=toy_model, t_end=20.0, simulator="ode", parameter_overrides={"kd": kd}
            )
            for kd in (0.1, 0.5)
        ]
        with ProcessPoolEnsembleExecutor(2) as executor:
            result = run_ensemble(
                jobs,
                executor=executor,
                reduce=lambda index, job, trajectory: float(trajectory["Y"][-1]),
            )
            assert executor.is_open
        assert result.is_reduced
        # A stronger kd decays the output harder.
        assert result.reduced[1] < result.reduced[0]

    def test_reduced_result_refuses_trajectory_access(self, ode_job):
        result = run_ensemble(
            replicate_jobs(ode_job, 2, seed=1),
            reduce=lambda index, job, trajectory: None,
        )
        with pytest.raises(EngineError, match="reduced"):
            list(result)
        with pytest.raises(EngineError, match="reduced"):
            result.trajectory(0)
        assert result.tags() == [None, None]  # job metadata stays available


class TestExecutorLifecycle:
    def test_serial_executor_is_a_context_manager(self):
        with SerialExecutor() as executor:
            assert isinstance(executor, SerialExecutor)
        executor.close()  # idempotent no-op

    def test_pool_opens_lazily_and_closes_idempotently(self, ode_job):
        executor = ProcessPoolEnsembleExecutor(2)
        assert not executor.is_open
        run_ensemble(replicate_jobs(ode_job, 2, seed=1), executor=executor)
        assert executor.is_open  # caller-provided executors stay open
        executor.close()
        assert not executor.is_open
        executor.close()  # second close is a no-op
        assert not executor.is_open

    def test_context_manager_closes_the_pool(self, ode_job):
        with ProcessPoolEnsembleExecutor(2) as executor:
            run_ensemble(replicate_jobs(ode_job, 2, seed=1), executor=executor)
            assert executor.is_open
        assert not executor.is_open

    def test_closed_executor_reopens_on_next_use(self, ode_job):
        executor = ProcessPoolEnsembleExecutor(2)
        run_ensemble(replicate_jobs(ode_job, 2, seed=1), executor=executor)
        executor.close()
        result = run_ensemble(replicate_jobs(ode_job, 2, seed=1), executor=executor)
        assert result.stats.n_jobs == 2
        executor.close()

    def test_one_pool_survives_across_batches(self, ode_job):
        with ProcessPoolEnsembleExecutor(2) as executor:
            run_ensemble(replicate_jobs(ode_job, 2, seed=1), executor=executor)
            first_pool = executor._pool
            run_ensemble(replicate_jobs(ode_job, 2, seed=2), executor=executor)
            assert executor._pool is first_pool

    def test_second_batch_hits_warm_worker_cache(self, ode_job):
        """One worker, two batches on one pool: batch 1 compiles the model,
        batch 2 is pure warm cache hits."""
        with ProcessPoolEnsembleExecutor(1) as executor:
            first = run_ensemble(replicate_jobs(ode_job, 3, seed=1), executor=executor)
            second = run_ensemble(replicate_jobs(ode_job, 3, seed=2), executor=executor)
        assert first.stats.cache_misses == 1
        assert first.stats.cache_hits == 2
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits == 3

    def test_ephemeral_executor_used_by_run_ensemble_is_closed(self, ode_job, monkeypatch):
        """run_ensemble closes executors it creates from workers=N itself."""
        import repro.engine.api as api

        created = []
        original = api.get_executor

        def tracking_get_executor(workers=1):
            executor = original(workers)
            created.append(executor)
            return executor

        monkeypatch.setattr(api, "get_executor", tracking_get_executor)
        run_ensemble(replicate_jobs(ode_job, 2, seed=1), workers=2)
        assert len(created) == 1
        assert not created[0].is_open

    def test_propagation_delay_reuses_one_executor_for_both_phases(self, and_circuit):
        """The two batches of estimate_propagation_delay share one live pool,
        so the transition batch runs entirely on warm worker caches."""
        from repro.vlab import estimate_propagation_delay

        class StatsRecordingPool(ProcessPoolEnsembleExecutor):
            """A pool that keeps the BatchCacheStats of every batch it runs."""

            def __init__(self, workers):
                super().__init__(workers)
                self.batch_stats = []

            def iter_jobs(self, jobs, *args, batch_stats=None, **kwargs):
                self.batch_stats.append(batch_stats)
                return super().iter_jobs(jobs, *args, batch_stats=batch_stats, **kwargs)

        with StatsRecordingPool(1) as executor:
            analysis = estimate_propagation_delay(
                and_circuit.model,
                and_circuit.inputs,
                and_circuit.output,
                threshold=15.0,
                settle_time=100.0,
                observation_time=100.0,
                simulator="ode",
                rng=3,
                executor=executor,
            )
            assert executor.is_open  # left open for the caller
        assert analysis.delays
        # Worker-side statistics of the *last* batch (the transitions): the
        # settle batch already compiled the model in the pool's single worker.
        transitions = executor.batch_stats[-1]
        assert transitions.misses == 0
        assert transitions.hits == len(analysis.delays)

    def test_propagation_delay_matches_serial_with_shared_pool(self, and_circuit):
        from repro.vlab import estimate_propagation_delay

        kwargs = dict(
            input_species=and_circuit.inputs,
            output_species=and_circuit.output,
            threshold=15.0,
            settle_time=100.0,
            observation_time=100.0,
            simulator="ssa",
            rng=11,
        )
        serial = estimate_propagation_delay(and_circuit.model, **kwargs)
        pooled = estimate_propagation_delay(and_circuit.model, **kwargs, workers=2)
        assert serial.delays == pooled.delays

    def test_replicate_study_accepts_shared_executor(self, and_circuit):
        from repro.analysis import run_replicate_study
        from repro.engine import StudySpec

        spec = StudySpec.for_circuit(and_circuit, n_replicates=3, hold_time=100.0, seed=77)
        with ProcessPoolEnsembleExecutor(2) as executor:
            first = run_replicate_study(spec, executor=executor)
            second = run_replicate_study(spec, executor=executor)
        assert first.fitness_values == second.fitness_values
        baseline = run_replicate_study(spec)
        assert baseline.fitness_values == first.fitness_values


class TestExperimentStreaming:
    def test_iter_replicates_streams_datalogs_in_order(self, and_circuit):
        from repro.vlab import LogicExperiment

        experiment = LogicExperiment.for_circuit(and_circuit, simulator="ode")
        stream = experiment.iter_replicates(3, hold_time=40.0, seed=5)
        items = list(stream)
        assert [index for index, _ in items] == [0, 1, 2]
        assert all(log.hold_time == 40.0 for _, log in items)
        assert stream.stats is not None
        assert stream.stats.n_jobs == 3

    def test_iter_replicates_matches_materialized_run(self, and_circuit):
        from repro.engine import run_ensemble as run_materialized
        from repro.vlab import LogicExperiment

        experiment = LogicExperiment.for_circuit(and_circuit, simulator="ssa")
        template = experiment.job(hold_time=60.0)
        materialized = run_materialized(replicate_jobs(template, 2, seed=9))
        stream = experiment.iter_replicates(2, hold_time=60.0, seed=9)
        for (index, log), (_, expected) in zip(stream, materialized):
            assert np.array_equal(log.trajectory.data, expected.data)
