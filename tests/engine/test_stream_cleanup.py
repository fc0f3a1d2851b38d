"""Regression tests: abandoned streams must close engine-created executors.

When a caller abandons ``iter_ensemble`` mid-iteration, the ephemeral
executor the engine built from ``workers=N`` must be closed by the stream's
``close()`` — deterministically, not whenever garbage collection happens to
run.  Exhaustion already guaranteed cleanup; these tests pin the abandonment
paths.
"""

import pytest

from repro.engine import iter_ensemble, replicate_jobs
from repro.engine.jobs import SimulationJob
from repro.stochastic.events import InputSchedule


@pytest.fixture()
def ode_job(and_circuit):
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 30.0, 40.0
    )
    return SimulationJob(model=and_circuit.model, t_end=60.0, simulator="ode", schedule=schedule)


@pytest.fixture()
def tracked_executors(monkeypatch):
    """Every executor the engine creates from workers=N, for leak assertions."""
    import repro.engine.api as api
    from repro.engine.executors import get_executor as original

    created = []

    def tracking(workers=1):
        executor = original(workers)
        created.append(executor)
        return executor

    monkeypatch.setattr(api, "get_executor", tracking)
    return created


class TestSyncStreamAbandonment:
    def test_close_mid_iteration_closes_ephemeral_pool(self, ode_job, tracked_executors):
        stream = iter_ensemble(replicate_jobs(ode_job, 6, seed=1), workers=2)
        next(stream)  # mid-flight: results in the window, futures pending
        stream.close()
        assert len(tracked_executors) == 1
        assert not tracked_executors[0].is_open
        assert stream.stats is not None  # abandonment still finalizes stats

    def test_with_block_break_closes_ephemeral_pool(self, ode_job, tracked_executors):
        with iter_ensemble(replicate_jobs(ode_job, 6, seed=1), workers=2) as stream:
            for _item in stream:
                break
        assert not tracked_executors[0].is_open

    def test_close_before_first_result_closes_ephemeral_pool(self, ode_job, tracked_executors):
        stream = iter_ensemble(replicate_jobs(ode_job, 4, seed=1), workers=2)
        stream.close()
        assert not tracked_executors[0].is_open

    def test_transform_close_closes_source_executor(self, ode_job, tracked_executors):
        stream = iter_ensemble(replicate_jobs(ode_job, 4, seed=1), workers=2)
        derived = stream.transform(lambda index, job, trajectory: index)
        next(derived)
        derived.close()
        assert not tracked_executors[0].is_open

    def test_caller_provided_executor_survives_abandonment(self, ode_job):
        from repro.engine import ProcessPoolEnsembleExecutor

        with ProcessPoolEnsembleExecutor(2) as executor:
            stream = iter_ensemble(replicate_jobs(ode_job, 6, seed=1), executor=executor)
            next(stream)
            stream.close()
            assert executor.is_open  # lifecycle stays with the caller

