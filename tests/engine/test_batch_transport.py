"""Batch grouping, the two batch result forms, and batched pool lifecycles.

The engine-level half of the batching tests: how jobs pack into groups, how
a batch result comes home (the serial executor's in-process trajectory list,
or one binary frame on the pool's result pipe and the fabric's result
message), that a pool survives an abandoned or exhausted batched stream, and
that a batched pool run needs no shared memory and no resource tracker.
"""

import dataclasses
import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    DistributedEnsembleExecutor,
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    batch_job_groups,
    iter_ensemble,
    replicate_jobs,
    run_ensemble,
)
from repro.engine import distributed
from repro.engine.core import batch_job_payloads, simulate_batch_payload
from repro.engine.jobs import SimulationJob
from repro.errors import EngineError
from repro.stochastic.events import InputSchedule
from repro.stochastic.trajectory import decode_trajectories


def _shm_segments():
    """Shared-memory segments under the ``glt_`` prefix; none may exist."""
    return sorted(os.path.basename(p) for p in glob.glob("/dev/shm/glt_*"))


def _assert_bit_identical(trajectories, baseline):
    assert len(trajectories) == len(baseline.jobs)
    for index, trajectory in enumerate(trajectories):
        expected = baseline.trajectory(index)
        assert np.array_equal(trajectory.times, expected.times)
        assert np.array_equal(trajectory.data, expected.data)


@pytest.fixture(autouse=True)
def _isolate_parent_worker_caches():
    """Restore the parent-process worker-side caches after every test.

    ``simulate_batch_payload`` is the *worker* entry point; calling it
    in-process warms this process's module-level worker caches, and
    fork-started pools inherit parent memory — without this isolation a
    later test's "fresh" pool would start warm and its cold-compile
    assertions would fail.
    """
    import repro.engine.cache as cache_module

    names = ("_WORKER_CACHE", "_WORKER_MODELS", "_WORKER_KERNELS", "_WORKER_BLOBS_SEEN")
    saved = {name: dict(getattr(cache_module, name)) for name in names}
    yield
    for name, value in saved.items():
        current = getattr(cache_module, name)
        current.clear()
        current.update(value)


@pytest.fixture(scope="module")
def template(and_circuit):
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 30.0, 30.0
    )
    return SimulationJob(
        model=and_circuit.model, t_end=60.0, simulator="ssa", schedule=schedule
    )


class TestGrouping:
    def test_replicates_pack_into_ceil_div_groups(self, template):
        jobs = replicate_jobs(template, 7, seed=1)
        groups = batch_job_groups(jobs, 3)
        assert groups == [[0, 1, 2], [3, 4, 5], [6]]

    def test_configuration_change_closes_the_group(self, template):
        jobs = replicate_jobs(template, 4, seed=1)
        jobs[2] = dataclasses.replace(jobs[2], t_end=45.0)
        groups = batch_job_groups(jobs, 4)
        assert groups == [[0, 1], [2], [3]]

    def test_different_schedule_objects_do_not_batch(self, template, and_circuit):
        jobs = replicate_jobs(template, 2, seed=1)
        other_schedule = InputSchedule.from_combinations(
            list(and_circuit.inputs), [(0, 0), (1, 1)], 30.0, 30.0
        )
        jobs[1] = dataclasses.replace(jobs[1], schedule=other_schedule)
        assert batch_job_groups(jobs, 2) == [[0], [1]]

    def test_nonpositive_batch_size_rejected(self, template):
        with pytest.raises(EngineError):
            batch_job_groups(replicate_jobs(template, 2, seed=1), 0)

    def test_generator_seeds_rejected_for_remote_transports(self, template):
        jobs = [
            dataclasses.replace(job, seed=np.random.default_rng(3))
            for job in replicate_jobs(template, 2, seed=1)
        ]
        groups = batch_job_groups(jobs, 2)
        with pytest.raises(EngineError, match="picklable seeds"):
            batch_job_payloads(jobs, groups)


class TestTransports:
    @pytest.mark.parametrize("form", ["inline", "frame"])
    def test_round_trip_matches_serial_baseline(self, template, form):
        """A batch comes home as the serial executor's in-process trajectory
        list, or as one binary frame from the worker entry point that pools
        and fabric workers run; both carry the serial runs bit for bit."""
        jobs = replicate_jobs(template, 3, seed=17)
        baseline = run_ensemble(jobs, workers=1)
        if form == "inline":
            fn, payloads, _ = SerialExecutor()._batch_submissions(jobs, None, 3)
            trajectories, cache_hit = fn(payloads[0])
            assert isinstance(trajectories, list)
        else:
            payloads = batch_job_payloads(jobs, batch_job_groups(jobs, 3))
            frame, cache_hit = simulate_batch_payload(payloads[0])
            assert isinstance(frame, bytes)
            trajectories = decode_trajectories(frame)
        assert len(payloads) == 1
        assert isinstance(cache_hit, bool)
        _assert_bit_identical(trajectories, baseline)


class TestPoolBatchLifecycle:
    def test_abandoned_pool_stream_leaves_the_pool_usable(self, template):
        """Breaking out of a batched pool stream cancels the queued batches;
        the same executor then runs the batched study bit-identical to
        serial, and no shared-memory segment exists at any point."""
        jobs = replicate_jobs(template, 8, seed=9)
        baseline = run_ensemble(jobs, workers=1)
        with ProcessPoolEnsembleExecutor(2) as executor:
            stream = iter_ensemble(jobs, executor=executor, batch_size=2, ordered=True)
            for index, _, _ in stream:
                break  # leaves ~3 batches undelivered or in flight
            stream.close()
            assert _shm_segments() == []
            again = run_ensemble(jobs, executor=executor, batch_size=2)
        _assert_bit_identical(again.trajectories, baseline)
        assert _shm_segments() == []

    def test_exhausted_pool_run_leaves_the_pool_usable(self, template):
        jobs = replicate_jobs(template, 5, seed=3)
        baseline = run_ensemble(jobs, workers=1)
        with ProcessPoolEnsembleExecutor(2) as executor:
            first = run_ensemble(jobs, executor=executor, batch_size=2)
            again = run_ensemble(jobs, executor=executor, batch_size=2)
        _assert_bit_identical(first.trajectories, baseline)
        _assert_bit_identical(again.trajectories, baseline)
        assert _shm_segments() == []

    def test_batched_pool_run_starts_no_resource_tracker(self, tmp_path):
        """A batch comes home on the pool's result pipe, so a batched run on
        fork-started workers registers nothing with multiprocessing's
        resource tracker: neither the parent nor the worker starts one.

        Runs in a fresh interpreter: this process's tracker may already be
        running from an earlier test, which would hide a regression.
        """
        src = Path(__file__).resolve().parents[2] / "src"
        script = tmp_path / "tracker_pids.py"
        script.write_text(_TRACKER_PIDS_SCRIPT)
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        start_method, parent, worker = result.stdout.split()
        if start_method != "fork":
            # Other start methods launch the tracker to start their workers.
            pytest.skip(f"workers start by {start_method!r}, not 'fork'")
        assert (parent, worker) == ("None", "None")


class TestDistributedBatchFaults:
    def test_worker_death_mid_batch_frame_requeues_bit_identical(self, template, monkeypatch):
        """Kill a fabric worker while batches (frame transport) are in
        flight: the coordinator requeues the dead worker's batches on the
        survivor, the study comes out bit-identical to serial, and no
        ``/dev/shm`` segment outlives the run."""
        jobs = replicate_jobs(template, 12, seed=33)
        baseline = run_ensemble(jobs, workers=1)
        # The victim is whichever worker receives the first batch, killed the
        # moment that batch is on its socket: an observed event, not a timer
        # that a fast study can outrun.  Hello frames carry each worker's pid.
        pids = {}
        receive = distributed.recv_message

        def _recording_receive(sock, **kwargs):
            message = receive(sock, **kwargs)
            if message.get("type") == "hello":
                pids[sock.getpeername()[1]] = message["pid"]
            return message

        monkeypatch.setattr(distributed, "recv_message", _recording_receive)
        with DistributedEnsembleExecutor.loopback(2) as executor:
            executor.open()
            victims = []
            send_task = executor._send_task

            def _send_then_kill(link, task):
                send_task(link, task)
                if not victims:
                    pid = pids[link.sock.getpeername()[1]]
                    victims.extend(p for p in executor._processes if p.pid == pid)
                    victims[0].kill()

            executor._send_task = _send_then_kill
            result = run_ensemble(jobs, executor=executor, batch_size=3)
            victim = victims[0]
            assert victim.poll() is not None, "the victim outlived the batch"
        for index, (_, expected) in enumerate(baseline):
            assert np.array_equal(result.trajectory(index).times, expected.times)
            assert np.array_equal(result.trajectory(index).data, expected.data)
        assert _shm_segments() == []


#: Prints the start method, then the resource-tracker pid of this process
#: and of a pool worker after a batched run.  It runs from a file, so that
#: workers of any start method can resolve ``tracker_pid`` in their
#: ``__main__``.
_TRACKER_PIDS_SCRIPT = """
import multiprocessing
from multiprocessing import resource_tracker
from repro import and_gate_circuit
from repro.engine import ProcessPoolEnsembleExecutor, replicate_jobs, run_ensemble
from repro.engine.jobs import SimulationJob


def tracker_pid(_):
    return resource_tracker._resource_tracker._pid


if __name__ == "__main__":
    template = SimulationJob(model=and_gate_circuit().model, t_end=20.0, simulator="ssa")
    with ProcessPoolEnsembleExecutor(1) as executor:
        run_ensemble(replicate_jobs(template, 2, seed=1), executor=executor, batch_size=2)
        [worker] = executor.map(tracker_pid, [None])
    print(multiprocessing.get_start_method(), resource_tracker._resource_tracker._pid, worker)
"""


class TestStatisticsInvariant:
    def test_pool_batches_account_every_job_once(self, template):
        jobs = replicate_jobs(template, 7, seed=21)
        with ProcessPoolEnsembleExecutor(2) as executor:
            result = run_ensemble(jobs, executor=executor, batch_size=3)
        assert result.stats.cache_hits + result.stats.cache_misses == len(jobs)

    def test_serial_batches_account_every_job_once(self, template):
        jobs = replicate_jobs(template, 5, seed=21)
        result = run_ensemble(jobs, executor=SerialExecutor(), batch_size=2)
        assert result.stats.cache_hits + result.stats.cache_misses == len(jobs)
