"""Regression tests for the engine bugfix sweep.

Covers: windowed + cancel-on-failure ``map``, LRU (not FIFO) eviction from
the worker's compiled-model cache, per-iteration batch cache statistics
(concurrent replicate studies on one shared executor included), the
``transform`` stream's yielded shape and the cache module's ``__all__``.
"""

import asyncio
import pickle
import sys
import threading
import time

import pytest

import repro.engine.cache as cache_module
from repro.analysis import run_replicate_study
from repro.engine import (
    CompiledModelCache,
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    StudySpec,
    iter_ensemble,
    replicate_jobs,
)
from repro.engine.cache import model_blob, worker_compiled
from repro.engine.jobs import SimulationJob


def _log_or_fail(payload):
    """Worker-side map payload: append a line to a file, or blow up."""
    action, path = payload
    if action == "fail":
        raise RuntimeError("payload exploded")
    time.sleep(0.05)
    with open(path, "a") as handle:
        handle.write("ran\n")
    return action


def _double(payload):
    return payload * 2


@pytest.fixture()
def ode_job(and_circuit):
    from repro.stochastic.events import InputSchedule

    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 30.0, 40.0
    )
    return SimulationJob(model=and_circuit.model, t_end=60.0, simulator="ode", schedule=schedule)


class TestHardenedMap:
    def test_map_preserves_order_with_windowed_submission(self):
        """Many more payloads than the 2×workers window, order still exact."""
        with ProcessPoolEnsembleExecutor(2) as executor:
            results = executor.map(_double, list(range(20)))
        assert results == [payload * 2 for payload in range(20)]

    def test_map_progress_counts_every_payload(self):
        seen = []
        with ProcessPoolEnsembleExecutor(2) as executor:
            executor.map(_double, list(range(10)), progress=lambda d, t, i: seen.append((d, t)))
        assert [done for done, _ in sorted(seen)] == list(range(1, 11))
        assert all(total == 10 for _, total in seen)

    def test_failing_payload_cancels_outstanding_futures(self, tmp_path):
        """A raising payload must not leave the whole batch grinding on: only
        payloads inside the in-flight window may have reached a worker."""
        marker = tmp_path / "ran.txt"
        payloads = [("fail", str(marker))] + [("log", str(marker))] * 12
        executor = ProcessPoolEnsembleExecutor(1)
        try:
            with pytest.raises(RuntimeError, match="payload exploded"):
                executor.map(_log_or_fail, payloads)
        finally:
            executor.close()  # waits for whatever was genuinely in flight
        ran = marker.read_text().count("ran") if marker.exists() else 0
        # window = 2 * workers = 2: at most the windowed payloads ran; the
        # other 10+ were cancelled before ever reaching the pool's queue.
        assert ran <= 2

    def test_serial_map_unaffected(self):
        assert SerialExecutor().map(_double, [1, 2, 3]) == [2, 4, 6]


class TestWorkerModelLRU:
    def test_hot_key_survives_eviction(self, monkeypatch, toy_model):
        """Eviction must be LRU: a key re-used on every batch outlives stale
        ones (the old FIFO behaviour evicted by insertion order)."""
        cache = cache_module.CompiledModelCache(max_entries=2)
        monkeypatch.setattr(cache_module, "_WORKER_CACHE", cache)
        blob, fingerprint = model_blob(toy_model)
        a, b, c = (), (("kd", 0.2),), (("kd", 0.3),)
        hot, _ = worker_compiled(fingerprint, blob, a)
        worker_compiled(fingerprint, blob, b)
        # Touch a: it is now the most recently used entry.
        assert worker_compiled(fingerprint, blob, a) == (hot, True)
        worker_compiled(fingerprint, blob, c)
        assert list(cache._entries) == [(fingerprint, a), (fingerprint, c)]

    def test_each_key_unpickles_its_blob_once(self, monkeypatch, toy_model):
        monkeypatch.setattr(cache_module, "_WORKER_CACHE", cache_module.CompiledModelCache())
        loads = []
        real_loads = pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda data: loads.append(data) or real_loads(data))
        blob, fingerprint = model_blob(toy_model)
        overrides = (("kd", 0.2),)
        plain, hit = worker_compiled(fingerprint, blob, ())
        assert not hit and len(loads) == 1
        assert worker_compiled(fingerprint, blob, ()) == (plain, True)
        assert len(loads) == 1  # a hit reads nothing from the blob
        overridden, hit = worker_compiled(fingerprint, blob, overrides)
        assert not hit and len(loads) == 2
        assert worker_compiled(fingerprint, blob, overrides) == (overridden, True)
        assert len(loads) == 2

    def test_concurrent_callers_unpickle_each_key_once(self, monkeypatch, toy_model):
        """Many threads missing on the same keys at once: the lock makes the
        lookup and the insert one step, so no key compiles twice."""
        monkeypatch.setattr(cache_module, "_WORKER_CACHE", cache_module.CompiledModelCache())
        loads = []
        real_loads = pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda data: loads.append(data) or real_loads(data))
        blob, fingerprint = model_blob(toy_model)
        keys = [(), (("kd", 0.2),), (("kd", 0.3),)]
        start = threading.Barrier(8)

        def caller():
            start.wait(timeout=10)
            for _ in range(3):
                for overrides in keys:
                    worker_compiled(fingerprint, blob, overrides)

        threads = [threading.Thread(target=caller) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(loads) == len(keys)


class TestPerIterationBatchStats:
    def test_interleaved_pool_streams_keep_their_own_stats(self, ode_job):
        """Opening a second stream on a shared executor must not clobber the
        first stream's counters (the pattern of concurrent studies)."""
        with ProcessPoolEnsembleExecutor(1) as executor:
            first = iter_ensemble(replicate_jobs(ode_job, 3, seed=1), executor=executor)
            next(first)  # first stream is mid-flight...
            second = iter_ensemble(replicate_jobs(ode_job, 3, seed=2), executor=executor)
            list(second)  # ...while the second runs start to finish...
            list(first)  # ...and the first finishes afterwards.
        assert first.stats.cache_hits + first.stats.cache_misses == 3
        assert second.stats.cache_hits + second.stats.cache_misses == 3
        # One worker, one model: exactly one compile across both streams.
        total_misses = first.stats.cache_misses + second.stats.cache_misses
        assert total_misses == 1

    def test_interleaved_serial_streams_keep_their_own_stats(self, ode_job):
        """The serial path used to report a cache-counter delta, which went
        wrong the moment two streams interleaved on one cache."""
        cache = CompiledModelCache()
        first = iter_ensemble(
            replicate_jobs(ode_job, 3, seed=1), executor=SerialExecutor(), cache=cache
        )
        next(first)
        second = iter_ensemble(
            replicate_jobs(ode_job, 3, seed=2), executor=SerialExecutor(), cache=cache
        )
        list(second)
        list(first)
        assert first.stats.cache_misses == 1
        assert first.stats.cache_hits == 2
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits == 3

    def test_concurrent_replicate_studies_inside_one_loop(self, and_circuit):
        """The web-service shape: several studies awaited together through
        ``asyncio.to_thread`` on one shared executor, each reporting its own
        statistics and the same bits as a study run alone."""
        n = 3
        spec = StudySpec.for_circuit(and_circuit, n_replicates=n, hold_time=80.0, seed=21)

        async def _together(executor):
            return await asyncio.gather(
                *(
                    asyncio.to_thread(run_replicate_study, spec, executor=executor)
                    for _ in range(3)
                )
            )

        # A warm one-worker pool: every concurrent study is all hits.
        with ProcessPoolEnsembleExecutor(1) as executor:
            warmup = run_replicate_study(spec, executor=executor)
            studies = asyncio.run(_together(executor))
        assert warmup.stats.cache_misses == 1
        for study in studies:
            assert study.stats.cache_misses == 0
            assert study.stats.cache_hits == n
            assert study.fitness_values == warmup.fitness_values

        # One serial executor shared by threads (and the process-wide cache):
        # every study equals the pool's, field for field.
        def _result(study):
            return {k: v for k, v in study.to_payload().items() if k != "engine"}

        studies = asyncio.run(_together(SerialExecutor()))
        assert [_result(study) for study in studies] == [_result(warmup)] * 3
        for study in studies:
            assert study.stats.cache_hits + study.stats.cache_misses == n


class TestTransformShape:
    def test_transform_yields_bare_mapped_values(self, ode_job):
        """A transform stream's items are exactly fn's return value — not the
        (index, job, trajectory) triples its class once promised."""
        stream = iter_ensemble(replicate_jobs(ode_job, 3, seed=5), workers=1)
        derived = stream.transform(lambda index, job, trajectory: index * 10)
        first = next(derived)
        assert first == 0
        assert not isinstance(first, tuple)
        assert list(derived) == [10, 20]

    def test_transform_can_yield_tuples_of_its_own(self, ode_job):
        stream = iter_ensemble(replicate_jobs(ode_job, 2, seed=5), workers=1)
        derived = stream.transform(
            lambda index, job, trajectory: (index, float(trajectory.times[-1]))
        )
        items = list(derived)
        assert [index for index, _ in items] == [0, 1]


class TestCacheModuleExports:
    def test_all_covers_the_worker_side_entry_points(self):
        assert "model_blob" in cache_module.__all__
        assert "worker_compiled" in cache_module.__all__
        for name in cache_module.__all__:
            assert hasattr(cache_module, name)

