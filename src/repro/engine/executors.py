"""In-process executors: the serial and process-pool transports.

Both executors are thin adapters over the engine's shared submission core
(:mod:`repro.engine.core`): they implement only the
:class:`~repro.engine.core.ExecutorBackend` transport protocol — ``submit`` /
``wait_any`` / ``capacity`` / lifecycle — and inherit windowed submission,
ordered-vs-completion delivery, cancel-on-failure and per-batch statistics
from :class:`~repro.engine.core.BaseEnsembleExecutor`.  The socket-based
multi-host transport lives in :mod:`repro.engine.distributed` behind the same
protocol.

* :class:`SerialExecutor` — runs every job in this process, reusing compiled
  models through the in-process :class:`~repro.engine.cache.CompiledModelCache`;
* :class:`ProcessPoolEnsembleExecutor` — fans jobs out to a
  :class:`concurrent.futures.ProcessPoolExecutor`; each worker keeps its own
  compiled-model cache keyed on a content fingerprint computed in the parent.

Executors have an explicit lifecycle: they are context managers with
``open()`` / ``close()``.  A process-pool executor keeps **one** live pool per
instance, created lazily on first use and reused across batches until
``close()`` — so a multi-batch study (settle phase, then transitions) hits
warm worker-side compiled-model caches on every batch after the first.
:func:`repro.engine.run_ensemble` closes executors it creates itself; pass
your own executor to keep the pool alive across calls.

Determinism contract: executors never *create* randomness.  Every job arrives
with its seed already fanned out from the root seed, so all executors — and
the streamed and materialized delivery modes — produce bit-identical
trajectories for the same job list.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Any, Callable, Collection, Mapping, Optional, Tuple

from ..errors import EngineError
from ..stochastic import resolve_simulator
from ..stochastic.batch import simulate_ssa_batch
from .cache import CompiledModelCache, default_cache
from .core import (
    BaseEnsembleExecutor,
    BatchCacheStats,
    ProgressHook,
    batch_job_groups,
)
from .jobs import SimulationJob

__all__ = [
    "ProgressHook",
    "BatchCacheStats",
    "SerialExecutor",
    "ProcessPoolEnsembleExecutor",
    "get_executor",
]

class _DeferredCall(concurrent.futures.Future):
    """A future whose work runs lazily, when the serial transport waits on it.

    Submission must not execute anything (the core submits a full window
    ahead), so the call is captured here and performed by
    :meth:`SerialExecutor.wait_any` — preserving the serial executor's
    one-job-per-pull laziness and letting ``Future.cancel`` drop abandoned
    work without ever running it.
    """

    def __init__(self, fn: Callable[[Any], Any], payload: Any):
        super().__init__()
        self._call = (fn, payload)

    def run(self) -> None:
        if not self.set_running_or_notify_cancel():
            return
        fn, payload = self._call
        try:
            self.set_result(fn(payload))
        except BaseException as error:  # noqa: B036 - relayed via the future
            self.set_exception(error)


class SerialExecutor(BaseEnsembleExecutor):
    """Run jobs one after another in the calling process.

    Holds no external resources, but implements the same lifecycle protocol as
    the pool executor (``open`` / ``close`` / context manager) so callers can
    treat any executor uniformly.  As a transport it is *lazy*: submitted
    calls execute only when the core waits for them, so pulling one result
    from a stream runs exactly one job.
    """

    name = "serial"
    workers = 1

    def submit(self, fn, payload) -> _DeferredCall:
        return _DeferredCall(fn, payload)

    def wait_any(
        self,
        pending: Mapping[concurrent.futures.Future, int],
    ) -> Collection[concurrent.futures.Future]:
        """Execute the oldest submitted call now (submission order == FIFO)."""
        future = next(iter(pending))
        future.run()
        return (future,)

    def _job_submissions(self, jobs, cache: Optional[CompiledModelCache]):
        """Run jobs in-process against the shared compiled-model cache."""
        chosen = cache if cache is not None else default_cache()

        def run(job: SimulationJob) -> Tuple[Any, bool]:
            compiled, cache_hit = chosen.lookup(job.model, job.frozen_overrides())
            simulate = resolve_simulator(job.simulator)
            trajectory = simulate(
                compiled,
                job.t_end,
                rng=job.seed,
                **job.simulate_kwargs(),
            )
            return trajectory, cache_hit

        return run, jobs

    def _batch_submissions(self, jobs, cache: Optional[CompiledModelCache], batch_size: int):
        """Run batches in-process: no envelopes, no result encoding.

        The same grouping as the remote path, but each payload is just the
        group's index list and the result is the group's trajectory list
        itself — the serial executor gets the one-compile-per-batch win
        without paying any transport.  Live ``Generator`` seeds are fine here
        (nothing crosses a process boundary), exactly as at ``batch_size=1``.
        """
        chosen = cache if cache is not None else default_cache()
        groups = batch_job_groups(jobs, batch_size)

        def run(group) -> Tuple[Any, bool]:
            first = jobs[group[0]]
            compiled, cache_hit = chosen.lookup(first.model, first.frozen_overrides())
            seeds = [jobs[index].seed for index in group]
            kwargs = first.simulate_kwargs()
            if first.simulator == "ssa":
                trajectories = simulate_ssa_batch(compiled, first.t_end, seeds, **kwargs)
            else:
                simulate = resolve_simulator(first.simulator)
                trajectories = [
                    simulate(compiled, first.t_end, rng=seed, **kwargs) for seed in seeds
                ]
            return trajectories, cache_hit

        return run, groups, groups


class ProcessPoolEnsembleExecutor(BaseEnsembleExecutor):
    """Run jobs on a persistent pool of worker processes.

    The underlying :class:`concurrent.futures.ProcessPoolExecutor` is created
    lazily on first use and **kept alive across batches** until :meth:`close`
    (or context-manager exit); a closed executor transparently re-opens a
    fresh pool on its next use.  Reusing one pool is what keeps worker-side
    compiled-model caches warm between the batches of a multi-batch study.

    Jobs must carry picklable seeds (``None``, ``int`` or ``SeedSequence``);
    a live generator cannot cross the process boundary without breaking the
    bit-identical-results contract, so it is rejected up front.

    One executor may serve several concurrent batches (e.g. independent
    studies multiplexed over one pool by :func:`repro.engine.gather_studies`):
    submission is thread-safe and each batch counts its own cache statistics
    into the :class:`BatchCacheStats` it was given.  ``last_cache_hits`` /
    ``last_cache_misses`` are kept as a snapshot of the most recently
    *finished* batch (the parent cache is never involved in pool execution).
    """

    name = "process-pool"

    def __init__(self, workers: int):
        if workers < 1:
            raise EngineError("a process-pool executor needs at least one worker")
        self.workers = int(workers)
        self.last_cache_hits = 0
        self.last_cache_misses = 0
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._lifecycle_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        """True while a live worker pool is attached to this executor."""
        return self._pool is not None

    def open(self) -> "ProcessPoolEnsembleExecutor":
        """Start the worker pool now (otherwise it starts on first use)."""
        with self._lifecycle_lock:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers,
                )
        return self

    def close(self) -> None:
        """Shut the worker pool down.  Idempotent; next use re-opens a pool."""
        with self._lifecycle_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self):  # pragma: no cover - GC safety net
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)

    # -- transport (wait_any: the base's first-completion wait) ----------------------
    def submit(self, fn, payload) -> concurrent.futures.Future:
        return self.open()._pool.submit(fn, payload)

    def _record_last_stats(self, stats: BatchCacheStats) -> None:
        self.last_cache_hits = stats.hits
        self.last_cache_misses = stats.misses


def get_executor(workers: int = 1):
    """The executor for a ``workers=N`` request: serial for 1, process pool for N>1."""
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ProcessPoolEnsembleExecutor(workers)
