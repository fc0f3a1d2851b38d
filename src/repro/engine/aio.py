"""Asyncio execution layer of the ensemble engine.

The synchronous engine blocks while a batch executes — fine for scripts and
the CLI, fatal inside an event loop (a web service running a replicate study
per request would stall every other request for the duration of the study).
This module is the non-blocking facade over the same execution machinery:

* :func:`aiter_ensemble` — the async twin of :func:`repro.engine.iter_ensemble`:
  an async generator yielding ``(index, job, trajectory)`` as runs complete,
  with the same bounded ``2 * capacity`` submission window, the same
  ordered/completion-order delivery modes, and the same bit-identical-seeds
  contract (seeds are fanned out before dispatch, so the async path produces
  exactly the trajectories the sync path would);
* :func:`arun_ensemble` — the async twin of :func:`repro.engine.run_ensemble`,
  materialized or ``reduce=``-streamed (the reducer may be a plain function
  or a coroutine function), returning the same :class:`EnsembleResult`;
* :class:`AsyncEnsembleExecutor` — an ``async with`` facade that owns one
  persistent executor (a process pool by default), so many async batches
  share warm worker-side compiled-model caches;
* :func:`gather_studies` — N independent studies (replicate studies, sweeps,
  threshold scans ...) executing *concurrently*, multiplexed over ONE shared
  warm pool.

How it stays non-blocking — and why it is now genuinely thin: there is
exactly ONE windowed submission loop in the engine
(:func:`repro.engine.core.iter_windowed`), shared by every transport, and the
async layer simply pulls that synchronous stream from worker threads via
:func:`asyncio.to_thread`.  Each pull blocks a worker thread, never the loop,
so the async path *is* the sync path — same code, same window accounting,
same delivery buffering, bit-identical results — rather than a re-implemented
mirror of it.  Any executor implementing the
:class:`~repro.engine.core.ExecutorBackend` protocol (serial, process pool,
socket-distributed) therefore gets async execution for free.  Each batch
counts its cache statistics into its own
:class:`~repro.engine.core.BatchCacheStats`, which is what makes the
concurrent-studies pattern report per-study numbers instead of clobbered
executor-global ones.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from contextlib import aclosing
from typing import (
    Any,
    AsyncIterator,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import EngineError
from ..stochastic.trajectory import Trajectory
from .api import EnsembleReducer, _batch_stats, _batching_kwargs
from .cache import CompiledModelCache, default_cache
from .core import BatchCacheStats, ProgressHook
from .executors import ProcessPoolEnsembleExecutor, get_executor
from .jobs import EnsembleResult, SimulationJob

__all__ = [
    "AsyncEnsembleExecutor",
    "aiter_ensemble",
    "arun_ensemble",
    "gather_studies",
]

#: A study, as :func:`gather_studies` sees it: a callable taking the shared
#: executor as its only argument.  Plain callables (e.g.
#: ``lambda ex: run_replicate_study(circuit, 20, executor=ex)``) run on a
#: worker thread; coroutine functions are awaited on the loop directly.
#: A :class:`~repro.engine.StudySpec` is accepted directly as shorthand for
#: ``lambda ex: run_replicate_study(spec, executor=ex)``.
Study = Callable[[Any], Any]


class AsyncEnsembleExecutor:
    """``async with`` facade over one persistent synchronous executor.

    Owns (or wraps) an executor — a :class:`ProcessPoolEnsembleExecutor` when
    built from ``workers=N``, or any :class:`~repro.engine.core.ExecutorBackend`
    adapter you pass in (including a
    :class:`~repro.engine.distributed.DistributedEnsembleExecutor`) — whose
    single live transport serves every batch submitted through the async
    APIs, so worker-side compiled-model caches stay warm across batches and
    across *concurrent* studies.  Opening and closing happen on a worker
    thread — pool startup and ``shutdown(wait=True)`` both block, and neither
    should stall the event loop.

    Wrapping an executor you opened yourself leaves its lifecycle with you:
    ``async with AsyncEnsembleExecutor(executor=mine)`` will not close
    ``mine`` on exit.
    """

    name = "async-process-pool"

    def __init__(
        self,
        workers: Optional[int] = None,
        executor=None,
    ):
        if (workers is None) == (executor is None):
            raise EngineError(
                "AsyncEnsembleExecutor needs exactly one of workers=N "
                "(to own a new pool executor) or executor= (to wrap yours)",
            )
        self._owns = executor is None
        self._executor = (
            executor if executor is not None else ProcessPoolEnsembleExecutor(workers)
        )

    @property
    def sync_executor(self):
        """The wrapped synchronous executor (for sync studies sharing the pool)."""
        return self._executor

    @property
    def workers(self) -> int:
        return self._executor.workers

    @property
    def is_open(self) -> bool:
        return getattr(self._executor, "is_open", True)

    async def aopen(self) -> "AsyncEnsembleExecutor":
        """Start the worker pool now, off-loop (otherwise it starts on first use)."""
        await asyncio.to_thread(self._executor.open)
        return self

    async def aclose(self) -> None:
        """Shut the pool down off-loop — only if this facade owns it."""
        if self._owns:
            await asyncio.to_thread(self._executor.close)

    async def __aenter__(self) -> "AsyncEnsembleExecutor":
        return await self.aopen()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


def _resolve_sync(executor):
    """The synchronous executor behind any accepted ``executor=`` argument."""
    if isinstance(executor, AsyncEnsembleExecutor):
        return executor.sync_executor
    return executor


#: Exhaustion marker for pulling a sync iterator from worker threads.
_EXHAUSTED = object()


async def _aclose_iterator(iterator) -> None:
    """Close a sync generator from the event loop, off-loop and race-safely.

    A cancelled pull may leave the generator executing ``next()`` on its
    worker thread; ``close()`` then raises ``ValueError`` ("generator already
    executing") until that pull returns.  Retry until the close lands — this
    is what guarantees an abandoned stream cancels its in-flight work and
    closes its transport deterministically, not at garbage collection.
    """
    closer = getattr(iterator, "close", None)
    if closer is None:
        return
    while True:
        try:
            await asyncio.to_thread(closer)
            return
        except ValueError:
            await asyncio.sleep(0.01)


async def aiter_ensemble(
    jobs: Sequence[SimulationJob],
    *,
    workers: int = 1,
    executor=None,
    cache: Optional[CompiledModelCache] = None,
    progress: Optional[ProgressHook] = None,
    ordered: bool = True,
    batch_stats: Optional[BatchCacheStats] = None,
    batch_size: int = 1,
) -> AsyncIterator[Tuple[int, SimulationJob, Trajectory]]:
    """Async generator over an executing ensemble: ``(index, job, trajectory)``.

    The asyncio twin of :func:`repro.engine.iter_ensemble`, safe to drive
    from inside an event loop: awaiting the next result never blocks the
    loop, because each pull of the underlying synchronous stream executes on
    a worker thread.  Submission, delivery order and seeds ARE the sync
    stream — the same :func:`repro.engine.core.iter_windowed` loop runs
    underneath, so at most ``2 * capacity`` undelivered results are in
    flight, ``ordered=True`` delivers in submission order / ``False`` in
    completion order, and trajectories are bit-identical to
    :func:`repro.engine.run_ensemble` for the same job list because every
    seed was fanned out before dispatch.

    ``executor`` may be any synchronous executor (serial, process-pool,
    distributed) or an :class:`AsyncEnsembleExecutor` facade; its lifecycle
    stays with the caller.  Without one, an ephemeral executor is built from
    ``workers=N`` — lazily, on the first ``async for`` pull, so a generator
    that is never started creates nothing — and closed (off-loop) when the
    generator finishes *or is closed early*: ``aclose()`` cancels in-flight
    runs and closes the ephemeral executor deterministically.
    ``batch_stats`` collects this batch's cache counters for callers
    assembling their own :class:`EnsembleStats`.  ``batch_size=B`` packs
    consecutive same-configuration jobs into batches of up to B replicates
    per dispatch, exactly as in the sync API — results, order and bits are
    unchanged.

    A ``break`` out of ``async for`` does *not* finalize an async generator
    immediately — cleanup would wait for garbage collection.  When you may
    exit early, iterate under :func:`contextlib.aclosing`::

        async with aclosing(aiter_ensemble(jobs, workers=8)) as stream:
            async for index, job, trajectory in stream:
                break  # cleanup now runs on leaving the with-block
    """
    jobs = list(jobs)
    if not jobs:
        raise EngineError("aiter_ensemble needs at least one job")
    owns_executor = executor is None
    chosen = _resolve_sync(executor) if executor is not None else get_executor(workers)
    cache = cache if cache is not None else default_cache()
    stats = batch_stats if batch_stats is not None else BatchCacheStats()
    iter_kwargs = _batching_kwargs(chosen, batch_size)
    # Third-party executors that predate the ``batch_stats`` keyword are
    # driven without it (their batches simply report no cache statistics).
    if getattr(chosen, "supports_batch_stats", False):
        iter_kwargs["batch_stats"] = stats
    iterator = iter(
        chosen.iter_jobs(jobs, cache=cache, progress=progress, ordered=ordered, **iter_kwargs)
    )
    try:
        while True:
            item = await asyncio.to_thread(next, iterator, _EXHAUSTED)
            if item is _EXHAUSTED:
                break
            index, trajectory = item
            yield index, jobs[index], trajectory
    finally:
        await _aclose_iterator(iterator)
        if owns_executor:
            await asyncio.to_thread(chosen.close)


async def arun_ensemble(
    jobs: Sequence[SimulationJob],
    *,
    workers: int = 1,
    executor=None,
    cache: Optional[CompiledModelCache] = None,
    progress: Optional[ProgressHook] = None,
    reduce: Optional[EnsembleReducer] = None,
    batch_size: int = 1,
) -> EnsembleResult:
    """Execute a batch without blocking the event loop; same result as sync.

    The asyncio twin of :func:`repro.engine.run_ensemble`: materializes every
    trajectory (in submission order) into an :class:`EnsembleResult`, or —
    with ``reduce=`` — streams, storing per-run summaries at ``.reduced`` and
    dropping each trajectory on completion.  The reducer may be a plain
    function or a coroutine function (awaited per run on the loop).
    Trajectories and statistics match the synchronous API for the same jobs,
    executor kind and root seed.
    """
    jobs = list(jobs)
    if not jobs:
        raise EngineError("arun_ensemble needs at least one job")
    owns_executor = executor is None
    chosen = _resolve_sync(executor) if executor is not None else get_executor(workers)
    cache = cache if cache is not None else default_cache()
    counter = BatchCacheStats() if getattr(chosen, "supports_batch_stats", False) else None
    trajectories: Optional[List[Optional[Trajectory]]] = None
    reduced: Optional[List[Any]] = None
    if reduce is not None:
        reduced = [None] * len(jobs)
    else:
        trajectories = [None] * len(jobs)
    hits_before, misses_before = cache.hits, cache.misses
    started = time.perf_counter()
    try:
        # aclosing: a reducer that raises must still cancel in-flight runs
        # now, not at garbage collection.
        async with aclosing(
            aiter_ensemble(
                jobs,
                executor=chosen,
                cache=cache,
                progress=progress,
                ordered=False,
                batch_stats=counter,
                batch_size=batch_size,
            ),
        ) as stream:
            async for index, job, trajectory in stream:
                if reduce is not None:
                    summary = reduce(index, job, trajectory)
                    if inspect.isawaitable(summary):
                        summary = await summary
                    reduced[index] = summary
                else:
                    trajectories[index] = trajectory
    finally:
        if owns_executor:
            await asyncio.to_thread(chosen.close)
    wall = time.perf_counter() - started
    stats = _batch_stats(
        chosen,
        len(jobs),
        wall,
        cache,
        hits_before,
        misses_before,
        counter=counter,
    )
    return EnsembleResult(jobs=jobs, trajectories=trajectories, stats=stats, reduced=reduced)


async def gather_studies(
    studies: Sequence[Study],
    *,
    workers: Optional[int] = None,
    executor=None,
    return_exceptions: bool = False,
) -> List[Any]:
    """Run independent studies concurrently over ONE shared warm pool.

    Each study is a callable receiving the shared synchronous executor as its
    only argument — e.g. ``lambda ex: run_replicate_study(circuit, 20,
    rng=7, executor=ex)`` or ``lambda ex: threshold_sweep(circuit, values,
    executor=ex)``.  Plain callables run on worker threads (their blocking
    waits never stall the loop); coroutine functions are awaited on the loop
    and may use :func:`arun_ensemble` / :func:`aiter_ensemble` directly.
    Every study submits its batches to the same persistent transport, so each
    distinct model compiles once per worker *across all studies* — every
    study after the first runs on warm worker-side caches — and per-batch
    :class:`~repro.engine.core.BatchCacheStats` keep each study's reported
    statistics its own.

    A :class:`StudySpec` may be passed in place of a callable — it runs as
    ``run_replicate_study(spec, executor=shared)``, which is how the HTTP
    service submits its requests.

    ``executor`` (any synchronous executor or an
    :class:`AsyncEnsembleExecutor`) is shared and left open; without one, an
    ephemeral executor is built from ``workers`` (serial when ``None``/1) and
    closed when all studies finish.  Results come back in ``studies`` order.
    Studies running on threads cannot be cancelled, so a failing study never
    aborts its siblings: every study always runs to completion, then either
    the full result list is returned (``return_exceptions=True`` puts a
    failed study's exception in its slot) or the first failure is re-raised.
    """
    from .spec import StudySpec

    def _spec_study(spec: StudySpec) -> Study:
        def run(shared):
            from ..analysis.replicates import run_replicate_study

            return run_replicate_study(spec, executor=shared)

        return run

    studies = [
        _spec_study(study) if isinstance(study, StudySpec) else study for study in studies
    ]
    if not studies:
        raise EngineError("gather_studies needs at least one study")
    owns_executor = executor is None
    chosen = _resolve_sync(executor) if executor is not None else get_executor(workers or 1)

    async def _run_study(study: Study) -> Any:
        if asyncio.iscoroutinefunction(study):
            return await study(chosen)
        result = await asyncio.to_thread(study, chosen)
        if inspect.isawaitable(result):
            return await result
        return result

    try:
        # Always gather with return_exceptions=True: raising early would
        # cancel sibling *tasks* but not their threads, and the finally below
        # would then shut the shared pool down under studies still running.
        results = await asyncio.gather(
            *(_run_study(study) for study in studies),
            return_exceptions=True,
        )
    finally:
        if owns_executor:
            await asyncio.to_thread(chosen.close)
    if not return_exceptions:
        for result in results:
            if isinstance(result, BaseException):
                raise result
    return results
